"""Self-edit loop: random sequences of mutator replies through `Trainer`.

Each rule is one patch round: the scripted mutator answers with one reply
text, parsed as the LLM mutator parses it, and `Trainer.step` trains on a
query and applies what parses. Whatever the replies, the registry keeps
exactly one early-exit and one direct-io operator, at most `MAX_OPERATORS`
operators and every prompt within `MAX_PROMPT_CHARS`, and the controller
keeps one output row per operator, its arrays views of one flat vector;
every operator but the early exit holds the `{input}` placeholder once. A
round whose reply is refused leaves the registry, the parameter bytes and
the sampling generator as they were when the mutator was asked.
"""

import json

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from maas.datagen import default_env, make_mixed_dataset
from maas.executor import QueryRecord
from maas.optimizer import parse_mutation
from maas.registry import (KIND_DIRECT_IO, KIND_EARLY_EXIT, MAX_OPERATORS,
                           MAX_PROMPT_CHARS, OperatorPatch)
from tests.helpers import flat_layout_faults, make_trainer, registry_json

RECORDS = [QueryRecord(**r) for r in make_mixed_dataset(2, 2)]
# the first operators in the catalogue, split clones of `cot` (present once
# it has been split), the protected pair and an id that never exists
OP_IDS = st.sampled_from(["cot", "cot", "debate", "react", "cot-b", "cot-b2",
                           "cot-b-b", "early_exit", "direct_io", "ghost"])
UNPARSEABLE = st.sampled_from([
    "not json", "[]", '{"new_prompt": "x"}', '{"target_id": "cot"}',
    '{"target_id": "cot", "new_temperature": 5.0}',
    '{"target_id": "cot", "structure_action": "merge"}',
])


class SelfEditMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.trainer = make_trainer(default_env(), self._reply, samples_k=2, patch_every=1)
        self.registry, self.state = self.trainer.registry, self.trainer.state
        self.reply_text = None
        self.at_reply = None

    def _reply(self, registry, window):
        self.at_reply = self._snapshot()
        return parse_mutation(self.reply_text)

    def _snapshot(self):
        """What a refused reply must leave as it was: the registry, the
        parameter bytes and the sampling generator's state."""
        return (registry_json(self.registry), self.state.params.tobytes(),
                self.trainer.rng.bit_generator.state)

    def _round(self, reply):
        """One training step whose patch round answers with `reply` (a dict
        is sent as JSON); returns the step's `patches_applied`."""
        self.reply_text = reply if isinstance(reply, str) else json.dumps(reply)
        query = RECORDS[self.trainer.step_count % len(RECORDS)]
        return self.trainer.step(query)["patches_applied"]

    def _round_changes_nothing(self, reply):
        assert self._round(reply) == 0
        assert self._snapshot() == self.at_reply

    @rule(op_id=OP_IDS, marker=st.sampled_from(["Be brief.", "Check twice."]))
    def edit_prompt(self, op_id, marker):
        self._round({"target_id": op_id, "new_prompt": marker + "\n{input}"})

    @rule(op_id=OP_IDS, temperature=st.floats(0.0, 2.0))
    def edit_temperature(self, op_id, temperature):
        self._round({"target_id": op_id, "new_temperature": temperature})

    @rule(op_id=OP_IDS)
    def split(self, op_id):
        self._round({"target_id": op_id, "structure_action": "split"})

    @rule(op_id=OP_IDS, partner=OP_IDS)
    def merge(self, op_id, partner):
        self._round({"target_id": op_id, "structure_action": "merge",
                     "merge_with_id": partner})

    @rule()
    def split_at_the_cap(self):
        """Split rounds until the registry holds `MAX_OPERATORS`, then one
        more split, which is refused."""
        op_id = next(s.id for s in self.registry.specs()
                     if s.kind not in (KIND_EARLY_EXIT, KIND_DIRECT_IO))
        split = {"target_id": op_id, "structure_action": "split"}
        while len(self.registry) < MAX_OPERATORS:
            assert self._round(split) == 1
        self._round_changes_nothing(split)

    @rule(op_id=OP_IDS)
    def rewire(self, op_id):
        self._round_changes_nothing({"target_id": op_id,
                                     "structure_action": "rewire"})

    @rule(reply=UNPARSEABLE)
    def unparseable(self, reply):
        self._round_changes_nothing(reply)

    @invariant()
    def one_exit_and_one_direct_io(self):
        kinds = [s.kind for s in self.registry.specs()]
        assert kinds.count(KIND_EARLY_EXIT) == 1
        assert kinds.count(KIND_DIRECT_IO) == 1

    @invariant()
    def within_the_bounds(self):
        assert len(self.registry) <= MAX_OPERATORS
        assert all(len(s.prompt) <= MAX_PROMPT_CHARS for s in self.registry.specs())

    @invariant()
    def each_query_goes_out_once(self):
        assert all(s.prompt.count("{input}") == 1 for s in self.registry.specs()
                   if s.kind != KIND_EARLY_EXIT)

    @invariant()
    def controller_rows_match_registry(self):
        n = len(self.registry)
        assert self.state.n_ops == n
        for ctrl in self.state.layers:
            assert ctrl.W2.shape[0] == ctrl.b2.shape[0] == n
        assert flat_layout_faults(self.state) == []


SelfEditMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestSelfEditMachine = SelfEditMachine.TestCase


def test_a_mutator_that_always_splits_stops_at_the_cap():
    """Every round splits "cot": each split is applied until the registry
    holds `MAX_OPERATORS`, the rest are skipped, and the run ends with one
    controller row per operator."""
    split = OperatorPatch("cot", structure_action="split")
    trainer = make_trainer(default_env(), lambda registry, window: split,
                           samples_k=2, patch_every=1)
    room = MAX_OPERATORS - len(trainer.registry)
    metrics = trainer.run(RECORDS, iterations=8)
    assert [m["patches_applied"] for m in metrics] \
        == [1] * room + [0] * (len(metrics) - room) and len(metrics) > room
    assert len(trainer.registry) == trainer.state.n_ops == MAX_OPERATORS
    assert all(ctrl.W2.shape[0] == MAX_OPERATORS for ctrl in trainer.state.layers)
    assert flat_layout_faults(trainer.state) == []
