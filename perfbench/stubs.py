"""In-process stand-ins for the chat backend used by the `selfedit_live` workload.

Both are transports in the shape `LiveEnv` and `LLMMutator` accept,
`(url, payload, headers) -> (status, body)`, so the program under test runs its
real `render_prompt` / `live_call` / `parse_mutation` code and never opens a
socket. Every reply is drawn from a generator seeded by the benchmark seed, so
one seed always yields the same run.
"""

from __future__ import annotations

import json
import random

from maas.datagen import default_env
from maas.executor import render_prompt
from maas.registry import KIND_EARLY_EXIT

FAIL_STATUS = 503
# Share of first attempts answered with FAIL_STATUS. No measured source: it
# only has to be large enough that `live_call`'s retry path runs every step.
FAIL_SHARE = 0.1
CANDIDATES_HEADER = "\n\nCandidate answers from earlier agents:\n"


def _reply(content, prompt_tokens, completion_tokens):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


class OperatorBackend:
    """Answers operator calls for a known set of queries with the program's
    own operator model.

    It finds the query in the rendered prompt and the operator in `registry`
    (the live one, which patches change) whose rendering of that query the
    prompt starts with. The answer is then drawn as `default_env()` draws it:
    that operator's `base_success`, `difficulty_slope` and `combine_bonus`
    from `datagen.default_profiles()`, the bonus applying when an earlier
    agent's candidate is right; split clones take their parent's profile.
    Token usage grows with the prompt length. A share of first attempts gets
    a 503, never twice in a row, so `live_call`'s retry path runs.
    """

    def __init__(self, seed, records, registry):
        self._rng = random.Random(seed)
        # Longest first, so a query that is a prefix of another never wins.
        self._queries = sorted(records, key=lambda r: -len(r.query))
        self._registry = registry
        self._env = default_env()
        self._last_failed = False
        self.failures = 0
        self.calls = 0

    def operator(self, prompt, query_text):
        """The operator whose prompt this is. A split clone renders like its
        parent until it is edited; both share a profile, so either answers."""
        found = None
        for spec in self._registry.specs():
            if spec.kind == KIND_EARLY_EXIT:
                continue
            head = render_prompt(spec, query_text, ())
            rest = prompt[len(head):]
            if prompt.startswith(head) and (not rest or rest.startswith(CANDIDATES_HEADER)):
                if found is not None and (self._env.profile_for(found)
                                          is not self._env.profile_for(spec)):
                    raise ValueError(f"prompt renders as both {found.id!r} and {spec.id!r}")
                found = spec
        if found is None:
            raise ValueError("prompt matches no operator in the registry")
        return found

    def __call__(self, url, payload, headers):
        self.calls += 1
        if not self._last_failed and self._rng.random() < FAIL_SHARE:
            self._last_failed = True
            self.failures += 1
            return FAIL_STATUS, {}
        self._last_failed = False
        prompt = payload["messages"][0]["content"]
        record = next(r for r in self._queries if r.query in prompt)
        spec = self.operator(prompt, record.query)
        candidates = prompt.partition(CANDIDATES_HEADER)[2]
        predecessors = [line[2:] for line in candidates.splitlines()]
        content, _, _ = self._env.run_node(spec, record, predecessors, self._rng)
        return 200, _reply(content, len(prompt) // 4, 8 + len(content) // 4)


# "{operator}" becomes the target's id, so no two operators share a prompt
# and `OperatorBackend.operator` can always tell them apart.
PROMPT_VARIANTS = (
    "As {operator}, work through the problem below carefully and give only"
    " the final answer.\n\nProblem:\n{input}",
    "As {operator}, restate the problem below in your own words, solve it,"
    " and check the result before answering.\n\nProblem:\n{input}",
)
TEMPERATURES = (0.4, 0.7, 1.0, 1.3)
ROUND_ACTIONS = ("prompt", "temperature", "split", "rewire", "prompt", "merge")


class MutatorBackend:
    """Scripted textual-gradient replies that cycle through every kind of edit.

    Rounds cycle through prompt rewrites between two fixed variants (each
    naming its target), temperature moves, `rewire`, and `split` followed two rounds later by
    `merge` of the clone back into its parent. Each operator is split and
    merged at most once per run: a second split of one operator raises
    `DuplicateId`, and repeated split/merge-back doubles the parent's prompt
    each time without bound. Once every operator has had its turn, split and
    merge rounds fall back to temperature and prompt edits.

    It never answers with an error status: `LLMMutator` passes no `sleep`
    to `live_call`, so a retry would really wait.
    """

    def __init__(self, seed, splittable_ids):
        self._rng = random.Random(seed)
        self._splittable = list(splittable_ids)
        self._unsplit = list(splittable_ids)
        self._pending = None  # parent whose clone awaits the merge back
        self.rounds = 0

    def _target(self):
        return self._rng.choice(self._splittable)

    def _edit(self, action):
        if action == "split" and self._unsplit and self._pending is None:
            self._pending = self._unsplit.pop(0)
            return {"target_id": self._pending, "structure_action": "split"}
        if action == "merge" and self._pending is not None:
            parent, self._pending = self._pending, None
            return {"target_id": parent, "structure_action": "merge",
                    "merge_with_id": parent + "-b"}
        if action == "rewire":
            target = self._pending + "-b" if self._pending else self._target()
            return {"target_id": target, "structure_action": "rewire"}
        if action in ("temperature", "split"):
            return {"target_id": self._target(),
                    "new_temperature": self._rng.choice(TEMPERATURES)}
        target = self._target()
        return {"target_id": target,
                "new_prompt": self._rng.choice(PROMPT_VARIANTS).replace("{operator}", target)}

    def __call__(self, url, payload, headers):
        edit = self._edit(ROUND_ACTIONS[self.rounds % len(ROUND_ACTIONS)])
        self.rounds += 1
        edit["thought"] = f"round {self.rounds}: revise {edit['target_id']}"
        prompt = payload["messages"][0]["content"]
        content = json.dumps(edit)
        return 200, _reply(content, len(prompt) // 4, len(content) // 4)
