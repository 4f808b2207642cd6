"""Registry: catalog contents, patch semantics, structural invariants."""

import pytest
from hypothesis import given, strategies as st

from maas.errors import (
    DuplicateId,
    InvalidPatch,
    InvalidTemperature,
    MergeUnknownPartner,
    PatchOnExitOperator,
    ProtectedOperator,
    SecondDirectIO,
    SecondEarlyExit,
    UnknownTarget,
)
from maas.registry import (
    KIND_DIRECT_IO,
    KIND_EARLY_EXIT,
    KIND_GENERATIVE,
    OperatorPatch,
    OperatorRegistry,
    OperatorSpec,
    builtin_catalog,
    builtin_registry,
)


def make_spec(op_id, kind=KIND_GENERATIVE, temperature=1.0, prompt="p {input}"):
    return OperatorSpec(
        id=op_id,
        name=op_id,
        prompt=prompt if kind != KIND_EARLY_EXIT else "",
        model_binding="default",
        temperature=temperature,
        tools=(),
        agent_count=1,
        profile_text="" if kind == KIND_EARLY_EXIT else f"profile of {op_id}",
        kind=kind,
    )


class TestBuiltinCatalog:
    def test_size_and_distinguished_kinds(self):
        catalog = builtin_catalog()
        assert len(catalog) == 9
        assert sum(s.kind == KIND_EARLY_EXIT for s in catalog) == 1
        assert sum(s.kind == KIND_DIRECT_IO for s in catalog) == 1

    def test_deterministic(self):
        a = builtin_registry().to_json()
        b = builtin_registry().to_json()
        assert a == b

    def test_self_consistency_agent_count(self):
        reg = builtin_registry()
        assert reg.get("self_consistency").agent_count == 5

    def test_debate_agent_count(self):
        assert builtin_registry().get("debate").agent_count == 3

    def test_early_exit_shape(self):
        exit_spec = builtin_registry().get("early_exit")
        assert exit_spec.prompt == ""
        assert exit_spec.agent_count == 1
        assert exit_spec.tools == ()

    def test_all_temperatures_in_range(self):
        for spec in builtin_catalog():
            assert 0.0 <= spec.temperature <= 2.0


class TestRegister:
    def test_single_registration(self):
        reg = OperatorRegistry().register(make_spec("exit", KIND_EARLY_EXIT))
        assert len(reg) == 1

    def test_duplicate_id_rejected(self):
        reg = OperatorRegistry().register(make_spec("cot"))
        with pytest.raises(DuplicateId):
            reg.register(make_spec("cot"))

    def test_second_early_exit_rejected(self):
        reg = OperatorRegistry().register(make_spec("exit", KIND_EARLY_EXIT))
        with pytest.raises(SecondEarlyExit):
            reg.register(make_spec("exit2", KIND_EARLY_EXIT))

    def test_second_direct_io_rejected(self):
        reg = OperatorRegistry().register(make_spec("io", KIND_DIRECT_IO))
        with pytest.raises(SecondDirectIO):
            reg.register(make_spec("io2", KIND_DIRECT_IO))

    def test_bad_temperature_rejected(self):
        with pytest.raises(InvalidTemperature):
            OperatorRegistry().register(make_spec("hot", temperature=2.5))

    def test_insertion_order_is_index(self):
        reg = builtin_registry()
        assert reg.ids() == [s.id for s in builtin_catalog()]
        assert reg.index_of("cot") == 0
        assert reg.index_of("direct_io") == 8


class TestApplyPatch:
    def test_temperature_patch(self):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", new_temperature=0.5))
        assert reg.get("cot").temperature == 0.5
        # everything else untouched
        assert reg.get("debate").temperature == 1.0
        assert len(reg) == 9

    def test_prompt_patch(self):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", new_prompt="new {input}"))
        assert reg.get("cot").prompt == "new {input}"

    def test_split_appends_clone(self):
        reg = builtin_registry()
        change = reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        assert len(reg) == 10
        assert reg.ids()[-1] == "cot-b"
        assert reg.get("cot-b").profile_text == reg.get("cot").profile_text
        assert change.action == "split"
        assert change.parent_index == 0
        # untouched indices stable
        assert reg.index_of("debate") == 1

    def test_repeated_split_takes_first_free_clone_id(self):
        reg = builtin_registry()
        for _ in range(3):
            reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        reg.apply_patch(OperatorPatch("cot-b", structure_action="split"))
        assert reg.ids()[-4:] == ["cot-b", "cot-b2", "cot-b3", "cot-b-b"]
        assert [reg.get(i).name for i in ("cot-b", "cot-b2")] \
            == ["Chain-of-Thought (b)", "Chain-of-Thought (b2)"]
        reg.apply_patch(OperatorPatch("cot", structure_action="merge",
                                      merge_with_id="cot-b"))
        change = reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        assert reg.ids()[-1] == "cot-b"  # freed by the merge
        assert change.parent_index == reg.index_of("cot")
        assert len(set(reg.ids())) == len(reg) == 13

    def test_merge_removes_partner_and_concatenates(self):
        reg = builtin_registry()
        cot_prompt = reg.get("cot").prompt
        testing_prompt = reg.get("testing").prompt
        change = reg.apply_patch(
            OperatorPatch("cot", structure_action="merge", merge_with_id="testing")
        )
        assert len(reg) == 8
        assert "testing" not in reg
        assert reg.get("cot").prompt == cot_prompt + "\n" + testing_prompt
        assert change.action == "merge"
        assert change.removed_index == 5
        # indices past the removed one shift down by one
        assert reg.index_of("react") == 5

    def test_rewire_sets_flag(self):
        reg = builtin_registry()
        assert reg.apply_patch(OperatorPatch("react", structure_action="rewire")) is None
        assert "react" in reg.rewire_ids

    def test_patch_on_exit_rejected(self):
        with pytest.raises(PatchOnExitOperator):
            builtin_registry().apply_patch(OperatorPatch("early_exit", new_prompt="x"))

    def test_unknown_target(self):
        with pytest.raises(UnknownTarget):
            builtin_registry().apply_patch(OperatorPatch("ghost", new_prompt="x"))

    def test_merge_unknown_partner(self):
        with pytest.raises(MergeUnknownPartner):
            builtin_registry().apply_patch(
                OperatorPatch("cot", structure_action="merge", merge_with_id="ghost")
            )

    def test_empty_patch_rejected(self):
        with pytest.raises(InvalidPatch):
            OperatorPatch("cot").validate()

    def test_split_direct_io_rejected(self):
        with pytest.raises(ProtectedOperator):
            builtin_registry().apply_patch(
                OperatorPatch("direct_io", structure_action="split")
            )

    @pytest.mark.parametrize("patch,error", [
        (OperatorPatch("direct_io", new_prompt="edited {input}",
                       structure_action="split"), ProtectedOperator),
        (OperatorPatch("cot", new_prompt="edited {input}", new_temperature=0.2,
                       structure_action="merge", merge_with_id="cot"), InvalidPatch),
        (OperatorPatch("cot", new_prompt="edited {input}", structure_action="merge",
                       merge_with_id="direct_io"), ProtectedOperator),
        (OperatorPatch("cot", new_prompt="edited {input}", structure_action="merge",
                       merge_with_id="nope"), MergeUnknownPartner),
    ])
    def test_rejected_patch_leaves_registry_unchanged(self, patch, error):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        before = reg.to_json()
        with pytest.raises(error):
            reg.apply_patch(patch)
        assert reg.to_json() == before

    def test_merge_away_protected_rejected(self):
        with pytest.raises(ProtectedOperator):
            builtin_registry().apply_patch(
                OperatorPatch("cot", structure_action="merge", merge_with_id="direct_io")
            )

    def test_no_op_patch_sequence_serialization_stable(self):
        reg = builtin_registry()
        before = reg.to_json()
        reg.apply_patch(OperatorPatch("cot", new_prompt=reg.get("cot").prompt))
        reg.apply_patch(OperatorPatch("cot", new_temperature=1.0))
        assert reg.to_json() == before


@given(st.lists(st.sampled_from(["split_cot", "merge", "temp", "rewire"]), max_size=6))
def test_patched_registry_keeps_distinguished_invariant(actions):
    """After any valid patch sequence there is exactly one exit and one
    direct-io operator."""
    reg = builtin_registry()
    for act in actions:
        try:
            if act == "split_cot":
                reg.apply_patch(OperatorPatch("cot", structure_action="split"))
            elif act == "merge":
                reg.apply_patch(
                    OperatorPatch("debate", structure_action="merge",
                                  merge_with_id="ensemble")
                )
            elif act == "temp":
                reg.apply_patch(OperatorPatch("react", new_temperature=0.7))
            else:
                reg.apply_patch(OperatorPatch("testing", structure_action="rewire"))
        except (MergeUnknownPartner, UnknownTarget):
            continue
    specs = reg.specs()
    assert sum(s.kind == KIND_EARLY_EXIT for s in specs) == 1
    assert sum(s.kind == KIND_DIRECT_IO for s in specs) == 1


def test_round_trip_serialization():
    reg = builtin_registry()
    reg.apply_patch(OperatorPatch("react", structure_action="rewire"))
    restored = OperatorRegistry.from_dict(reg.to_dict())
    assert restored.to_json() == reg.to_json()
