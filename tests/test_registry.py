"""Registry: catalog contents, patch semantics, structural invariants."""

import json
import re
from dataclasses import asdict, replace

import pytest
from hypothesis import given, strategies as st

from maas.errors import DataError
from maas.executor import render_prompt
from maas.registry import (
    KIND_DIRECT_IO,
    KIND_EARLY_EXIT,
    MAX_OPERATORS,
    MAX_PROMPT_CHARS,
    OperatorPatch,
    OperatorRegistry,
    OperatorSpec,
    builtin_catalog,
    builtin_registry,
)
from tests.helpers import empty_headers, make_spec, registry_json, with_exit_and_io


class TestBuiltinCatalog:
    def test_size_and_distinguished_kinds(self):
        catalog = builtin_catalog()
        assert len(catalog) == 9
        assert sum(s.kind == KIND_EARLY_EXIT for s in catalog) == 1
        assert sum(s.kind == KIND_DIRECT_IO for s in catalog) == 1

    def test_deterministic(self):
        a = registry_json(builtin_registry())
        b = registry_json(builtin_registry())
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

    def test_all_temperatures_in_range(self):
        for spec in builtin_catalog():
            assert 0.0 <= spec.temperature <= 2.0


class TestRegister:
    """`OperatorRegistry(specs)` builds a registry whole, or raises."""

    def test_single_registration(self):
        reg = OperatorRegistry(with_exit_and_io())  # the least a registry holds
        assert (len(reg), reg.early_exit_index, reg.direct_io_id) == (2, 0, "io")

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataError, match="^operator id 'cot' already registered$"):
            OperatorRegistry(with_exit_and_io(make_spec("cot"), make_spec("cot")))

    def test_second_early_exit_rejected(self):
        with pytest.raises(DataError, match="^registry already has an early-exit operator$"):
            OperatorRegistry(with_exit_and_io(make_spec("exit2", KIND_EARLY_EXIT)))

    def test_second_direct_io_rejected(self):
        with pytest.raises(DataError, match="^registry already has a direct-io operator$"):
            OperatorRegistry(with_exit_and_io(make_spec("io2", KIND_DIRECT_IO)))

    @pytest.mark.parametrize("kind", [KIND_EARLY_EXIT, KIND_DIRECT_IO])
    def test_missing_exit_or_direct_io_rejected(self, kind):
        specs = [s for s in with_exit_and_io(make_spec("cot")) if s.kind != kind]
        with pytest.raises(DataError, match="^registry lacks its early-exit or direct-io"
                                            " operator$"):
            OperatorRegistry(specs)

    def test_bad_temperature_rejected(self):
        with pytest.raises(DataError, match=r"temperature 2\.5 outside \[0, 2\] for 'hot'"):
            make_spec("hot", temperature=2.5)

    def test_operator_count_is_capped(self):
        """At `MAX_OPERATORS` a registry builds, and a split is refused
        before its first write; one more operator and it does not build."""
        specs = with_exit_and_io(*(make_spec(f"op{i}") for i in range(MAX_OPERATORS - 2)))
        reg = OperatorRegistry(specs)
        assert len(reg) == MAX_OPERATORS
        before = (registry_json(reg), held_lookups(reg))
        with pytest.raises(DataError, match=f"^registry cannot hold more than"
                                            f" {MAX_OPERATORS} operators$"):
            reg.apply_patch(OperatorPatch("op0", new_prompt="edited {input}",
                                          structure_action="split"))
        assert (registry_json(reg), held_lookups(reg)) == before
        with pytest.raises(DataError, match=f"more than {MAX_OPERATORS} operators"):
            OperatorRegistry([*specs, make_spec("one_more")])
        # the catalogue, split once per operator as the benchmark's stub
        # splits, stays below the cap
        assert 2 * len(builtin_catalog()) < MAX_OPERATORS

    def test_prompt_length_is_bounded(self):
        make_spec("long", prompt="x" * MAX_PROMPT_CHARS)  # at the bound: accepted
        with pytest.raises(DataError, match=f"prompt of 'long' holds"
                           f" {MAX_PROMPT_CHARS + 1} chars, over {MAX_PROMPT_CHARS}"):
            make_spec("long", prompt="x" * (MAX_PROMPT_CHARS + 1))
        assert max(len(s.prompt) for s in builtin_catalog()) < MAX_PROMPT_CHARS // 64

    def test_insertion_order_is_index(self):
        reg = builtin_registry()
        assert reg.ids() == [s.id for s in builtin_catalog()]
        assert reg.index_of("cot") == 0
        assert reg.index_of("direct_io") == 8


class TestSpecToDict:
    def test_equals_asdict_form_for_builtin_specs_and_a_split_clone(self):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        reg.apply_patch(OperatorPatch("cot-b", new_prompt="again {input}",
                                      new_temperature=0.3))
        assert "cot-b" in reg.ids()
        for spec in reg.specs():
            want = asdict(spec)
            got = spec.to_dict()
            assert list(got) == list(want)  # field order, so JSON bytes too
            assert got == want
            assert json.dumps(got) == json.dumps(want)
            assert OperatorSpec.from_dict(got) == spec


class TestApplyPatch:
    def test_temperature_patch(self):
        reg = builtin_registry()
        assert reg.apply_patch(OperatorPatch("cot", new_temperature=0.5)) is None
        assert reg.get("cot").temperature == 0.5
        # everything else untouched
        assert reg.get("debate").temperature == 1.0
        assert len(reg) == 9

    def test_prompt_patch(self):
        reg = builtin_registry()
        assert reg.apply_patch(OperatorPatch("cot", new_prompt="new {input}")) is None
        assert reg.get("cot").prompt == "new {input}"

    def test_split_appends_clone(self):
        reg = builtin_registry()
        moved = reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        assert len(reg) == 10
        assert reg.ids()[-1] == "cot-b"
        assert reg.get("cot-b").profile_text == reg.get("cot").profile_text
        assert moved == 0  # the row the clone copies
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
        moved = reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        assert reg.ids()[-1] == "cot-b"  # freed by the merge
        assert moved == reg.index_of("cot")
        assert len(set(reg.ids())) == len(reg) == 13

    def test_merge_removes_partner_and_concatenates(self):
        reg = builtin_registry()
        cot_prompt = reg.get("cot").prompt
        testing_prompt = reg.get("testing").prompt
        moved = reg.apply_patch(
            OperatorPatch("cot", structure_action="merge", merge_with_id="testing")
        )
        assert len(reg) == 8
        assert "testing" not in reg
        merged = reg.get("cot").prompt
        # testing's text goes in without its "Problem:" header and its query
        assert merged == cot_prompt + (
            "\nDesign concrete test cases for the candidate solution to the"
            " problem below, run them mentally, and report whether the"
            " solution survives.")
        # one placeholder, and both instruction texts kept
        assert merged.count("{input}") == 1 and merged.startswith(cot_prompt)
        assert testing_prompt.split("\n\n")[0] in merged
        assert moved == 5  # the row merged away
        # indices past the removed one shift down by one
        assert reg.index_of("react") == 5

    def test_merged_operator_renders_its_query_once(self):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", structure_action="merge",
                                      merge_with_id="debate"))
        assert render_prompt(reg.get("cot"), "QUERYTEXT", []).count("QUERYTEXT") == 1

    def test_merged_operator_leaves_no_header_empty(self):
        """The query sits under the last header of the rendered merge."""
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", structure_action="merge",
                                      merge_with_id="debate"))
        rendered = render_prompt(reg.get("cot"), "QUERYTEXT", [])
        assert empty_headers(rendered) == []
        lines = rendered.split("\n")
        last_header = max(i for i, line in enumerate(lines) if line.endswith(":"))
        assert lines[last_header + 1] == "QUERYTEXT"

    def test_merge_keeps_the_text_after_the_partners_query(self):
        """A partner edited after `{input}`, as the mock mutator edits,
        keeps that text in the merge."""
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        clone = reg.get("cot-b").prompt
        reg.apply_patch(OperatorPatch("cot-b", new_prompt=clone + "\nCheck twice."))
        reg.apply_patch(OperatorPatch("cot", structure_action="merge",
                                      merge_with_id="cot-b"))
        assert reg.get("cot").prompt == clone + "\n" + clone.split("\n\n")[0] + (
            "\nCheck twice.")

    def test_merging_back_an_unedited_clone_undoes_the_split(self):
        reg = builtin_registry()
        before = reg.to_dict()
        reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        reg.apply_patch(OperatorPatch("cot", structure_action="merge",
                                      merge_with_id="cot-b"))
        assert reg.to_dict() == before

    def test_patch_on_exit_rejected(self):
        with pytest.raises(DataError, match="cannot patch the early-exit"):
            builtin_registry().apply_patch(OperatorPatch("early_exit", new_prompt="x"))

    def test_unknown_target(self):
        with pytest.raises(DataError, match="no operator 'ghost'"):
            builtin_registry().apply_patch(OperatorPatch("ghost", new_prompt="x"))

    def test_merge_unknown_partner(self):
        with pytest.raises(DataError, match="no operator 'ghost'"):
            builtin_registry().apply_patch(
                OperatorPatch("cot", structure_action="merge", merge_with_id="ghost")
            )

    def test_empty_patch_rejected(self):
        with pytest.raises(DataError, match="patch sets nothing"):
            OperatorPatch("cot")

    @pytest.mark.parametrize("fields", [
        {"target_id": ""},
        {"target_id": 5},
        {"new_prompt": 5},
        {"structure_action": "merge", "merge_with_id": ["debate"]},
        {"structure_action": ["split"]},
        {"new_temperature": "hot"},
        {"new_temperature": True},
    ], ids=["empty_target", "int_target", "int_prompt", "list_partner", "list_action",
            "string_temperature", "bool_temperature"])
    def test_field_of_wrong_type_rejected(self, fields):
        with pytest.raises(DataError, match="^(patch target_id must be non-empty"
                                            "|(target_id|new_prompt|merge_with_id"
                                            "|structure_action|new_temperature) .* is not a)"):
            OperatorPatch(**{"target_id": "cot", "new_prompt": "x", **fields})

    def test_split_direct_io_rejected(self):
        with pytest.raises(DataError, match="cannot split the direct-io"):
            builtin_registry().apply_patch(
                OperatorPatch("direct_io", structure_action="split")
            )

    @pytest.mark.parametrize("patch,message", [
        (OperatorPatch("direct_io", new_prompt="edited {input}",
                       structure_action="split"), "cannot split the direct-io"),
        (OperatorPatch("cot", new_prompt="edited {input}", new_temperature=0.2,
                       structure_action="merge", merge_with_id="cot"),
         "cannot merge an operator with itself"),
        (OperatorPatch("cot", new_prompt="edited {input}", structure_action="merge",
                       merge_with_id="direct_io"), "cannot merge away 'direct_io'"),
        (OperatorPatch("cot", new_prompt="edited {input}", structure_action="merge",
                       merge_with_id="nope"), "no operator 'nope'"),
        (OperatorPatch("cot", new_prompt="Solve it.", structure_action="split"),
         r"new prompt for 'cot' lacks the \{input\} placeholder"),
        (OperatorPatch("cot", new_prompt="{input}\nAgain: {input}",
                       structure_action="split"),
         r"new prompt for 'cot' holds the \{input\} placeholder more than once"),
    ], ids=["split_direct_io", "merge_itself", "merge_direct_io", "merge_unknown",
            "prompt_without_input", "prompt_with_two_inputs"])
    def test_rejected_patch_leaves_registry_unchanged(self, patch, message):
        reg = builtin_registry()
        reg.apply_patch(OperatorPatch("cot", structure_action="split"))
        before = registry_json(reg)
        with pytest.raises(DataError, match=message):
            reg.apply_patch(patch)
        assert registry_json(reg) == before

    def test_merge_away_protected_rejected(self):
        with pytest.raises(DataError, match="cannot merge away 'direct_io'"):
            builtin_registry().apply_patch(
                OperatorPatch("cot", structure_action="merge", merge_with_id="direct_io")
            )

    def test_no_op_patch_sequence_serialization_stable(self):
        reg = builtin_registry()
        before = registry_json(reg)
        reg.apply_patch(OperatorPatch("cot", new_prompt=reg.get("cot").prompt))
        reg.apply_patch(OperatorPatch("cot", new_temperature=1.0))
        assert registry_json(reg) == before


# patch sequences: each action a patch `apply_action` applies
PATCH_ACTIONS = st.lists(st.sampled_from(["split_cot", "merge", "temp", "rewire",
                                           "edit_clone", "merge_back"]), max_size=6)


def apply_action(reg, act):
    """Apply the patch `act` names; a patch whose operator a merge took
    away, or that names `cot-b` before a split, raises `DataError` "no
    operator", and a rewire leaves the registry as it was."""
    if act == "split_cot":
        reg.apply_patch(OperatorPatch("cot", structure_action="split"))
    elif act == "edit_clone":
        # as the mock mutator edits: a sentence after the query
        reg.apply_patch(OperatorPatch("cot-b", new_prompt=(
            reg.get("cot-b").prompt + "\nDouble-check each step.")))
    elif act == "merge_back":
        reg.apply_patch(OperatorPatch("cot", structure_action="merge",
                                      merge_with_id="cot-b"))
    elif act == "merge":
        reg.apply_patch(
            OperatorPatch("debate", structure_action="merge", merge_with_id="ensemble")
        )
    elif act == "temp":
        reg.apply_patch(OperatorPatch("react", new_temperature=0.7))
    else:
        before = registry_json(reg)
        with pytest.raises(DataError, match="unknown structure_action 'rewire'"):
            reg.apply_patch(OperatorPatch("testing", structure_action="rewire"))
        assert registry_json(reg) == before


@given(PATCH_ACTIONS)
def test_patched_registry_keeps_distinguished_invariant(actions):
    """After any valid patch sequence there is exactly one exit and one
    direct-io operator."""
    reg = builtin_registry()
    for act in actions:
        try:
            apply_action(reg, act)
        except DataError as exc:
            assert "no operator" in str(exc)
            continue
    specs = reg.specs()
    assert sum(s.kind == KIND_EARLY_EXIT for s in specs) == 1
    assert sum(s.kind == KIND_DIRECT_IO for s in specs) == 1


@given(PATCH_ACTIONS)
def test_patched_registry_sends_each_query_once(actions):
    """After any patch sequence, and then a merge of the distinct `testing`
    into `cot`, every operator but the early exit holds the `{input}`
    placeholder exactly once, and renders with no header left empty."""
    reg = builtin_registry()
    for act in actions:
        try:
            apply_action(reg, act)
        except DataError:
            pass
    reg.apply_patch(OperatorPatch("cot", structure_action="merge", merge_with_id="testing"))
    specs = [s for s in reg.specs() if s.kind != KIND_EARLY_EXIT]
    assert all(s.prompt.count("{input}") == 1 for s in specs)
    assert [empty_headers(render_prompt(s, "QUERYTEXT", [])) for s in specs] == (
        [[]] * len(specs))


def scanned_lookups(reg):
    """The lookups the registry holds, by a fresh scan of its operators:
    ids, index of each id, early-exit index, direct-io id."""
    specs = reg.specs()
    return ([s.id for s in specs], {s.id: i for i, s in enumerate(specs)},
            next(i for i, s in enumerate(specs) if s.kind == KIND_EARLY_EXIT),
            next(s.id for s in specs if s.kind == KIND_DIRECT_IO))


def held_lookups(reg):
    ids = reg.ids()
    return (ids, {op_id: reg.index_of(op_id) for op_id in ids}, reg.early_exit_index,
            reg.direct_io_id)


def first_fault(specs):
    """The message of the first fault `OperatorRegistry(specs)` meets,
    walking `specs` in order; None for a list it builds."""
    for i, spec in enumerate(specs):
        earlier = specs[:i]
        if i == MAX_OPERATORS:
            return f"registry cannot hold more than {MAX_OPERATORS} operators"
        if spec.id in [s.id for s in earlier]:
            return f"operator id {spec.id!r} already registered"
        for kind, article in ((KIND_EARLY_EXIT, "an early-exit"),
                              (KIND_DIRECT_IO, "a direct-io")):
            if spec.kind == kind and kind in [s.kind for s in earlier]:
                return f"registry already has {article} operator"
    kinds = [s.kind for s in specs]
    if KIND_EARLY_EXIT not in kinds or KIND_DIRECT_IO not in kinds:
        return "registry lacks its early-exit or direct-io operator"
    return None


SPEC_IDS = st.sampled_from(["a", "b", "c", "exit", "io"])


@given(st.lists(SPEC_IDS, max_size=5), st.lists(SPEC_IDS, max_size=2),
       st.lists(SPEC_IDS, max_size=2), st.data())
def test_constructor_builds_a_registry_or_names_the_first_fault(generative, exits,
                                                                 direct, data):
    """Any order of generative operators with 0-2 early-exit and 0-2
    direct-io operators, ids repeated among all of them."""
    specs = data.draw(st.permutations(
        [*map(make_spec, generative), *(make_spec(i, KIND_EARLY_EXIT) for i in exits),
         *(make_spec(i, KIND_DIRECT_IO) for i in direct)]))
    fault = first_fault(specs)
    if fault is None:
        reg = OperatorRegistry(iter(specs))
        assert reg.specs() == specs and held_lookups(reg) == scanned_lookups(reg)
    else:
        with pytest.raises(DataError, match=f"^{re.escape(fault)}$"):
            OperatorRegistry(iter(specs))


@given(PATCH_ACTIONS, PATCH_ACTIONS)
def test_held_lookups_equal_a_fresh_scan(actions, more):
    """After every patch, applied or rejected, and after a round trip
    through `to_dict`, on which more patches follow."""
    reg = builtin_registry()
    assert held_lookups(reg) == scanned_lookups(reg)
    for sequence in (actions, more):
        for act in sequence:
            try:
                apply_action(reg, act)
            except DataError:
                pass
            assert held_lookups(reg) == scanned_lookups(reg)
        reg = OperatorRegistry.from_dict(reg.to_dict())
        assert held_lookups(reg) == scanned_lookups(reg)


def test_ids_is_a_copy():
    reg = builtin_registry()
    reg.ids().append("ghost")
    assert "ghost" not in reg.ids() and held_lookups(reg) == scanned_lookups(reg)


@pytest.mark.parametrize("field,value", [
    ("id", 5), ("name", None), ("prompt", 5), ("model_binding", ["m"]),
    ("profile_text", 1.5), ("kind", 0), ("agent_count", True), ("agent_count", 2.0),
    ("agent_count", "3"), ("temperature", True), ("temperature", "1.0"),
    ("temperature", None),
])
def test_spec_field_of_wrong_type_rejected(field, value):
    with pytest.raises(DataError, match="is not (a string|an integer|a number)$"):
        replace(make_spec("op"), **{field: value})


@pytest.mark.parametrize("value", [True, "1.0", 10**400])
def test_spec_from_dict_checks_temperature_before_float(value):
    d = {**make_spec("op").to_dict(), "temperature": value}
    with pytest.raises(DataError, match="temperature"):
        OperatorSpec.from_dict(d)


def test_spec_from_dict_makes_an_int_temperature_float():
    spec = OperatorSpec.from_dict({**make_spec("op").to_dict(), "temperature": 1})
    assert type(spec.temperature) is float and spec == make_spec("op")


def test_round_trip_serialization():
    reg = builtin_registry()
    reg.apply_patch(OperatorPatch("react", structure_action="split"))
    restored = OperatorRegistry.from_dict(reg.to_dict())
    assert registry_json(restored) == registry_json(reg)

