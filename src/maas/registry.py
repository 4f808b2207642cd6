"""Operator registry: the feasible set of agentic operators.

An operator bundles a prompt template, a model binding, a sampling
temperature and an internal call count; it names no tools, since nothing
in the program runs one. A registry is built whole from a list of specs;
it always holds exactly one early-exit and one direct-io operator, and at
most `MAX_OPERATORS` operators. It keeps operators in order; that order is
the canonical operator index used by the controller, so a split or a merge
returns the one controller row it moved (the row a split cloned, the row a
merge removed) and the controller remaps its output rows accordingly. The
registry holds the lookups each sample makes (ids, early-exit index,
direct-io id) and recomputes them when an operator is added or removed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DataError, check_fields

KIND_GENERATIVE = "generative"
KIND_AGGREGATOR = "aggregator"
KIND_EARLY_EXIT = "early_exit"
KIND_DIRECT_IO = "direct_io"

VALID_KINDS = {KIND_GENERATIVE, KIND_AGGREGATOR, KIND_EARLY_EXIT, KIND_DIRECT_IO}

EARLY_EXIT_ID = "early_exit"
DIRECT_IO_ID = "direct_io"
# far above the builtin prompts (at most 187 chars); a merge keeps the
# target's prompt and appends each new partner's text, so a mutator that
# merges distinct prompts into one operator grows it, and the bound ends that
# growth in a rejected patch
MAX_PROMPT_CHARS = 16_384
# the catalogue's 9 operators with room for 23 split clones; each operator
# adds a row to every layer's scores and is drawn from each layer's CDF, so
# step time grows close to the square of the count, and the cap ends that
# growth in a rejected split
MAX_OPERATORS = 32


@dataclass(frozen=True)
class OperatorSpec:
    id: str
    name: str
    prompt: str
    model_binding: str
    temperature: float
    agent_count: int
    profile_text: str
    kind: str

    def __post_init__(self):
        """`DataError` unless every field has its type and its range."""
        check_fields(self)
        if not self.id:
            raise DataError("operator id must be non-empty")
        if len(self.prompt) > MAX_PROMPT_CHARS:
            raise DataError(f"prompt of {self.id!r} holds {len(self.prompt)} chars,"
                            f" over {MAX_PROMPT_CHARS}")
        if not 0.0 <= self.temperature <= 2.0:
            raise DataError(f"temperature {self.temperature} outside [0, 2] for"
                            f" {self.id!r}")
        if self.agent_count < 1:
            raise DataError(f"agent_count must be >= 1 for {self.id!r}")
        if self.kind not in VALID_KINDS:
            raise DataError(f"unknown kind {self.kind!r} for {self.id!r}")
        if self.kind != KIND_EARLY_EXIT and not self.profile_text:
            raise DataError(f"profile_text required for non-exit operator {self.id!r}")

    def to_dict(self):
        # the fields in declaration order, as `asdict` gives them, uncopied
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d):
        return cls(**{name: d[name] for name in cls.__dataclass_fields__})


@dataclass(frozen=True)
class OperatorPatch:
    target_id: str
    new_prompt: str | None = None
    new_temperature: float | None = None
    structure_action: str = "none"  # none | split | merge
    merge_with_id: str | None = None
    rationale: str = ""

    def __post_init__(self):
        """`DataError` unless `apply_patch` can act on this patch."""
        check_fields(self)
        if not self.target_id:
            raise DataError("patch target_id must be non-empty")
        if (
            self.new_prompt is None
            and self.new_temperature is None
            and self.structure_action == "none"
        ):
            raise DataError("patch sets nothing")
        if self.new_temperature is not None and not 0.0 <= self.new_temperature <= 2.0:
            raise DataError(
                f"patch temperature {self.new_temperature} outside [0, 2]"
            )
        if self.structure_action not in {"none", "split", "merge"}:
            raise DataError(f"unknown structure_action {self.structure_action!r}")
        if self.structure_action == "merge" and not self.merge_with_id:
            raise DataError("merge requires merge_with_id")


class OperatorRegistry:
    """Ordered operator set with exactly one exit and one direct-io operator.

    It holds the lookups a sample makes: the id list, the early-exit
    operator's index and the direct-io operator's id, recomputed whenever
    an operator is added or removed (a split or a merge). A prompt or
    temperature patch keeps every id and kind, so they hold."""

    def __init__(self, specs):
        """The registry of `specs`, in their order. `DataError` at the first
        spec that repeats an id, adds a second early-exit or direct-io
        operator or passes `MAX_OPERATORS`, and then if either of the two is
        missing."""
        self._specs: list[OperatorSpec] = []
        ids, kinds = set(), set()
        for spec in specs:
            if len(self._specs) == MAX_OPERATORS:
                raise DataError(f"registry cannot hold more than {MAX_OPERATORS} operators")
            if spec.id in ids:
                raise DataError(f"operator id {spec.id!r} already registered")
            if spec.kind == KIND_EARLY_EXIT and spec.kind in kinds:
                raise DataError("registry already has an early-exit operator")
            if spec.kind == KIND_DIRECT_IO and spec.kind in kinds:
                raise DataError("registry already has a direct-io operator")
            self._specs.append(spec)
            ids.add(spec.id)
            kinds.add(spec.kind)
        if not {KIND_EARLY_EXIT, KIND_DIRECT_IO} <= kinds:
            raise DataError("registry lacks its early-exit or direct-io operator")
        self._reindex()

    def _reindex(self):
        """Recompute the held lookups from the operators."""
        self._ids = [s.id for s in self._specs]
        self._by_id = {op_id: i for i, op_id in enumerate(self._ids)}
        kinds = [s.kind for s in self._specs]
        self._early_exit_index = kinds.index(KIND_EARLY_EXIT)
        self._direct_io_id = self._ids[kinds.index(KIND_DIRECT_IO)]

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self._specs)

    def __contains__(self, op_id):
        return op_id in self._by_id

    def specs(self) -> list[OperatorSpec]:
        return list(self._specs)

    def ids(self) -> list[str]:
        return list(self._ids)

    def get(self, op_id) -> OperatorSpec:
        if op_id not in self._by_id:
            raise DataError(f"no operator {op_id!r}")
        return self._specs[self._by_id[op_id]]

    def index_of(self, op_id) -> int:
        if op_id not in self._by_id:
            raise DataError(f"no operator {op_id!r}")
        return self._by_id[op_id]

    @property
    def early_exit_index(self) -> int:
        return self._early_exit_index

    @property
    def direct_io_id(self) -> str:
        return self._direct_io_id

    # -- mutation ----------------------------------------------------------

    def apply_patch(self, patch: OperatorPatch) -> int | None:
        """Apply one patch in place. Returns the controller row it moved: the
        index a split cloned (its clone is appended at the end) or the index
        a merge removed (later indices shift down by one); None for any other
        patch.

        Every check runs before the first write, so a patch that raises
        leaves the registry unchanged. A new prompt must hold the `{input}`
        placeholder exactly once. A split appends a clone of the target
        under the first free id of `<id>-b`, `<id>-b2`, `<id>-b3`, ..., so an
        operator can be split any number of times while the registry holds
        fewer than `MAX_OPERATORS`. A merge keeps the target's prompt when
        the partner's equals it, so merging back an unedited clone undoes
        its split. Otherwise it appends, on a new line, the partner's text
        before `{input}` up to its last blank line and then the partner's
        text after `{input}`: the query still goes out once, and the
        paragraph that led into the partner's query (the builtin prompts'
        "Problem:" header) goes with it, so no header is left empty."""
        idx = self.index_of(patch.target_id)
        target = self._specs[idx]
        if target.kind == KIND_EARLY_EXIT:
            raise DataError("cannot patch the early-exit operator")

        if patch.new_prompt is not None:
            # `render_prompt` puts the query there: without it the operator
            # would never see its question, and twice over it would send it twice
            if "{input}" not in patch.new_prompt:
                raise DataError(f"new prompt for {target.id!r} lacks the"
                                " {input} placeholder")
            target = replace(target, prompt=patch.new_prompt)
            if patch.new_prompt.count("{input}") > 1:
                raise DataError(f"new prompt for {target.id!r} holds the"
                                " {input} placeholder more than once")
        if patch.new_temperature is not None:
            target = replace(target, temperature=patch.new_temperature)

        if patch.structure_action == "split":
            if target.kind == KIND_DIRECT_IO:
                raise DataError("cannot split the direct-io operator")
            if len(self._specs) == MAX_OPERATORS:
                raise DataError(f"registry cannot hold more than {MAX_OPERATORS} operators")
            suffix = self._clone_suffix(target.id)
            self._specs[idx] = target
            self._specs.append(replace(target, id=f"{target.id}-{suffix}",
                                       name=f"{target.name} ({suffix})"))
            self._reindex()
            return idx
        if patch.structure_action == "merge":
            partner_id = patch.merge_with_id
            partner = self.get(partner_id)
            if partner_id == target.id:
                raise DataError("cannot merge an operator with itself")
            if partner.kind in (KIND_EARLY_EXIT, KIND_DIRECT_IO):
                raise DataError(f"cannot merge away {partner_id!r}")
            prompt = target.prompt
            if partner.prompt != prompt:
                head, _, tail = partner.prompt.partition("{input}")
                prompt += "\n" + head.rpartition("\n\n")[0] + tail
            removed = self._by_id[partner_id]
            self._specs[idx] = replace(target, prompt=prompt)
            del self._specs[removed]
            self._reindex()
            return removed
        self._specs[idx] = target
        return None

    def _clone_suffix(self, op_id) -> str:
        """"b", "b2", "b3", ...: the first that makes `<op_id>-<suffix>` a
        free id."""
        suffix, n = "b", 1
        while f"{op_id}-{suffix}" in self._by_id:
            n += 1
            suffix = f"b{n}"
        return suffix

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {"operators": [s.to_dict() for s in self._specs]}

    @classmethod
    def from_dict(cls, d):
        return cls(OperatorSpec.from_dict(spec_d) for spec_d in d["operators"])


def builtin_catalog() -> list[OperatorSpec]:
    """The shipped operator set: eight reasoning/aggregation blocks plus a
    zero-shot direct-io answerer used when sampling exits at the first layer."""
    return [
        OperatorSpec(
            id="cot",
            name="Chain-of-Thought",
            prompt=(
                "Solve the following problem. Reason step by step, writing out"
                " each intermediate deduction before stating the final"
                " answer.\n\nProblem:\n{input}"
            ),
            model_binding="default",
            temperature=1.0,
            agent_count=1,
            profile_text=(
                "A single-agent reasoner that decomposes the problem into"
                " explicit sequential steps and derives the answer from the"
                " chain of intermediate deductions. Best for problems that"
                " reward careful stepwise reasoning over quick recall."
            ),
            kind=KIND_GENERATIVE,
        ),
        OperatorSpec(
            id="debate",
            name="LLM-Debate",
            prompt=(
                "You are one of three debaters examining the problem below."
                " State your solution, critique the other positions you are"
                " shown, and revise toward the most defensible answer.\n\n"
                "Problem:\n{input}"
            ),
            model_binding="default",
            temperature=1.0,
            agent_count=3,
            profile_text=(
                "Three agents argue over candidate solutions across up to two"
                " rounds, attacking weak reasoning and converging on the"
                " position that survives scrutiny. Useful when plausible but"
                " wrong answers need adversarial filtering."
            ),
            kind=KIND_GENERATIVE,
        ),
        OperatorSpec(
            id="self_consistency",
            name="Self-Consistency",
            prompt=(
                "Produce an independent step-by-step solution to the problem"
                " below. Your reasoning path will be voted against others.\n\n"
                "Problem:\n{input}"
            ),
            model_binding="default",
            temperature=1.0,
            agent_count=5,
            profile_text=(
                "Draws five independent stepwise reasoning paths for the same"
                " problem and majority-votes their final answers. Trades extra"
                " calls for robustness against any single path going astray."
            ),
            kind=KIND_AGGREGATOR,
        ),
        OperatorSpec(
            id="self_refine",
            name="Self-Refine",
            prompt=(
                "Draft a solution to the problem below, then repeatedly"
                " critique your own draft and rewrite it until no further"
                " defect is found.\n\nProblem:\n{input}"
            ),
            model_binding="default",
            temperature=1.0,
            agent_count=3,
            profile_text=(
                "Generates an initial answer and iteratively self-critiques and"
                " rewrites it over several refinement passes. Suited to"
                " problems where first drafts contain fixable local errors."
            ),
            kind=KIND_GENERATIVE,
        ),
        OperatorSpec(
            id="ensemble",
            name="Ensemble",
            prompt=(
                "Answer the problem below. Your answer will be pairwise-ranked"
                " against answers from differently-configured agents.\n\n"
                "Problem:\n{input}"
            ),
            model_binding="default",
            temperature=1.0,
            agent_count=3,
            profile_text=(
                "Collects answers from three differently-sourced agents and"
                " aggregates them by pairwise ranking into one solution."
                " Hedges against the failure modes of any single"
                " configuration."
            ),
            kind=KIND_AGGREGATOR,
        ),
        OperatorSpec(
            id="testing",
            name="Testing",
            prompt=(
                "Design concrete test cases for the candidate solution to the"
                " problem below, run them mentally, and report whether the"
                " solution survives.\n\nProblem:\n{input}"
            ),
            model_binding="default",
            temperature=1.0,
            agent_count=1,
            profile_text=(
                "Generates targeted test cases for a candidate solution and"
                " checks the solution against them, flagging failures. Most"
                " valuable as a verification stage after generative"
                " operators."
            ),
            kind=KIND_GENERATIVE,
        ),
        OperatorSpec(
            id="react",
            name="ReAct",
            prompt=(
                "Solve the problem below by interleaving reasoning with tool"
                " actions. Think, act with a tool when needed, observe, and"
                " repeat until you can answer.\n\nProblem:\n{input}"
            ),
            model_binding="default",
            temperature=1.0,
            agent_count=1,
            profile_text=(
                "Interleaves reasoning steps with tool invocations such as a"
                " code interpreter or web search, observing each result before"
                " the next step. Handles queries that need computation or"
                " external lookup."
            ),
            kind=KIND_GENERATIVE,
        ),
        OperatorSpec(
            id=EARLY_EXIT_ID,
            name="Early Exit",
            prompt="",
            model_binding="default",
            temperature=1.0,
            agent_count=1,
            profile_text="",
            kind=KIND_EARLY_EXIT,
        ),
        OperatorSpec(
            id=DIRECT_IO_ID,
            name="Direct I/O",
            prompt="Answer the following directly and concisely.\n\n{input}",
            model_binding="default",
            temperature=1.0,
            agent_count=1,
            profile_text=(
                "A single zero-shot call that answers the query directly with"
                " no intermediate reasoning, tools, or aggregation. The"
                " cheapest possible path, adequate for simple queries."
            ),
            kind=KIND_DIRECT_IO,
        ),
    ]


def builtin_registry() -> OperatorRegistry:
    return OperatorRegistry(builtin_catalog())
