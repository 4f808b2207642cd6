"""Operator registry: the feasible set of agentic operators.

An operator bundles a prompt template, a model binding, a sampling
temperature, a tool list and an internal call count. The registry keeps
operators in insertion order; that order is the canonical operator index
used by the controller, so structural edits (split/merge) report how
indices moved and the controller remaps its output rows accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace, asdict

from .errors import (
    DuplicateId,
    InvalidTemperature,
    SecondEarlyExit,
    SecondDirectIO,
    UnknownTarget,
    PatchOnExitOperator,
    ProtectedOperator,
    MergeUnknownPartner,
    InvalidPatch,
    DataError,
)

KIND_GENERATIVE = "generative"
KIND_AGGREGATOR = "aggregator"
KIND_EARLY_EXIT = "early_exit"
KIND_DIRECT_IO = "direct_io"

VALID_KINDS = {KIND_GENERATIVE, KIND_AGGREGATOR, KIND_EARLY_EXIT, KIND_DIRECT_IO}

EARLY_EXIT_ID = "early_exit"
DIRECT_IO_ID = "direct_io"


@dataclass(frozen=True)
class OperatorSpec:
    id: str
    name: str
    prompt: str
    model_binding: str
    temperature: float
    tools: tuple
    agent_count: int
    profile_text: str
    kind: str

    def validate(self):
        if not self.id:
            raise DataError("operator id must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise InvalidTemperature(
                f"temperature {self.temperature} outside [0, 2] for {self.id!r}"
            )
        if self.agent_count < 1:
            raise DataError(f"agent_count must be >= 1 for {self.id!r}")
        if len(set(self.tools)) != len(self.tools):
            raise DataError(f"duplicate tools for {self.id!r}")
        if self.kind not in VALID_KINDS:
            raise DataError(f"unknown kind {self.kind!r} for {self.id!r}")
        if self.kind != KIND_EARLY_EXIT and not self.profile_text:
            raise DataError(f"profile_text required for non-exit operator {self.id!r}")

    def to_dict(self):
        d = asdict(self)
        d["tools"] = list(self.tools)
        return d

    @classmethod
    def from_dict(cls, d):
        spec = cls(
            id=d["id"],
            name=d["name"],
            prompt=d["prompt"],
            model_binding=d["model_binding"],
            temperature=float(d["temperature"]),
            tools=tuple(d["tools"]),
            agent_count=int(d["agent_count"]),
            profile_text=d["profile_text"],
            kind=d["kind"],
        )
        spec.validate()
        return spec


@dataclass(frozen=True)
class OperatorPatch:
    target_id: str
    new_prompt: str | None = None
    new_temperature: float | None = None
    structure_action: str = "none"  # none | split | merge | rewire
    merge_with_id: str | None = None
    rationale: str = ""

    def validate(self):
        if (
            self.new_prompt is None
            and self.new_temperature is None
            and self.structure_action == "none"
        ):
            raise InvalidPatch("patch sets nothing")
        if self.new_temperature is not None and not 0.0 <= self.new_temperature <= 2.0:
            raise InvalidTemperature(
                f"patch temperature {self.new_temperature} outside [0, 2]"
            )
        if self.structure_action not in {"none", "split", "merge", "rewire"}:
            raise InvalidPatch(f"unknown structure_action {self.structure_action!r}")
        if self.structure_action == "merge" and not self.merge_with_id:
            raise InvalidPatch("merge requires merge_with_id")


@dataclass(frozen=True)
class StructuralChange:
    """Index bookkeeping for the controller after split/merge.

    action: "split" (new row cloned from parent_index, appended at end) or
    "merge" (removed_index deleted; later indices shift down by one).
    """

    action: str
    parent_index: int = -1
    removed_index: int = -1


class OperatorRegistry:
    """Insertion-ordered operator set with exactly one exit and one direct-io."""

    def __init__(self):
        self._specs: list[OperatorSpec] = []
        self._by_id: dict[str, int] = {}
        self.rewire_ids: set[str] = set()

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self._specs)

    def __contains__(self, op_id):
        return op_id in self._by_id

    def specs(self) -> list[OperatorSpec]:
        return list(self._specs)

    def ids(self) -> list[str]:
        return [s.id for s in self._specs]

    def get(self, op_id) -> OperatorSpec:
        if op_id not in self._by_id:
            raise UnknownTarget(f"no operator {op_id!r}")
        return self._specs[self._by_id[op_id]]

    def index_of(self, op_id) -> int:
        if op_id not in self._by_id:
            raise UnknownTarget(f"no operator {op_id!r}")
        return self._by_id[op_id]

    @property
    def early_exit_id(self) -> str:
        return next(s.id for s in self._specs if s.kind == KIND_EARLY_EXIT)

    @property
    def direct_io_id(self) -> str:
        return next(s.id for s in self._specs if s.kind == KIND_DIRECT_IO)

    # -- mutation ----------------------------------------------------------

    def register(self, spec: OperatorSpec):
        spec.validate()
        if spec.id in self._by_id:
            raise DuplicateId(f"operator id {spec.id!r} already registered")
        if spec.kind == KIND_EARLY_EXIT and any(
            s.kind == KIND_EARLY_EXIT for s in self._specs
        ):
            raise SecondEarlyExit("registry already has an early-exit operator")
        if spec.kind == KIND_DIRECT_IO and any(
            s.kind == KIND_DIRECT_IO for s in self._specs
        ):
            raise SecondDirectIO("registry already has a direct-io operator")
        self._by_id[spec.id] = len(self._specs)
        self._specs.append(spec)
        return self

    def apply_patch(self, patch: OperatorPatch) -> StructuralChange | None:
        """Apply one patch in place; returns index bookkeeping for split/merge.

        Every check runs before the first write, so a patch that raises
        leaves the registry unchanged. A split appends a clone of the target
        under the first free id of `<id>-b`, `<id>-b2`, `<id>-b3`, ..., so an
        operator can be split any number of times."""
        patch.validate()
        if patch.target_id not in self._by_id:
            raise UnknownTarget(f"no operator {patch.target_id!r}")
        idx = self._by_id[patch.target_id]
        target = self._specs[idx]
        if target.kind == KIND_EARLY_EXIT:
            raise PatchOnExitOperator("cannot patch the early-exit operator")

        if patch.new_prompt is not None:
            target = replace(target, prompt=patch.new_prompt)
        if patch.new_temperature is not None:
            target = replace(target, temperature=patch.new_temperature)
        target.validate()

        if patch.structure_action == "split":
            if target.kind == KIND_DIRECT_IO:
                raise ProtectedOperator("cannot split the direct-io operator")
            suffix = self._clone_suffix(target.id)
            clone = replace(target, id=f"{target.id}-{suffix}",
                            name=f"{target.name} ({suffix})")
            self.register(clone)
            self._specs[idx] = target
            return StructuralChange("split", parent_index=idx)
        if patch.structure_action == "merge":
            partner_id = patch.merge_with_id
            if partner_id not in self._by_id:
                raise MergeUnknownPartner(f"no operator {partner_id!r}")
            if partner_id == target.id:
                raise InvalidPatch("cannot merge an operator with itself")
            partner = self.get(partner_id)
            if partner.kind in (KIND_EARLY_EXIT, KIND_DIRECT_IO):
                raise ProtectedOperator(f"cannot merge away {partner_id!r}")
            removed = self._by_id[partner_id]
            self._specs[idx] = replace(
                target, prompt=target.prompt + "\n" + partner.prompt
            )
            del self._specs[removed]
            self._by_id = {s.id: i for i, s in enumerate(self._specs)}
            self.rewire_ids.discard(partner_id)
            return StructuralChange("merge", removed_index=removed)
        self._specs[idx] = target
        if patch.structure_action == "rewire":
            self.rewire_ids.add(target.id)
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
        return {
            "operators": [s.to_dict() for s in self._specs],
            "rewire_ids": sorted(self.rewire_ids),
        }

    @classmethod
    def from_dict(cls, d):
        reg = cls()
        for spec_d in d["operators"]:
            reg.register(OperatorSpec.from_dict(spec_d))
        reg.rewire_ids = set(d.get("rewire_ids", ()))
        return reg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


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
            tools=(),
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
            tools=(),
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
            tools=(),
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
            tools=(),
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
            tools=(),
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
            tools=(),
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
            tools=("code_interpreter", "web_search"),
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
            tools=(),
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
            tools=(),
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
    reg = OperatorRegistry()
    for spec in builtin_catalog():
        reg.register(spec)
    return reg
