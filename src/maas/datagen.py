"""Shipped synthetic dataset and environment profiles.

The mixed dataset holds two query classes: easy arithmetic-style queries
(difficulty 0.1) that a single direct answer handles well, and hard
symbolic-style queries (difficulty 0.9) where the direct path almost always
fails and stacked reasoning layers are needed. Run ``python -m maas.datagen``
to regenerate ``data/``.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .executor import PromptSuccessOverride, SyntheticEnv, SyntheticOperatorProfile
from .optimizer import MOCK_PATCH_SENTENCE

EASY_TEMPLATES = [
    "add {a} and {b}",
    "what is {a} plus {b}",
    "compute the sum of {a} and {b}",
    "simple arithmetic: {a} plus {b}",
]

HARD_TEMPLATES = [
    "evaluate the contour integral of z^{a} over the unit circle times {b}",
    "find the spectral radius of the {a} by {a} tridiagonal operator shifted by {b}",
    "count the conjugacy classes of the symmetric group acting on {a} points modulo {b}",
    "determine the homology rank of the {a}-torus after attaching {b} cells",
]


def make_mixed_dataset(n_easy=25, n_hard=25):
    records = []
    for i in range(n_easy):
        a, b = 2 + i, 3 + 2 * i
        records.append(
            {
                "id": f"easy-{i:03d}",
                "query": EASY_TEMPLATES[i % len(EASY_TEMPLATES)].format(a=a, b=b),
                "answer": str(a + b),
                "domain": "easy",
                "difficulty": 0.1,
            }
        )
    for i in range(n_hard):
        a, b = 3 + i, 1 + i
        records.append(
            {
                "id": f"hard-{i:03d}",
                "query": HARD_TEMPLATES[i % len(HARD_TEMPLATES)].format(a=a, b=b),
                "answer": str((a * 7 + b) % 97),
                "domain": "hard",
                "difficulty": 0.9,
            }
        )
    return records


def default_profiles():
    """Direct answering is strong on easy queries and collapses on hard ones;
    reasoning operators only work on hard queries, where they stack well.

    The negative difficulty_slope makes the reasoning operators improve with
    difficulty: success 0.07 at d = 0.1 but 0.63 at d = 0.9. direct_io is the
    mirror image (0.88 at d = 0.1, clamped to 0 at d = 0.9), so the two query
    classes demand opposite architectures.
    """
    mid_costs = {
        "cot": 3.0,
        "debate": 9.0,
        "self_consistency": 15.0,
        "self_refine": 6.0,
        "ensemble": 9.0,
        "testing": 4.0,
        "react": 5.0,
    }
    profiles = [SyntheticOperatorProfile("direct_io", 1.0, 1.2, 1.0, 0.0)]
    for op_id, cost in mid_costs.items():
        profiles.append(SyntheticOperatorProfile(op_id, 0.0, -0.7, cost, 0.25))
    return profiles


def sabotaged_profiles():
    """Like default_profiles but with cot made useless everywhere; the mock
    mutator's appended sentence restores it to 0.9 via a prompt override."""
    profiles = [
        p if p.operator_id != "cot"
        else SyntheticOperatorProfile("cot", 0.02, 0.0, p.unit_cost, 0.0)
        for p in default_profiles()
    ]
    overrides = [PromptSuccessOverride("cot", MOCK_PATCH_SENTENCE.strip(), 0.9)]
    return profiles, overrides


def default_env() -> SyntheticEnv:
    return SyntheticEnv(default_profiles())


def _profile_dicts(profiles, overrides=()):
    return {"profiles": [asdict(p) for p in profiles],
            "prompt_success_overrides": [asdict(o) for o in overrides]}


def write_shipped_files(data_dir):
    import os

    os.makedirs(data_dir, exist_ok=True)
    dataset_path = os.path.join(data_dir, "synthetic_mix.jsonl")
    with open(dataset_path, "w", encoding="utf-8") as fh:
        for rec in make_mixed_dataset():
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(os.path.join(data_dir, "synthetic_profiles.json"), "w",
              encoding="utf-8") as fh:
        json.dump(_profile_dicts(default_profiles()), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sab_profiles, sab_overrides = sabotaged_profiles()
    with open(os.path.join(data_dir, "sabotaged_profiles.json"), "w",
              encoding="utf-8") as fh:
        json.dump(_profile_dicts(sab_profiles, sab_overrides), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_shipped_files("data")
