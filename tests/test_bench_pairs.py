"""tools/bench_pairs.py: its summary of canned `perfbench/run.py` output.

Nothing here starts a process but `git`, in a throwaway repository, one
Python process that runs `main` there until it stops itself with SIGTERM
(`collect` takes the runner as an argument), and the short-lived Python
processes whose CPU seconds `run_counting_cpu` reads.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"throughput_per_s": "higher", "latency_p50_ms": "lower"}


def run_output(throughput, p50, sha="aa", failed=0, attempted=100, counts=None,
               timed_units=90):
    """What `perfbench/run.py` prints: metric lines, `info`, then the JSON."""
    metrics = {"throughput_per_s": {"value": throughput, "unit": "1/s"},
               "latency_p50_ms": {"value": p50, "unit": "ms"}}
    for name, (value, unit) in (counts or {}).items():
        metrics[name] = {"value": value, "unit": unit}
    info = {"checkpoint_sha256": sha, "traced_units": attempted, "timed_units": timed_units,
            "environment": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
                            "blas_threads_env": "1"}}
    return "\n".join([
        f"train_mix throughput_per_s (train_steps_per_s) = {throughput:.6g} 1/s",
        f"train_mix failed_frac = 0 frac ({failed} of {attempted} steps)",
        "info " + json.dumps(info, sort_keys=True),
        json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_the_result_and_info_lines():
    run = bench_pairs.parse_run(run_output(1000.5, 0.5, sha="ff", failed=1))
    assert run["metrics"] == {"throughput_per_s": 1000.5, "latency_p50_ms": 0.5}
    assert run["units"]["latency_p50_ms"] == "ms"
    assert (run["failed"], run["attempted"]) == (1, 100)
    assert run["info"]["checkpoint_sha256"] == "ff"


def test_parse_seeds_and_pair_order():
    assert bench_pairs.parse_seeds("31-34") == [31, 32, 33, 34]
    assert bench_pairs.parse_seeds("1,3,5-6") == [1, 3, 5, 6]
    assert bench_pairs.pair_order(31) == ("parent", "change")
    assert bench_pairs.pair_order(32) == ("change", "parent")


def test_summarize_pairs_counts_wins_by_direction_and_ties_apart():
    seeds = [1, 2, 3, 4]
    parent = [bench_pairs.parse_run(run_output(t, p, sha=f"s{i}", timed_units=10 * t))
              for i, (t, p) in enumerate([(100, 1.0), (110, 1.0), (90, 2.0), (120, 1.5)])]
    change = [bench_pairs.parse_run(run_output(t, p, sha=f"s{i}", timed_units=10 * t))
              for i, (t, p) in enumerate([(130, 0.9), (110, 1.0), (95, 2.5), (140, 1.0)])]
    out = bench_pairs.summarize_pairs(seeds, {"parent": parent, "change": change},
                                      DIRECTIONS)
    assert out["pairs"] == 4 and out["seeds"] == seeds
    assert out["parent"]["throughput_per_s"] == 105.0
    assert out["change"]["throughput_per_s"] == 120.0
    assert out["change_over_parent"]["throughput_per_s"] == round(120 / 105, 4)
    # median of each side's timed units, beside the end-to-end medians
    assert out["parent"]["timed_units"] == 1050.0
    assert out["change"]["timed_units"] == 1200.0
    assert "timed_units" not in out["change_over_parent"]
    assert out["pairs_change_better"] == {"throughput_per_s": 3, "latency_p50_ms": 2}
    assert out["pairs_equal"] == {"throughput_per_s": 1, "latency_p50_ms": 1}
    # inclusive quartiles of 90, 100, 110, 120
    assert out["quartiles"]["parent"]["throughput_per_s"] == [97.5, 112.5]
    assert out["parent_throughput_iqr"] == 15.0
    assert out["parent"]["attempted"] == 400 and out["change"]["failed"] == 0
    assert out["failed_share_check"] == "within"
    assert out["change"]["checkpoint_sha256_step100"] == {
        "1": "s0", "2": "s1", "3": "s2", "4": "s3"}
    assert out["checkpoint_sha256_equal"] is True


def test_rss_bytes_per_extra_unit_is_the_median_over_pairs():
    def side(rows):
        return [bench_pairs.parse_run(run_output(100, 1.0, timed_units=units,
                                                 counts={"peak_rss_mb": (mb, "MB")}))
                for units, mb in rows]

    # per pair: +1 MB over +10,000 units, +2 MB over +10,000, +0.5 MB over
    # -5,000 (fewer units, more RSS; 5% of the parent's, the least kept), no
    # extra units, and +10 MB over +1,000 (1%), which would read 10,485.8 B:
    # the last two are left out
    parent = side([(100_000, 50.0), (100_000, 50.0), (100_000, 51.0), (90_000, 50.0),
                   (100_000, 50.0)])
    change = side([(110_000, 51.0), (110_000, 52.0), (95_000, 51.5), (90_000, 55.0),
                   (101_000, 60.0)])
    assert bench_pairs.MIN_EXTRA_UNIT_SHARE == 0.05
    out = bench_pairs.summarize_pairs([1, 2, 3, 4, 5],
                                      {"parent": parent, "change": change}, DIRECTIONS)
    assert out["rss_bytes_per_extra_unit"] == round(2**20 / 10_000, 1) == 104.9
    assert bench_pairs.rss_bytes_per_extra_unit(parent[3:4], change[3:4]) is None
    assert bench_pairs.rss_bytes_per_extra_unit(parent[4:], change[4:]) is None
    # runs without peak_rss_mb give no figure
    plain = [bench_pairs.parse_run(run_output(100, 1.0, timed_units=u)) for u in (1, 2)]
    assert bench_pairs.rss_bytes_per_extra_unit(plain[:1], plain[1:]) is None


END_TO_END = [{"name": "throughput_per_s", "better": "higher", "bound": 0.25},
              {"name": "latency_p50_ms", "better": "lower", "bound": 0.1}]


def both_sides(parent_rows, change_rows):
    """Runs of each side from (throughput, p50) rows."""
    return {side: [bench_pairs.parse_run(run_output(t, p)) for t, p in rows]
            for side, rows in (("parent", parent_rows), ("change", change_rows))}


@pytest.mark.parametrize("parent,change,expected", [
    # steady parent; change 20% slower (inside 0.25) and 5% later (inside 0.1)
    ([(100, 1.0), (101, 1.0), (99, 1.0), (100, 1.0)],
     [(80, 1.05), (81, 1.05), (79, 1.05), (80, 1.05)], ("within", "within")),
    # 30% slower and 20% later: past both bounds
    ([(100, 1.0), (101, 1.0), (99, 1.0), (100, 1.0)],
     [(70, 1.2), (71, 1.2), (69, 1.2), (70, 1.2)], ("over", "over")),
    # the parent's IQR (inclusive quartiles 85 and 115) is 0.3 of its median,
    # past the 0.25 bound; the change is a little slower and some runs lose
    ([(40, 1.0), (100, 1.0), (100, 1.0), (160, 1.0)],
     [(95, 1.0), (96, 1.0), (98, 1.0), (170, 1.0)], ("unresolved", "within")),
    # as wide, and the change's median 30% slower, past the bound: the
    # parent's own spread cannot tell that from noise
    ([(40, 1.0), (100, 1.0), (100, 1.0), (160, 1.0)],
     [(69, 1.0), (70, 1.0), (70, 1.0), (71, 1.0)], ("unresolved", "within")),
    # as wide, but every change run beats every parent run: resolved
    ([(40, 1.0), (100, 1.0), (100, 1.0), (160, 1.0)],
     [(161, 1.0), (162, 1.0), (163, 1.0), (164, 1.0)], ("within", "within")),
    # a p50 IQR of 0.25 over a median of 1.0, past 0.1; the median 5% worse
    ([(100, 0.5), (100, 1.0), (100, 1.0), (100, 1.5)],
     [(100, 1.05), (100, 1.05), (100, 1.05), (100, 1.05)], ("within", "unresolved")),
    # a zero parent median: only a worse change median is over
    ([(100, 0.0), (100, 0.0), (100, 0.0), (100, 0.0)],
     [(100, 0.01), (100, 0.0), (100, 0.0), (100, 0.0)], ("within", "within")),
    ([(100, 0.0), (100, 0.0), (100, 0.0), (100, 0.0)],
     [(100, 0.01), (100, 0.01), (100, 0.01), (100, 0.0)], ("within", "over")),
])
def test_bound_check_reads_each_metric_against_its_bound(parent, change, expected):
    got = bench_pairs.bound_check(both_sides(parent, change), END_TO_END)
    assert got == dict(zip(["throughput_per_s", "latency_p50_ms"], expected))


# ten parent runs at 100-109 q/s: median 104.5, inclusive quartiles 102.25
# and 106.75, so an IQR of 4.5
PARENT_RATES = [100 + i for i in range(10)]


@pytest.mark.parametrize("offsets,expected", [
    ([10] * 10, "met"),
    # 9 of 10 pairs better, the tenth worse or tied: nine tenths still
    ([10] * 9 + [-1], "met"),
    ([10] * 9 + [0], "met"),
    # 8 better and 2 tied: a tie counts for neither side
    ([10] * 8 + [0, 0], "not met"),
    ([10] * 8 + [-1, -1], "not met"),
    # every pair better, but the medians differ by the IQR or less
    ([4] * 10, "not met"),
    ([4.5] * 10, "not met"),
    ([4.6] * 10, "met"),
    # worse in every pair
    ([-10] * 10, "not met"),
])
def test_gain_check_needs_nine_tenths_and_a_gap_past_the_iqr(offsets, expected):
    parent = [(rate, 1.0) for rate in PARENT_RATES]
    change = [(rate + off, 1.0) for rate, off in zip(PARENT_RATES, offsets)]
    out = bench_pairs.summarize_pairs(list(range(1, 11)), both_sides(parent, change),
                                      DIRECTIONS)
    assert out["parent_throughput_iqr"] == 4.5
    # p50 is the same in every run: every pair a tie, so no gain
    assert out["gain_check"] == {"throughput_per_s": expected, "latency_p50_ms": "not met"}


def test_gain_check_reads_lower_as_better_where_the_metric_says_so():
    # p50 1.00-1.09 ms at the parent (IQR 0.045); the change 0.1 ms lower
    # in every pair, and slower in throughput in every pair
    parent = [(100, 1.0 + i / 100) for i in range(10)]
    change = [(90, 0.9 + i / 100) for i in range(10)]
    out = bench_pairs.summarize_pairs(list(range(1, 11)), both_sides(parent, change),
                                      DIRECTIONS)
    assert out["gain_check"] == {"throughput_per_s": "not met", "latency_p50_ms": "met"}
    # the same runs read the other way round
    back = bench_pairs.summarize_pairs(list(range(1, 11)), both_sides(change, parent),
                                       DIRECTIONS)
    assert back["gain_check"] == {"throughput_per_s": "met", "latency_p50_ms": "not met"}


@pytest.mark.parametrize("parent,change,expected", [
    ((0, 100), (0, 120), "within"),
    ((2, 100), (2, 100), "within"),
    # fewer failures, but of fewer attempts: a larger share
    ((2, 100), (1, 40), "over"),
    # more failures, but of more attempts: a smaller share
    ((2, 100), (3, 200), "within"),
    ((0, 100), (1, 100), "over"),
])
def test_failed_share_check(parent, change, expected):
    sides = [dict(zip(("failed", "attempted"), counts)) for counts in (parent, change)]
    assert bench_pairs.failed_share_check(*sides) == expected


def test_summarize_pairs_reads_the_failed_share_over_all_runs():
    # the parent fails 1 of 200 operations; the change 1 of its first 100
    parent = [bench_pairs.parse_run(run_output(100, 1.0, failed=f)) for f in (1, 0)]
    change = [bench_pairs.parse_run(run_output(100, 1.0, failed=f)) for f in (0, 1)]
    runs = {"parent": parent, "change": change}
    assert bench_pairs.summarize_pairs([1, 2], runs, DIRECTIONS)["failed_share_check"] \
        == "within"
    runs["change"] = [bench_pairs.parse_run(run_output(100, 1.0, failed=1))] * 2
    assert bench_pairs.summarize_pairs([1, 2], runs, DIRECTIONS)["failed_share_check"] \
        == "over"


def test_summarize_pairs_flags_one_mismatched_checkpoint():
    seeds = [1, 2, 3]
    parent = [bench_pairs.parse_run(run_output(100, 1.0, sha=f"s{i}")) for i in range(3)]
    change = [bench_pairs.parse_run(run_output(110, 1.0, sha=sha))
              for sha in ("s0", "XX", "s2")]
    out = bench_pairs.summarize_pairs(seeds, {"parent": parent, "change": change},
                                      DIRECTIONS)
    assert out["checkpoint_sha256_equal"] is False
    assert out["change"]["checkpoint_sha256_step100"]["2"] == "XX"


def test_summarize_trace_compares_counts_only():
    counts = {"executor.execute.calls": (800, "count"),
              "embedding.embed.repeat_frac": (0.5, "frac"),
              "sampler.depth_mean": (2.5, "layers")}
    parent = bench_pairs.parse_run(run_output(100, 1.0, counts=counts))
    faster = bench_pairs.parse_run(run_output(120, 0.8, counts=counts))
    out = bench_pairs.summarize_trace([parent], [faster])
    assert out["counts_compared"] == ["embedding.embed.repeat_frac",
                                      "executor.execute.calls", "sampler.depth_mean"]
    assert out["counts_equal"] is True
    assert out["change"]["throughput_per_s"] == 120
    assert out["counts_differing"] == []
    moved = bench_pairs.parse_run(run_output(
        120, 0.8, counts={**counts, "executor.execute.calls": (801, "count")}))
    assert bench_pairs.summarize_trace([parent], [moved])["counts_equal"] is False
    failing = bench_pairs.parse_run(run_output(120, 0.8, failed=1, counts=counts))
    assert bench_pairs.summarize_trace([parent], [failing])["counts_equal"] is False


@pytest.mark.parametrize("failed, changed, expected", [
    (0, {}, []),
    (0, {"embedding.embed.calls": (3005, "count"),
         "embedding.embed.repeat_frac": (0.0, "frac")},
     ["embedding.embed.calls", "embedding.embed.repeat_frac"]),
    (2, {"sampler.depth_mean": (2.6, "layers")}, ["failed", "sampler.depth_mean"]),
    # a count on one side only differs too
    (0, {"registry.apply_patch.calls": (4, "count")}, ["registry.apply_patch.calls"]),
])
def test_summarize_trace_names_the_counts_that_differ(failed, changed, expected):
    counts = {"embedding.embed.calls": (6463, "count"),
              "embedding.embed.repeat_frac": (0.535, "frac"),
              "sampler.depth_mean": (2.5, "layers"),
              "embedding.embed.self_s": (0.4, "s")}
    parent = bench_pairs.parse_run(run_output(100, 1.0, counts=counts))
    # timings differ on every run; they are no count
    change = bench_pairs.parse_run(run_output(
        150, 0.7, failed=failed,
        counts={**counts, "embedding.embed.self_s": (0.2, "s"), **changed}))
    out = bench_pairs.summarize_trace([parent], [change])
    assert out["counts_differing"] == expected
    assert out["counts_equal"] is (expected == [])


def traced_runs(self_s, counts=None, failed=(0, 0, 0)):
    """Parsed traced runs with these `embedding.embed.self_s` values, the
    same counts in each unless `counts` gives a run's own."""
    base = {"embedding.embed.calls": (3005, "count"),
            "sampler.depth_mean": (1.75, "layers")}
    return [bench_pairs.parse_run(run_output(
        100, 1.0, failed=f,
        counts={**base, **(counts or {}).get(i, {}),
                "embedding.embed.self_s": (t, "s")}))
        for i, (t, f) in enumerate(zip(self_s, failed))]


def test_summarize_trace_takes_the_median_of_each_metric():
    # one run reads a third high, as one traced run did on an untouched layer
    parent = traced_runs([0.040, 0.054, 0.039])
    change = traced_runs([0.030, 0.031, 0.029])
    out = bench_pairs.summarize_trace(parent, change)
    assert out["parent"]["embedding.embed.self_s"] == 0.040
    assert out["change"]["embedding.embed.self_s"] == 0.030
    assert out["parent"]["runs"] == out["change"]["runs"] == 3
    assert out["change"]["embedding.embed.calls"] == 3005
    assert out["counts_equal"] is True


@pytest.mark.parametrize("side, counts, failed, expected", [
    # a count that moves in one run only, on either side, is no median's
    ("parent", {1: {"embedding.embed.calls": (3006, "count")}}, (0, 0, 0),
     ["embedding.embed.calls"]),
    ("change", {2: {"sampler.depth_mean": (1.5, "layers")}}, (0, 0, 0),
     ["sampler.depth_mean"]),
    ("change", {}, (0, 0, 1), ["failed"]),
    ("change", {0: {"registry.apply_patch.calls": (4, "count")}}, (0, 0, 0),
     ["registry.apply_patch.calls"]),
])
def test_summarize_trace_needs_equal_counts_in_every_run(side, counts, failed, expected):
    runs = {"parent": traced_runs([0.04] * 3), "change": traced_runs([0.03] * 3)}
    runs[side] = traced_runs([0.04] * 3, counts, failed)
    out = bench_pairs.summarize_trace(runs["parent"], runs["change"])
    assert out["counts_differing"] == expected
    assert out["counts_equal"] is False


def test_collect_alternates_pair_order_then_traces():
    calls = []

    def fake_run(side, workload, seed, trace):
        calls.append((side, workload, seed, trace))
        return {"side": side, "seed": seed}

    paired, traced = bench_pairs.collect([("train_mix", [1, 2]), ("eval_fresh", [3])],
                                         2, fake_run)
    assert calls == [
        ("parent", "train_mix", 1, 0), ("change", "train_mix", 1, 0),
        ("change", "train_mix", 2, 0), ("parent", "train_mix", 2, 0),
        ("parent", "eval_fresh", 3, 0), ("change", "eval_fresh", 3, 0),
        ("parent", "train_mix", 2, 1), ("change", "train_mix", 2, 1),
        ("change", "train_mix", 2, 1), ("parent", "train_mix", 2, 1),
        ("parent", "train_mix", 2, 1), ("change", "train_mix", 2, 1),
        ("parent", "eval_fresh", 2, 1), ("change", "eval_fresh", 2, 1),
        ("change", "eval_fresh", 2, 1), ("parent", "eval_fresh", 2, 1),
        ("parent", "eval_fresh", 2, 1), ("change", "eval_fresh", 2, 1),
    ]
    assert bench_pairs.TRACE_RUNS == 3
    assert [r["seed"] for r in paired["train_mix"]["change"]] == [1, 2]
    assert traced["eval_fresh"]["change"] == [{"side": "change", "seed": 2}] * 3


@pytest.mark.parametrize("tail", ["259 passed, 1 skipped in 44.95s",
                                  "===== 259 passed, 1 skipped in 44.95s ====="])
def test_parse_tier1_sums_each_criterion(tail):
    out = "\n".join([
        "....",
        "============================= slowest durations =============================",
        "10.24s call     tests/test_acceptance.py::TestCriterion4Thing::test_a",
        "0.50s setup    tests/test_acceptance.py::TestCriterion4Thing::test_a",
        "7.07s call     tests/test_acceptance.py::TestCriterion2Other::test_b",
        "1.00s call     tests/test_cli.py::test_seed7",
        "0.03s teardown tests/test_cli.py::test_seed7",
        "0.00s setup    tests/test_cli.py::test_seed7",
        tail,
    ])
    got = bench_pairs.parse_tier1(out)
    assert got == {"wall_s": 44.95, "tests_s": 18.84, "result": "259 passed, 1 skipped",
                   "criterion_s": {"2": 7.07, "4": 10.74}}


def test_parse_tier1_sums_every_setup_call_and_teardown():
    out = "\n".join([
        "12.50s setup    tests/test_cli.py::test_a",
        "outside the durations: 9.00s call, and a 5.00s line of no phase",
        "5.00s collect  tests/test_cli.py",
        "2.25s call     tests/test_cli.py::test_a",
        "0.25s teardown tests/test_cli.py::test_a",
        "0.00s call     tests/test_cli.py::test_b",
        "",
        "(3 durations < 0.005s hidden.)",
        "===== 2 passed in 16.00s =====",
    ])
    got = bench_pairs.parse_tier1(out)
    assert (got["wall_s"], got["tests_s"]) == (16.0, 15.0)
    # a run that printed no duration has no work time, not a zero one
    assert bench_pairs.parse_tier1("===== 2 passed in 16.00s =====")["tests_s"] is None


def durations_output(wall, criterion4, criterion2, other=1.0):
    """What `pytest -q --durations=0 --durations-min=0` prints for a run of
    that many seconds."""
    return "\n".join([
        "....",
        f"{criterion4:.2f}s call     tests/test_acceptance.py::TestCriterion4Thing::test_a",
        f"{criterion2:.2f}s call     tests/test_acceptance.py::TestCriterion2Other::test_b",
        f"{other:.2f}s call     tests/test_cli.py::test_c",
        f"===== 259 passed, 1 skipped in {wall:.2f}s =====",
    ])


def test_tier1_alternates_sides_and_keeps_medians():
    canned = {"parent": [(51.4, 8.0, 7.0), (54.2, 9.5, 7.2), (52.0, 8.2, 7.1)],
              "change": [(69.2, 10.0, 7.5), (56.5, 8.1, 6.9), (53.0, 8.4, 7.0)]}
    cpu = {"parent": [47.1, 46.0, 49.9], "change": [45.0, 44.2, 46.3]}
    calls = []

    def fake_run(side, key):
        calls.append((side, key))
        return {**bench_pairs.parse_tier1(durations_output(*canned[side][key - 1])),
                "cpu_s": cpu[side][key - 1]}

    runs = bench_pairs.alternate(range(1, bench_pairs.TIER1_RUNS + 1), fake_run)
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    out = bench_pairs.summarize_tier1(runs)
    assert out["parent"] == {"wall_s": 52.0, "wall_s_runs": [51.4, 54.2, 52.0],
                             "tests_s": 16.3, "tests_s_runs": [16.0, 17.7, 16.3],
                             "cpu_s": 47.1, "cpu_s_runs": [47.1, 46.0, 49.9],
                             "results": ["259 passed, 1 skipped"] * 3,
                             "criterion_s": {"2": 7.1, "4": 8.2}}
    assert out["change"]["cpu_s"] == 45.0
    assert out["change"]["wall_s"] == 56.5
    assert out["change"]["tests_s_runs"] == [18.5, 16.0, 16.4]
    assert out["change"]["tests_s"] == 16.4
    assert out["change"]["criterion_s"] == {"2": 7.0, "4": 8.4}


def test_tier1_medians_skip_what_a_run_did_not_report():
    crashed = {"wall_s": None, "tests_s": None, "result": "error", "criterion_s": {},
               "cpu_s": 0.4}
    ran = {**bench_pairs.parse_tier1(durations_output(50.0, 8.0, 7.0)), "cpu_s": 48.0}
    out = bench_pairs.summarize_tier1({"parent": [crashed, ran, ran], "change": [crashed]})
    assert out["parent"]["wall_s"] == 50.0
    assert out["parent"]["tests_s"] == 16.0
    assert out["parent"]["cpu_s"] == 48.0
    assert out["parent"]["criterion_s"] == {"2": 7.0, "4": 8.0}
    assert out["change"] == {"wall_s": None, "wall_s_runs": [None], "tests_s": None,
                             "tests_s_runs": [None], "cpu_s": 0.4, "cpu_s_runs": [0.4],
                             "results": ["error"], "criterion_s": {}}


BURN = "import sys, time\nwhile time.process_time() < 0.3:\n    pass\n"
BURN_CMD = [sys.executable, "-c", BURN]
# runs its arguments as a child and waits for it
PARENT_CMD = [sys.executable, "-c",
              "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"]
SLEEP_CMD = [sys.executable, "-c", "import time; time.sleep(0.3)"]


@pytest.mark.parametrize("cmd, lo, hi", [(BURN_CMD, 0.3, None),
                                         (PARENT_CMD + BURN_CMD, 0.3, None),
                                         (SLEEP_CMD, 0.0, 0.25)],
                         ids=["burn", "burn-in-child", "sleep"])
def test_run_counting_cpu_counts_the_process_and_what_it_waited_for(cmd, lo, hi):
    """A run that burns 0.3 CPU seconds, itself or in a child it waits for,
    reads at least that; one that sleeps 0.3 s reads only its start-up."""
    proc, cpu_s = bench_pairs.run_counting_cpu(cmd, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert cpu_s >= lo and (hi is None or cpu_s < hi)


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_benchmark_files_equal_reads_only_the_benchmark_paths(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src").mkdir()
    files = {"perfbench/run.py": "a\n", "BENCHMARK.json": "{}\n", "src/x.py": "b\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "parent")
    assert bench_pairs.benchmark_files_equal("HEAD", tmp_path)
    (tmp_path / "src" / "x.py").write_text("changed\n")
    assert bench_pairs.benchmark_files_equal("HEAD", tmp_path)
    for name in ("perfbench/run.py", "BENCHMARK.json"):
        (tmp_path / name).write_text("changed\n")
        assert not bench_pairs.benchmark_files_equal("HEAD", tmp_path)
        (tmp_path / name).write_text(files[name])
        assert bench_pairs.benchmark_files_equal("HEAD", tmp_path)
    git(tmp_path, "rm", "-q", "perfbench/run.py")
    assert not bench_pairs.benchmark_files_equal("HEAD", tmp_path)


def test_py_lines_counts_the_python_files_directly_in_a_directory(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "b.py").write_text("y = 2\nz = 3")  # no final newline
    (tmp_path / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("nor\nthis\n")
    (tmp_path / "pkg.py").mkdir()  # a directory, whatever its name
    (tmp_path / "empty.py").write_text("")
    assert bench_pairs.py_lines(tmp_path) == 5
    for parts in bench_pairs.LINE_COUNTS.values():
        assert bench_pairs.py_lines(ROOT.joinpath(*parts)) > 0


def test_py_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    """Three code lines among a module, a class and a function docstring, a
    comment on a line of its own and blank lines; a string that is no
    docstring, and a comment after code, leave their line counted."""
    (tmp_path / "a.py").write_text(
        '"""Module\n\ndocstring."""\n\n'
        "# a comment\n"
        "class A:\n"
        "    '''One line.'''\n"
        "\n"
        "    def f(self):\n"
        '        """Two\n        lines."""\n'
        "        return 'not a docstring'  # code\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("not = 'counted'\n")
    assert bench_pairs.code_lines((tmp_path / "a.py").read_text()) == 3
    assert bench_pairs.py_code_lines(tmp_path) == 3
    for parts in bench_pairs.CODE_LINE_COUNTS.values():
        src = ROOT.joinpath(*parts)
        assert 0 < bench_pairs.py_code_lines(src) < bench_pairs.py_lines(src)


# runs `main` of the bench_pairs.py named by argv[1] in the current directory,
# with a `collect` that stops the process by SIGTERM while the parent tree is
# exported; prints whether SIGTERM's handler is the default again
STOPPED_RUN = """
import importlib.util, os, signal, sys, time
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

def stopped(*args):
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(30)

bench_pairs.collect = stopped
try:
    bench_pairs.main(["--parent", "HEAD", "--out", "out.json", "--what", "stopped",
                      "--workload", "train_mix:1"])
finally:
    print(signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)
"""


def test_sigterm_removes_the_parent_export(tmp_path):
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    repo.mkdir()
    tmp.mkdir()
    (repo / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}\n')
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    proc = subprocess.run(
        [sys.executable, "-c", STOPPED_RUN, str(ROOT / "tools" / "bench_pairs.py")],
        cwd=repo, env={**os.environ, "TMPDIR": str(tmp)}, capture_output=True,
        text=True, timeout=60)
    assert list(tmp.glob("bench-parent-*")) == []
    assert (proc.returncode, proc.stdout) == (128 + signal.SIGTERM, "True\n"), proc.stderr
