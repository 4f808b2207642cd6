"""Paired benchmark runs of a parent commit and the working tree, as BENCH_<n>.json.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_9.json \\
        --what "what the change does" --workload train_mix:31-40 \\
        --workload eval_fresh:31-33 --workload selfedit_live:31-33

The parent commit is exported with `git archive` into a temporary directory,
so the run adds no worktree to the repository; the directory is removed when
the run ends, also when SIGTERM stops it. Each pair runs
`perfbench/run.py --trace 0` for the `run_seconds` of `BENCHMARK.json` on one seed in both
trees, one after the other: the parent first on odd seeds and the change first
on even seeds. Then `TRACE_RUNS` `--trace 1` runs of each tree per workload,
at seed 2, alternating as the pairs do, give the median of each per-layer
metric (one traced run swings a per-layer time by a third) and check that
every count-valued metric is unchanged in every run. The tier-1 suite then
runs `TIER1_RUNS` times in each tree, alternating likewise, and the record
keeps each side's median wall time, the median of `tests_s` (the sum of every
setup, call and teardown duration pytest prints; the gap between the two is
start-up, collection and reporting), the median `cpu_s` (the user+sys CPU
seconds of pytest and the processes it waited for, which leave out the time
other guests of the host steal from the run) and the median time of each
acceptance criterion: one run swings more than most changes move it. The
record holds, per workload, the medians (with the median `timed_units`,
against which `peak_rss_mb` is read), the quartiles, how many pairs the change
won and tied, `rss_bytes_per_extra_unit` (the median over pairs of the
change's extra peak RSS in bytes per extra timed unit, which tells the
benchmark's per-unit buffers apart from growth of the program; only pairs
whose extra units are at least `MIN_EXTRA_UNIT_SHARE` of the parent's count,
since RSS noise over a few extra units reads as any figure at all),
`bound_check` (each end-to-end metric read against its bound in
`BENCHMARK.json`: "over", "unresolved" or "within"), `gain_check` (each
end-to-end metric read against the claim rule: "met" when the change is better
in at least nine tenths of the pairs and its median beats the parent's by more
than the parent's IQR, else "not met"), `failed_share_check` ("over" when the
change failed a larger share of its attempted operations than the parent, else
"within"), the checkpoint sha256 per seed with `checkpoint_sha256_equal` (true
when every seed's is the same on both sides), the traced metrics' medians with
`counts_equal` and `counts_differing` (the count-valued metrics, and `failed`,
that differ in any traced run), `benchmark_files_equal` (true when
`perfbench/` and `BENCHMARK.json` in the working tree are as they are at the
parent commit), and per side the lines of the `.py` files in `src/maas`
(`src_maas_lines`) and in `tests/` (`tests_lines`).
"""

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

# traced metrics that count events: equal on both sides unless the work
# itself changed
COUNT_UNITS = ("count", "layers", "chars")
COUNT_FRACS = ("embedding.embed.repeat_frac",)
TRACE_SEED = 2
MIN_EXTRA_UNIT_SHARE = 0.05  # of the parent's timed units, for rss_bytes_per_extra_unit
TIER1_RUNS = 3  # per side
TRACE_RUNS = 3  # per side and workload, all at TRACE_SEED
# record key -> the directory, under each tree, whose .py lines it counts
LINE_COUNTS = {"src_maas_lines": ("src", "maas"), "tests_lines": ("tests",)}
PAIRING = ("parent and change on the same seed, one after the other, the parent"
           " first on odd seeds and the change first on even seeds; medians and"
           " quartiles over the pairs; ties count in pairs_equal, not in"
           " pairs_change_better")


def parse_seeds(text):
    """"31-40" or "1,3,5" (or both, comma-separated) -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pair_order(seed):
    return ("parent", "change") if seed % 2 else ("change", "parent")


def parse_run(stdout):
    """The result of one `perfbench/run.py` run from its standard output:
    the last line's JSON and the `info` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = next(json.loads(line[len("info "):]) for line in lines
                if line.startswith("info "))
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "info": info,
    }


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def rss_bytes_per_extra_unit(parent_runs, change_runs):
    """Median over pairs of Δ`peak_rss_mb`·2**20 / Δ`timed_units`, change
    minus parent: the bytes of peak RSS each extra timed unit brings. A pair
    whose extra (or missing) units are under `MIN_EXTRA_UNIT_SHARE` of the
    parent's is left out; None when no pair is left, or when the runs report
    no `peak_rss_mb`."""
    ratios = []
    for p, c in zip(parent_runs, change_runs):
        units = p["info"]["timed_units"]
        extra_units = c["info"]["timed_units"] - units
        if extra_units and abs(extra_units) >= MIN_EXTRA_UNIT_SHARE * units \
                and "peak_rss_mb" in p["metrics"]:
            extra_mb = c["metrics"]["peak_rss_mb"] - p["metrics"]["peak_rss_mb"]
            ratios.append(extra_mb * 2**20 / extra_units)
    return round(statistics.median(ratios), 1) if ratios else None


def bound_check(runs, end_to_end):
    """Each end-to-end metric of `BENCHMARK.json` (its `better` direction and
    its `bound`, a fraction of the parent's median) read over the runs of
    both sides: "unresolved" when the parent's IQR exceeds the bound times
    its median and not every change run beats every parent run (such a
    parent cannot tell a change past the bound from noise); else "over"
    when the change's median is worse than the parent's by more than the
    bound; else "within"."""
    out = {}
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1  # so that higher is better
        parent = [sign * r["metrics"][name] for r in runs["parent"]]
        change = [sign * r["metrics"][name] for r in runs["change"]]
        median = statistics.median(parent)
        q1, q3 = _quartiles(parent)
        if q3 - q1 > bound * abs(median) and min(change) <= max(parent):
            out[name] = "unresolved"
        elif statistics.median(change) < median - bound * abs(median):
            out[name] = "over"
        else:
            out[name] = "within"
    return out


def gain_check(summary, directions):
    """Each end-to-end metric of a `summarize_pairs` record read against the
    claim rule: "met" when the change is better in at least nine tenths of
    the pairs (a tie counts for neither side) and its median is better than
    the parent's by more than the parent's IQR of that metric, else "not
    met"."""
    out = {}
    for name, direction in directions.items():
        sign = 1 if direction == "higher" else -1  # so that higher is better
        q1, q3 = summary["quartiles"]["parent"][name]
        gap = sign * (summary["change"][name] - summary["parent"][name])
        met = (10 * summary["pairs_change_better"][name] >= 9 * summary["pairs"]
               and gap > q3 - q1)
        out[name] = "met" if met else "not met"
    return out


def failed_share_check(parent, change):
    """"over" when the change's failed/attempted, over all its runs, exceeds
    the parent's, else "within"; `parent` and `change` hold each side's
    summed `failed` and `attempted`."""
    # cross-multiplied: exact on the integer counts
    over = change["failed"] * parent["attempted"] > parent["failed"] * change["attempted"]
    return "over" if over else "within"


def summarize_pairs(seeds, runs, directions):
    """BENCH record of one workload. `runs[side][i]` is the parsed run of
    `seeds[i]` on side "parent" or "change"; `directions` maps each
    end-to-end metric to "higher" or "lower" (which is better)."""
    out = {"seeds": list(seeds), "pairs": len(seeds)}
    for side in ("parent", "change"):
        side_runs = runs[side]
        summary = {name: statistics.median(r["metrics"][name] for r in side_runs)
                   for name in directions}
        # the benchmark keeps per-unit buffers, so its peak_rss_mb grows
        # with the units it timed
        summary["timed_units"] = statistics.median(
            r["info"]["timed_units"] for r in side_runs)
        summary["failed"] = sum(r["failed"] for r in side_runs)
        summary["attempted"] = sum(r["attempted"] for r in side_runs)
        summary["checkpoint_sha256_step100"] = {
            str(seed): r["info"]["checkpoint_sha256"] for seed, r in zip(seeds, side_runs)}
        out[side] = summary
    out["failed_share_check"] = failed_share_check(out["parent"], out["change"])
    out["checkpoint_sha256_equal"] = (out["parent"]["checkpoint_sha256_step100"]
                                      == out["change"]["checkpoint_sha256_step100"])
    out["change_over_parent"] = {
        name: round(out["change"][name] / out["parent"][name], 4)
        if out["parent"][name] else None for name in directions}
    better, equal = {}, {}
    for name, direction in directions.items():
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])]
        equal[name] = sum(p == c for p, c in pairs)
        better[name] = sum((c > p) if direction == "higher" else (c < p) for p, c in pairs)
    out["pairs_change_better"] = better
    out["pairs_equal"] = equal
    out["rss_bytes_per_extra_unit"] = rss_bytes_per_extra_unit(runs["parent"],
                                                               runs["change"])
    out["quartiles"] = {
        side: {name: _quartiles([r["metrics"][name] for r in runs[side]])
               for name in directions}
        for side in ("parent", "change")}
    q1, q3 = out["quartiles"]["parent"]["throughput_per_s"]
    out["parent_throughput_iqr"] = q3 - q1
    out["gain_check"] = gain_check(out, directions)
    return out


def count_metrics(units):
    return sorted(name for name, unit in units.items()
                  if unit in COUNT_UNITS or name in COUNT_FRACS)


def summarize_trace(parent, change):
    """Traced metrics of the runs of both sides, `parent` and `change` each a
    list of parsed runs of one seed: per side the number of runs, their
    summed `failed` and the median of every metric; `counts_differing`, the
    names of the count-valued metrics of any run (and `failed`) whose value
    in some run differs from the parent's first run, so that a count a
    change moves by design shows by name; and whether none differs."""
    every = parent + change
    reference = every[0]
    sides = {}
    for side, side_runs in (("parent", parent), ("change", change)):
        names = dict.fromkeys(k for r in side_runs for k in r["metrics"])
        sides[side] = {
            "runs": len(side_runs),
            "failed": sum(r["failed"] for r in side_runs),
            "traced_units": statistics.median(r["info"]["traced_units"]
                                              for r in side_runs),
            **{k: statistics.median(r["metrics"][k] for r in side_runs
                                    if k in r["metrics"]) for k in names}}
    counts = sorted(set().union(*(count_metrics(r["units"]) for r in every)))
    differing = ["failed"] if any(r["failed"] != reference["failed"] for r in every) else []
    differing += [k for k in counts
                  if any(r["metrics"].get(k) != reference["metrics"].get(k) for r in every)]
    return {**sides, "counts_compared": count_metrics(reference["units"]),
            "counts_differing": differing, "counts_equal": not differing}


def alternate(keys, run):
    """`run(side, key)` on both sides for each key in turn: the parent first
    on odd keys and the change first on even ones. Returns {side: [results]}."""
    runs = {"parent": [], "change": []}
    for key in keys:
        for side in pair_order(key):
            runs[side].append(run(side, key))
    return runs


def collect(workloads, trace_seed, run):
    """Every run the record needs, in order. `run(side, workload, seed,
    trace)` returns one parsed run. Returns ({workload: {side: [runs]}},
    {workload: {side: [`TRACE_RUNS` traced runs]}})."""
    paired = {workload: alternate(seeds, lambda side, seed: run(side, workload, seed, 0))
              for workload, seeds in workloads}
    traced = {workload: alternate(range(1, TRACE_RUNS + 1),
                                  lambda side, _: run(side, workload, trace_seed, 1))
              for workload, _ in workloads}
    return paired, traced


def parse_tier1(stdout):
    """Wall time, the result line, `tests_s` (the sum of every setup, call
    and teardown duration) and the seconds per acceptance criterion from
    `pytest -q --durations=0 --durations-min=0` output; `tests_s` is None
    when no duration was printed."""
    criterion_s = {}
    durations = re.findall(r"^([\d.]+)s (?:setup|call|teardown)\s", stdout, re.M)
    for m in re.finditer(r"^([\d.]+)s \w+\s+\S*TestCriterion(\d+)", stdout, re.M):
        criterion_s[m.group(2)] = round(criterion_s.get(m.group(2), 0.0)
                                        + float(m.group(1)), 2)
    last = stdout.strip().splitlines()[-1].strip("= ")
    wall = re.search(r" in ([\d.]+)s", last)
    return {"wall_s": float(wall.group(1)) if wall else None,
            "tests_s": round(sum(map(float, durations)), 2) if durations else None,
            "result": last.split(" in ")[0],
            "criterion_s": dict(sorted(criterion_s.items(), key=lambda kv: int(kv[0])))}


def _median(values):
    values = [v for v in values if v is not None]
    return round(statistics.median(values), 2) if values else None


def summarize_tier1(runs):
    """Per side: the median wall time, `tests_s` and `cpu_s` over its runs
    (None when no run reported one), each run's wall time, `tests_s`,
    `cpu_s` and result line, and the median seconds of each acceptance
    criterion over the runs that timed it."""
    out = {}
    for side, side_runs in runs.items():
        criteria = sorted({c for r in side_runs for c in r["criterion_s"]}, key=int)
        out[side] = {
            "wall_s": _median(r["wall_s"] for r in side_runs),
            "wall_s_runs": [r["wall_s"] for r in side_runs],
            "tests_s": _median(r["tests_s"] for r in side_runs),
            "tests_s_runs": [r["tests_s"] for r in side_runs],
            "cpu_s": _median(r["cpu_s"] for r in side_runs),
            "cpu_s_runs": [r["cpu_s"] for r in side_runs],
            "results": [r["result"] for r in side_runs],
            "criterion_s": {c: _median(r["criterion_s"].get(c) for r in side_runs)
                            for c in criteria},
        }
    return out


def py_lines(directory):
    """The lines of every `.py` file directly in `directory`, its
    subdirectories left out."""
    total = 0
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.endswith(".py") and os.path.isfile(path):
            with open(path) as fh:
                total += sum(1 for _ in fh)
    return total


def benchmark_files_equal(parent, tree="."):
    """Whether `git diff --quiet <parent> -- perfbench BENCHMARK.json`
    succeeds in `tree`: the benchmark's tracked files are as they are at
    `parent`."""
    proc = subprocess.run(["git", "diff", "--quiet", parent, "--", "perfbench",
                           "BENCHMARK.json"], cwd=tree, capture_output=True)
    return proc.returncode == 0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _perfbench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_counting_cpu(cmd, **kwargs):
    """`subprocess.run(cmd, **kwargs)`, and the user+sys CPU seconds of the
    process and of every process it waited for: the `RUSAGE_CHILDREN` delta
    across the call, rounded to 0.01 s."""
    before = _children_cpu_s()
    proc = subprocess.run(cmd, **kwargs)
    return proc, round(_children_cpu_s() - before, 2)


def _tier1(tree):
    env = dict(os.environ, PYTHONPATH="src")
    proc, cpu_s = run_counting_cpu(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0", "--durations-min=0"],
        cwd=tree, capture_output=True, text=True, env=env)
    return {**parse_tier1(proc.stdout), "cpu_s": cpu_s}


def _exit_on_sigterm(signum, frame):
    """Turn SIGTERM into `SystemExit`, so `finally` blocks run on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--what", required=True, help="one line on the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="<name>:<seeds>, seeds as 31-40 or 1,3,5; repeatable")
    args = parser.parse_args(argv)

    workloads = [(name, parse_seeds(seeds))
                 for name, _, seeds in (w.partition(":") for w in args.workload)]
    with open("BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "--short", args.parent],
                            capture_output=True, text=True, check=True).stdout.strip()
    # SIGTERM's default action skips `finally`, which would leave the export
    # of the parent tree behind
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    trees = {"parent": os.path.join(tmp, "tree"), "change": os.getcwd()}
    try:
        os.makedirs(trees["parent"])
        archive = subprocess.run(["git", "archive", args.parent], capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", trees["parent"]], input=archive, check=True)

        def run(side, workload, seed, trace):
            print(f"bench_pairs: {side} {workload} seed {seed} trace {trace}",
                  file=sys.stderr, flush=True)
            return _perfbench(trees[side], workload, seed, seconds, trace)

        paired, traced = collect(workloads, TRACE_SEED, run)
        tier1 = summarize_tier1(alternate(range(1, TIER1_RUNS + 1),
                                          lambda side, _: _tier1(trees[side])))
        lines = {key: {side: py_lines(os.path.join(tree, *parts))
                       for side, tree in trees.items()}
                 for key, parts in LINE_COUNTS.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)

    env = next(iter(paired.values()))["change"][0]["info"]["environment"]
    record = {
        "what": args.what,
        "parent_commit": commit,
        "machine": {"cpu": f"{_cpu_model()}, {env['nproc']} vCPU",
                    "python": env["python"], "numpy": env["numpy"],
                    "blas_threads": int(env["blas_threads_env"])},
        "command": (f"python3 perfbench/run.py --workload <w> --seed <n>"
                    f" --seconds {seconds:g} --trace 0"),
        "pairing": PAIRING,
        "benchmark_files_equal": benchmark_files_equal(args.parent),
        "trace_command": (f"python3 perfbench/run.py --workload <w> --seed"
                          f" {TRACE_SEED} --seconds {seconds:g} --trace 1,"
                          f" {TRACE_RUNS} runs per side alternating as the pairs"
                          " do; each metric is the median over a side's runs;"
                          " counts_equal compares every count-valued metric"
                          " (unit count, layers or chars, and embed.repeat_frac)"
                          " plus failed in every run, and counts_differing names"
                          " those that differ"),
    }
    record["tier1"] = {
        "command": ("PYTHONPATH=src python -m pytest -q"
                    " --continue-on-collection-errors --durations=0"
                    " --durations-min=0"),
        "runs_per_side": TIER1_RUNS,
        **tier1,
        "note": ("medians over the runs of each side, parent and change"
                 " alternating, on the same host; tests_s sums every setup,"
                 " call and teardown duration pytest printed; wall_s minus"
                 " tests_s is start-up, collection and reporting; cpu_s is"
                 " the user+sys CPU seconds of pytest and every process it"
                 " waited for (the RUSAGE_CHILDREN delta)")}
    record.update(lines)
    record["workloads"] = {
        name: {**summarize_pairs(seeds, paired[name], directions),
               "bound_check": bound_check(paired[name], benchmark["end_to_end"])}
        for name, seeds in workloads}
    record[f"trace_seed{TRACE_SEED}"] = {
        name: summarize_trace(t["parent"], t["change"]) for name, t in traced.items()}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
