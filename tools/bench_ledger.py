#!/usr/bin/env python3
"""Records the pipeline benchmark's numbers, or compares two revisions.

Run from the repository root:

    python3 tools/bench_ledger.py [--out BENCH_pipeline.json]
    python3 tools/bench_ledger.py --compare REV [--pairs 10] [--first-seed 100]
                                  [--workloads replay,simulate,serve]

Every run lasts BENCHMARK.json's run_seconds.

The first form runs pipebench/run.py at seed 0 for each workload of
BENCHMARK.json, once untraced (--trace 0, the end-to-end rows) and once
traced (--trace 1, the per-layer rows), and writes them to
BENCH_pipeline.json with each run's calibration slowdown (null for the
traced runs, which pipebench does not calibrate) and what was measured:
`measured_on` is HEAD at the time, `dirty` says whether the tracked files
differed from it, and `tree` is the git tree of the tracked files as
measured. Commit that file with a change that claims a speed-up, so the
next change can diff against it. Measured before the commit that holds
it, such a ledger names that commit's parent as `measured_on`; `git diff
<tree> <commit> -- . ':!BENCH_pipeline.json'` prints nothing when
<commit> holds exactly the measured files.

The second form extracts REV with `git archive` into a work directory
(default .bench_build/ledger; a later comparison against the same commit
reuses it and its build), and runs N pairs per workload: pair i runs
seed first_seed + i on REV and on this checkout, the order alternating from
pair to pair, because the host's speed drifts. It prints, for every
end-to-end metric, each side's median and quartiles, how many pairs this
checkout won, the ratio of the medians, whether the medians lie further
apart than REV's quartile spread, and whether this checkout stayed inside the
metric's BENCHMARK.json bound; every run's metrics go to
<work>/compare-<workload>.json, with REV as given and as a commit hash. It
exits 1 when a run fails or a metric leaves its bound.

Stdlib only. pipebench/ is run, never edited.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOWDOWN_RE = re.compile(r"host slowdown: median ([0-9.]+)")


# --- summary arithmetic (unit-tested in tests/tools/bench_ledger_test.py) ---

def quantile(values, q):
    """The q-quantile of `values` by linear interpolation between order
    statistics (numpy's default): position q * (n - 1) of the sorted list."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3)."""
    return tuple(quantile(values, q) for q in (0.25, 0.5, 0.75))


def summarize(base, head, better, bound):
    """Compares paired samples of one metric: base[i] and head[i] come from
    the same pair of runs. `better` is "higher" or "lower"; `bound` is the
    largest relative loss of head's median against base's that is allowed."""
    if len(base) != len(head) or not base:
        raise ValueError("summarize needs equally many paired samples, at least one")
    b = quartiles(base)
    h = quartiles(head)
    higher = better == "higher"
    wins = sum(1 for x, y in zip(base, head) if (y > x if higher else y < x))
    ratio = h[1] / b[1] if b[1] != 0 else float("inf")
    if higher:
        within = h[1] >= b[1] * (1 - bound)
    else:
        within = h[1] <= b[1] * (1 + bound)
    return {
        "base": b,
        "head": h,
        "wins": wins,
        "pairs": len(base),
        "ratio": ratio,
        # A move counts as resolved when the medians lie further apart than
        # the base side's own quartile spread.
        "resolved": abs(h[1] - b[1]) > b[2] - b[0],
        "within_bound": within,
    }


def parse_run(stdout, stderr):
    """The result JSON (pipebench's last stdout line) and the run's median
    calibration slowdown (None when stderr does not report one)."""
    lines = [ln for ln in stdout.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("pipebench printed no result line")
    result = json.loads(lines[-1])
    match = SLOWDOWN_RE.search(stderr)
    return result, float(match.group(1)) if match else None


def metric_values(result):
    return {name: m["value"] for name, m in result.get("metrics", {}).items()}


def comparison_dump(rev, rev_sha, first_seed, samples):
    """The raw record of one workload's comparison: the revision compared
    against (as given, and its commit), the first seed, and each side's
    per-run metrics under "base" and "head"."""
    return {"rev": rev, "rev_sha": rev_sha, "first_seed": first_seed,
            "base": samples["base"], "head": samples["head"]}


def fmt_quartiles(q):
    return "/".join(f"{v:.4g}" for v in q)


# --- running pipebench ------------------------------------------------------

def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_pipebench(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "pipebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    stderr = done.stderr.decode(errors="replace")
    if done.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode} in {root}")
    result, slowdown = parse_run(done.stdout.decode(), stderr)
    if not result.get("correct", False) or result.get("failed", 0) != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root}: incorrect run")
    return result, slowdown


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, check=True,
                          text=True).stdout.strip()


def write_ledger(args):
    spec = load_spec(ROOT)
    # `git stash create` records the tracked files as a commit without
    # touching the work tree or the stash list; it prints nothing when they
    # equal HEAD.
    measured = git("stash", "create") or "HEAD"
    ledger = {
        "measured_on": git("rev-parse", "HEAD"),
        "dirty": measured != "HEAD",
        "tree": git("rev-parse", measured + "^{tree}"),
        "seed": 0,
        "seconds": spec["run_seconds"],
        "cpus": os.cpu_count(),
        "end_to_end": {},
        "per_layer": {},
    }
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"bench_ledger: {w} --trace {trace}", file=sys.stderr, flush=True)
            result, slowdown = run_pipebench(ROOT, w, 0, spec["run_seconds"], trace)
            ledger[key][w] = {"slowdown": slowdown, "attempted": result["attempted"],
                              "failed": result["failed"], "metrics": metric_values(result)}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"bench_ledger: wrote {args.out}", file=sys.stderr)
    return 0


def compare(args):
    spec = load_spec(ROOT)
    base_root = os.path.join(args.work, "base")
    # An extraction of the same commit is reused, with its warm build.
    rev = git("rev-parse", args.compare + "^{commit}")
    stamp = os.path.join(base_root, ".ledger-rev")
    if not os.path.exists(stamp) or open(stamp, encoding="utf-8").read() != rev:
        shutil.rmtree(base_root, ignore_errors=True)
        os.makedirs(base_root)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_root], input=archive, check=True)
        with open(stamp, "w", encoding="utf-8") as f:
            f.write(rev)
    sides = {"base": base_root, "head": ROOT}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        samples = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                result, _ = run_pipebench(sides[side], w, seed, spec["run_seconds"], 0)
                samples[side].append(metric_values(result))
            print(f"bench_ledger: {w} pair {i + 1}/{args.pairs} (seed {seed}) done",
                  file=sys.stderr, flush=True)
        raw = os.path.join(args.work, f"compare-{w}.json")
        with open(raw, "w", encoding="utf-8") as f:
            json.dump(comparison_dump(args.compare, rev, args.first_seed, samples), f, indent=1)
        print(f"\n{w}: {args.compare} (base) vs this checkout (head), {args.pairs} pairs")
        print(f"{'metric':<22} {'base q1/med/q3':>32} {'head q1/med/q3':>32} "
              f"{'wins':>6} {'ratio':>7} {'resolved':>9} {'bound':>6}")
        for m in spec["end_to_end"]:
            s = summarize([x[m["name"]] for x in samples["base"]],
                          [x[m["name"]] for x in samples["head"]], m["better"], m["bound"])
            ok = ok and s["within_bound"]
            print(f"{m['name']:<22} {fmt_quartiles(s['base']):>32} {fmt_quartiles(s['head']):>32} "
                  f"{s['wins']:>3}/{s['pairs']:<2} {s['ratio']:>7.3f} "
                  f"{'yes' if s['resolved'] else 'no':>9} "
                  f"{'ok' if s['within_bound'] else 'OUT':>6}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_pipeline.json"))
    parser.add_argument("--compare", metavar="REV", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--work", default=os.path.join(ROOT, ".bench_build", "ledger"))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    try:
        return compare(args) if args.compare else write_ledger(args)
    except (RuntimeError, subprocess.CalledProcessError, ValueError) as e:
        print(f"bench_ledger: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
