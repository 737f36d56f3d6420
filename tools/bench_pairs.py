"""Interleaved parent/change pairs of the benchmark.

    python3 tools/bench_pairs.py --label NAME --parent REV \
        --workload short_ctx --seeds 1-10 [--workload long_ctx --seeds 11-20] \
        [--seconds 45] [--trace 0|1]

Exports REV with `git archive` to `<tmp>/parent` and copies the working
tree's tracked files, and its untracked files that git does not ignore, to
`<tmp>/change`. The two paths have equal length, because the heap layout,
and with it `peak_rss_mb`, shifts with the size of the process environment.
For each workload and each of its seeds it runs `perfbench/run.py` once in
each directory. The side that runs first alternates: the parent on even
seeds, the change on odd ones. After every pair it rewrites
BENCH_<label>.json at the root of the working tree: the raw output lines of
every run, and per workload and metric the pairs, each side's min, max,
median and quartiles (statistics.quantiles, exclusive method), the ratio of
the medians (change / parent) and the verdict:
- `wins`, `wins_share`: pairs the change won, in the metric's direction
  from BENCHMARK.json, ties for neither;
- `median_gain_exceeds_parent_iqr`: the change's median is better than the
  parent's by more than the parent's interquartile range;
- `gain_shown`: both of the above, over at least 10 pairs with a wins
  share of at least 0.9;
- `within_bound` (end-to-end metrics only): the change's median is worse
  than the parent's by no more than the metric's BENCHMARK.json bound.
Standard library only.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list:
    """'1-10' or '3,5,8' -> a list of ints."""
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def export(rev: str, dest: Path) -> str:
    """Unpack `rev` of the working tree's repository into dest; returns the
    full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # The "data" filter (Python 3.12, and 3.10.12/3.11.4 backports)
        # refuses links and paths that leave dest.
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                else {}))
    return commit.stdout.strip()


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked files, and its untracked files that
    git does not ignore, into dest. Tracked files deleted in the tree are
    left out."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, capture_output=True,
                           check=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> list:
    """The benchmark's two JSON lines (machine record, result)."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=root, capture_output=True, text=True, check=True)
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith("{")]
    return [json.loads(lines[0]), json.loads(lines[-1])]


def declared_metrics() -> dict:
    """name -> the metric's BENCHMARK.json entry (`better`, and `bound` for
    the end-to-end metrics)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def summarize(runs: list, declared: dict) -> dict:
    """Per workload and metric, the statistics over the completed pairs."""
    sides = {}
    for r in runs:
        for name, m in r["output"][1]["metrics"].items():
            key = (r["workload"], name)
            sides.setdefault(key, {}).setdefault(r["seed"], {})[r["side"]] = m["value"]
    summary = {}
    for (workload, name), by_seed in sorted(sides.items()):
        pairs = [s for s in by_seed.values() if len(s) == 2]
        if not pairs:
            continue
        row = {"pairs": len(pairs)}
        for side in ("parent", "change"):
            vals = [p[side] for p in pairs]
            q1, _, q3 = (statistics.quantiles(vals, n=4, method="exclusive")
                         if len(vals) > 1 else (vals[0],) * 3)
            row.update({f"{side}_min": min(vals), f"{side}_max": max(vals),
                        f"{side}_median": statistics.median(vals),
                        f"{side}_q1": q1, f"{side}_q3": q3})
        row["ratio"] = (row["change_median"] / row["parent_median"]
                        if row["parent_median"] else None)
        entry = declared.get(name, {})
        sign = 1 if entry.get("better", "lower") == "higher" else -1
        row["wins"] = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs)
        row["wins_share"] = row["wins"] / len(pairs)
        gain = sign * (row["change_median"] - row["parent_median"])
        row["median_gain_exceeds_parent_iqr"] = gain > row["parent_q3"] - row["parent_q1"]
        row["gain_shown"] = (len(pairs) >= 10 and row["wins_share"] >= 0.9
                             and row["median_gain_exceeds_parent_iqr"])
        if "bound" in entry:
            row["within_bound"] = gain >= -entry["bound"] * abs(row["parent_median"])
        summary.setdefault(workload, {})[name] = row
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", action="append", required=True,
                    help="per --workload, in order: '1-10' or '1,4,9'")
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        ap.error("give one --seeds per --workload")

    out_path = ROOT / f"BENCH_{args.label}.json"
    declared = declared_metrics()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commit = export(args.parent, roots["parent"])
        copy_worktree(roots["change"])
        record = {
            "label": args.label,
            "what": (f"tools/bench_pairs.py: perfbench/run.py --seconds {args.seconds:g} "
                     f"--trace {args.trace}, the parent from a git archive of {commit}, "
                     "the change from a copy of the working tree, at paths of equal "
                     "length; the parent runs first on even seeds. Workloads and seeds: "
                     + "; ".join(f"{w} {s}" for w, s in zip(args.workload, args.seeds))),
            "parent_commit": commit,
        }
        for workload, spec in zip(args.workload, args.seeds):
            for seed in seed_list(spec):
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                for i, side in enumerate(order):
                    runs.append({"side": side, "workload": workload, "seed": seed,
                                 "trace": args.trace, "ran_first": i == 0,
                                 "output": run_once(roots[side], workload, seed,
                                                    args.seconds, args.trace)})
                record.update(summary=summarize(runs, declared), runs=runs)
                out_path.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} seed {seed}: pair done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
