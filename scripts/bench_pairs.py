"""Alternating parent/change runs of the benchmark, summarized as BENCH_<n>.json.

    python3 scripts/bench_pairs.py run --parent P --change C \
        --workload palindromes --seeds 3101-3110 --out pairs.jsonl
    python3 scripts/bench_pairs.py summarize pairs.jsonl > rows.json

P and C are two checkouts (each with its own bench/ and src/).  `run`
runs `python3 bench/run.py --workload W --seed S --seconds T --trace 0`
once in each for every seed, parent first on even pair indices and change
first on odd ones, and appends one JSON line per run.  `summarize` gives,
per workload and end-to-end metric, the median and quartiles of each side,
the change/parent ratio of the medians, the number of pairs the change
won (ties count for neither side) and whether a gain may be claimed: on
at least ten pairs, the change wins nine tenths of them and its median is
better than the parent's by more than the parent's interquartile range.
`within_bound` applies the rule that every workload must pass: the
change's median is worse than the parent's by at most the metric's
`bound` times the parent's median.  Each workload also gets each side's
failed and attempted operations and failed share; a workload with no seed
run on both sides is an error.
BENCH_<n>.json holds these rows under a header that names the change,
the parent commit and the machine.  Traced runs (`--trace 1`) go to the
same file and are summarized as per-layer rows without statistics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# end-to-end metrics, whether higher is better and the relative bound on a
# regression, read from BENCHMARK.json
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
END_TO_END = {m["name"]: (m["better"] == "higher", m["bound"]) for m in
              json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args) -> None:
    with open(args.out, "a", encoding="utf-8") as out:
        for i, seed in enumerate(seeds(args.seeds)):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in sides:
                root = Path(getattr(args, side))
                result = bench(root, args.workload, seed, args.seconds, args.trace)
                record = {"workload": args.workload, "seed": seed, "side": side,
                          "first": sides[0], "trace": args.trace, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": values}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def summarize(args) -> None:
    with open(args.pairs, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    untraced = [r for r in records if r["trace"] == 0]
    out: dict = {"end_to_end": {}, "traced": {}}
    for workload in dict.fromkeys(r["workload"] for r in untraced):
        rows = {}
        by_seed = {}
        for r in untraced:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        if not pairs:
            sys.exit(f"summarize: workload {workload} has no seed run on both sides")
        for name, (higher, bound) in END_TO_END.items():
            value = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                     for side in ("parent", "change")}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(value["parent"], value["change"]))
            parent, change = quartiles(value["parent"]), quartiles(value["change"])
            gain = change["median"] - parent["median"] if higher else (
                parent["median"] - change["median"])
            rows[name] = {
                "unit": pairs[0]["parent"]["metrics"][name]["unit"],
                "better": "higher" if higher else "lower",
                "parent": parent, "change": change,
                "ratio": change["median"] / parent["median"] if parent["median"] else None,
                "change_wins": f"{wins}/{len(pairs)}",
                "claim_holds": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                and gain > parent["q3"] - parent["q1"],
                "within_bound": -gain <= bound * abs(parent["median"]),
            }
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        attempted = {side: sum(p[side]["attempted"] for p in pairs) for side in failed}
        out["end_to_end"][workload] = {
            "seeds": sorted(by_seed), "pairs": len(pairs), "failed_ops": failed,
            "attempted": attempted,
            "failed_share": {side: failed[side] / attempted[side] if attempted[side] else None
                             for side in failed},
            "metrics": rows}
    for r in records:
        if r["trace"] == 1:
            key = f"{r['workload']}/seed {r['seed']}"
            metrics = r["result"]["metrics"]
            out["traced"].setdefault(key, {})[r["side"]] = {
                name: m["value"] for name, m in metrics.items()}
    json.dump(out, sys.stdout, indent=1)
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="one seed or a range lo-hi")
    r.add_argument("--seconds", type=float, default=25)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("pairs")
    args = ap.parse_args(argv)
    if args.command == "run":
        run(args)
    else:
        summarize(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
