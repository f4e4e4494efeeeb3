#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over seeds, plus a
held-out seed check.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--held-out 1001] [--seconds N]

Runs perfbench/run.py untraced once per seed and workload. For every
end-to-end metric it prints the ten values' median and quartiles (by
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
the metric's bound from BENCHMARK.json. A spread passes when it is below
a third of the bound; setup_s is reported but not judged, as its spread
is not gated.

With --held-out, one more seed is run: its outcome digest must differ
from every seed above (the seed reaches the modelled fleet), and each
host metric must lie within the bound of the median above (the
benchmark's speed does not hinge on the seeds it was tuned on).

Every run must report correct with no failed operation. The exit code
is 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    digest = next(l.split()[2] for l in lines if l.startswith("outcome digest"))
    return result, digest


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        digests = set()
        for seed in seeds(args.seeds):
            result, digest = run(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
                ok = False
            digests.add(digest)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({len(digests)} distinct outcome digests)")
        medians = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians[m["name"]] = med
            spread = (q3 - q1) / med
            judged = m["name"] != "setup_s"
            passed = spread < m["bound"] / 3 or not judged
            ok &= passed
            print(f"  {m['name']:<20} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {m['bound']} "
                  f"{'ok' if passed else 'TOO WIDE'}{'' if judged else ' (not gated)'}")
            print("    " + " ".join(f"{v:.6g}" for v in vals))
        if args.held_out is not None:
            result, digest = run(workload, args.held_out, args.seconds)
            fresh = digest not in digests
            ok &= fresh and result["correct"]
            print(f"  held-out seed {args.held_out}: digest {digest} "
                  f"{'differs' if fresh else 'REPEATS A TUNING SEED'}")
            for m in bench["end_to_end"]:
                v = result["metrics"][m["name"]]["value"]
                rel = (v - medians[m["name"]]) / medians[m["name"]]
                worse = -rel if m["better"] == "higher" else rel
                inside = worse <= m["bound"]
                ok &= inside
                print(f"    {m['name']:<20} {v:<12.6g} {rel:+.4f} vs median "
                      f"{'inside' if inside else 'OUTSIDE'} bound {m['bound']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
