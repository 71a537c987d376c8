"""Steadiness of the benchmark: sets of runs over seeds, judged by the bounds.

    python3 perfbench/steady.py [--seeds 10] [--sets 2]

Run from the repository root. Each set runs ``run.py`` once per seed on
every workload of ``BENCHMARK.json``, set s with seeds s*SEEDS+1 ..
(s+1)*SEEDS. For each end-to-end metric it prints the median and the
quartile spread (the distance between the first and third quartiles as a
share of the median), flagged when the spread exceeds a third of the
metric's bound, and for each later set whether its median is within the
bound of the first set's, either way. The figures are steady when every
spread but that of setup_s is within its bound, every later median agrees
with the first, and the share of failed operations is the same in every
run. setup_s is judged by its medians alone: it is the median of a few
imports of about 0.2 s each, and its spread over seeds measures the host's
noise on so short a task more than the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - start
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: dict[tuple[int, str], list[dict]] = {}
    for s in range(args.sets):
        for k in range(args.seeds):
            seed = 1 + s * args.seeds + k
            for w in names:
                r = run_once(w, seed, bench["run_seconds"])
                runs.setdefault((s, w), []).append(r)
                values = " ".join(f"{m}={v['value']:.4f}" for m, v in r["metrics"].items())
                print(f"set {s} {w} seed {seed}: {r['elapsed_s']:.1f} s, correct={r['correct']} "
                      f"failed {r['failed']}/{r['attempted']} {values}", file=sys.stderr, flush=True)

    ok = True
    for w in names:
        shares = {Fraction(r["failed"], r["attempted"]) for s in range(args.sets) for r in runs[(s, w)]}
        correct = all(r["correct"] for s in range(args.sets) for r in runs[(s, w)])
        ok &= correct and len(shares) == 1
        print(f"{w}: correct={correct} failed share {sorted(str(x) for x in shares)}")
        medians = []
        for s in range(args.sets):
            row = {}
            for metric, bound in bounds.items():
                values = [r["metrics"][metric]["value"] for r in runs[(s, w)]]
                row[metric] = statistics.median(values)
                sp = spread(values)
                ok &= metric == "setup_s" or sp <= bound
                line = f"  set {s} {metric:13s} median {row[metric]:10.4f}  spread {sp:6.3f}"
                if sp > bound / 3:
                    line += f"  above a third of its bound {bound}"
                if medians:
                    change = row[metric] / medians[0][metric] - 1
                    agrees = abs(change) <= bound
                    ok &= agrees
                    line += f"  vs set 0 {change:+.3f} ({'within' if agrees else 'OUTSIDE'} {bound})"
                print(line)
            medians.append(row)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
