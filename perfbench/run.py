"""End-to-end benchmark of exppsi.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/exppsi``. Every
operation runs in a fresh interpreter, as a user pays for it: one CLI
invocation, or for ``session`` one process making a series of library
calls. A pass runs the workload's operations once; the run repeats passes
for about ``--seconds`` (at least two), then checks every output against
references computed without exppsi.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s``, the median of fresh ``import exppsi.cli`` runs; ``wall_s``
and ``cpu_s`` (user+sys), the time of a pass with each operation taken at
its fastest repetition in the run; and ``peak_rss_mib``, the median over
passes of the largest max-RSS of a process in the pass. With ``--trace 1``
it runs two untraced passes and one traced pass and reports the per-layer
metrics of ``spans.py``; ``trace.overhead_s`` is the traced pass less each
operation's faster untraced run, scaled as the times below. Exit code 2 means there is nothing to benchmark; 1 means
an output was wrong or the run did not finish.

The three times are in seconds at a reference speed, for the reasons in
the README ("Steadiness"): on a shared host the same operation runs up to
1.7 times slower, for seconds at a time and at times for minutes. The
fastest repetition of each operation removes the short slow stretches.
For the long ones, ``calibrate`` times a fixed piece of exact arithmetic in
this process before every operation, and each time is scaled by
``CALIBRATION_REF_S`` over the run's fastest calibration. The unscaled
times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170
SETUP_SAMPLES = 9
MIN_PASSES = 2
UNTRACED_PASSES = 2
CALIBRATION_REF_S = 0.025
_CALIBRATION_TERMS = [Fraction((-1) ** k * (3 * k + 1), 7 * k + 2) ** 3 for k in range(70)]


def calibrate() -> float:
    """Seconds this process takes to square a dense polynomial with 70
    rational coefficients: exact arithmetic of the kind exppsi does."""
    start = time.perf_counter()
    out: dict[int, Fraction] = {}
    for i, x in enumerate(_CALIBRATION_TERMS):
        for j, y in enumerate(_CALIBRATION_TERMS):
            out[i + j] = out.get(i + j, 0) + x * y
    return time.perf_counter() - start


@dataclass
class Proc:
    stdout: str
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mib: float


@dataclass
class Pass:
    wall_s: float = 0.0
    procs: list[Proc] = field(default_factory=list)
    span_docs: list[dict] = field(default_factory=list)


class Runner:
    """Starts exppsi processes, each timed and measured from outside."""

    def __init__(self, deadline: float) -> None:
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        self.deadline = deadline
        self.calibrations: list[float] = []

    def calibrate(self) -> None:
        self.calibrations += [calibrate(), calibrate()]

    def slowdown(self) -> float:
        """How much slower than the reference the run's fastest moments were."""
        return min(self.calibrations) / CALIBRATION_REF_S

    def run(self, argv: list[str]) -> Proc:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        streams: dict[str, bytes] = {}
        readers = [
            threading.Thread(target=lambda k=k, s=s: streams.__setitem__(k, s.read()))
            for k, s in (("out", proc.stdout), ("err", proc.stderr))
        ]
        for r in readers:
            r.start()
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            for r in readers:
                r.join()
            proc.stdout.close()
            proc.stderr.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise TimeoutError(f"{argv[1:4]} did not finish within {DEADLINE_S} s")
        if proc.returncode != 0:
            sys.stderr.write(streams["err"].decode(errors="replace")[-2000:])
        return Proc(streams["out"].decode(), proc.returncode, wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def argv(self, op: workloads.Op, spans_file: str | None) -> list[str]:
        if op.session:
            tail = [] if spans_file is None else ["--trace", spans_file]
            return [sys.executable, str(HERE / "session.py"), *op.args, *tail]
        if spans_file is None:
            return [sys.executable, "-m", "exppsi.cli", *op.args]
        return [sys.executable, str(HERE / "spans.py"), spans_file, "--", *op.args]

    def run_pass(self, ops: list[workloads.Op], trace_dir: str | None) -> Pass:
        result = Pass()
        start = time.perf_counter()
        for i, op in enumerate(ops):
            spans_file = None if trace_dir is None else os.path.join(trace_dir, f"{i}.json")
            self.calibrate()
            result.procs.append(self.run(self.argv(op, spans_file)))
            if spans_file is not None:
                with open(spans_file) as f:
                    result.span_docs.append(json.load(f))
                os.remove(spans_file)
        result.wall_s = time.perf_counter() - start
        return result

    def setup_s(self) -> float:
        """Median time for a fresh interpreter to import exppsi.cli."""
        argv = [sys.executable, "-c", "import exppsi.cli"]
        self.run(argv)  # writes the bytecode caches, as an installed package has them
        samples = []
        for _ in range(SETUP_SAMPLES):
            self.calibrate()
            proc = self.run(argv)
            if proc.returncode != 0:
                raise RuntimeError("importing exppsi.cli failed")
            samples.append(proc.wall_s)
        return statistics.median(samples)


def check_passes(ops: list[workloads.Op], passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over every operation of every pass."""
    import checks

    attempted = failed = 0
    errors: list[str] = []
    verdicts: dict[tuple[int, str], tuple[int, list[str]]] = {}
    for p in passes:
        for i, (op, proc) in enumerate(zip(ops, p.procs)):
            attempted += op.calls
            if proc.returncode != 0:
                failed += op.calls
                continue
            key = (i, proc.stdout)
            if key not in verdicts:
                verdicts[key] = getattr(checks, op.check)(proc.stdout, **op.params)
            op_failed, op_errors = verdicts[key]
            failed += op_failed
            errors.extend(op_errors)
    return attempted, failed, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an error, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "exppsi" / "cli.py").is_file():
        print(f"perfbench: no exppsi sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, ROOT)
    runner = Runner(time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as trace_dir:
                passes = [runner.run_pass(ops, None) for _ in range(UNTRACED_PASSES)]
                passes.append(runner.run_pass(ops, trace_dir))
        else:
            setup = runner.setup_s()
            passes = []
            start = time.monotonic()
            while len(passes) < MIN_PASSES or (
                time.monotonic() - start + statistics.median(p.wall_s for p in passes)
                <= args.seconds
            ):
                passes.append(runner.run_pass(ops, None))
    except (TimeoutError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, errors = check_passes(ops, passes)
    for line in errors:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)

    if args.trace:
        import spans

        *untraced, traced = passes
        stdout_bytes = sum(len(proc.stdout.encode()) for op, proc in zip(ops, traced.procs)
                           if not op.session)
        overhead = sum(proc.wall_s - min(u.procs[i].wall_s for u in untraced)
                       for i, proc in enumerate(traced.procs)) / runner.slowdown()
        values = spans.per_layer(traced.span_docs, stdout_bytes, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.UNITS.items()}
    else:
        def fastest_pass(attr: str) -> float:
            return sum(min(getattr(p.procs[i], attr) for p in passes) for i in range(len(ops)))

        slowdown = runner.slowdown()
        rss = statistics.median(max(proc.rss_mib for proc in p.procs) for p in passes)
        metrics = {
            "setup_s": {"value": setup / slowdown, "unit": "s"},
            "wall_s": {"value": fastest_pass("wall_s") / slowdown, "unit": "s"},
            "cpu_s": {"value": fastest_pass("cpu_s") / slowdown, "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        }
        print(f"perfbench: {args.workload}: unscaled setup_s {setup:.4f}, pass wall_s "
              f"{[round(p.wall_s, 3) for p in passes]}, fastest pass {fastest_pass('wall_s'):.4f}, "
              f"slowdown {slowdown:.3f}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
