"""The four workloads: their operations, built from a seed, and how each
operation's output is checked.

Rational inputs come from the seed. ``p`` has denominator 3 and ``t``
denominator 4 on every seed, and numerators below 9, so the cost hardly
depends on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

WORKLOADS = ("coeffs", "verify", "approx", "session")

P_CHOICES = tuple(Fraction(k, 3) for k in (1, 2, 4, 5, 7, 8))
T_CHOICES = tuple(Fraction(j, 4) for j in (1, 3, 5, 7))

# G specialized at t is printed in LaTeX with its variable p named t (and
# likewise in JSON). This operation keeps that fault in view: it fails on
# every run, so its t is fixed rather than drawn from the seed.
MISLABEL_T = Fraction(3, 4)

SESSION_N = 40
SESSION_PREC = 320
SESSION_ORDERS = tuple(range(2, 17, 2))
SESSION_POINTS = 6


@dataclass(frozen=True)
class Op:
    """One CLI invocation, or one session process making ``calls`` library calls.

    Its output is judged by ``checks.<check>(stdout, **params)``. The check
    is named rather than imported so that the benchmark process stays small
    while it runs the program: a child's max-RSS includes its parent's at
    the moment it was started.
    """

    args: tuple[str, ...]
    check: str
    params: dict
    calls: int = 1
    session: bool = False


def _opt(name: str, value: Optional[object]) -> list[str]:
    return [] if value is None else [f"--{name}", str(value)]


def _coeffs_ops(rng: random.Random) -> list[Op]:
    p, t = rng.choice(P_CHOICES), rng.choice(T_CHOICES)
    spots = [
        (Fraction(rng.randint(1, 9), rng.randint(2, 9)), Fraction(rng.randint(1, 9), rng.randint(2, 9)))
        for _ in range(2)
    ]

    def op(kind, n, fmt, p=None, t=None):
        args = ["coeffs", kind, "--n", str(n), *_opt("p", p), *_opt("t", t), "--format", fmt]
        params = dict(kind=kind, n=n, fmt=fmt, p=p, t=t, spots=spots)
        return Op(tuple(args), "check_coeffs", params)

    return [
        op("g", 16, "json"),
        op("g", 14, "text"),
        op("s", 32, "latex"),
        op("g", 18, "csv", p=p),
        op("g", 18, "latex", t=MISLABEL_T),
        op("g", 18, "json", p=p, t=t),
    ]


def _verify_ops(root: Path) -> list[Op]:
    tables = json.loads((root / "src" / "exppsi" / "reference_tables.json").read_text())

    def verify(suite, max_n, fmt):
        args = ("verify", "--suite", suite, "--max-n", str(max_n), "--format", fmt)
        return Op(args, "check_verify", dict(suite=suite, max_n=max_n, fmt=fmt))

    def errata(fmt):
        return Op(("errata", "--format", fmt), "check_errata", dict(fmt=fmt, tables=tables))

    return [
        verify("all", 12, "text"),
        verify("even-p", 20, "json"),
        errata("text"),
        errata("json"),
        errata("markdown"),
    ]


def _approx_ops(rng: random.Random) -> list[Op]:
    p, t = rng.choice(P_CHOICES), rng.choice(T_CHOICES)

    def approx(target, n, order, fmt, p=Fraction(1), t=Fraction(1), prec=256):
        args = ["approx", target, "--n", str(n), "--order", str(order), "--sweep", "--format", fmt]
        if target == "exp-psi":
            args += _opt("p", p)
        if t != 1:
            args += _opt("t", t)
        if prec != 256:
            args += _opt("prec", prec)
        params = dict(target=target, n=n, order=order, p=p, t=t, prec=prec, fmt=fmt)
        return Op(tuple(args), "check_approx", params)

    return [
        approx("gamma", 2500, 4, "text"),
        approx("harmonic", 16, 10, "json", t=Fraction(1, 2), prec=1536),
        approx("exp-psi", 40, 16, "csv", p=p, t=t, prec=768),
        approx("gamma", 40, 8, "json", prec=768),
    ]


def _session_ops(rng: random.Random) -> list[Op]:
    points = rng.sample([(p, t) for p in P_CHOICES for t in T_CHOICES], SESSION_POINTS)
    calls = [
        {"target": target, "order": order, "p": str(p), "t": str(t)}
        for order in SESSION_ORDERS
        for p, t in points
        for target in ("exp-psi", "gamma", "harmonic")
    ]
    spec = {"n": SESSION_N, "prec": SESSION_PREC, "calls": calls}
    params = dict(calls=calls, n=SESSION_N, prec=SESSION_PREC)
    return [Op((json.dumps(spec),), "check_session", params, calls=len(calls), session=True)]


def build(workload: str, seed: int, root: Path) -> list[Op]:
    """The operations of one pass; the same seed gives the same operations."""
    rng = random.Random(seed)
    if workload == "coeffs":
        return _coeffs_ops(rng)
    if workload == "verify":
        return _verify_ops(root)
    if workload == "approx":
        return _approx_ops(rng)
    if workload == "session":
        return _session_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")
