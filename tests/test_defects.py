"""A planted-defect matrix: which ``verify`` families catch which defect.

Each case plants one defect in a construction stage of ``expansions``,
resets every exact table there with one ``_prefix.cache_clear()``, and runs
the whole suite at order 12 and the errata gate. The cache is warm before
each case, so a table that the reset missed would still hold the true
values and hide the defect from the checks that read it.
"""

from fractions import Fraction

import pytest

from exppsi import expansions, identities
from exppsi.algebra import BiPoly, Poly

F = Fraction

FAMILIES = frozenset(
    {
        "even-p-vanishing",
        "degree-collapse",
        "reflection",
        "half-argument",
        "bernoulli-product-identity",
        "route-agreement",
        "shift-identity",
        "derivative-relation",
        "coefficient-table",
    }
)

# the errata entries of the true series: the statement corrections and the
# table values the gate rejects
CLEAN_ERRATA = 13


def b5_plus_a_constant(bernoulli_poly):
    # every route reads the same B_k(t), so they still agree
    return lambda k: bernoulli_poly(k) + Poly.one() * F(1, 1000) if k == 5 else bernoulli_poly(k)


def beta_scaled(log_series):
    # beta_k (1 + 1/k^2) in every log-series prefix; beta_0 is never read
    def planted(a, beta, c):
        return log_series(a, [b * F(k * k + 1, k * k) if k else b for k, b in enumerate(beta)], c)

    return planted


def power_g6_plus_p(power):
    def planted(a):
        b = power(a)
        if len(b) > 6:
            b[6] = b[6] + BiPoly.var_p() * F(1, 99)
        return b

    return planted


def fold_g5_plus_p2(fold):
    def planted(n, bucket):
        g = fold(n, bucket)
        return g + BiPoly.var_p() * BiPoly.var_p() * F(1, 1000) if n == 5 else g

    return planted


# (stage patched in expansions, the defect, failing families, errata count)
DEFECTS = [
    ("bernoulli_poly", b5_plus_a_constant, FAMILIES - {"route-agreement"}, 26),
    ("_log_series", beta_scaled, FAMILIES - {"reflection", "bernoulli-product-identity"}, 63),
    ("_power", power_g6_plus_p, {"route-agreement"}, CLEAN_ERRATA),
    ("_fold", fold_g5_plus_p2, {"bernoulli-product-identity", "route-agreement"}, CLEAN_ERRATA),
]


def failing_families() -> set[str]:
    reports = identities._suite_checks("all", 12)
    assert {r.check_name for r in reports} == FAMILIES
    return {r.check_name for r in reports if not r.ok}


@pytest.fixture
def warm():
    """A warm cache of the true tables, and none left behind by a defect."""
    assert failing_families() == set()
    assert len(identities.errata_report()) == CLEAN_ERRATA
    yield
    expansions._prefix.cache_clear()


@pytest.mark.parametrize(
    "stage, defect, families, errata", DEFECTS, ids=[d[1].__name__ for d in DEFECTS]
)
def test_each_defect_fails_its_families(warm, monkeypatch, stage, defect, families, errata):
    monkeypatch.setattr(expansions, stage, defect(getattr(expansions, stage)))
    expansions._prefix.cache_clear()
    assert failing_families() == families
    assert len(identities.errata_report()) == errata
