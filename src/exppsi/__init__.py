"""Exact symbolic-numeric engine for asymptotic digamma expansions.

The package computes the coefficient polynomials of the asymptotic
expansions of ``psi(x+t)`` and ``exp(p*psi(x+t))`` with exact rational
arithmetic, verifies the structural identities those coefficients satisfy,
corrects the published reference tables, and evaluates the truncated
expansions at high precision to approximate harmonic numbers and Euler's
constant.

Each module's ``__all__`` is the one place its public names are declared;
the package exports their union. ``import exppsi`` loads none of the
modules: a name resolves on first use, from the first of ``algebra``,
``bernoulli``, ``expansions``, ``numeric`` and ``identities`` whose
``__all__`` declares it, importing the modules in that order only as far
as the one that holds it, and is kept in the package from then on. So
``exppsi.approx_gamma`` never loads ``identities``; ``__all__`` itself, and
``from exppsi import *``, load all five. A module's own name, such as
``exppsi.numeric``, imports that module.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("algebra", "bernoulli", "expansions", "numeric", "identities")


def __getattr__(name: str):
    if name in _MODULES:
        # importing a submodule binds it in the package
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__"]
        for module in _MODULES:
            value += import_module(f"{__name__}.{module}").__all__
    else:
        for module_name in _MODULES:
            module = import_module(f"{__name__}.{module_name}")
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
