"""Exact combinatorics of finite-colength monomial ideals in the plane.

The package models graded monomial ideals as staircases (one column of
y-exponents per degree), Hilbert functions as integer difference sequences,
and the derived machinery built on top of them: the genus functional and the
deformation bound, recursive standard-form decompositions, maximal-weight
pyramids, degrees of one-parameter orbit closures (alpha-grades) of
semi-invariant spaces, and a catalog of closed-form inequalities.  Every
closed formula has an independent brute-force oracle next to it; the
``suites`` module and the CLI wire them into runnable verification suites.

The names in ``__all__`` are imported from their modules on first access,
so importing the package (or running one CLI command) loads only the modules
it uses.
"""

import importlib

# exported name -> defining module
_EXPORTS = {
    "Monomial": "monomials",
    "GradedMonomialIdeal": "staircase",
    "HilbertFunction": "hilbert",
    "Pyramid": "pyramids",
    "NRDecomposition": "pyramids",
    "TypeChain": "standard_form",
    "StandardForm": "standard_form",
    "Chain": "torus",
    "SemiInvariantSpace": "torus",
    "TorusWeight": "torus",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
