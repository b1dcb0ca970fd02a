"""Exact combinatorics of finite-colength monomial ideals in the plane.

The package models graded monomial ideals as staircases (one column of
y-exponents per degree), Hilbert functions as integer difference sequences,
and the derived machinery built on top of them: the genus functional and the
deformation bound, recursive standard-form decompositions, maximal-weight
pyramids, degrees of one-parameter orbit closures (alpha-grades) of
semi-invariant spaces, and a catalog of closed-form inequalities.  Every
closed formula has an independent brute-force oracle next to it; the
``suites`` module and the CLI wire them into runnable verification suites.

Importing the package loads no submodule: each command loads only the
modules it uses.
"""

__version__ = "0.1.0"
