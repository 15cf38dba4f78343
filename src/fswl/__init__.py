"""Spectral solver and verification suite for a coupled fractional
short-wave/long-wave system on a truncated periodic domain.

The package implements the nonlocal operator in both of its equivalent
forms, the exact linear propagators of the regularized system, a
mass-conserving midpoint-Duhamel time marcher with per-step fixed-point
iteration, and numerical verification of the estimates the analysis rests
on: norm equivalences, sharp interpolation and product inequalities, the
generalized Gronwall bounds, level-set entropy identities, and the weak
formulations of both the regularized and the limit systems.

The package re-exports nothing: each name is imported from the module that
defines it and lists it in ``__all__`` (``from fswl.solver import
solve_perturbed``).
"""
