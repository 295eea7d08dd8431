import importlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from orbituse import SYM2, TaxSchedule

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def benchmark_modules(*names):
    """The benchmark's own modules, imported read-only: no bytecode is
    written beside them."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(str(BENCHMARKS))
        sys.dont_write_bytecode = saved


@pytest.fixture
def zero_taxes_sym2():
    return TaxSchedule.zeros(SYM2.n_sectors, SYM2.n_markets)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def exact_rho_form(scenario, taxes, abatement=0.0):
    """The open-access equilibrium in exact rationals, from the float inputs.

    With ``rho_i = rev_i/m_i`` and ``phi = 1 + k(Q - D0)``, fleets are
    ``phi rho/(1 + kd sum_active rho)``, where a sector is active iff
    ``phi > 0`` and ``rho_i > 0``. Returns a dict with the fleets, the
    survival ``1 - k stock``, the debris stock, the determinant of the
    system's active block (every sector when ``phi == 0``) and the
    responsive required abatement, found as the root of the exact affine
    stock at Q = 0 and Q = 1.
    """
    k, d = Fraction(scenario.collision_coeff), Fraction(scenario.debris_per_sat)
    kd = k * d
    rho = [
        sum((1 - Fraction(t)) * Fraction(p) for t, p in zip(row, scenario.prices)) / Fraction(m)
        for row, m in zip(taxes.rates, scenario.costs)
    ]

    def state(q):
        phi = 1 + k * (q - Fraction(scenario.legacy_debris))
        on = [x for x in rho if phi > 0 and x > 0]
        share = 1 + kd * sum(on)
        fleets = [phi * x / share if phi > 0 and x > 0 else Fraction(0) for x in rho]
        stock = d * sum(fleets) + Fraction(scenario.legacy_debris) - q
        return phi, on, fleets, stock

    phi, on, fleets, stock = state(Fraction(abatement))
    block = on if phi != 0 else rho
    determinant = (1 + kd * sum(block)) / math.prod(1 + kd * x for x in block)
    _, _, _, stock0 = state(Fraction(0))
    _, _, _, stock1 = state(Fraction(1))
    gap = stock0 - Fraction(scenario.catastrophe_threshold)
    return {
        "fleets": fleets,
        "survival": 1 - k * stock,
        "stock": stock,
        "determinant": determinant,
        "required_abatement": max(gap, Fraction(0)) / (stock0 - stock1),
    }


def assert_exact(value, exact, rel=1e-12, floor=1):
    """``value`` within ``rel * max(floor, |exact|)`` of the rational ``exact``."""
    assert abs(Fraction(value) - exact) <= rel * max(floor, abs(exact)), (value, float(exact))
