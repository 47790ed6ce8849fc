"""scripts/gen_modpoly.py: exact at prime levels beyond the shipped ones,
and its self-checks stay fatal when Python runs with -O."""

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from locisog.modpoly import ModularPolynomial, evaluate_at_j, rational_linear_factors

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "gen_modpoly.py")


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("gen_modpoly", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def phi(gen):
    cache = {}

    def get(level):
        if level not in cache:
            cache[level] = ModularPolynomial(level, gen.compute_phi(level))
        return cache[level]

    return get


def _rational_roots(M, j):
    return rational_linear_factors(evaluate_at_j(M, j))


def test_phi11_roots(phi):
    M = phi(11)
    assert _rational_roots(M, -121) == (-24729001,)
    assert -32768 in _rational_roots(M, -32768)    # CM by -11: 11 ramifies


def _h13(t):
    """The Hauptmodul of X_0(13): j(tau) in terms of t, where t -> 13/t
    swaps j(tau) and j(13 tau)."""
    t = Fraction(t)
    return (t * t + 5 * t + 13) * (t ** 4 + 7 * t ** 3 + 20 * t ** 2 + 19 * t + 1) ** 3 / t


@pytest.mark.parametrize("t", [Fraction(1), Fraction(2), Fraction(1, 3)])
def test_phi13_root_at_x0_13_points(phi, t):
    assert _h13(13 / t) in _rational_roots(phi(13), _h13(t))


def test_checks_survive_python_O():
    code = "\n".join([
        "import importlib.util, sys",
        "assert False, 'unreachable under -O'",
        "spec = importlib.util.spec_from_file_location('gen_modpoly', %r)" % SCRIPT,
        "gen = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(gen)",
        "gen.compute_phi(2)",
        "print('clean run passed', sys.flags.optimize)",
        "gen.PHI2_KNOWN[(1, 1)] += 1",
        "gen.compute_phi(2)",
    ])
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert "clean run passed 1" in run.stdout
    assert run.returncode != 0
    assert "Phi_2 disagrees with the published table" in run.stderr
