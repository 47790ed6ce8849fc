"""scripts/gen_modpoly.py: exact at prime levels beyond the shipped ones, its
relation check proves the shipped data and rejects a perturbed candidate, it
runs without mpmath, and its self-checks stay fatal when Python runs with -O."""

import importlib.util
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from locisog.modpoly import (ModularPolynomial, evaluate_at_j, load_modpoly,
                             rational_linear_factors)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "gen_modpoly.py")
DATA = os.path.join(ROOT, "src", "locisog", "data")


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


def _shipped_coeffs(level):
    """Every coefficient {(i, d): c} of the shipped Phi_level, both halves."""
    coeffs = {}
    for (i, d), c in load_modpoly(os.path.join(DATA, "phi%d.txt" % level)).half_terms():
        coeffs[i, d] = coeffs[d, i] = c
    return coeffs


@pytest.mark.parametrize("level", [2, 3, 5, 7])
def test_relation_check_proves_shipped_and_rejects_moved_pair(gen, level):
    coeffs = _shipped_coeffs(level)
    gen.check_relation(level, coeffs, gen.j_powers(level))
    # moving a symmetric pair by N keeps symmetry, monicity and Kronecker
    coeffs[1, 0] = coeffs[0, 1] = coeffs.get((1, 0), 0) + level
    message = "Phi_%d(j(%d tau), j(tau)) does not vanish through q^%d" % (
        level, level, level * (level + 1))
    with pytest.raises(RuntimeError, match=re.escape(message)):
        gen.check_relation(level, coeffs, gen.j_powers(level))


def test_generator_runs_without_mpmath():
    # sympy installs mpmath, so only blocking the import shows it is unused
    code = "\n".join([
        "import importlib.util, sys",
        "sys.modules['mpmath'] = None",
        "spec = importlib.util.spec_from_file_location('gen_modpoly', %r)" % SCRIPT,
        "gen = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(gen)",
        "print(len(gen.compute_phi(7)), 'terms')",
    ])
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "35 terms\n"


def test_checks_survive_python_O():
    code = "\n".join([
        "import importlib.util, sys",
        "assert False, 'unreachable under -O'",
        "spec = importlib.util.spec_from_file_location('gen_modpoly', %r)" % SCRIPT,
        "gen = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(gen)",
        "half = gen.compute_phi(2)",
        "print('clean run passed', sys.flags.optimize)",
        "moved = {**half, **{(d, i): c for (i, d), c in half.items()}}",
        "moved[1, 0] += 2",
        "moved[0, 1] += 2",
        "try:",
        "    gen.check_relation(2, moved, gen.j_powers(2))",
        "except RuntimeError as e:",
        "    print('moved pair:', e)",
        "gen.PHI2_KNOWN[(1, 1)] += 1",
        "gen.compute_phi(2)",
    ])
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert "clean run passed 1" in run.stdout
    assert "moved pair: Phi_2(j(2 tau), j(tau)) does not vanish through q^6" in run.stdout
    assert run.returncode != 0
    assert "Phi_2 disagrees with the published table" in run.stderr
