"""scripts/mutants.py: every mutant in its table still applies to the
program as it is, so the table runs in CI without going stale, and a named
subset is checked against the table before any mutant starts."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "mutants.py")


def _load():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_snippet_matches_exactly_once():
    mutants = _load()
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for m in mutants.MUTANTS:
        assert m.path.startswith("src/") and m.edits and m.tests, m.name
        assert all(old != new for old, new in m.edits), m.name
        assert mutants.stale(m) == [], m.name


def test_unknown_mutant_name_exits_2_before_any_run(monkeypatch, capsys):
    mutants = _load()

    def started(m):
        pytest.fail("mutant %s was started" % m.name)

    monkeypatch.setattr(mutants, "run", started)
    assert mutants.main(["close-ignores-stop", "no-such-mutant"]) == 2
    assert "unknown mutant: no-such-mutant" in capsys.readouterr().err
