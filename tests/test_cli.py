import json
from importlib import resources

import pytest

from locisog import cli
from locisog.arith import primes_up_to
from locisog.cli import main
from locisog.errors import VerificationError


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _no_float(text):
    raise AssertionError("a JSON report carries the float %s" % text)


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv, "--json")
    return code, json.loads(out, parse_float=_no_float)


def test_gauss_pass(capsys):
    code, doc = _run_json(capsys, "gauss", "--ell", "7")
    assert code == 0
    assert list(doc) == ["command", "elapsed_ms", "findings", "status"]
    assert doc["command"] == "gauss" and doc["status"] == "pass"
    assert doc["findings"][0]["ok"] is True
    assert doc["findings"][0]["target"] == -7
    g2 = doc["findings"][0]["g_squared"]
    assert g2 == -7 and type(g2) is int
    for ell in primes_up_to(200)[1:]:
        code, doc = _run_json(capsys, "gauss", "--ell", str(ell))
        want = ell if ell % 4 == 1 else -ell
        assert code == 0 and doc["findings"][0]["g_squared"] == want, ell


def test_gauss_rejects_composite(capsys):
    for ell in ("4", "2"):  # 2 is prime, but has no quadratic character
        code, doc = _run_json(capsys, "gauss", "--ell", ell)
        assert code == 2
        assert doc["status"] == "error"
        assert doc["findings"][0]["error"]


def test_text_rendering(capsys):
    code, out = _run(capsys, "classnumber", "--disc", "-343")
    assert code == 0
    lines = out.strip().splitlines()
    assert any("h: 7" in ln for ln in lines)
    assert lines[-1].startswith("classnumber: pass (")


def test_lemma_empty_below_seven(capsys):
    code, doc = _run_json(capsys, "lemma", "--ell", "5")
    assert code == 0
    summary = doc["findings"][-1]
    assert summary["satisfying_classes"] == 0
    assert summary["all_conclusions_hold"] is True


def test_lemma_rejects_unenumerated_level(capsys):
    code, doc = _run_json(capsys, "lemma", "--ell", "13")
    assert code == 2


def test_counterexample_end_to_end(capsys):
    code, doc = _run_json(capsys, "counterexample", "--bound", "200")
    assert code == 0
    steps = [f["step"] for f in doc["findings"]]
    assert steps == ["j-invariant", "bad-primes", "local-scan", "no-rational-root",
                     "certificate-product", "certificate-discriminants",
                     "twist-points", "map-value", "gaussian-point-map", "group-shape"]
    assert all(f["ok"] for f in doc["findings"])


def test_counterexample_is_deterministic(capsys):
    _, doc1 = _run_json(capsys, "counterexample", "--bound", "100")
    _, doc2 = _run_json(capsys, "counterexample", "--bound", "100")
    assert doc1["findings"] == doc2["findings"]


def test_counterexample_fails_on_wrong_factors(tmp_path, capsys):
    text = resources.files("locisog").joinpath("data/phi7_factors.txt").read_text()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    parts = lines[0].split(",")
    parts[-1] = str(int(parts[-1].strip().split("/")[0]) + 1)
    lines[0] = ",".join(parts)
    bad = tmp_path / "factors.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, doc = _run_json(capsys, "counterexample", "--bound", "100",
                          "--factors", str(bad))
    assert code == 1
    assert doc["status"] == "fail"
    # the discriminant step fails too; the product step must fail on its own
    product = [f for f in doc["findings"] if f["step"] == "certificate-product"]
    assert product[0]["ok"] is False and "differs" in product[0]["detail"]


def test_counterexample_errors_on_corrupt_modpoly(tmp_path, capsys):
    bad = tmp_path / "phi7.txt"
    bad.write_text("level 7\n8 0 1\n8 0 1\n")
    code, doc = _run_json(capsys, "counterexample", "--modpoly", str(bad))
    assert code == 2
    assert "duplicate" in doc["findings"][0]["error"]


def test_counterexample_errors_on_missing_file(capsys):
    code, doc = _run_json(capsys, "counterexample", "--factors", "/nonexistent/f.txt")
    assert code == 2
    assert "f.txt" in doc["findings"][0]["error"]


def test_curve_local_scan(capsys):
    code, doc = _run_json(capsys, "curve", "local", "--curve", "1,-1,0,-107,-379",
                          "--ell", "7", "--bound", "50")
    assert code == 0
    summary = doc["findings"][-1]
    assert summary["all_admitted"] is True
    assert summary["rejected"] == []
    assert {f["p"] for f in doc["findings"][:-1]} == {
        p for p in range(2, 51) if all(p % d for d in range(2, p))}
    # without --bound the scan runs to its default, and says so
    code, doc = _run_json(capsys, "curve", "local", "--curve", "0,0,0,1,1", "--ell", "3")
    assert code == 0 and doc["findings"][-1]["bound"] == 10000


def test_curve_local_needs_a_curve(capsys):
    code, doc = _run_json(capsys, "curve", "local", "--ell", "7")
    assert code == 2
    # local mode scans a curve; a j-invariant or a modular polynomial is a
    # conflict, not ignored
    for extra in (("--j", "-3375"), ("--curve", "1,-1,0,-107,-379", "--j", "-3375"),
                  ("--curve", "1,-1,0,-107,-379", "--modpoly", "phi7.txt")):
        code, doc = _run_json(capsys, "curve", "local", *extra, "--ell", "7")
        assert code == 2
        assert "no --j or --modpoly" in doc["findings"][0]["error"]


def test_curve_global_verdicts(capsys):
    code, doc = _run_json(capsys, "curve", "global", "--j", "2268945/128", "--ell", "7")
    assert code == 0
    assert doc["findings"][0]["verdict"] == "no rational 7-isogeny"
    assert doc["findings"][0]["rational_roots"] == []
    # j = -3375 has CM by the ramified prime above 7, so it is 7-isogenous to itself
    code, doc = _run_json(capsys, "curve", "global", "--j", "-3375", "--ell", "7")
    assert doc["findings"][0]["verdict"] == "rational 7-isogeny exists"
    assert doc["findings"][0]["rational_roots"] == ["-3375"]


def test_curve_global_from_a_curve(capsys):
    # the counterexample curve has no rational 7-isogeny; the curve
    # [1,-1,0,-107,552] has j = -3375, CM by the ramified prime above 7
    code, doc = _run_json(capsys, "curve", "global", "--curve", "1,-1,0,-107,-379",
                          "--ell", "7")
    assert code == 0
    assert doc["findings"][0]["j"] == "2268945/128"
    assert doc["findings"][0]["rational_roots"] == []
    code, doc = _run_json(capsys, "curve", "global", "--curve", "1,-1,0,-107,552",
                          "--ell", "7")
    assert code == 0
    assert doc["findings"][0]["j"] == "-3375"
    assert doc["findings"][0]["rational_roots"] == ["-3375"]


def test_curve_global_needs_j_or_a_curve(capsys):
    code, doc = _run_json(capsys, "curve", "global", "--ell", "7")
    assert code == 2
    assert doc["status"] == "error" and "--j" in doc["findings"][0]["error"]
    # both is a conflict: neither input is dropped in favour of the other
    code, doc = _run_json(capsys, "curve", "global", "--curve", "1,-1,0,-107,-379",
                          "--j", "-3375", "--ell", "7")
    assert code == 2
    assert doc["findings"][0]["error"].endswith("--j and --curve, got both")
    # global mode scans no primes, so a --bound is a conflict too
    for given in (("--j", "3"), ("--curve", "1,-1,0,-107,-379")):
        code, doc = _run_json(capsys, "curve", "global", *given, "--ell", "7", "--bound", "1")
        assert code == 2
        assert doc["findings"][0]["error"].endswith("takes no --bound")


def test_verification_error_exits_one(monkeypatch, capsys):
    def broken(ell):
        raise VerificationError("planted violation at %d" % ell)

    monkeypatch.setattr(cli, "lemma1_verify", broken)
    code, doc = _run_json(capsys, "lemma", "--ell", "7")
    assert code == 1
    assert doc["status"] == "fail"
    assert doc["findings"] == [{"violation": "planted violation at 7"}]


# j of the Legendre curve y^2 = x(x - 1)(x - lambda), lambda = 12345678901/1000003:
# full rational 2-torsion, so Phi_2(X, j) has three rational roots
LEGENDRE_J = ("226550125766519481966634732347174009339419985467943880222850752/"
              "5806737109199569144553902649495134730526054230442609")


def test_curve_global_finds_three_large_two_isogenies(capsys):
    code, doc = _run_json(capsys, "curve", "global", "--j", LEGENDRE_J, "--ell", "2")
    assert code == 0
    assert doc["findings"][0]["verdict"] == "rational 2-isogeny exists"
    assert len(doc["findings"][0]["rational_roots"]) == 3


def test_curve_global_level_mismatch(tmp_path, capsys):
    phi = tmp_path / "phi2.txt"
    phi.write_text("level 2\n3 0 1\n1 0 -1\n")
    code, doc = _run_json(capsys, "curve", "global", "--j", "3", "--ell", "7",
                          "--modpoly", str(phi))
    assert code == 2
    assert "level 2" in doc["findings"][0]["error"]
    # files that parse line by line but describe no modular polynomial
    for text in ("level 1\n2 0 1\n", "level 2\n4 0 1\n", "level 2\n3 0 1\n1 0 0\n",
                 "level 2\n3 0 1\n3 1 5\n"):
        phi.write_text(text)
        code, doc = _run_json(capsys, "curve", "global", "--j", "3", "--ell", "2",
                              "--modpoly", str(phi))
        assert code == 2
        assert doc["findings"][0]["error"].startswith(str(phi) + ": ")


def test_curve_malformed_coefficients(capsys):
    code, doc = _run_json(capsys, "curve", "local", "--curve", "1,2,3", "--ell", "5")
    assert code == 2
    code, doc = _run_json(capsys, "curve", "global", "--j", "x", "--ell", "5")
    assert code == 2
    code, doc = _run_json(capsys, "curve", "global", "--j", "1/0", "--ell", "5")
    assert code == 2
    assert doc["findings"][0]["error"] == "j = 1/0 has a zero denominator"
    code, doc = _run_json(capsys, "curve", "local", "--curve", "1/0,0,0,1,1", "--ell", "5")
    assert code == 2
    assert doc["findings"][0]["error"] == "a1 = 1/0 has a zero denominator"


def test_ratio_paths(capsys):
    code, doc = _run_json(capsys, "ratio", "--disc", "-4", "--ell", "3")
    assert code == 0
    assert doc["findings"][0] == {"D0": -4, "ell": 3, "predicted": "2",
                                  "direct": "2", "agree": True}
    code, doc = _run_json(capsys, "ratio", "--disc", "-12", "--ell", "3")
    assert code == 2


def test_group_shape(capsys):
    code, doc = _run_json(capsys, "group", "--ell", "7", "--n", "3")
    assert code == 0
    f = doc["findings"][0]
    assert f["order"] == 36 and f["orbit_sizes"] == [2, 3, 3]
    assert f["min_fixed_points"] == 2 and f["hypothesis"] is True and f["ok"] is True
    code, doc = _run_json(capsys, "group", "--ell", "7", "--n", "4")
    assert code == 2


def test_seed_flag_is_rejected(capsys):
    # no verdict depends on a seed, so the CLI offers none
    with pytest.raises(SystemExit) as exc:
        main(["curve", "local", "--curve", "0,0,0,1,1", "--ell", "3", "--bound", "30",
              "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_coefficient_flags_are_rejected(capsys):
    # --curve a1,a2,a3,a4,a6 is the one way to give a curve
    with pytest.raises(SystemExit) as exc:
        main(["curve", "local", "--a4", "1", "--ell", "5"])
    assert exc.value.code == 2
    assert "--a4" in capsys.readouterr().err
