import json
import re
import sys
from pathlib import Path

import pytest

from hermlift.cli import MODES, _inert_primes, main, run_mode
from hermlift.hecke import coset_reps, verify_reps_distinct
from hermlift.plusform import eisenstein_star
from hermlift.quadfield import QuadField


def run(args):
    return main(args)


def test_usage_error_non_fundamental(capsys):
    assert run(["verify", "--D", "12", "--mode", "gauss"]) == 2
    err = capsys.readouterr().err
    assert "not a fundamental discriminant" in err


def test_usage_error_level_not_coprime():
    assert run(["verify", "--D", "3", "--N", "6", "--mode", "gauss"]) == 2


def test_lift_rejects_a_level_below_1():
    # chi(-1) = -1, so N = -1 would emit the N = 1 table negated
    assert run(["lift", "--D", "3", "--N", "-1", "--upto", "1"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as ei:
        run(["frobnicate"])
    assert ei.value.code == 2


def test_gauss_report(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["gauss", "--D", "15", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] and rep["components"] == [3, 5, 15]


def test_verify_salie_stdout(capsys):
    assert run(["verify", "--D", "7", "--mode", "salie"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["mode"] == "salie" and rep["checked"] > 0


def test_verify_criterion_small(capsys):
    assert run(["verify", "--D", "3", "--N", "2", "--mode", "criterion",
                "--seed", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["failures"] == [] and rep["seed"] == 5


def test_verify_criterion_reports_its_certificate(capsys):
    assert run(["verify", "--D", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    cert = rep["certificate"]
    assert cert["order"] == 7 and len(cert["primes"]) == 1
    p = cert["primes"][0]
    assert p % 7 == 1 and 7 * (p - 1) ** 2 < 2**63
    assert 0 < cert["max_bound_bits"] < p.bit_length()


def test_campaign_config_is_validated_before_it_runs(tmp_path, capsys):
    # N = 6 is not coprime to D = 3: nothing runs, no report is written
    cfg = tmp_path / "campaign.json"
    outdir = tmp_path / "reports"
    cfg.write_text(json.dumps({
        "discriminants": [3, 4],
        "levels": [1, 6],
        "modes": ["gauss"],
        "output_dir": str(outdir) + "/",
    }))
    assert run(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not outdir.exists()


def test_campaign_config(tmp_path):
    cfg = tmp_path / "campaign.json"
    outdir = tmp_path / "reports"
    cfg.write_text(json.dumps({
        "discriminants": [3, 8],
        "levels": [1],
        "modes": ["gauss", "normsum"],
        "arithmetic": "exact",
        "output_dir": str(outdir) + "/",
    }))
    assert run(["verify", "--config", str(cfg)]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["gauss-D3-N1.json", "gauss-D8-N1.json",
                     "normsum-D3-N1.json", "normsum-D8-N1.json"]
    for p in outdir.iterdir():
        assert json.loads(p.read_text())["ok"]


def test_hecke_reps_emission(tmp_path):
    out = tmp_path / "reps.json"
    assert run(["hecke-reps", "--D", "3", "--p", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1 and ", " not in text  # compact: one line, no padding
    rep = json.loads(text)
    assert rep["count"] == rep["expected"] == 27
    assert len(rep["reps"]) == 27


@pytest.mark.parametrize("D,p,N", [(3, 2, 1), (4, 3, 5), (3, 2, 10**12 + 1)])
def test_hecke_reps_round_trip(tmp_path, D, p, N):
    # the reps of a report are coset_reps as nested lists, Python ints
    # beyond int64 at N = 10^12 + 1, and read back as distinct
    out = tmp_path / "reps.json"
    assert run(["hecke-reps", "--D", str(D), "--p", str(p), "--N", str(N), "--out", str(out)]) == 0
    reps = json.loads(out.read_text())["reps"]
    f = QuadField(D)
    assert reps == coset_reps(f, p, N).tolist()
    assert verify_reps_distinct(f, p, N, reps) is True


def test_hecke_reps_rejects_split_prime(capsys):
    # a split prime, a non-prime, a p dividing N, and a level below 1
    for args in (["--p", "7"], ["--p", "4"], ["--p", "2", "--N", "4"],
                 ["--p", "2", "--N", "-1"]):
        assert run(["hecke-reps", "--D", "3", *args]) == 2, args
        assert capsys.readouterr().err.startswith("error: "), args


def test_verify_hecke_checks_distinctness_for_p5(capsys):
    assert run(["verify", "--D", "3", "--mode", "hecke"]) == 0
    rep = json.loads(capsys.readouterr().out)
    cases = {c["p"]: c for c in rep["cases"]}
    assert sorted(cases) == [2, 5]
    assert cases[5]["distinct"] is True and cases[2]["distinct"] is True


def test_verify_hecke_at_a_large_prime_discriminant(capsys):
    # chi_K is read at p = 2, 3 without a table of size D
    assert run(["verify", "--D", "1000003", "--mode", "hecke"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [(c["p"], c["distinct"]) for c in rep["cases"]] == [(2, True), (3, True)]


@pytest.mark.parametrize("N,primes", [(1, [2, 5]), (2, [5, 11]), (10, [11, 17])])
def test_hecke_mode_takes_inert_primes_prime_to_N(N, primes):
    # a level divisible by an inert prime must not shrink the checked cases
    assert _inert_primes(QuadField(3), N, 2) == primes


def test_hecke_mode_builds_the_representatives_once(monkeypatch):
    # one build of the families per prime
    import hermlift.hecke as hecke

    calls, real = [], hecke._families

    def counted(field, p, N):
        calls.append(p)
        return real(field, p, N)

    monkeypatch.setattr(hecke, "_families", counted)
    assert run_mode("hecke", 3, 1)["ok"]
    assert sorted(calls) == [2, 5]


@pytest.mark.parametrize("fault,check,cmd", [
    ("drop", "coset representatives, not 1 + p + p^3 + p^4", "verify"),
    ("shift", "matrix 7 is not in U", "verify"),
    ("drop", "coset representatives, not 1 + p + p^3 + p^4", "hecke-reps"),
    ("shift", "matrix 7 is not in U", "hecke-reps")],
    ids=["drop", "shift", "hecke-reps-drop", "hecke-reps-shift"])
def test_hecke_mode_reports_a_faulty_family(monkeypatch, capsys, fault, check, cmd):
    # family 1 without its one member, or member 7 of family 2 with its
    # (0, 2) entry off by one: a FAIL naming p, with the JSON report, from
    # verify --mode hecke and from hecke-reps at p = 5
    import hermlift.hecke as hecke

    real = hecke._families

    def faulty(field, p, N):
        for k, g in enumerate(real(field, p, N)):
            if fault == "drop" and k == 0:
                g = g[:0]
            if fault == "shift" and k == 1 and p == 5:
                g[7, 0, 2, 0] += 1
            yield g

    monkeypatch.setattr(hecke, "_families", faulty)
    args = {"verify": ["verify", "--D", "3", "--mode", "hecke"],
            "hecke-reps": ["hecke-reps", "--D", "3", "--p", "5"]}[cmd]
    assert run(args) == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["ok"]
    assert [w["p"] for w in rep["failures"]] == ([2, 5] if (fault, cmd) == ("drop", "verify") else [5])
    assert all(check in w["check"] for w in rep["failures"])
    if cmd == "verify":
        assert [c["p"] for c in rep["cases"]] == ([] if fault == "drop" else [2])
    else:
        assert "reps" not in rep


def test_hecke_refuses_an_oversized_prime(monkeypatch, capsys):
    # hecke-reps at p = 101, and verify at a level that leaves 23 and 29 as
    # the first inert primes, exit 2 before any family is built
    import hermlift.hecke as hecke

    def unreachable(field, p, N):
        raise AssertionError("built a family")

    monkeypatch.setattr(hecke, "_families", unreachable)
    for args in (["hecke-reps", "--D", "3", "--p", "101"],
                 ["verify", "--D", "3", "--N", str(2 * 5 * 11 * 17), "--mode", "hecke"]):
        assert run(args) == 2, args
        assert "over the limit" in capsys.readouterr().err, args


def test_lift_table(tmp_path):
    out = tmp_path / "lift.json"
    assert run(["lift", "--D", "3", "--k", "8", "--upto", "2",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["entries"]
    for e in rep["entries"][:20]:
        assert e["Ddet"] >= 0


def _eisenstein_d3(upto):
    """The D = 3, k = 8 plus form that `lift --D 3 --upto upto` reads."""
    return eisenstein_star(QuadField(3), 8, upto * upto * 3 + 1).to_dict()


def test_lift_input_reads_exact_coefficients(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(_eisenstein_d3(2)))
    assert run(["lift", "--D", "3", "--upto", "2"]) == 0
    default = json.loads(capsys.readouterr().out)
    assert run(["lift", "--D", "3", "--upto", "2", "--input", str(g)]) == 0
    assert json.loads(capsys.readouterr().out) == default


def _coeffs(d, enc):
    return {**d, "coeffs": [None if c is None else enc(c) for c in d["coeffs"]]}


@pytest.mark.parametrize("args,edit", [
    (["lift", "--D", "3", "--k", "7"], None),
    (["ikeda", "--D", "3", "--k", "7"], None),
    (["lift", "--D", "3", "--input", "missing.json"], None),
    (["verify", "--config", "missing.json"], None),
    (["theta-matrix", "--D", "3", "--sigma", "1", "0", str(10**22), "1"], None),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {k: v for k, v in d.items() if k != "level"}),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {**d, "precision": 3}),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: _coeffs(d, float)),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: _coeffs(d, lambda c: {"re": c, "im": 0})),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {**d, "coeffs": [*d["coeffs"][:2], True, *d["coeffs"][3:]]}),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {**d, "weight": 7.0}),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {**d, "disc": True}),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {**d, "level": 1.0}),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {**d, "denom": "1"}),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {**d, "precision": float(d["precision"])}),
    (["lift", "--D", "3", "--input", "g.json"], lambda d: {**d, "coeffs": "0" * d["precision"]}),
    (["verify", "--config", "g.json"], lambda d: [d]),
    (["lift", "--D", "3", "--k", "12", "--input", "g.json"], None),
    (["lift", "--D", "7", "--input", "g.json"], None),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": 7}),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": [7], "levels": ["2"]}),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": [7.0]}),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": [7], "levels": [2.0]}),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": [True]}),
    (["verify", "--config", "g.json"], lambda d: {}),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": [3], "levels": []}),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": [3], "modes": "theta"}),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": [3], "modes": ["thetas"]}),
    (["verify", "--config", "g.json"], lambda d: {"discriminants": [3], "output_dir": 5}),
    (["lift", "--D", "3", "--upto", "-1"], None),
    (["ikeda", "--D", "7", "--bound", "0"], None),
    (["ikeda", "--D", "7", "--bound", "-5"], None),
], ids=["lift-odd-k", "ikeda-odd-k", "lift-missing-input", "verify-missing-config",
        "theta-overflow", "input-missing-key", "input-precision", "input-float", "input-re-im",
        "input-bool-coeff", "input-float-weight", "input-bool-disc", "input-float-level",
        "input-string-denom", "input-float-precision", "input-coeffs-a-string",
        "config-not-an-object", "input-wrong-weight", "input-wrong-disc", "config-disc-not-a-list",
        "config-level-a-string", "config-disc-a-float", "config-level-a-float", "config-disc-a-bool",
        "config-empty", "config-no-levels", "config-modes-a-string", "config-unknown-mode",
        "config-output-dir-not-a-string", "lift-negative-upto", "ikeda-zero-bound",
        "ikeda-negative-bound"])
def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys, args, edit):
    monkeypatch.chdir(tmp_path)
    if "g.json" in args:  # the D = 3, k = 8 form, edited unless the command mismatches it
        (tmp_path / "g.json").write_text(json.dumps((edit or (lambda d: d))(_eisenstein_d3(2))))
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "g.json" in args and edit is None:  # the form is sound, the command is not its own
        assert "needs" in err


def test_theta_matrix_output(capsys):
    assert run(["theta-matrix", "--D", "3", "--sigma", "0", "-1", "1", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["matrix"]) == 3 and len(rep["matrix"][0]) == 3


def test_ikeda_subcommand(capsys):
    assert run(["ikeda", "--D", "7", "--k", "8", "--ell", "2",
                "--bound", "40"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["plus"] and len(rep["coeffs"]) == 40


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_runs(mode):
    rep = run_mode(mode, 3, 1)
    assert rep["ok"] and rep["mode"] == mode
    for key in ("D", "N", "seed", "failures", "wall_time"):
        assert key in rep


def test_readme_lists_the_verify_modes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = re.search(r"Modes for `verify`:(.*?)\.", readme, re.S).group(1)
    assert tuple(re.findall(r"`([a-z]+)`", line)) == MODES


def test_ikeda_runs_without_sympy(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "sympy", None)
    assert run(["ikeda", "--D", "7", "--bound", "40"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
