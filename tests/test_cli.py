import json
import re
import sys
from pathlib import Path

import pytest

from hermlift.cli import MODES, _inert_primes, main, run_mode
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
    rep = json.loads(out.read_text())
    assert rep["count"] == rep["expected"] == 27
    assert len(rep["reps"]) == 27


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


@pytest.mark.parametrize("N,primes", [(1, [2, 5]), (2, [5, 11]), (10, [11, 17])])
def test_hecke_mode_takes_inert_primes_prime_to_N(N, primes):
    # a level divisible by an inert prime must not shrink the checked cases
    assert _inert_primes(QuadField(3), N, 2) == primes


def test_hecke_mode_builds_the_representatives_once(monkeypatch):
    import hermlift.cli as cli
    import hermlift.hecke as hecke

    calls, real = [], hecke.coset_reps

    def counted(field, p, N):
        calls.append(p)
        return real(field, p, N)

    for module in (cli, hecke):
        monkeypatch.setattr(module, "coset_reps", counted)
    assert run_mode("hecke", 3, 1)["ok"]
    assert sorted(calls) == [2, 5]


def test_lift_table(tmp_path):
    out = tmp_path / "lift.json"
    assert run(["lift", "--D", "3", "--k", "8", "--upto", "2",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["entries"]
    for e in rep["entries"][:20]:
        assert e["Ddet"] >= 0


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
