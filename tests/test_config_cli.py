import json
from pathlib import Path

import pytest

from bclab.cli import main
from bclab.config import (
    ConfigError,
    config_hash,
    parse_config,
    serialize_config,
)

REPO = Path(__file__).resolve().parent.parent
THM11 = REPO / "configs" / "thm11.cfg"
DIHEDRAL = REPO / "configs" / "dihedral.cfg"


# -------------------------------------------------------------------- parsing

def test_roundtrip_is_lossless():
    text = THM11.read_text()
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_hash_ignores_formatting():
    cfg_a = parse_config("e_modulus = 5\ne_gen = 4\nlimit = 100\n")
    cfg_b = parse_config(
        "# a comment\n\nlimit = 100   # trailing\ne_modulus=5\ne_gen =4\n")
    assert cfg_a == cfg_b
    assert config_hash(cfg_a) == config_hash(cfg_b)


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config("e_modulus = 5\nbogus = 1\n")


def test_bad_value_names_line_and_type():
    with pytest.raises(ConfigError, match="line 1: expected int"):
        parse_config("e_modulus = five\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("e_modulus = 5\ne_gen = 4\njunk line\n")


def test_limit_and_checkpoints_accept_scientific_notation():
    cfg = parse_config("limit = 1e7\ncheckpoint = 1e4\ncheckpoint = 100000\n")
    assert cfg.limit == 10_000_000 and type(cfg.limit) is int
    assert cfg.checkpoints == (10_000, 100_000)
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "2.5",
                                   "ten"])
def test_limit_rejects_non_finite_or_fractional(value):
    with pytest.raises(ConfigError, match="line 2: expected int for limit"):
        parse_config(f"e_modulus = 5\nlimit = {value}\n")
    with pytest.raises(ConfigError, match="line 1: expected int for checkpoint"):
        parse_config(f"checkpoint = {value}\n")


def test_duplicate_scalar_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("limit = 5\nlimit = 6\n")


def test_inconsistent_moduli_diagnostic():
    cfg = parse_config(
        "e_modulus = 5\ne_gen = 4\npi_modulus = 20\npi_exp = 1\npi_exp = 0\n")
    with pytest.raises(ConfigError) as err:
        cfg.pi()
    assert "20" in str(err.value) and "5" in str(err.value)


def test_wrong_exponent_count():
    cfg = parse_config("e_modulus = 16\npi_exp = 1\n")
    with pytest.raises(ConfigError, match="2 entries"):
        cfg.pi()


def test_config_builds_objects():
    cfg = parse_config(THM11.read_text())
    assert cfg.field_e().degree == 2
    assert cfg.field_f().degree == 2
    assert cfg.pi().omega.is_trivial
    assert cfg.pi_prime().tau == 0.0


# ------------------------------------------------------------------------ CLI

def test_count_subcommand(capsys):
    assert main(["count", "--l", "4", "--lprime", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coprime_count"] == 1


def test_count_with_orbit(capsys):
    assert main(["count", "--l", "5", "--lprime", "5", "--s", "2",
                 "--r", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coprime_count"] is None
    assert payload["noncuspidal_orbit_size"] == 5


def test_rs_subcommand(capsys):
    assert main(["rs", "--config", str(THM11)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["multiplicity"] == 1
    assert payload["tau0"] == 0.0
    assert payload["theorem_flags"] == {"thm1_1": True, "thm1_2": False}
    assert payload["T"]["pairs"] == [[0, 0]]
    assert payload["config_sha256"]


def test_bc_subcommand(capsys):
    assert main(["bc", "--config", str(DIHEDRAL)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["fiber"]) == 2
    assert {tuple(c["exponents"]) for c in payload["fiber"]} == {(1,), (3,)}


def test_char_subcommand(capsys):
    assert main(["char", "--config", str(DIHEDRAL)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["character"] == {
        "modulus": 5, "exponents": [1], "conductor": 5, "order": 4}


def test_field_subcommand(capsys):
    assert main(["field", "--config", str(THM11), "--pmax", "12"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "p,f_p,g_p,ramified"
    assert "11,1,2,0" in out
    assert "5,1,1,1" in out


def test_coeffs_routes_agree(tmp_path):
    out_e = tmp_path / "e.csv"
    out_q = tmp_path / "q.csv"
    assert main(["coeffs", "--config", str(DIHEDRAL), "--limit", "200",
                 "--route", "e", "--out", str(out_e)]) == 0
    assert main(["coeffs", "--config", str(DIHEDRAL), "--limit", "200",
                 "--route", "q", "--out", str(out_q)]) == 0
    rows_e = out_e.read_text().splitlines()[1:]
    rows_q = out_q.read_text().splitlines()[1:]
    assert rows_e[0] == "n,re_a,im_a"
    for a, b in zip(rows_e[1:], rows_q[1:]):
        na, ra, ia = a.split(",")
        nb, rb, ib = b.split(",")
        assert na == nb
        assert abs(float(ra) - float(rb)) < 1e-12
        assert abs(float(ia) - float(ib)) < 1e-12


def test_pnt_subcommand_writes_artifacts(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "trace.csv"
    code = main(["pnt", "--config", str(THM11), "--limit", "20000",
                 "--checkpoints", "1000,5000,20000",
                 "--out", str(out), "--csv", str(csv)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["multiplicity"] == 1
    assert payload["report"]["checkpoints"] == [1000, 5000, 20000]
    assert payload["config_sha256"]
    assert payload["artifact_version"]
    lines = csv.read_text().splitlines()
    assert lines[1] == "x,re_psi,im_psi,re_pred,im_pred,rel_error"
    assert len(lines) == 5


def test_pnt_outputs_deterministic(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "trace.csv"
    outs = []
    for _ in range(2):
        main(["pnt", "--config", str(THM11), "--limit", "10000",
              "--out", str(out), "--csv", str(csv)])
        payload = json.loads(out.read_text())
        payload.pop("generated_at")  # the marked timestamp field
        outs.append((json.dumps(payload, sort_keys=True),
                     csv.read_text()))
    assert outs[0] == outs[1]


def test_usage_error_exit_code(capsys):
    assert main(["count", "--l", "4"]) == 1          # missing --lprime
    assert main(["rs"]) == 1                          # missing --config
    assert main(["rs", "--config", "/nonexistent"]) == 1
    assert main(["bogus"]) == 1


@pytest.mark.parametrize("flag,value", [
    ("--limit", "inf"), ("--limit", "nan"), ("--limit", "1e400"),
    ("--limit", "2.5"), ("--checkpoints", "1000,inf"),
    ("--checkpoints", "1000,2.5"),
])
def test_pnt_rejects_non_finite_or_fractional(flag, value, capsys):
    assert main(["pnt", "--config", str(THM11), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bclab: usage error:") and "Traceback" not in err


def test_pnt_config_limit_in_scientific_notation(tmp_path, capsys):
    cfg = tmp_path / "sci.cfg"
    cfg.write_text(THM11.read_text().replace("limit = 10000000",
                                             "limit = 2e4\ncheckpoint = 1e4"))
    assert main(["pnt", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["limit"] == 20_000
    assert report["checkpoints"] == [10_000, 20_000]


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("e_modulus = 5\nwhat = 1\n")
    assert main(["rs", "--config", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_verify_failure_exit_code(monkeypatch, capsys):
    from bclab import verify as verify_mod

    def fake_run_checks(only=None, quick=False):
        return [verify_mod.CheckResult(1, "stub", False, "boom", 0.0)]

    monkeypatch.setattr(verify_mod, "run_checks", fake_run_checks)
    assert main(["verify"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_quick_passes(capsys):
    assert main(["verify", "--quick", "--only", "6,8"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2


def test_threads_env_honored(monkeypatch):
    import os

    from bclab.pnt import _resolve_workers

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the env is clamped to it
    monkeypatch.setenv("BCLAB_THREADS", "2")
    assert _resolve_workers(None) == 2
    monkeypatch.delenv("BCLAB_THREADS")
    assert _resolve_workers(7) == 7
