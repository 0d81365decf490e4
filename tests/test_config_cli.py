import json
from pathlib import Path

import pytest

from bclab import __version__
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
TWIST = REPO / "configs" / "twist.cfg"


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


@pytest.mark.parametrize("key", ["pi_tau", "pi_prime_tau"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_tau_rejects_non_finite(key, value):
    with pytest.raises(ConfigError,
                       match=f"line 2: expected finite float for {key}"):
        parse_config(f"e_modulus = 5\n{key} = {value}\n")


@pytest.mark.parametrize("key", ["pi_tau", "pi_prime_tau"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_pnt_rejects_non_finite_tau_before_output(key, value, tmp_path,
                                                  capsys):
    cfg = tmp_path / "bad_tau.cfg"
    text = THM11.read_text().replace(f"{key} = 0.0", f"{key} = {value}")
    assert f"{key} = {value}" in text
    cfg.write_text(text)
    out = tmp_path / "report.json"
    assert main(["pnt", "--config", str(cfg), "--limit", "1000",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("bclab: error: line ")
    assert f"expected finite float for {key}" in captured.err
    assert captured.out == "" and not out.exists()


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


def _is_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def _bruteforce_rs(n, tau):
    """(1 + chi5(n))(1 + chi4(n)) n^{i tau} for the pair of configs/thm11.cfg
    (tau = 0) and configs/twist.cfg (tau = 0.5), at n = p^k with p odd, not 5."""
    chi5 = 1 if n % 5 in (1, 4) else -1
    chi4 = 1 if n % 4 == 1 else -1
    return (1 + chi5) * (1 + chi4) * complex(n) ** (1j * tau)


@pytest.mark.parametrize("path,tau", [(THM11, 0.0), (TWIST, 0.5)])
def test_rs_csv_rows_match_bruteforce(path, tau, tmp_path, capsys):
    csv = tmp_path / "coeffs.csv"
    assert main(["rs", "--config", str(path), "--csv", str(csv),
                 "--limit", "200"]) == 0
    capsys.readouterr()
    lines = csv.read_text().splitlines()
    cfg = parse_config(path.read_text())
    assert lines[0] == (f"# artifact_version={__version__} "
                        f"config_sha256={config_hash(cfg)}")
    assert lines[1] == "n,re_a,im_a"
    prime_powers = [n for n in range(3, 201)
                    if n % 2 and n % 5 and _is_prime_power(n)]
    rows = [line.split(",") for line in lines[2:]]
    assert [int(n) for n, _, _ in rows] == prime_powers
    for n, re_a, im_a in rows:
        expected = _bruteforce_rs(int(n), tau)
        assert abs(complex(float(re_a), float(im_a)) - expected) < 1e-12


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


@pytest.mark.parametrize("only", ["99", ",", "6,99", "0", "six", " , "])
def test_run_checks_rejects_unknown_numbers(only):
    from bclab.verify import run_checks

    with pytest.raises(ValueError, match="valid check numbers are 1, 2, 3, "
                                         "4, 5, 6, 7, 8, 9, 10"):
        run_checks(only=only, quick=True)


@pytest.mark.parametrize("only", ["99", ",", "6,99"])
def test_verify_unknown_check_is_a_clean_error(only, capsys):
    assert main(["verify", "--quick", "--only", only]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bclab: error:")
    assert "valid check numbers are 1, 2" in captured.err


def test_run_checks_accepts_spaces_and_empty_tokens():
    from bclab.verify import run_checks

    assert [r.number for r in run_checks(only=" 8, ,6,", quick=True)] == [6, 8]


def _assert_usage_error(argv, capsys, needle):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bclab: usage error:")
    assert needle in captured.err and "Traceback" not in captured.err


def test_config_path_is_a_directory(tmp_path, capsys):
    _assert_usage_error(["char", "--config", str(tmp_path)], capsys,
                        "Is a directory")


def test_config_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes("# caf\xe9\ne_modulus = 5\n".encode("latin-1"))
    _assert_usage_error(["char", "--config", str(bad)], capsys, "not UTF-8")


def test_config_file_unreadable(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "locked.cfg"
    cfg.write_text(THM11.read_text())

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    _assert_usage_error(["char", "--config", str(cfg)], capsys,
                        "Permission denied")


def test_rs_rejects_small_csv_limit_before_output(tmp_path, capsys):
    csv = tmp_path / "coeffs.csv"
    _assert_usage_error(["rs", "--config", str(THM11), "--csv", str(csv),
                         "--limit", "1"], capsys, "--limit")
    assert not csv.exists()


@pytest.mark.parametrize("argv", [["--l", "0", "--lprime", "3"],
                                  ["--l", "2", "--lprime", "-1"]])
def test_count_rejects_degree_below_one(argv, capsys):
    _assert_usage_error(["count"] + argv, capsys, "at least 1")


# ------------------------------------------------------------ output errors

def _assert_output_error(argv, capsys, needle):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bclab: error: cannot write")
    assert needle in captured.err and "Traceback" not in captured.err


def _psi_sum_must_not_run(*args, **kwargs):
    raise AssertionError("psi_sum ran before the output check")


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_pnt_missing_output_dir_fails_before_psi_sum(flag, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.setattr("bclab.pnt.psi_sum", _psi_sum_must_not_run)
    target = tmp_path / "missing" / "r.json"
    _assert_output_error(["pnt", "--config", str(THM11), flag, str(target)],
                         capsys, "does not exist")
    assert not target.parent.exists()


def test_pnt_missing_output_dir_from_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("bclab.pnt.psi_sum", _psi_sum_must_not_run)
    cfg = tmp_path / "out.cfg"
    cfg.write_text(THM11.read_text() +
                   f"\ncsv = {tmp_path / 'missing' / 't.csv'}\n")
    _assert_output_error(["pnt", "--config", str(cfg)], capsys,
                         "does not exist")


def test_rs_missing_csv_dir_fails_before_any_output(tmp_path, capsys):
    _assert_output_error(["rs", "--config", str(THM11), "--csv",
                          str(tmp_path / "missing" / "c.csv")],
                         capsys, "does not exist")


@pytest.mark.parametrize("argv", [
    ["pnt", "--config", str(THM11), "--limit", "1000"],
    ["field", "--config", str(THM11)],
    ["count", "--l", "2", "--lprime", "3"],
])
def test_write_failure_is_a_clean_error(argv, tmp_path, capsys):
    # the directory exists, but the output path is itself a directory
    _assert_output_error(argv + ["--out", str(tmp_path)], capsys,
                         "Is a directory")


def test_csv_write_failure_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["pnt", "--config", str(THM11), "--limit", "1000",
                 "--out", str(out), "--csv", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("bclab: error: cannot write")
    assert "Traceback" not in captured.err
    assert json.loads(out.read_text())["report"]["limit"] == 1000
