import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bclab.characters import euler_phi

REPO = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> str:
    """Run a script under scripts/ in a fresh interpreter on this checkout's
    library; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scripts_run_on_small_inputs(tmp_path):
    # the scripts reach into the library (psi_stages patches
    # PrimePowerStream._sieve), so a rename there must fail here
    run_script("scripts/run_main_term_experiments.py", "--limit", "1e5",
               "--outdir", str(tmp_path))
    reports = sorted(p.name for p in tmp_path.glob("*.json"))
    assert reports == ["double_pole.json", "no_pole.json", "one_pole.json",
                       "twisted_pole.json"]
    assert json.loads((tmp_path / "one_pole.json").read_text())[
        "multiplicity"] == 1

    assert "0 mismatches" in run_script("scripts/sweep_twisted_pairs.py",
                                        "--bound", "12")
    # every intersecting pair goes through the cached tower frames
    assert "0 mismatches" in run_script("scripts/sweep_twisted_pairs.py",
                                        "--bound", "12", "--cross-check-all")

    stages = json.loads(run_script(
        "scripts/psi_stages.py", "--config", "configs/thm11.cfg",
        "--limit", "1e5", "--workers", "1"))
    assert stages["limit"] == 100_000
    assert stages["sieve_s"] > 0
    usage = ("user_s", "system_s", "minor_faults", "max_rss_mb")
    assert all(stages[key] >= 0 and stages["children_" + key] >= 0
               for key in usage)
    # past the pool's mask cut (thm11 from 1.2e8) two workers are forked
    # processes: their work shows in the children's usage
    forked = json.loads(run_script(
        "scripts/psi_stages.py", "--config", "configs/thm11.cfg",
        "--limit", "2e8", "--workers", "2"))
    assert forked["children_user_s"] > 0
    assert forked["children_minor_faults"] > 0


def test_sweep_reports_a_wrong_pole_count(monkeypatch, capsys):
    # a source whose orthogonality count is off by one on every pair, or
    # one that skips the test of xi on H and so claims a pole on disjoint
    # pairs too, is caught by the comparison with the fiber keys
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    import sweep_twisted_pairs as sweep

    class OffByOne(sweep.RsCoeffSource):
        def __init__(self, pi, pi_prime):
            super().__init__(pi, pi_prime)
            self.multiplicity += 1

    class PoleOnEveryPair(sweep.RsCoeffSource):
        def __init__(self, pi, pi_prime):
            super().__init__(pi, pi_prime)
            self.multiplicity = (self.scale * len(self.support)
                                 // euler_phi(self.modulus))

    monkeypatch.setattr("sys.argv", ["sweep_twisted_pairs.py", "--bound", "5"])
    for wrong in (OffByOne, PoleOnEveryPair):
        monkeypatch.setattr(sweep, "RsCoeffSource", wrong)
        sweep.main()
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "0 mismatches" not in out


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    import bench
    return bench


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_bench_verdict_gain_needs_nine_of_ten_pairs(bench):
    assert bench.verdict(PARENT, [0.8 * p for p in PARENT], "lower",
                         0.25) == "gain"
    # a 13% better median from 8 wins in 10 pairs is no gain
    change = [0.87 * p for p in PARENT[:8]] + [1.05, 1.05]
    assert bench.change_wins(PARENT, change, "lower") == 8
    assert bench.quartiles(change)[1] < 0.88 * bench.quartiles(PARENT)[1]
    assert bench.verdict(PARENT, change, "lower", 0.25) == "level"
    # ties count for neither side
    tied = [0.8 * p for p in PARENT[:9]] + [PARENT[9]]
    assert bench.verdict(PARENT, tied, "lower", 0.25) == "gain"
    tied[8] = PARENT[8]
    assert bench.verdict(PARENT, tied, "lower", 0.25) == "level"
    # 9 of 10 wins, but the medians differ by less than the parent's IQR
    near = [p - 0.001 for p in PARENT[:9]] + [1.5]
    assert bench.verdict(PARENT, near, "lower", 0.25) == "level"


def test_bench_verdict_regression_is_past_the_bound(bench):
    assert bench.verdict(PARENT, [1.3 * p for p in PARENT], "lower",
                         0.25) == "regression"
    assert bench.verdict(PARENT, [1.2 * p for p in PARENT], "lower",
                         0.25) == "level"
    # for a higher-is-better metric a lower median is the regression
    assert bench.verdict(PARENT, [0.7 * p for p in PARENT], "higher",
                         0.25) == "regression"
    assert bench.verdict(PARENT, [1.3 * p for p in PARENT], "higher",
                         0.25) == "gain"


def test_bench_verdict_unresolved_when_the_parent_spreads_past_the_bound(
        bench):
    wide = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 0.9]
    assert bench.verdict(wide, wide[::-1], "lower", 0.25) == "unresolved"
    # every change run beats every parent run: resolved, if no gain
    skewed = [0.9] * 3 + [1.0] * 4 + [3.0] * 3
    assert bench.verdict(skewed, [0.85] * 10, "lower", 0.25) == "level"
    assert bench.verdict(skewed, [0.95] * 10, "lower", 0.25) == "unresolved"


def test_bench_summarize_judges_the_bounded_metrics(bench):
    def run(wall, blocks):
        return {"failed": 0, "attempted": 1,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "pnt.blocks": {"value": blocks,
                                           "unit": "count"}}}

    results = {"parent": [run(p, 7) for p in PARENT],
               "change": [run(1.3 * p, 7) for p in PARENT]}
    out = bench.summarize(results, bench.directions(), bench.bounds())
    assert out["metrics"]["wall_s"]["verdict"] == "regression"
    assert "verdict" not in out["metrics"]["pnt.blocks"]
    assert bench.bounds()["wall_s"] == 0.25
