import json
import os
import subprocess
import sys
from pathlib import Path

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
