"""Smoke tests: every example script runs to completion.

Each example is executed in-process (``runpy``) with a patched
``sys.argv``; the slow full-grid script is exercised at reduced scale.
Keeping these green guarantees the documentation entry points never
rot.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "architecture_tour.py",
    "custom_kernel.py",
    "autotune_example.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_fast_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 200  # produced a real report


def test_paper_figures_small_grid(capsys, monkeypatch, tmp_path):
    out_path = tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(
        sys,
        "argv",
        ["paper_figures.py", "--scale", "0.05", "--sp-only",
         "--write-experiments", str(out_path)],
    )
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(EXAMPLES / "paper_figures.py"), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "fig2a" in out and "Summary" in out
    assert out_path.exists()
    assert "Known deviations" in out_path.read_text()


def test_parallel_campaign_small_grid(capsys, monkeypatch):
    monkeypatch.setattr(
        sys,
        "argv",
        ["parallel_campaign.py", "--scale", "0.05", "--jobs", "2",
         "--benchmarks", "vecop", "red"],
    )
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(EXAMPLES / "parallel_campaign.py"), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "byte-identical: True" in out
    assert "100% hit rate" in out
    assert "trace:" in out


@pytest.mark.timeout_guard(240)
def test_crash_recovery_smoke(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "argv", ["crash_recovery_smoke.py", "--scale", "0.02", "--jobs", "4"]
    )
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(EXAMPLES / "crash_recovery_smoke.py"), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "crash recovery smoke: OK" in out
    assert "pool restarts" in out


@pytest.mark.timeout_guard(300)
def test_resume_campaign_smoke(capsys, monkeypatch):
    # the example re-launches itself and the `repro resume` CLI as
    # subprocesses, which need the package importable via PYTHONPATH
    src = str(Path(__file__).resolve().parents[2] / "src")
    monkeypatch.setenv("PYTHONPATH", src)
    monkeypatch.setattr(
        sys, "argv", ["resume_campaign.py", "--scale", "0.02", "--jobs", "2"]
    )
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(EXAMPLES / "resume_campaign.py"), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "resume campaign smoke: OK" in out
    assert "byte-identical" in out


@pytest.mark.timeout_guard(300)
def test_distributed_campaign_smoke(capsys, monkeypatch):
    # the example launches `repro worker` subprocesses, which need the
    # package importable via PYTHONPATH
    src = str(Path(__file__).resolve().parents[2] / "src")
    monkeypatch.setenv("PYTHONPATH", src)
    monkeypatch.setattr(
        sys, "argv", ["distributed_campaign.py", "--scale", "0.02"]
    )
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(EXAMPLES / "distributed_campaign.py"), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "OK: worker killed mid-chunk" in out
    assert "byte-identical to local execution" in out


def test_all_examples_are_tested_or_listed():
    """Every example file is either smoke-tested here or known-slow."""
    known_slow = {
        "paper_figures.py",        # tested above at reduced scale
        "parallel_campaign.py",    # tested above at reduced scale
        "crash_recovery_smoke.py",  # tested above at reduced scale
        "resume_campaign.py",       # tested above at reduced scale
        "distributed_campaign.py",  # tested above at reduced scale
        "optimization_walkthrough.py",
        "energy_study.py",
        "precision_study.py",
        "roofline_study.py",
        "future_hardware.py",
        "cluster_study.py",
    }
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST_EXAMPLES) | known_slow
