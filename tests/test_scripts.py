"""Smoke runs of the scripts: each imports coxfan names that no other test
reaches through the script, so a renamed or deleted name shows here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxfan

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(coxfan.__file__).resolve().parents[1])


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("corpus_report.py", []),
        ("sections_scan.py", ["--fan", "p2", "--min", "0", "--max", "1"]),
    ],
    ids=["corpus_report", "sections_scan"],
)
def test_json_script_runs(script, args):
    out = _run(script, *args)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)


@pytest.mark.parametrize("script", ["corpus_report.py", "sections_scan.py", "random_invariants.py"])
def test_script_runs_from_a_checkout_without_pythonpath(script, tmp_path):
    # Each script finds the package in the checkout's src by itself, as
    # its usage line runs it, from any directory.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    args = ["--cones", "1", "--ideals", "1"] if script == "random_invariants.py" else []
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize(
    "script,args",
    [
        ("corpus_report.py", []),
        ("sections_scan.py", ["--fan", "p2", "--min", "0", "--max", "1"]),
        ("random_invariants.py", ["--cones", "1", "--ideals", "1"]),
        ("cli_snapshot.py", []),
    ],
)
def test_script_exits_quietly_on_a_closed_pipe(script, args):
    # The pipe's reading end is closed before the script starts, so its
    # first write fails: it exits 2 with nothing on stderr, as the CLI does.
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert "Traceback" not in out.stderr
    assert (out.returncode, out.stderr) == (2, "")


def test_random_invariants_passes():
    out = _run("random_invariants.py", "--cones", "3", "--ideals", "5", "--seed", "1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["cones: 3/3 passed", "ideals: 5/5 passed"]


def test_random_invariants_round_trips():
    out = _run("random_invariants.py", "--cones", "0", "--ideals", "0", "--round-trips", "6")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "round trips: 6/6 passed"


def test_random_invariants_torsion():
    out = _run("random_invariants.py", "--cones", "0", "--ideals", "0", "--torsion", "8")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "torsion: 8/8 passed"


def test_random_invariants_sections():
    out = _run("random_invariants.py", "--cones", "0", "--ideals", "0", "--sections", "20")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "sections: 20/20 passed"


def test_cli_snapshot_runs():
    out = _run("cli_snapshot.py")
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout)
    assert not [r["argv"] for r in runs if "uncaught" in r]
    assert {r["exit"] for r in runs} == {0, 1, 2}
    # Paths are normalized, so two checkouts print the same document.
    assert "<corpus>/p2.json" in out.stdout and "<tmp>/" in out.stdout
    assert str(ROOT) not in out.stdout
