"""The benchmark's own self-test, so a change that breaks the benchmark fails here."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pendulum-crsail", "pusher-crsail", "pusher-ensemble")
# The sites the tracer knows that the package no longer has, in the order it
# notes them. A renamed argument that a counter reads shows up only as a
# "counter for ... failed" note, with that layer's metric (or the kdtree replay
# check) silently off.
EXPECTED_NOTES = ["not traced: crsail.conformal.rollout",
                  "not traced: crsail.trainer.calibrate_radius",
                  "not traced: MLPPolicy.forward"]


def test_benchmark_smoke_passes():
    start = time.time()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines()
    notes = [line.strip() for line in proc.stdout.splitlines()
             if line.strip().startswith("note: ")]
    assert all(n.removeprefix("note: ") in EXPECTED_NOTES for n in notes), notes
    # Smoke mode keeps each workload's printout to itself; the traced result
    # file it writes carries the same notes.
    for name in WORKLOADS:
        result = ROOT / "perfbench" / "out" / f"{name}-seed0-trace1.json"
        assert result.stat().st_mtime >= start - 1, f"{result} was not rewritten"
        traced = json.loads(result.read_text())
        assert traced["tracer_notes"] == EXPECTED_NOTES, name
        # the tracer finds experts by an `act` defined on a class in crsail.envs; an
        # expert whose `act` moved elsewhere drops out of the trace with no note
        assert traced["metrics"]["envs.expert_act.calls"]["value"] > 0, name
