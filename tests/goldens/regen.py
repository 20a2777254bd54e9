"""Regenerate the golden run records that `tests/test_goldens.py` compares against.

    python tests/goldens/regen.py

Each case is one short `harness.run` (one M, one seed, workers=1). The fixture
keeps each run's record without its `wall_time` fields, and the run CSV as
written. Regenerate only in a change that means to move results; see the
README ("Golden run records") for what such a change must report.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).with_name("records.json")

SHORT = {"eval_episodes": 5, "m_cal": 10}  # small evaluation and calibration sets

# name -> (ExperimentConfig keyword arguments, M, seed)
CASES = {
    "pendulum-crsail": ({"env": "pendulum", "strategy": "crsail", "max_steps": 600}, 200, 0),
    "pendulum-dagger": ({"env": "pendulum", "strategy": "dagger", "max_steps": 400}, 200, 1),
    "pendulum-random-rate": (
        {"env": "pendulum", "strategy": "random-rate", "max_steps": 400}, 200, 2),
    "pendulum-fixed-threshold": (
        {"env": "pendulum", "strategy": "fixed-threshold", "max_steps": 400}, 200, 3),
    "pusher-crsail": ({"env": "pusher", "strategy": "crsail", "max_steps": 500}, 500, 4),
    "pusher-ensemble-variance": (
        {"env": "pusher", "strategy": "ensemble-variance", "max_steps": 300}, 200, 5),
    # three members; every update re-clones, and with 48-row minibatches each
    # epoch ends on a short one (M=200 is not a multiple of 48)
    "pusher-ensemble-retrain": (
        {"env": "pusher", "strategy": "ensemble-variance", "max_steps": 300,
         "strategy_params": {"ensemble_size": 3},
         "train_params": {"retrain_from_scratch": True, "batch_size": 48}}, 200, 7),
    # queries-only budget; the radius is recalibrated after episodes 2 and 4
    "double-integrator-crsail-recalibrated": (
        {"env": "double_integrator", "strategy": "crsail", "max_steps": None,
         "max_queries": 500, "recalibrate_every": 2}, 150, 6),
}


def case_config(name: str, output_dir, workers: int = 1, seeds=None):
    from crsail.harness import ExperimentConfig

    kwargs, m, seed = CASES[name]
    return ExperimentConfig(**SHORT, **kwargs, m_values=[m], seeds=seeds or [seed],
                            output_dir=str(output_dir), workers=workers)


def strip_timers(record) -> dict:
    """The record as a dict, without the one field that is not reproducible."""
    data = record.to_dict()
    for episode in data["episodes"]:
        del episode["wall_time"]
    return data


def run_case(name: str, output_dir) -> dict:
    """One case's fixture entry: its record without timers and its run CSV."""
    from crsail.harness import run, run_basename

    config = case_config(name, output_dir)
    records, failures = run(config)
    if failures:
        raise RuntimeError(failures[0])
    _, m, seed = CASES[name]
    csv_path = os.path.join(output_dir, run_basename(config.strategy, m, seed) + ".csv")
    with open(csv_path, newline="") as fh:
        return {"record": strip_timers(records[0]), "csv": fh.read()}


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    entries = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            entries[name] = run_case(name, tmp)
        print(f"{name}: {entries[name]['record']['summary']}")
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
