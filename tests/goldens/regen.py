"""Regenerate the golden run records that `tests/test_goldens.py` compares against.

    python tests/goldens/regen.py           # rewrite the fixture
    python tests/goldens/regen.py --check   # compare with it, write nothing

Each case is one short `harness.run` (one M, one seed, workers=1). The fixture
keeps each run's record without its `wall_time` fields, and the run CSV as
written. Regenerate only in a change that means to move results; see the
README ("Golden run records") for what such a change must report. `--check`
prints that report: per case, each config key removed or added, the largest
change of each float field and the other fields that moved, each with its
first old and new value; it exits 1 if anything moved.
"""

from __future__ import annotations

import argparse
import json
import math
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
    # a query cap that ends the run in its second episode, long before the step cap
    "double-integrator-crsail-queries-budget": (
        {"env": "double_integrator", "strategy": "crsail", "max_queries": 250}, 150, 6),
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


def _leaves(value, path=""):
    """(path, value) for each scalar of a nested record; the items of a list
    share the list's path, suffixed with []."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, path + "[]")
    else:
        yield path, value


def _shared_keys(old: dict, new: dict, path: str, lines: list) -> tuple[dict, dict]:
    """`old` and `new` with only the keys both have, at every level of nesting,
    in `old`'s order; a line for each key removed or added goes to `lines`."""
    lines += [f"  config key removed: {path}.{key}" for key in old if key not in new]
    lines += [f"  config key added: {path}.{key}" for key in new if key not in old]
    pairs = {key: _shared_keys(old[key], new[key], f"{path}.{key}", lines)
             if isinstance(old[key], dict) and isinstance(new[key], dict)
             else (old[key], new[key]) for key in old if key in new}
    return {key: a for key, (a, _) in pairs.items()}, {key: b for key, (_, b) in pairs.items()}


def compare(expected: dict, actual: dict) -> list[str]:
    """Report lines for one case: each config key removed or added, the largest
    change of each float field, the other fields that moved (the first change
    of each as `old -> new`, and how many more), and whether the CSV differs.
    Empty if nothing moved."""
    lines: list[str] = []
    old_config, new_config = _shared_keys(expected["record"]["config"],
                                          actual["record"]["config"], "config", lines)
    old = list(_leaves({**expected["record"], "config": old_config}))
    new = list(_leaves({**actual["record"], "config": new_config}))
    if [path for path, _ in old] != [path for path, _ in new]:
        return lines + [f"  record layout moved: {len(old)} fields -> {len(new)} "
                        "(an episode count or a record field changed)"]
    largest, moved = {}, {}
    for (path, a), (_, b) in zip(old, new):
        if isinstance(a, float) and isinstance(b, float):
            change = 0.0 if a.hex() == b.hex() else abs(b - a)
            largest[path] = max(largest.get(path, 0.0), math.inf if math.isnan(change) else change)
        elif a != b or type(a) is not type(b):
            moved.setdefault(path, []).append(f"{a!r} -> {b!r}")
    lines += [f"  float {path}: largest change {change:.3g}"
              for path, change in largest.items() if change]
    lines += [f"  moved: {path} ({changes[0]}"
              + (f", and {len(changes) - 1} more)" if len(changes) > 1 else ")")
              for path, changes in moved.items()]
    if expected["csv"] != actual["csv"]:
        lines.append("  csv differs")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the cases with the fixture instead of rewriting it")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    golden = json.loads(FIXTURE.read_text()) if args.check else {}
    entries, any_moved = {}, False
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            entries[name] = run_case(name, tmp)
        if not args.check:
            print(f"{name}: {entries[name]['record']['summary']}")
            continue
        lines = compare(golden[name], entries[name]) if name in golden else ["  not in fixture"]
        any_moved = any_moved or bool(lines)
        print(f"{name}: {'moved' if lines else 'bit-identical, no field moved'}", *lines,
              sep="\n")
    if args.check:
        sys.exit(1 if any_moved else 0)
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
