"""Golden run records: short runs whose records must not move.

The fixture `goldens/records.json` holds, per case, the run record without
its `wall_time` fields and the run CSV. Integer and decision fields must be
equal, and every float must have the same bits. `goldens/regen.py` rebuilds
the fixture; a change regenerates it only when it means to move results.
"""

import copy
import json
import warnings

import pytest

from goldens.regen import CASES, FIXTURE, case_config, compare, run_case, strip_timers

from crsail.harness import load_records, run, summarize

GOLDEN = json.loads(FIXTURE.read_text())


def _bits(value):
    """The value with each float replaced by its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_record(name, tmp_path):
    actual = run_case(name, tmp_path)
    expected = GOLDEN[name]
    assert _bits(actual["record"]) == _bits(expected["record"])
    assert actual["csv"] == expected["csv"]


def test_workers_give_equal_records(tmp_path):
    by_workers = {}
    for workers in (1, 2):
        config = case_config("pendulum-crsail", tmp_path / f"w{workers}", workers, seeds=[0, 1])
        records, failures = run(config)
        assert failures == []
        by_workers[workers] = [_bits(strip_timers(r)) for r in records]
    assert by_workers[1] == by_workers[2]
    assert by_workers[1][0] == _bits(GOLDEN["pendulum-crsail"]["record"])


def test_check_reports_each_moved_field():
    expected = GOLDEN["pendulum-dagger"]
    assert compare(expected, copy.deepcopy(expected)) == []
    actual = copy.deepcopy(expected)
    for episode in actual["record"]["episodes"][:2]:
        episode["eval_std"] += 0.25
    actual["record"]["episodes"][1]["n_queries"] += 1
    actual["csv"] += "\n"
    n = expected["record"]["episodes"][1]["n_queries"]
    moved = f"  moved: episodes[].n_queries ({n} -> {n + 1})"
    assert compare(expected, actual) == ["  float episodes[].eval_std: largest change 0.25",
                                         moved, "  csv differs"]
    del actual["record"]["config"]["m_cal"]
    actual["record"]["config"]["strategy_params"]["extra"] = 1
    assert compare(expected, actual) == ["  config key removed: config.m_cal",
                                         "  config key added: config.strategy_params.extra",
                                         "  float episodes[].eval_std: largest change 0.25",
                                         moved, "  csv differs"]
    actual["record"]["config"]["max_queries"] = 250
    actual["record"]["episodes"][0]["n_queries"] += 1
    first = expected["record"]["episodes"][0]["n_queries"]
    assert compare(expected, actual)[3:5] == [
        "  moved: config.max_queries (None -> 250)",
        f"  moved: episodes[].n_queries ({first} -> {first + 1}, and 1 more)"]
    del actual["record"]["episodes"][0]
    assert compare(expected, actual)[2].startswith("  record layout moved")


@pytest.mark.parametrize("key, value", [("recalibrate_every", 0), ("alpha", 0.93)])
def test_records_with_a_removed_config_key_still_load(tmp_path, key, value):
    # run directories written while the snapshot held `key` hold it in each config:
    # [conformal] had recalibrate_every, and `alpha` repeated strategy_params.alpha
    current = copy.deepcopy(GOLDEN["pendulum-crsail"]["record"])
    for episode in current["episodes"]:
        episode["wall_time"] = 0.0
    old = copy.deepcopy(current)
    old["config"][key] = value
    current["config"]["seed"] = 1  # a run of the same row, written without the key
    (tmp_path / "crsail_M200_seed0.json").write_text(json.dumps(old))
    (tmp_path / "crsail_M200_seed1.json").write_text(json.dumps(current))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = load_records(tmp_path)
    assert [r.to_dict() for r in records] == [old, current]
    [row] = summarize(records)  # a key only one config holds does not split the row
    assert (row["method"], row["m"], row["runs"]) == ("crsail", 200, 2)
    assert row["total_queries_mean"] == old["summary"]["total_queries"]
