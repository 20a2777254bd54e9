"""Golden run records: short runs whose records must not move.

The fixture `goldens/records.json` holds, per case, the run record without
its `wall_time` fields and the run CSV. Integer and decision fields must be
equal, and every float must have the same bits. `goldens/regen.py` rebuilds
the fixture; a change regenerates it only when it means to move results.
"""

import copy
import json

import pytest

from goldens.regen import CASES, FIXTURE, case_config, compare, run_case, strip_timers

from crsail.harness import run

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
    assert compare(expected, actual) == ["  float episodes[].eval_std: largest change 0.25",
                                         "  moved: episodes[].n_queries", "  csv differs"]
    del actual["record"]["episodes"][0]
    assert compare(expected, actual)[0].startswith("  record layout moved")
