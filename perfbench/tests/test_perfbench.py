"""Tests of the benchmark's own code (not of osbk).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import speed  # noqa: E402
import stats  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402


@pytest.fixture(scope="module")
def tables():
    return workloads.build_tables()


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert stats.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 10)
    assert stats.tail([float(v) for v in range(1, 41)]) == (75.0, 30.0, 10)
    # ties at the percentile value are not beyond it
    assert stats.tail([1.0] * 50 + [2.0] * 10) == (75.0, 1.0, 10)
    # too few samples for any rung: the median, with the count it really has
    assert stats.tail([float(v) for v in range(1, 16)]) == (50.0, 8.0, 7)


def test_typical_latency_weighs_every_kind_once():
    # kind a has medians 1 (three ops), kind b has 100 (one op): geometric mean 10
    assert stats.typical([1.0, 1.0, 2.0, 100.0], ["a", "a", "a", "b"]) == pytest.approx(10.0)


def test_relative_tail_divides_each_latency_by_its_kind_median():
    # each kind: 40 ops at its median, 10 at 2x, 6 at 3x; kind b is 100x slower than kind a
    shape = [1.0] * 40 + [2.0] * 10 + [3.0] * 6
    values = shape + [100.0 * v for v in shape]
    kinds = ["a"] * len(shape) + ["b"] * len(shape)
    assert stats.relative_tail(values, kinds) == (75.0, 2.0, 12)


def test_reference_speed_scales_by_the_loop_time_around_the_interval():
    # the reference loop ran at half speed around the interval: half the wall time is reported
    slow = [2.0 * speed.REF_S] * speed.REPEATS
    assert speed.at_reference(1.0, slow, slow) == pytest.approx(0.5)


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0,10] holds a [1,4] and b [5,9]; b holds c [6,7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    # a further child d [3,8] overlaps a and b: root loses their union [1,9], not the sum
    assert spans.self_times(start + [3.0], end + [8.0], parent + [0])[0] == pytest.approx(2.0)
    # a child running past its parent counts only inside the parent
    assert spans.self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])[0] == pytest.approx(8.0)


def test_wrapped_calls_record_nested_spans():
    rec = spans.Recorder()
    inner = spans.wrap(rec, lambda x: x + 1, "core", "core.inner")
    outer = spans.wrap(rec, lambda x: inner(x) * 2, "cli", "cli.outer")
    assert outer(1) == 4 and len(rec) == 0  # inactive: nothing recorded
    rec.active = True
    assert outer(1) == 4
    assert [rec.names[n] for n in rec.name] == ["cli.outer", "core.inner"]
    assert list(rec.parent) == [-1, 0]


def test_op_generation_is_deterministic_in_the_seed(tables):
    for name, w in workloads.WORKLOADS.items():
        n = 2 * len(w.kinds)
        first = [workloads.make_op(name, tables, 7, i) for i in range(n)]
        assert first == [workloads.make_op(name, tables, 7, i) for i in range(n)]
        other = [workloads.make_op(name, tables, 8, i) for i in range(n)]
        assert [op.kind for op in other] == [op.kind for op in first]
        assert [op.argv for op in other] != [op.argv for op in first]


def test_every_metric_name_is_well_formed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]] + [
        w["name"] for w in declared["workloads"]
    ]
    names += list(spans.layer_metrics(spans.Recorder(), 1))
    assert all(pattern.fullmatch(n) for n in names), [n for n in names if not pattern.fullmatch(n)]
    assert set(spans.layer_metrics(spans.Recorder(), 1)) <= {m["name"] for m in declared["per_layer"]}


def test_checker_rejects_a_wrong_classify_histogram(tables, tmp_path):
    op = workloads.make_op("closed-form", tables, 0, workloads.WORKLOADS["closed-form"].kinds.index("classify-positive"))
    checker = Checker(tables)

    def check(histogram: dict) -> list[str]:
        (tmp_path / "result.json").write_text(json.dumps({"D": 1.0, "histogram": histogram}))
        return checker.check(op, tmp_path)

    assert check({"2": 500}) == []
    assert check({"2": 499, "4": 1}) != []
