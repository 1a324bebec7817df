"""Unit tests for the benchmark's helpers.

    python3 -m pytest perfbench -q

(The repository's own suite collects only ``tests/``.)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from stats import (  # noqa: E402
    OpTally,
    TooFewSamples,
    beyond,
    decision_digest,
    percentile,
    spread,
    tail,
)
from speed import NOMINAL_S, Reference  # noqa: E402
from tracing import SpanRecorder, layer_of_module, self_times  # noqa: E402


# -- p90 with at least ten samples beyond it --------------------------------


def test_tail_needs_ten_samples_beyond():
    assert beyond(100, 90.0) == 10
    assert beyond(99, 90.0) == 9
    assert beyond(1000, 99.0) == 10
    with pytest.raises(TooFewSamples):
        tail(list(range(99)), 90.0)
    assert tail(list(range(100)), 90.0) == pytest.approx(89.1)


def test_tail_p99_needs_a_thousand():
    with pytest.raises(TooFewSamples):
        tail([1.0] * 999, 99.0)
    assert tail([1.0] * 1000, 99.0) == 1.0


def test_percentile_interpolates_and_ignores_order():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([1.0, 2.0], 50.0) == 1.5
    with pytest.raises(TooFewSamples):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 100.0)


def test_spread_is_iqr_over_median():
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    assert spread(values) == pytest.approx((107.5 - 92.5) / 100.0)


# -- reference speed ----------------------------------------------------------


def _reference(starts, durations):
    ref = Reference()
    ref.starts, ref.durations = list(starts), list(durations)
    return ref


def test_reference_seconds_drop_slices_and_scale_by_local_speed():
    # A machine at half the reference speed: every slice takes 2x nominal.
    slow = 2 * NOMINAL_S
    ref = _reference([1.0, 2.0, 3.0, 4.0], [slow] * 4)
    assert ref.raw_seconds(0.5, 3.5) == pytest.approx(3.0 - 3 * slow)
    assert ref.seconds(0.5, 3.5) == pytest.approx((3.0 - 3 * slow) / 2)
    # An interval between two slices is scaled, nothing removed.
    assert ref.seconds(1.5, 1.9) == pytest.approx(0.2)


def test_reference_speed_is_local():
    fast, slow = NOMINAL_S, 4 * NOMINAL_S
    ref = _reference(range(12), [fast] * 6 + [slow] * 6)
    assert ref.seconds(1.1, 1.2) == pytest.approx(0.1)
    assert ref.seconds(9.1, 9.2) == pytest.approx(0.025)


def test_reference_timer_takes_slices_and_restores_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with Reference(period_s=0.005) as ref:
        t_end = ref.starts[0] + 0.05
        while ref.starts[-1] < t_end:
            sum(range(1000))
    assert len(ref.durations) >= 5
    assert signal.getsignal(signal.SIGALRM) == before


# -- self time of nested spans ----------------------------------------------


def test_self_times_subtract_direct_children_only():
    # root [0,10] -> a [1,4] -> a1 [2,3]; root -> b [5,9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert list(own) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)


class _Inner:
    def leaf(self):
        return 1


class _Outer:
    def __init__(self):
        self.inner = _Inner()

    def work(self):
        return self.inner.leaf() + self.inner.leaf()


def test_recorder_nests_spans_and_splits_self_time_by_layer():
    recorder = SpanRecorder()
    recorder._wrap_class(_Outer, "core.silkroad")
    recorder._wrap_class(_Inner, "asicsim.cuckoo")
    try:
        outer = _Outer()
        root = recorder.open_root(run_id=7)
        assert outer.work() == 2
        recorder.close_root(root)
    finally:
        recorder.uninstall()
    assert "__wrapped__" not in vars(_Outer.work)  # restored
    names = [recorder.names[i] for i in recorder.name]
    assert names[0] == "bench.unit"
    assert names[1].endswith("_Outer.work")
    assert names[2].endswith("_Inner.leaf") and names[3].endswith("_Inner.leaf")
    assert list(recorder.parent) == [-1, 0, 1, 1]
    assert recorder.runs == [(7, 0)]
    by_layer = recorder.layer_self_seconds()
    assert sum(by_layer.values()) == pytest.approx(recorder.root_seconds())
    assert by_layer["asicsim.cuckoo"] == pytest.approx(
        sum(recorder.durations_of(names[2]))
    )
    assert recorder.top_level_seconds("asicsim.cuckoo") == pytest.approx(
        by_layer["asicsim.cuckoo"]
    )


def test_layer_of_module():
    assert layer_of_module("repro.netsim.batchsim") == "netsim"
    assert layer_of_module("repro.faults.fleet") == "faults"
    assert layer_of_module("repro.netsim.flows") == ""
    assert layer_of_module("repro.faultsx") == ""


# -- error_rate accounting ---------------------------------------------------


def test_tally_counts_failed_ops():
    tally = OpTally()
    tally.record(100)
    tally.record(50, 5, "5 unexpected statuses")
    assert (tally.attempted, tally.failed_total) == (150, 5)
    assert tally.error_rate == pytest.approx(5 / 150)
    assert not tally.correct
    assert tally.reasons == ["5 unexpected statuses"]


def test_tally_failed_audit_fails_every_op():
    tally = OpTally()
    tally.record(40, 1)
    tally.fail_all("audit failed")
    assert tally.failed_total == 40
    assert tally.error_rate == 1.0


def test_tally_clean_run_is_correct():
    tally = OpTally()
    tally.record(10)
    assert tally.correct and tally.error_rate == 0.0
    with pytest.raises(ValueError):
        tally.record(1, 2)


# -- decision digest -----------------------------------------------------------


def _conn(conn_id, decisions):
    return SimpleNamespace(conn_id=conn_id, decisions=decisions)


def test_decision_digest_sees_every_decision_not_list_order():
    a = [_conn(1, [(0.5, "10.0.0.1:80")]), _conn(2, [(0.7, "10.0.0.2:80")])]
    same = list(reversed(a))
    moved = [_conn(1, [(0.5, "10.0.0.1:80")]), _conn(2, [(0.7, "10.0.0.3:80")])]
    assert decision_digest(a) == decision_digest(same)
    assert decision_digest(a) != decision_digest(moved)


# -- the serve_mix operator ----------------------------------------------------


def _state(dips, phase="idle", queued=0):
    return {"vips": [{"vip": "V", "dips": list(dips), "update_phase": phase,
                      "queued_updates": queued}]}


def test_operator_cycles_add_weight_drain_poll_and_recycles():
    from workloads import Operator

    op = Operator(_state(["a", "b"]))
    cycle, method, path, body = op.next_request()
    assert (method, path, body) == ("POST", "/vips/V/dips", None)  # a spare
    op.on_response(cycle, b"{}")
    op.observe_state(_state(["a", "b"], phase="step1"))  # not settled yet
    assert op.next_request() is None
    op.observe_state(_state(["a", "b", "s"]))
    _, method, path, body = op.next_request()
    assert (method, path, body) == ("PATCH", "/dips/s", {"weight": Operator.WEIGHT})
    op.on_response(cycle, b"{}")
    _, method, path, _ = op.next_request()
    assert (method, path) == ("POST", "/dips/a/drain")
    op.on_response(cycle, b"{}")
    _, method, path, _ = op.next_request()
    assert (method, path) == ("GET", "/dips/a/drain")
    assert op.on_response(cycle, json.dumps({"status": "draining"}).encode()) is None
    op.on_response(cycle, json.dumps({"status": "drained"}).encode())
    _, method, path, body = op.next_request()
    assert (method, path, body) == ("POST", "/vips/V/dips", {"dip": "a"})
    assert op.on_response(cycle, b"{}") is None
    op.observe_state(_state(["b", "s"]))  # fresh, but "a" not back yet
    assert op.next_request() is None


def test_operator_reports_unknown_drain_status():
    from workloads import Operator

    op = Operator(_state(["a", "b"]))
    cycle = op.cycles[0]
    cycle.phase, cycle.draining = "poll", "a"
    assert "status" in op.on_response(cycle, json.dumps({"status": "lost"}).encode())


# -- BENCHMARK.json matches what run.py prints ----------------------------------


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run._layer_metrics()
