"""Span recording, self-time arithmetic and the wrappers installed into the package."""

import sys

import numpy as np
import pytest
from scipy.sparse.linalg import cg

import lowrankpde  # noqa: F401  (loads the package for the binding test)
import run
import spans
from workloads import REF_NOMINAL_S, WORKLOADS, Clock, Outcome


def test_self_time_subtracts_children_and_their_overlap_once():
    recorded = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),      # overlaps a: union is [1, 6]
        spans.Span("a.child", 2.0, 3.0, parent=1),
        spans.Span("b", 8.0, 12.0, parent=0),     # runs past its parent: clipped
    ]
    calls, self_s = spans.summarize(recorded)
    assert calls == {"root": 1, "a": 1, "b": 2, "a.child": 1}
    assert self_s["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_s["a"] == pytest.approx(2.0)
    assert self_s["a.child"] == pytest.approx(1.0)
    assert self_s["b"] == pytest.approx(3.0 + 4.0)


def test_nested_calls_account_for_the_whole_wall_time():
    recorder = spans.Recorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    _, self_s = spans.summarize(recorder.spans)
    wall = recorder.spans[0].end - recorder.spans[0].start
    assert recorder.spans[1].parent == 0
    assert sum(self_s.values()) == pytest.approx(wall, abs=1e-12)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    # the workloads re-import the package, so look the modules up afresh
    lr, stepping = sys.modules["lowrankpde"], sys.modules["lowrankpde.stepping"]
    original = lr.to_dense
    recorder = spans.Recorder(("manifold.to_dense",))
    recorder.install()
    try:
        assert stepping.to_dense is not original
        assert stepping.to_dense is lr.to_dense
        stepping.to_dense(lr.LowRankState(np.eye(3, 1), np.eye(1), np.eye(3, 1)))
    finally:
        recorder.uninstall()
    assert stepping.to_dense is original and lr.to_dense is original
    assert spans.summarize(recorder.spans)[0] == {"manifold.to_dense": 1}


def test_missing_traced_name_reports_zero_calls():
    recorder = spans.Recorder(("stepping.no_such_function", "nomodule.f"))
    recorder.install()
    recorder.uninstall()
    assert recorder.spans == []
    metrics, _, _ = run.per_layer(WORKLOADS["als-rotating"], [_outcome(1.0)],
                                  [_outcome(1.0)], _recorded_op())
    assert metrics["stepping.cg.calls"][0] == 0
    assert metrics["cli.run.calls"][0] == 0


def test_cg_counter_counts_iterations_and_keeps_the_solution():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((30, 30))
    a = m @ m.T + 30 * np.eye(30)
    b = rng.standard_normal(30)
    plain, info = cg(a, b, rtol=1e-12, atol=0.0)
    seen = []
    recorder = spans.Recorder()
    counted, info_counted = spans.counting_cg(recorder, cg)(
        a, b, rtol=1e-12, atol=0.0, callback=lambda xk: seen.append(xk.copy()))
    assert info == info_counted == 0
    assert np.array_equal(plain, counted)
    assert recorder.counters["stepping.cg.iterations"] == len(seen) > 0


def test_traced_run_prints_overhead_and_accounts_for_wall_time():
    _, lines, summary = run.per_layer(WORKLOADS["als-rotating"], [_outcome(1.1)],
                                      [_outcome(1.0)], _recorded_op())
    text = "\n".join(lines)
    assert "tracing overhead: +10.00% (median normalised op time 1.100000 s traced, 1.000000 s untraced)" in text
    assert "self times sum to" in text
    assert summary["calls"]["stepping.integrate"] == 1


def test_each_operation_is_normalised_by_the_kernel_times_around_it():
    class Fixed:
        def run(self, ctx, seed, index, workdir, recorder=None):
            return Outcome("fixed", 2.0, 0.6, 1)

    kernel_times = iter([0.01, 0.03, 0.05, 0.07])
    plain, traced = run.measure(Fixed(), None, 0, 0.0, None, lambda: next(kernel_times))
    assert traced == []
    assert [o.ref_s for o in plain] == pytest.approx([0.02, 0.04, 0.06])
    assert [o.norm_s for o in plain] == pytest.approx(
        [0.6 * REF_NOMINAL_S / t for t in (0.02, 0.04, 0.06)])


def _outcome(seconds):
    return Outcome("als-rotating", seconds, seconds, 1, ref_s=REF_NOMINAL_S)


def _recorded_op():
    recorder = spans.Recorder()
    root = recorder.begin(run.ROOT_SPAN)
    step = recorder.begin("stepping.integrate")
    recorder.end(step)
    recorder.end(root)
    return recorder


def test_clock_traces_only_its_block():
    lr = sys.modules["lowrankpde"]
    state = lr.LowRankState(np.eye(3, 1), np.eye(1), np.eye(3, 1))
    recorder = spans.Recorder(("manifold.to_dense",))
    with Clock(recorder) as clock:
        sys.modules["lowrankpde.stepping"].to_dense(state)
    sys.modules["lowrankpde.stepping"].to_dense(state)
    assert [s.name for s in recorder.spans] == [run.ROOT_SPAN, "manifold.to_dense"]
    assert recorder.spans[1].parent == 0
    assert clock.wall_s >= recorder.spans[0].end - recorder.spans[0].start
