"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import numpy.fft  # noqa: F401  (loaded lazily; the snapshot must see it)
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import formprobe  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from formprobe import decompose, fields, media, spectral, weights  # noqa: E402
from formprobe.manufactured import random_band_limited  # noqa: E402
from tracing import Span, Tracer  # noqa: E402
from workloads import Op  # noqa: E402


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def _nested_spans() -> list:
    # op [0, 100) > ops [10, 40) > fft [15, 25); op > split [50, 90) > fft [60, 65)
    return [Span("probes", 0, 100),
            Span("spectral.ops", 10, 40, parent=0),
            Span("spectral.fft", 15, 25, parent=1, fft=True, points=8, nbytes=256),
            Span("decompose.split", 50, 90, parent=0, raised=True, note=7),
            Span("spectral.fft", 60, 65, parent=3, fft=True, points=8, nbytes=256)]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(_nested_spans()) == [30, 20, 10, 35, 5]


def test_layer_totals_account_for_the_operation_span():
    spans = _nested_spans()
    totals = tracing.layer_totals(spans)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(100e-9)
    assert totals["probes"]["self_s"] == pytest.approx(30e-9)
    assert totals["spectral.fft"]["calls"] == 2
    assert totals["spectral.fft"]["points"] == 16
    assert totals["spectral.fft"]["bytes"] == 512
    assert totals["decompose.split"]["failed"] == 1
    assert totals["decompose.split"]["iterations"] == 7


def test_fft_per_call_counts_transforms_under_outermost_spans():
    spans = [Span("probes", 0, 100),
             Span("decompose.solve", 0, 50, parent=0),
             Span("decompose.solve", 5, 20, parent=1),      # nested: not outermost
             Span("spectral.fft", 6, 8, parent=2, fft=True),
             Span("spectral.fft", 25, 30, parent=1),        # a fourier() wrapper
             Span("spectral.fft", 26, 29, parent=4, fft=True),
             Span("decompose.solve", 60, 70, parent=0)]
    totals = tracing.layer_totals(spans)
    assert totals["decompose.solve"]["fft_per_call"] == 1.0   # 2 FFTs / 2 calls
    assert totals["spectral.fft"]["calls"] == 2


# ---------------------------------------------------------------------------
# installing and removing wrappers
# ---------------------------------------------------------------------------

def test_install_wraps_every_binding_and_uninstall_restores_it():
    before = tracing.binding_snapshot()
    tracer = Tracer()
    with tracer.installed():
        # bindings made by ``from .spectral import fourier`` are replaced too
        for namespace in (spectral, weights, decompose, formprobe):
            assert getattr(namespace.fourier, "__traced__", False)
        assert getattr(np.fft.fftn, "__traced__", False)
        assert getattr(fields.norm, "__traced__", False)
        assert getattr(formprobe.norm, "__traced__", False)
        assert getattr(media.Transformation.apply, "__traced__", False)
        during = tracing.binding_snapshot()
        changed = [k for k in before if during.get(k) != before[k]]
        assert len(changed) > 50
    assert tracing.binding_snapshot() == before
    assert not getattr(np.fft.fftn, "__traced__", False)


def test_install_twice_is_refused():
    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(RuntimeError):
            tracer.install()


def test_calls_outside_an_operation_are_not_recorded():
    tracer = Tracer()
    e = random_band_limited(fields.GridSpec(2, 1.0, 8), 1, 0)
    with tracer.installed():
        spectral.fourier(e)
        assert tracer.spans == []
        with tracer.op():
            spectral.fourier(e)
    assert [s.layer for s in tracer.spans] == ["probes", "spectral.fft",
                                               "spectral.fft"]
    assert [s.fft for s in tracer.spans] == [False, False, True]
    assert tracer.spans[2].parent == 1 and tracer.spans[1].parent == 0


def test_traced_solve_is_fully_accounted():
    grid = fields.GridSpec(3, 2.0, 8)
    e = decompose.hodge_decompose(random_band_limited(grid, 1, 5, kmax=2)).coexact_part
    tracer = Tracer()
    with tracer.installed(), tracer.op():
        decompose.solve_coderivative(e)
    totals = tracing.layer_totals(tracer.spans)
    assert totals["decompose.solve"]["calls"] == 1
    assert totals["spectral.fft"]["calls"] >= 2
    root = tracer.spans[0]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(
        root.duration * 1e-9)


# ---------------------------------------------------------------------------
# failed operations
# ---------------------------------------------------------------------------

def _boom():
    raise RuntimeError("diverged after 3 iterations")


@pytest.mark.parametrize("traced", [False, True])
def test_raising_operation_counts_as_failed_and_the_round_goes_on(traced):
    checked = []
    ops = [Op("first", lambda: 1, lambda r: checked.append(r) or []),
           Op("boom", _boom, lambda r: ["never checked"]),
           Op("last", lambda: 2, lambda r: checked.append(r) or [])]
    tracer = Tracer() if traced else None
    result = run.run_round(ops, tracer)
    assert result["attempted"] == 3
    assert result["failed"] == ["boom: RuntimeError: diverged after 3 iterations"]
    assert result["problems"] == []
    assert checked == [1, 2]
    if traced:
        assert [s.raised for s in tracer.spans] == [False, True, False]
        assert tracer._stack == []


def test_rounds_are_whole_and_at_least_the_minimum():
    ops = [Op("ok", lambda: None, lambda r: []), Op("boom", _boom, lambda r: [])]
    rounds = run.run_rounds(ops, seconds=0.0)
    assert len(rounds) == run.MIN_ROUNDS
    assert all(r["attempted"] == 2 and len(r["failed"]) == 1 for r in rounds)


# ---------------------------------------------------------------------------
# the independent checks use the program's sign conventions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,rank", [(3, 0), (3, 1), (3, 2), (4, 2)])
def test_independent_derivatives_match_the_program(dim, rank):
    grid = fields.GridSpec(dim, 1.5, 8)
    e = random_band_limited(grid, rank, 17 + rank, kmax=2)
    if rank < dim:
        ours = checks.exterior_d(e.data, rank, grid.half_length)
        assert np.allclose(ours, spectral.exterior_d(e).data, atol=1e-12)
    if rank > 0:
        ours = checks.codifferential(e.data, rank, grid.half_length)
        assert np.allclose(ours, spectral.coderivative_delta(e).data, atol=1e-12)


def test_gaffney_ratio_range():
    assert checks.check_gaffney_ratios([0.6, 0.9, 1.0]) == []
    assert len(checks.check_gaffney_ratios([0.5, 1.2])) == 2


# ---------------------------------------------------------------------------
# reported metric names match BENCHMARK.json
# ---------------------------------------------------------------------------

def _declared(section: str) -> dict:
    import json
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _fake_rounds() -> tuple:
    ops = [Op("ok", lambda: None, lambda r: []), Op("boom", _boom, lambda r: [])]
    tracer = Tracer()
    rounds = run.run_rounds(ops, seconds=0.0, tracer=tracer)
    assert [r["traced"] for r in rounds] == [False, True, False]
    return rounds, tracer


def test_trace_metrics_are_the_declared_per_layer_metrics():
    rounds, tracer = _fake_rounds()
    metrics = run.per_layer(rounds, tracer)
    assert {k: run.unit_of(k) for k in metrics} == _declared("per_layer")


def test_end_to_end_metrics_are_the_declared_ones():
    rounds, _ = _fake_rounds()
    metrics = run.end_to_end(rounds, [0.1, 0.2, 0.3])
    assert {k: run.unit_of(k) for k in metrics} == _declared("end_to_end")
    assert all(v > 0 for v in metrics.values())
