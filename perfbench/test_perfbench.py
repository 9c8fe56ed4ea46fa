"""Tests of the benchmark itself: span arithmetic, names and wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

import run
import spans
import worker

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(label, start, end, parent=-1, trial=-1):
    return (spans.LABELS.index(label), start, end, parent, trial)


def test_self_time_subtracts_nested_children():
    trace = [
        span("simlab.run_sweep", 0, 100),
        span("simlab.run_trial", 10, 60, parent=0, trial=0),
        span("ranger.range_subchannel", 20, 50, parent=1, trial=0),
        span("cxmath.hermitian_evd", 25, 35, parent=2, trial=0),
        span("cxmath.hermitian_evd", 40, 45, parent=2, trial=0),
        span("simlab.compute_metrics", 70, 80, parent=0),
    ]
    assert spans.self_times_ns(trace) == [40, 20, 15, 10, 5, 10]
    calls, self_ns = spans.layer_totals(trace)
    evd = spans.LABELS.index("cxmath.hermitian_evd")
    assert calls[evd] == 2 and self_ns[evd] == 15
    assert sum(self_ns) == 100


def test_overlapping_and_overhanging_children_count_once():
    trace = [
        span("simlab.run_trial", 0, 100),
        span("simlab.draw_users", 10, 40, parent=0),
        span("airmodel.draw_channel", 30, 60, parent=0),
        span("ranger.range_subchannel", 90, 130, parent=0),
    ]
    assert spans.self_times_ns(trace)[0] == 100 - 50 - 10


def test_untraced_share_ignores_sweep_roots():
    trace = [
        span("simlab.run_sweep", 0, 100),
        span("simlab.run_trial", 10, 60, parent=0),
        span("simlab.draw_users", 20, 30, parent=1),
        span("simlab.compute_metrics", 70, 80, parent=0),
    ]
    assert spans.untraced_share(trace, 100) == pytest.approx(0.4)


def test_every_wrapped_name_exists_where_it_is_patched():
    for layer, module_name, name in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"
        assert layer in {"cxmath", "airmodel", "ranger", "simlab"}


def test_missing_target_is_reported_not_fatal(monkeypatch):
    from rangesim import simlab

    original = simlab.run_trial
    monkeypatch.delattr(simlab, "compute_metrics")
    tracer = spans.Tracer()
    assert tracer.install() == ["simlab.compute_metrics"]
    assert simlab.run_trial is not original
    tracer.uninstall()
    assert simlab.run_trial is original


def test_every_metric_name_is_well_formed():
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            assert len(metric["name"]) <= 64


def test_end_to_end_names_match_spec():
    res = {"trials_per_s": {"median": 1.0}, "peak_rss_mb": 1.0}
    metrics = run.end_to_end(res, [(1.0, 1.0)])
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]


def test_traced_measure_gates_and_reports_every_layer_metric(monkeypatch, tmp_path):
    small = re.sub(r"trials = \d+", "trials = 4", worker.WORKLOADS["model_k3"])
    monkeypatch.setitem(worker.WORKLOADS, "model_k3", small)
    monkeypatch.setattr(worker, "MIN_REPEATS", 2)
    res = worker.measure("model_k3", seed=5, seconds=0, trace=True, out_dir=tmp_path)

    assert all(check["ok"] for check in res["checks"].values()), res["checks"]
    assert res["sweeps_failed"] == 0
    layer = res["per_layer"]
    assert [(k, v["unit"]) for k, v in layer.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert layer["airmodel.synthesize_waveform_mode.calls_per_trial"]["value"] == 0
    assert layer["airmodel.synthesize_model_mode.calls_per_trial"]["value"] == 1
    assert layer["simlab.run_trial.calls_per_trial"]["value"] == 1
    assert 1 <= layer["cxmath.hermitian_evd.calls_per_trial"]["value"] <= 2
    assert (tmp_path / res["span_file"]).is_file()
