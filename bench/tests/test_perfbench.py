"""Tests of the benchmark itself; run with ``python -m pytest bench/tests``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

stackpol, randmodels = workloads.load_program()


def _declared(kind: str) -> set[str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at a size that runs in well under a second."""
    monkeypatch.setattr(workloads, "SMALL_MIX_MODELS", 6)
    monkeypatch.setattr(workloads, "LAYERED_SIZES", ((2, 2), (3, 2)))
    monkeypatch.setattr(workloads, "LAYERED_ORACLE_MAX_STACKS", 4)
    monkeypatch.setattr(workloads, "LADDER_DEPTHS", (3,))
    monkeypatch.setattr(workloads, "LADDER_ORACLE_DEPTHS", (2,))
    return workloads.model_sets(randmodels, stackpol.running_example_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_per_seed(name):
    # each call builds the set in a fresh interpreter
    first = workloads.generate(name, 3)
    assert workloads.generate(name, 3) == first
    assert workloads.fingerprint(workloads.generate(name, 4)) != workloads.fingerprint(first)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_recorded_fingerprints_match_the_generators(name):
    run.check_fingerprint(name, workloads.generate(name, run.DEFAULT_SEED))


def test_changed_inputs_are_refused():
    cases = workloads.layered(run.DEFAULT_SEED)
    edited = cases[:-1] + [workloads.Case(cases[-1].ident, cases[-1].text + "# edit\n")]
    with pytest.raises(run.BenchError, match="generator changed"):
        run.check_fingerprint("layered", edited)


def _span(name, start, end, parent, model="m"):
    return (name, float(start), float(end), parent, model)


def test_self_time_is_duration_minus_direct_children():
    recorded = [
        _span("analyze", 0, 12, -1),
        _span("generate_policy", 1, 11, 0),
        _span("encode", 2, 3, 1),
        _span("movp", 4, 9, 1),
        _span("emit_policy", 11, 11.5, 0),
    ]
    assert spans.self_times(recorded) == [1.5, 4.0, 1.0, 5.0, 0.5]
    layers = spans.layer_times(recorded)
    assert layers["policy.extract_s"] == 4.0
    assert layers["policy.encode_s"] == 1.0
    assert layers["pushdown.movp_s"] == 5.0
    assert layers["policy.generate_s"] == 10.0
    assert layers["policy.emit_s"] == 0.5
    assert layers["oracle.relates_s"] == 0.0
    assert spans.generate_policy_adds_up(recorded) == []


def test_self_times_sum_over_spans_of_one_layer():
    recorded = [
        _span("relates", 0, 4, -1),
        _span("enum_vpaths", 1, 2, 0),
        _span("relates", 5, 6, -1),
    ]
    layers = spans.layer_times(recorded)
    assert layers["oracle.relates_s"] == 4.0
    assert layers["oracle.enum_vpaths_s"] == 1.0


def test_scale_is_the_reference_over_the_mean_calibration():
    ref = calibration.REFERENCE_S
    calibrator = calibration.Calibrator(every=1.0)
    calibrator.samples = [ref, 3 * ref]
    # twice as slow as the reference: a time counts half
    assert calibrator.scale() == pytest.approx(0.5)


def test_calibrator_times_the_kernel_in_a_child_and_stops_it():
    with calibration.Calibrator(every=0.0) as calibrator:
        calibrator.sample_if_due()
    assert len(calibrator.samples) == 2
    assert all(t > 0 for t in calibrator.samples)
    assert calibrator.proc.returncode == 0
    assert calibration.kernel() == calibration.kernel()


def test_generate_policy_children_must_add_up():
    missing = [_span("generate_policy", 0, 10, -1), _span("encode", 1, 2, 0)]
    assert spans.generate_policy_adds_up(missing)
    overlapping = [
        _span("generate_policy", 0, 10, -1),
        _span("encode", 1, 5, 0),
        _span("movp", 4, 9, 0),
    ]
    assert spans.generate_policy_adds_up(overlapping)


def test_wrappers_are_removed_after_a_pass():
    from stackpol import policy, weights

    before = (policy.movp, weights.WeightTuple.seq)
    with spans.patched(spans.span_wrappers(spans.Trace())):
        assert policy.movp is not before[0]
    with spans.patched(spans.counting_wrappers(spans.Trace())):
        assert weights.WeightTuple.seq is not before[1]
    assert (policy.movp, weights.WeightTuple.seq) == before


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_metric(tiny, monkeypatch, tmp_path, name, trace):
    monkeypatch.setattr(run, "check_fingerprint", lambda *_: None)
    monkeypatch.setattr(workloads, "generate", lambda w, seed: tiny[w](seed))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace)
    result = run.run_one(args)
    assert result["correct"] is True
    assert result["attempted"] == len(tiny[name](1))
    assert set(result["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    if trace:
        assert list(tmp_path.glob(f"trace-{name}-seed1.jsonl"))


@pytest.mark.parametrize(
    "broken, correct",
    [
        # only the oracle checks it: a raise is a failure, not a wrong output
        (workloads.Case("broken", "method main entry\n", oracle=True), True),
        # its grants are known, so producing none is a wrong output
        (workloads.Case("broken", "method main entry\n", expected={}), False),
    ],
)
def test_failures_are_counted_not_raised(tiny, broken, correct):
    good = tiny["ctx-ladder"](1)
    _a, _c, outcomes = run.run_iteration(good + [broken])
    verdict = run.Verdict(good + [broken], outcomes)
    assert [i for i, _reason in verdict.failures] == ["broken"]
    assert "ModelError" in verdict.failures[0][1]
    assert verdict.correct is correct
