"""End-to-end and per-layer benchmark of stackpol's analyze pipeline.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload small-mix --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all      # every workload, one row each

One process, one thread, one model at a time: a closed loop with a
single client, because ``stackpol analyze`` is a batch tool.  The seed
only chooses the generated model texts (see ``workloads.py``); the
program sees nothing but those texts.

Every iteration takes the workload's whole model set through the analyze
pipeline (parse, route contexts, lint, permissions, policy, table and
java emission), round-trips the emitted table through
``parse_policy_table`` + ``check_policy``, and diffs the grants against
a reference the engine did not compute: ``oracle_policy`` and/or the
closed form the generator knows.  Iterations repeat until ``--seconds``
have passed.

Host speed on a shared machine drifts in phases longer than a run, so
every reported time is scaled by ``calibration.py``: a fixed kernel that
does stackpol-like set and dict work without stackpol is timed about
every ``CALIBRATE_EVERY_S`` seconds between models, and the run's mean
time per iteration is multiplied by the kernel's reference time over its
mean time in the run.  A scaled time is the wall time the same work
takes on the reference host in a quiet phase; the unscaled figures are
printed as well, and every iteration's times and every calibration are
written to ``bench/out/``.  ``setup_s`` is the scaled median of the
fresh interpreters started before every timed iteration.  Per-layer
times, and the traced ``analyze_s`` they are compared with, are unscaled
and come from the fastest traced iteration, so they add up within it.

A model *fails* when it raises, when its table does not round-trip, or
when its grants differ from a reference; failures are counted in
``failed`` and listed by id.  ``correct`` is false only for output that
is wrong by an exact check (a table that does not round-trip, grants off
their closed form, no grants at all where the closed form is known
because the model raised) or when a repeated iteration or counting pass
does not reproduce the first.  The oracle is a bounded reference that is known
to disagree with the engine on a few models of the random family, so a
disagreement with it counts as a failure, not as proof of a wrong output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: two counting passes (which must agree exactly), then
untraced and span-traced iterations in turn, so the tracing overhead is
traced minus untraced ``analyze_s``.  Spans and counts go to
``bench/out/``.

Run as a script, the benchmark re-executes itself under a fixed
``PYTHONHASHSEED``, so every run sees the same string hash layout.

The run refuses to report numbers when the default seed's model texts
no longer hash to ``bench/fingerprints.json``: an edit to a generator
(``tests/randmodels.py`` included) must not silently change a workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import BenchError  # noqa: E402

DEFAULT_SEED = 0
MEASURED_HASH_SEED = "1"
SETUP_PER_ITERATION = 3
# calibrate between models once this many seconds have passed
CALIBRATE_EVERY_S = 1.0
OUT_DIR = BENCH / "out"
FINGERPRINTS = BENCH / "fingerprints.json"
BASELINE = BENCH / "baseline.json"


def import_seconds() -> float:
    """Wall time for one fresh interpreter to import stackpol."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import stackpol"], env=env, cwd=ROOT, check=True)
    return perf_counter() - start


# ---------------------------------------------------------------------------
# one iteration over a model set


def _analyze(text: str):
    from stackpol import model as m, permissions, policy

    model = m.parse_model(text)
    phi = m.compute_phi_meth(model)
    m.lint_model(model, phi)
    universe = permissions.generate_permissions(model, phi)
    generated = policy.generate_policy(model, universe).policy
    table = policy.emit_policy(generated, "table")
    java = policy.emit_policy(generated, "java")
    return model, universe, generated, table, java


def _round_trips(table: str, generated) -> bool:
    from stackpol import policy

    report = policy.check_policy(policy.parse_policy_table(table), generated)
    return report.passed and not report.overgrants


def _differing(a: dict, b: dict) -> list[str]:
    return sorted(m for m in set(a) | set(b) if a.get(m, frozenset()) != b.get(m, frozenset()))


def _crosscheck(case, model, universe, generated) -> tuple[str, bool] | None:
    """Diff the grants against the case's references; ``(reason, exact)``."""
    from stackpol import oracle

    if case.expected is not None:
        rendered = {m: frozenset(map(str, ps)) for m, ps in generated.grants.items()}
        if rendered != case.expected:
            return f"closed form differs at {_differing(rendered, case.expected)}", True
    if case.oracle:
        reference = oracle.oracle_policy(model, universe)
        if reference.grants != generated.grants:
            return f"oracle differs at {_differing(generated.grants, reference.grants)}", False
    return None


def run_iteration(cases, trace: spans.Trace | None = None):
    """Take every case through analyze, round trip and crosscheck once.

    Returns, per case, its analyze seconds, its crosscheck seconds and its
    outcome: ``(failure or None, exact, sha256 of the emitted policies)``.
    With a trace, each step of a case is a root span tagged with its id.
    """
    span = trace.span if trace is not None else (lambda _name: nullcontext())
    analyze_s, crosscheck_s, outcomes = [], [], []
    for case in cases:
        if trace is not None:
            trace.model = case.ident
        start = perf_counter()
        try:
            with span("analyze"):
                model, universe, generated, table, java = _analyze(case.text)
        except Exception as exc:  # a failure is a result to count, not a crash
            analyze_s.append(perf_counter() - start)
            crosscheck_s.append(0.0)
            # with a closed form, no grants at all are provably wrong
            exact = case.expected is not None
            outcomes.append((f"analyze raised {type(exc).__name__}: {exc}", exact, ""))
            continue
        analyze_s.append(perf_counter() - start)
        try:
            with span("check"):
                trips = _round_trips(table, generated)
            failure = None if trips else ("table does not round-trip", True)
        except Exception as exc:
            failure = (f"check raised {type(exc).__name__}: {exc}", True)
        start = perf_counter()
        try:
            with span("crosscheck"):
                diff = _crosscheck(case, model, universe, generated)
        except Exception as exc:
            diff = (f"crosscheck raised {type(exc).__name__}: {exc}", False)
        crosscheck_s.append(perf_counter() - start)
        reason, exact = failure or diff or (None, False)
        outcomes.append((reason, exact, hashlib.sha256((table + java).encode()).hexdigest()))
    return analyze_s, crosscheck_s, outcomes


class Verdict:
    """Failures of the first iteration, and whether later ones reproduce it."""

    def __init__(self, cases, outcomes):
        self.ids = [c.ident for c in cases]
        self.first = outcomes
        self.problems: list[str] = []

    def repeat(self, outcomes, what: str) -> None:
        if outcomes != self.first:
            changed = [i for i, a, b in zip(self.ids, self.first, outcomes) if a != b]
            self.problems.append(f"{what} did not reproduce the first iteration at {changed[:5]}")

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(i, o[0]) for i, o in zip(self.ids, self.first) if o[0] is not None]

    @property
    def correct(self) -> bool:
        """No problem, and no failure that proves an output wrong."""
        return not self.problems and not any(exact for _f, exact, _d in self.first)


def timed_iterations(seconds: float, body):
    """Call ``body()`` until ``seconds`` pass, at least three times."""
    results = []
    deadline = perf_counter() + seconds
    while len(results) < 3 or perf_counter() < deadline:
        gc.collect()
        results.append(body())
    return results


def plain_run(cases, seconds: float, out_path: Path):
    with calibration.Calibrator(CALIBRATE_EVERY_S) as calibrator:
        return _plain_run(cases, seconds, calibrator, out_path)


def _plain_run(cases, seconds: float, calibrator: calibration.Calibrator, out_path: Path):
    verdict = None
    import_seconds()  # the first one may still be writing bytecode caches

    def iteration():
        nonlocal verdict
        imports = [import_seconds() for _ in range(SETUP_PER_ITERATION)]
        analyze = crosscheck = 0.0
        outcomes = []
        for case in cases:
            calibrator.sample_if_due()
            a, c, outcome = run_iteration([case])
            analyze += a[0]
            crosscheck += c[0]
            outcomes += outcome
        if verdict is None:
            verdict = Verdict(cases, outcomes)
        else:
            verdict.repeat(outcomes, "a timed iteration")
        return imports, analyze, crosscheck

    iterations = timed_iterations(seconds, iteration)
    calibrator.sample()
    scale = calibrator.scale()
    raw = {
        "analyze_s": statistics.mean(a for _i, a, _c in iterations),
        "crosscheck_s": statistics.mean(c for _i, _a, c in iterations),
        "setup_s": statistics.median(t for imports, _a, _c in iterations for t in imports),
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"calibrations": calibrator.samples, "iterations": iterations}) + "\n")
    print(
        f"  {len(iterations)} iterations, {len(calibrator.samples)} calibrations "
        f"(mean {calibration.REFERENCE_S / scale:.6g} s, reference {calibration.REFERENCE_S} s); unscaled: "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
    )
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return verdict, metrics


def counting_pass(cases):
    trace = spans.Trace()
    with spans.patched(spans.counting_wrappers(trace)):
        _a, _c, outcomes = run_iteration(cases, trace)
    return trace.final_counts(), outcomes


def traced_run(cases, seconds: float, out_path: Path):
    counts, first = counting_pass(cases)
    verdict = Verdict(cases, first)
    counts_again, outcomes = counting_pass(cases)
    verdict.repeat(outcomes, "the second counting pass")
    if counts_again != counts:
        changed = sorted(k for k in counts if counts[k] != counts_again[k])
        verdict.problems.append(f"counting passes disagree on {changed}")

    fastest_traced = {"analyze_s": float("inf"), "spans": []}
    checked = 0

    def untraced_then_traced():
        nonlocal checked
        untraced_s, _c, untraced = run_iteration(cases)
        verdict.repeat(untraced, "an untraced iteration")
        gc.collect()
        trace = spans.Trace()
        with spans.patched(spans.span_wrappers(trace)):
            traced_s, _c, traced = run_iteration(cases, trace)
        verdict.repeat(traced, "a traced iteration")
        verdict.problems.extend(spans.generate_policy_adds_up(trace.spans))
        checked += sum(1 for span in trace.spans if span[0] == "generate_policy")
        layers = spans.layer_times(trace.spans)
        if sum(traced_s) < fastest_traced["analyze_s"]:
            fastest_traced.update(analyze_s=sum(traced_s), layers=layers, spans=trace.spans)
        return sum(untraced_s), layers

    iterations = timed_iterations(seconds, untraced_then_traced)
    metrics = dict(fastest_traced["layers"])
    metrics["trace.analyze_s"] = fastest_traced["analyze_s"]
    metrics["trace.overhead_s"] = fastest_traced["analyze_s"] - min(u for u, _l in iterations)
    metrics.update(counts)
    metrics["policy.granting_digest_ratio"] = (
        metrics.pop("policy.granting_digests") / max(counts["weights.digests"], 1)
    )
    metrics["oracle.relates_true_ratio"] = (
        metrics.pop("oracle.relates_true") / max(counts["oracle.relates_calls"], 1)
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8") as fh:
        json.dump({"counts": counts, "layers": [layers for _u, layers in iterations]}, fh)
        fh.write("\n")
        for span in fastest_traced["spans"]:
            fh.write(json.dumps(span) + "\n")
    print(f"  {len(iterations)} iterations; spans of the fastest traced one: {out_path}")
    print(f"  extraction + encode + movp checked against {checked} generate_policy spans")
    return verdict, metrics


# ---------------------------------------------------------------------------
# reporting


def _spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for the mode."""
    return {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}


def _baseline(workload: str) -> dict:
    if not BASELINE.is_file():
        return {}
    with BASELINE.open(encoding="utf-8") as fh:
        return json.load(fh).get("workloads", {}).get(workload, {})


def check_fingerprint(workload: str, cases) -> None:
    """Refuse to go on unless the default seed's set is the recorded one."""
    with FINGERPRINTS.open(encoding="utf-8") as fh:
        recorded = json.load(fh)[workload]
    actual = workloads.fingerprint(cases)
    if actual != recorded:
        raise BenchError(
            f"{workload}: the default seed's model texts hash to {actual}, "
            f"not {recorded}; a generator changed, so numbers would not compare"
        )


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The calibration child then sees the same CPU as the models it
    scales, and the run does not migrate between CPUs whose speed
    differs with what other tenants run beside them.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> dict:
    pin_to_one_cpu()
    workloads.load_program()
    check_fingerprint(args.workload, workloads.generate(args.workload, DEFAULT_SEED))
    cases = workloads.generate(args.workload, args.seed)
    units = _declared(args.trace)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} models")
    if args.trace:
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        verdict, metrics = traced_run(cases, args.seconds, out)
    else:
        verdict, metrics = plain_run(cases, args.seconds, OUT_DIR / f"plain-{args.workload}-seed{args.seed}.json")
    if set(metrics) != set(units):
        raise BenchError(f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")
    failures = verdict.failures
    base = _baseline(args.workload)
    for name in sorted(metrics):
        line = f"  {name:34s} {metrics[name]:14.6g} {units[name]}"
        if name in base:
            b = base[name]
            line += f"   baseline median {b['median']:.6g} [q1 {b['q1']:.6g}, q3 {b['q3']:.6g}]"
        print(line)
    print(f"  {'fail_rate':34s} {len(failures) / len(cases):14.6g} ({len(failures)}/{len(cases)} models)")
    for ident, reason in failures:
        print(f"  failed {ident}: {reason}")
    for problem in verdict.problems:
        print(f"  problem: {problem}")
    return {
        "correct": verdict.correct,
        "attempted": len(cases),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, then one row per workload."""
    rows = {}
    for workload in workloads.NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            raise BenchError(f"{workload} exited with {proc.returncode}")
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = sorted({n for r in rows.values() for n in r["metrics"]})
    print("\n" + "workload".ljust(12) + "".join(n.rjust(16) for n in names) + "fail_rate".rjust(12))
    for workload, row in rows.items():
        cells = "".join(
            f"{row['metrics'][n]['value']:12.6g} {row['metrics'][n]['unit']:>3s}" for n in names
        )
        print(workload.ljust(12) + cells + f"{row['failed'] / row['attempted']:12.4g}")
    return {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {
            f"{w}.{n}": v for w, r in rows.items() for n, v in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != MEASURED_HASH_SEED:
        # the same string hash layout in every run: with a random one,
        # the oracle's time moved by 10-15% between processes
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=MEASURED_HASH_SEED))
    sys.exit(main())
