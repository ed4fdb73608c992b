"""Outside-in tracing of stackpol's layers: spans in one pass, counters in another.

Nothing in ``src/`` knows about this module.  It replaces public functions
at the module attributes their callers look up (``stackpol.policy.movp``
is what ``generate_policy`` calls, ``stackpol.oracle.relates`` is what
``oracle_policy`` calls, and so on) and puts the originals back when the
pass ends.  A span wrapper records ``(name, start, end, parent, model)``
in memory; a counting wrapper only bumps integers.  The two never run in
the same pass, so the per-call cost of counting ``WeightTuple.seq``
millions of times does not leak into span self times.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute) of every wrapped entry point; the
# benchmark calls the top-level ones through these modules as well
SPAN_POINTS = {
    "parse_model": ("stackpol.model", "parse_model"),
    "compute_phi_meth": ("stackpol.model", "compute_phi_meth"),
    "lint_model": ("stackpol.model", "lint_model"),
    "generate_permissions": ("stackpol.permissions", "generate_permissions"),
    "generate_policy": ("stackpol.policy", "generate_policy"),
    "encode": ("stackpol.policy", "encode"),
    "movp": ("stackpol.policy", "movp"),
    "emit_policy": ("stackpol.policy", "emit_policy"),
    "parse_policy_table": ("stackpol.policy", "parse_policy_table"),
    "check_policy": ("stackpol.policy", "check_policy"),
    "oracle_policy": ("stackpol.oracle", "oracle_policy"),
    "dep_paths": ("stackpol.oracle", "dep_paths"),
    "enum_vpaths": ("stackpol.oracle", "enum_vpaths"),
    "relates": ("stackpol.oracle", "relates"),
}

# per-layer time metric -> spans whose self times it sums
LAYER_SPANS = {
    "model.parse_s": ("parse_model",),
    "model.phi_s": ("compute_phi_meth",),
    "model.lint_s": ("lint_model",),
    "permissions.generate_s": ("generate_permissions",),
    "policy.encode_s": ("encode",),
    "pushdown.movp_s": ("movp",),
    "policy.extract_s": ("generate_policy",),
    "policy.emit_s": ("emit_policy",),
    "policy.check_s": ("parse_policy_table", "check_policy"),
    "oracle.dep_paths_s": ("dep_paths",),
    "oracle.enum_vpaths_s": ("enum_vpaths",),
    "oracle.relates_s": ("relates",),
}

COUNT_NAMES = (
    "model.route_contexts",
    "model.lint_warnings",
    "permissions.perms",
    "permissions.demand_contexts",
    "policy.rules_push",
    "policy.rules_swap",
    "policy.rules_pop",
    "policy.grants",
    "policy.granting_digests",
    "pushdown.instances_calls",
    "pushdown.annotated_symbols",
    "pushdown.weight_updates",
    "pushdown.peak_width",
    "weights.digests",
    "weights.seq_calls",
    "weights.combine_calls",
    "weights.combine_volume",
    "oracle.call_paths",
    "oracle.flow_paths",
    "oracle.relates_calls",
    "oracle.relates_true",
)


class Trace:
    """In-memory spans and counters of one pass; ``model`` tags both."""

    def __init__(self) -> None:
        self.model = ""
        self.spans: list[tuple | None] = []
        self._open: list[int] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.symbols: set[tuple] = set()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        return idx

    def end(self, idx: int, name: str, start: float, end: float) -> None:
        self._open.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[idx] = (name, start, end, parent, self.model)

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        start = perf_counter()
        try:
            yield
        finally:
            self.end(idx, name, start, perf_counter())

    def final_counts(self) -> dict[str, int]:
        out = dict(self.counts)
        out["pushdown.annotated_symbols"] = len(self.symbols)
        return out


def _timed(trace: Trace, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = trace.begin(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            trace.end(idx, name, start, perf_counter())

    return wrapper


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def span_wrappers(trace: Trace) -> list[tuple]:
    out = []
    for name, (module, attr) in SPAN_POINTS.items():
        mod = importlib.import_module(module)
        out.append((mod, attr, _timed(trace, name, getattr(mod, attr))))
    return out


def _digest_grants(digest, universe, origins) -> bool:
    """Does ``digest`` require any permission?  Mirrors ``generate_policy``."""
    return any(
        origins[p] & digest.history
        and any(c <= digest.history for c in universe.contexts[p])
        for p in universe.perms
    )


def counting_wrappers(trace: Trace) -> list[tuple]:
    """Counters on the solver's hot calls and on each layer's results."""
    from stackpol import model, oracle, permissions, policy, pushdown, weights

    c = trace.counts

    def after(fn, observe):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(result, *args)
            return result

        return wrapper

    def on_phi(phi, *_):
        c["model.route_contexts"] += sum(len(fam) for fam in phi.values())

    def on_lint(warnings, *_):
        c["model.lint_warnings"] += len(warnings)

    def on_perms(universe, *_):
        c["permissions.perms"] += len(universe.perms)
        c["permissions.demand_contexts"] += sum(len(f) for f in universe.contexts.values())

    def on_encode(system, *_):
        for rule in system.rules:
            c[f"policy.rules_{rule.kind}"] += 1

    def on_policy(result, _model, universe, *_):
        c["weights.digests"] += result.weight.width()
        c["policy.grants"] += sum(len(ps) for ps in result.policy.grants.values())
        origins = universe.origins
        c["policy.granting_digests"] += sum(
            _digest_grants(d, universe, origins) for d in result.weight.tuples
        )

    def on_vpaths(paths, *_):
        c["oracle.call_paths"] += len(paths)

    def on_flows(paths, *_):
        c["oracle.flow_paths"] += len(paths)

    def on_relates(related, *_):
        c["oracle.relates_calls"] += 1
        c["oracle.relates_true"] += bool(related)

    instances = pushdown.AnnotatedWPDS.instances

    def counted_instances(self, base, below):
        c["pushdown.instances_calls"] += 1
        trace.symbols.add((trace.model, base, below))
        return instances(self, base, below)

    check_width = pushdown.check_width

    def counted_check_width(weight, *args, **kwargs):
        c["pushdown.weight_updates"] += 1
        c["pushdown.peak_width"] = max(c["pushdown.peak_width"], weight.width())
        return check_width(weight, *args, **kwargs)

    seq = weights.WeightTuple.seq

    def counted_seq(self, after_):
        c["weights.seq_calls"] += 1
        return seq(self, after_)

    combine = weights.Weight.combine

    def counted_combine(self, other):
        c["weights.combine_calls"] += 1
        c["weights.combine_volume"] += len(self.tuples) + len(other.tuples)
        return combine(self, other)

    return [
        (model, "compute_phi_meth", after(model.compute_phi_meth, on_phi)),
        (model, "lint_model", after(model.lint_model, on_lint)),
        (permissions, "generate_permissions", after(permissions.generate_permissions, on_perms)),
        (policy, "encode", after(policy.encode, on_encode)),
        (policy, "generate_policy", after(policy.generate_policy, on_policy)),
        (oracle, "enum_vpaths", after(oracle.enum_vpaths, on_vpaths)),
        (oracle, "dep_paths", after(oracle.dep_paths, on_flows)),
        (oracle, "relates", after(oracle.relates, on_relates)),
        (pushdown.AnnotatedWPDS, "instances", counted_instances),
        (pushdown, "check_width", counted_check_width),
        (weights.WeightTuple, "seq", counted_seq),
        (weights.Weight, "combine", counted_combine),
    ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _model in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - cov for (_n, start, end, _p, _m), cov in zip(spans, covered)]


def layer_times(spans) -> dict[str, float]:
    """Per-layer self-time sums, plus ``generate_policy``'s whole span."""
    by_name: dict[str, float] = {}
    for (name, *_rest), own in zip(spans, self_times(spans)):
        by_name[name] = by_name.get(name, 0.0) + own
    out = {
        metric: sum(by_name.get(n, 0.0) for n in names)
        for metric, names in LAYER_SPANS.items()
    }
    out["policy.generate_s"] = sum(
        end - start for name, start, end, _p, _m in spans if name == "generate_policy"
    )
    return out


def generate_policy_adds_up(spans, tol: float = 1e-9) -> list[str]:
    """Problems with ``generate_policy``'s children; empty when they add up.

    Its only children must be ``encode`` and ``movp``, lying inside its
    interval without overlapping, and extraction (its self time) plus
    their durations must equal its span.
    """
    problems = []
    children: dict[int, list[tuple]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append(span)
    own = self_times(spans)
    for idx, (name, start, end, _parent, model) in enumerate(spans):
        if name != "generate_policy":
            continue
        kids = sorted(children.get(idx, []), key=lambda s: s[1])
        if sorted(k[0] for k in kids) != ["encode", "movp"]:
            problems.append(f"{model}: generate_policy children {[k[0] for k in kids]}")
            continue
        last = start
        for kid in kids:
            if kid[1] < last or kid[2] > end:
                problems.append(f"{model}: {kid[0]} overlaps or leaves generate_policy")
            last = kid[2]
        total = own[idx] + sum(k[2] - k[1] for k in kids)
        if abs(total - (end - start)) > tol:
            problems.append(f"{model}: extract + encode + movp != generate_policy")
    return problems
