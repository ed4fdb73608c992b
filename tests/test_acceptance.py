"""End-to-end acceptance checks.

One test per criterion the package promises to hold.  Each test times
its own work, asserts the stated budget, and prints a single summary
line (visible with ``-s`` or in the captured output).
"""

from __future__ import annotations

import random
import time
from itertools import chain, combinations

from bruteforce import (
    abstract_ctx_set,
    annotate_stack,
    checkpoint_reads,
    concretize,
    family_leq,
    projected,
    read_sites,
    reduced_successors,
    relevant_sites,
    set_leq,
    successors,
)
from randmodels import random_model
from test_contexts import _families, _universe_strings
from test_cwpds import _random_system, _strip

from stackpol import (
    Permission,
    Policy,
    Weight,
    WeightTuple,
    check_policy,
    checkpoints,
    compute_phi_meth,
    concrete_stack,
    enum_vpaths,
    generate_permissions,
    generate_policy,
    oracle_policy,
    simulate_inspection,
)
from stackpol.contexts import CallSite
from stackpol.oracle import _shapes_and_allowed, relates
from stackpol.policy import encode
from stackpol.pushdown import AnnotatedWPDS, movp
from stackpol.weights import ONE, ZERO

S = CallSite

PERM_F = Permission("SocketPermission", "jaist.ac.jp/faculty:8080", "connect")
PERM_S = Permission("SocketPermission", "jaist.ac.jp/student:8080", "connect")
PERM_A = Permission("FilePermission", "C:/log.txt", "write")

Z1 = S("main", 1)
Z2 = S("main", 2)
Z3 = S("connectFaculty", 30)
Z4 = S("connectStudent", 36)
Z5 = S("checkConnect", 5)
Z6 = S("checkConnect", 6)
Z7 = S("checkConnect", 8)
Z8 = S("doPrivileged", 1)
Z9 = S("Priv.run", 20)
Z10 = S("checkAccess", 24)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number: int, label: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s"
    print(f"criterion {number}: PASS - {label} ({elapsed:.3f}s < {budget:.0f}s)")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_permission_generation(example_model):
    with _Timer() as t:
        universe = generate_permissions(example_model)
        assert universe.perms == frozenset({PERM_F, PERM_S, PERM_A})
        assert universe.contexts[PERM_F] == frozenset({frozenset({Z1, Z3, Z5})})
        assert universe.contexts[PERM_S] == frozenset({frozenset({Z2, Z4, Z5})})
        assert universe.contexts[PERM_A] == frozenset(
            {frozenset({Z1, Z3, Z7, Z8}), frozenset({Z2, Z4, Z7, Z8})}
        )
    _report(1, "permission universe with demand contexts", t.elapsed, 1.0)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_route_contexts_and_checkpoints(example_model):
    with _Timer() as t:
        phi = compute_phi_meth(example_model)
        assert phi["checkConnect"] == frozenset(
            {frozenset({Z1, Z3}), frozenset({Z2, Z4})}
        )
        assert checkpoints(example_model) == frozenset({Z6, Z10})
    _report(2, "checkConnect route contexts and checkpoint set", t.elapsed, 1.0)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_meet_over_all_paths_digests(
    example_model, example_universe, example_result
):
    with _Timer() as t:
        # the exact solve: every history holds every site its paths pushed
        exact = movp(encode(example_model), {example_model.check_method}).decode()
        expected = {
            frozenset({Z1, Z3, Z5, Z6}): {"main", "connectFaculty", "checkConnect"},
            frozenset({Z2, Z4, Z5, Z6}): {"main", "connectStudent", "checkConnect"},
            frozenset({Z1, Z3, Z7, Z8, Z9, Z10}): {"Priv.run", "checkAccess"},
            frozenset({Z2, Z4, Z7, Z8, Z9, Z10}): {"Priv.run", "checkAccess"},
        }
        hidden = {example_model.check_method, example_model.priv_method}
        matching = [d for d in exact.tuples if d.history in expected]
        assert len(matching) == 4
        assert {d.history for d in matching} == set(expected)
        for digest in matching:
            stack = (digest.gen - digest.finished) - hidden
            assert stack == expected[digest.history], digest.history
        # generate_policy solves on histories cut to the sites that
        # checkpoints and demand contexts name: Priv.run:20 is not one
        read = read_sites(example_universe)
        assert Z9 not in read
        # and each digest keeps only what a grant at its own checkpoint
        # reads: checkConnect:5 is named by a demand at checkConnect:6
        # alone, so the checkAccess:24 digests drop it
        reads = checkpoint_reads(example_universe)
        assert frozenset().union(*reads.values()) == read
        assert Z5 in reads[Z6] and Z5 not in reads[Z10]
        assert example_result.weight == projected(exact, reads)
        assert example_result.weight.width() == exact.width() == 8
    _report(3, "four digests with the expected method stacks", t.elapsed, 1.0)


# --------------------------------------------------------------- criterion 4


def test_criterion_4_generated_policy(example_policy):
    with _Timer() as t:
        assert example_policy.grants == {
            "connectFaculty": frozenset({PERM_F}),
            "connectStudent": frozenset({PERM_S}),
            "Priv.run": frozenset({PERM_A}),
            "checkAccess": frozenset({PERM_A}),
            "checkConnect": frozenset({PERM_F, PERM_S}),
            "main": frozenset({PERM_F, PERM_S}),
        }
    _report(4, "per-method grants", t.elapsed, 1.0)


# --------------------------------------------------------------- criterion 5


def test_criterion_5_oracle_equivalence(example_model):
    with _Timer() as t:
        models = [example_model] + [random_model(seed) for seed in range(60)]
        for i, m in enumerate(models[1:]):
            assert len(m.methods) <= 6, i
            assert len(m.call_edges) <= 8, i
            assert len(checkpoints(m)) <= 2, i
        agreements = 0
        for m in models:
            universe = generate_permissions(m)
            engine = generate_policy(m, universe).policy
            reference = oracle_policy(m, universe)
            assert engine.grants == reference.grants
            agreements += 1
        assert agreements == 61
    _report(5, "engine equals oracle on 61/61 models", t.elapsed, 60.0)


# --------------------------------------------------------------- criterion 6


def _random_weight(rng: random.Random) -> Weight:
    roll = rng.random()
    if roll < 0.04:
        return ZERO
    if roll < 0.08:
        return ONE
    methods = ["a", "b", "c", "d"]
    sites = [S(m, i) for m in methods[:2] for i in (1, 2)]
    tuples = []
    for _ in range(rng.randint(1, 3)):
        tuples.append(
            WeightTuple(
                kill=rng.random() < 0.2,
                gen=frozenset(rng.sample(methods, rng.randint(0, 2))),
                finished=frozenset(rng.sample(methods, rng.randint(0, 1))),
                history=frozenset(rng.sample(sites, rng.randint(0, 2))),
            )
        )
    return Weight(frozenset(tuples))


def _semiring_laws(trials: int) -> None:
    rng = random.Random(2026)
    for _ in range(trials):
        a, b, c = (_random_weight(rng) for _ in range(3))
        assert a.combine(b) == b.combine(a)
        assert a.combine(b).combine(c) == a.combine(b.combine(c))
        assert a.combine(a) == a
        assert a.extend(b).extend(c) == a.extend(b.extend(c))
        assert a.extend(b.combine(c)) == a.extend(b).combine(a.extend(c))
        assert a.combine(b).extend(c) == a.extend(c).combine(b.extend(c))
        assert ONE.extend(a) == a == a.extend(ONE)
        assert ZERO.extend(a) == ZERO == a.extend(ZERO)
        assert ZERO.combine(a) == a


def _galois_adjunction() -> None:
    # exhaustive at the small bound
    universe2 = [S("m", 1), S("m", 2)]
    strings = _universe_strings(universe2, 2)
    string_sets = [list(c) for r in range(3) for c in combinations(strings, r)]
    for fam in _families(universe2):
        gamma = set(chain.from_iterable(concretize([m]) for m in fam))
        for ss in string_sets:
            assert family_leq(abstract_ctx_set(ss), fam) == set_leq(ss, gamma)
    # randomized at the five-site bound
    universe5 = [S("m", i) for i in range(1, 6)]
    rng = random.Random(99)
    for _ in range(300):
        ss = [
            tuple(rng.choice(universe5) for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(0, 4))
        ]
        fam = frozenset(
            frozenset(rng.sample(universe5, rng.randint(0, 5)))
            for _ in range(rng.randint(0, 4))
        )
        gamma = set(chain.from_iterable(concretize([m]) for m in fam))
        assert family_leq(abstract_ctx_set(ss), fam) == set_leq(ss, gamma)


def _step_equivalence(minimum: int) -> int:
    rng = random.Random(17)
    sequences = 0
    while sequences < minimum:
        system = _random_system(rng)
        annotated = AnnotatedWPDS(system)
        relevant = relevant_sites(system)
        stack = (system.start,)
        for _step in range(6):
            direct = successors(system, stack)
            reduced = reduced_successors(annotated, annotate_stack(stack, relevant))
            direct_view = {(id(r), s) for r, s in direct}
            reduced_view = {(id(system.rules[idx]), _strip(s)) for idx, s in reduced}
            assert direct_view == reduced_view
            for _idx, s in reduced:
                assert s == annotate_stack(_strip(s), relevant)
            if not direct:
                break
            stack = rng.choice(direct)[1]
            sequences += 1
    return sequences


def test_criterion_6_property_suites():
    with _Timer() as t:
        _semiring_laws(1000)
        _galois_adjunction()
        walked = _step_equivalence(200)
        assert walked >= 200
    _report(6, "semiring laws, adjunction, step equivalence", t.elapsed, 60.0)


# --------------------------------------------------------------- criterion 7


def _soundness_and_minimality(model) -> tuple[int, int]:
    """Simulate every related (stack, permission) pair; then check every
    grant is needed by at least one of them."""
    universe = generate_permissions(model)
    policy = generate_policy(model, universe).policy
    _shapes, allowed = _shapes_and_allowed(model, universe)
    sims = []
    for sigma in enum_vpaths(model, model.check_method):
        shape = (sigma.edges[-1].site, sigma.methods())
        demanded = [
            p for p in universe.sorted_perms() if relates(model, shape, p, allowed)
        ]
        stack = concrete_stack(model, sigma)
        for perm in demanded:
            assert simulate_inspection(stack, perm, policy).passed, (
                stack,
                str(perm),
            )
            sims.append((stack, perm))
    removals = 0
    for method in sorted(policy.grants):
        for perm in sorted(policy.grants[method]):
            pruned = Policy(
                grants={
                    m: (ps - {perm} if m == method else ps)
                    for m, ps in policy.grants.items()
                },
                method_domains=policy.method_domains,
                system_methods=policy.system_methods,
            )
            assert any(
                not simulate_inspection(stack, p, pruned).passed
                for stack, p in sims
            ), f"grant ({method}, {perm}) is never exercised"
            removals += 1
    return len(sims), removals


def test_criterion_7_soundness_and_minimality(example_model):
    with _Timer() as t:
        sims, removals = _soundness_and_minimality(example_model)
        assert sims > 0 and removals == 8
        total_sims = total_removals = 0
        for seed in range(25):
            s, r = _soundness_and_minimality(random_model(seed))
            total_sims += s
            total_removals += r
        assert total_sims > 0 and total_removals > 0
    _report(
        7,
        f"{sims + total_sims} simulations pass; "
        f"{removals + total_removals} grant removals each break one",
        t.elapsed,
        60.0,
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_policy_checking(example_policy):
    with _Timer() as t:
        assert check_policy(example_policy, example_policy).passed
        for method in sorted(example_policy.grants):
            for perm in sorted(example_policy.grants[method]):
                pruned = Policy(
                    grants={
                        m: (ps - {perm} if m == method else ps)
                        for m, ps in example_policy.grants.items()
                    }
                )
                report = check_policy(pruned, example_policy)
                assert not report.passed
                assert report.deficits == {method: frozenset({perm})}
                assert report.lines() == [
                    f"missing grant: method {method}: {perm}"
                ]
    _report(8, "self-check passes; each removed grant is named", t.elapsed, 1.0)
