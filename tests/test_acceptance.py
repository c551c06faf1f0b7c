"""Acceptance battery: every exit criterion at its stated tolerance.

Each test prints one `criterion NN [name]: PASS/FAIL` line (visible with
pytest -s and in failure output) and then asserts. Tolerances are exact
throughout; Monte Carlo results are pinned to frozen seeds with recorded
baselines.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb

from hypermatch import (
    AbsorbingParameters,
    AbsorptionStuckError,
    Hypergraph,
    absorb,
    almost_perfect_pipeline,
    barrier_deficit,
    berge_deficiency,
    build_space_barrier,
    check_round1_properties,
    classify_good,
    complete_hypergraph,
    fractional_optimum,
    frankl_bound_check,
    independence_number,
    is_stable,
    katona_check,
    max_matching,
    min_l_degree,
    random_stable_hypergraph,
    round1_sample,
    sample_absorbing_family,
    stability_closeness_check,
    stable_completion,
    threshold_formula,
    validate_matching,
)
from hypermatch.rng import CounterRng, random_hypergraph

from conftest import FANO_LINES


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{name}]: {status}{suffix}")
    return ok


def barrier_cases():
    for k in (3, 4):
        for l in range(1, k):
            for n in range(k + 2, 13):
                for m in range(0, min(n // k, n - k) + 1):
                    yield n, k, l, m


def test_criterion_01_threshold_tightness():
    t0 = time.time()
    bad = []
    built = {}
    for n, k, l, m in barrier_cases():
        H = built.get((n, k, m))
        if H is None:
            H = built[(n, k, m)] = build_space_barrier(n, k, k, m)
        if min_l_degree(H, l) != threshold_formula(n, k, l, m):
            bad.append(("degree", n, k, l, m))
    for (n, k, m), H in built.items():
        if max_matching(H).size != m:
            bad.append(("nu", n, k, m))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 120
    assert report(1, "threshold-tightness", ok, f"{len(built)} barriers, {elapsed:.1f}s"), bad


def test_criterion_02_lp_duality():
    t0 = time.time()
    bad = 0
    for t in range(200):
        k = 2 + t % 2
        n = k + 1 + t % (8 - k)
        H = random_hypergraph(n, k, Fraction(1, 2), 20000 + t)
        sol = fractional_optimum(H)
        nu = max_matching(H).size
        if not (sol.nu_star == sol.tau_star and nu <= sol.nu_star <= Fraction(n, k)):
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 120
    assert report(2, "lp-duality", ok, f"200 instances, {elapsed:.1f}s")


def test_criterion_03_fano_certificate():
    t0 = time.time()
    fano = Hypergraph(7, 3, FANO_LINES)
    ok = (
        fractional_optimum(fano).nu_star == Fraction(7, 3)
        and max_matching(fano).size == 1
        and independence_number(fano).size == 4
        and fractional_optimum(fano).nu_star == Fraction(fano.n, fano.k)
        and time.time() - t0 < 1
    )
    assert report(3, "fano-certificate", ok)


def test_criterion_04_deficiency_formula():
    t0 = time.time()
    bad = 0
    for t in range(500):
        n = 4 + t % 9
        G = random_hypergraph(n, 2, Fraction(1, 2), 40000 + t)
        if berge_deficiency(G).value != max_matching(G).size:
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 120
    assert report(4, "graph-deficiency-formula", ok, f"500 graphs, {elapsed:.1f}s")


def test_criterion_05_shadow_bound():
    t0 = time.time()
    checked = 0
    for t in range(500):
        k = 2 + t % 2
        n = k + 1 + t % (10 - k)
        katona_check(random_hypergraph(n, k, Fraction(1, 2), 50000 + t))
        checked += 1
    for n, k, l, m in barrier_cases():
        if l == 1:  # one pass per constructed barrier
            katona_check(build_space_barrier(n, k, k, m))
            checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 120  # katona_check raises on any violation
    assert report(5, "shadow-bound", ok, f"{checked} instances, {elapsed:.1f}s")


def test_criterion_06_edge_count_bound():
    t0 = time.time()
    rng = CounterRng(6)
    instances = [build_space_barrier(9, 3, 3, 1)]
    attempts = 0
    while len(instances) < 300 and attempts < 3000:
        k = 2 + rng.below(2, attempts, 0)
        n = 8 + rng.below(5, attempts, 1)
        H = random_stable_hypergraph(n, k, rng.raw(attempts, 2), 1 + rng.below(3, attempts, 3))
        attempts += 1
        if H.n >= (2 * max_matching(H).size + 1) * H.k - max_matching(H).size:
            instances.append(H)
    violations = 0
    equalities = 0
    for H in instances:
        res = frankl_bound_check(H)
        assert res.applicable
        violations += not res.holds
        equalities += H.num_edges == res.bound
    elapsed = time.time() - t0
    ok = len(instances) >= 300 and violations == 0 and equalities >= 1 and elapsed < 180
    assert report(
        6, "edge-count-bound", ok,
        f"{len(instances)} stable instances, {equalities} at equality, {elapsed:.1f}s",
    )


def test_criterion_07_stable_completion():
    t0 = time.time()
    bad = 0
    for t in range(100):
        n = 4 + t % 5
        H = random_hypergraph(n, 3, Fraction(1, 2), 70000 + t)
        comp = stable_completion(H)
        base = fractional_optimum(H)
        good = (
            is_stable(comp.graph).stable
            and fractional_optimum(comp.graph).tau_star == base.tau_star
            and max_matching(comp.graph).size <= base.nu_star
        )
        bad += not good
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 120
    assert report(7, "stable-completion", ok, f"100 instances, {elapsed:.1f}s")


def criterion_08_instances():
    """Seeded stable 2-graphs on 12 vertices with a target cover size each.

    Alternates random downward closures with barriers whose top edges were
    peeled off, so the edge-count hypothesis is exercised non-vacuously.
    """
    rng = CounterRng(8)
    for t in range(1000):
        m = 3 + rng.below(3, t, 0)
        if t % 2 == 0:
            H = random_stable_hypergraph(12, 2, rng.raw(t, 1), 1 + rng.below(4, t, 2))
        else:
            edges = list(build_space_barrier(12, 2, 2, m).edges)
            for _ in range(rng.below(3, t, 3)):
                edges.remove(max(edges))  # the lex-largest edge is maximal
            H = Hypergraph(12, 2, edges)
        yield H, m


def test_criterion_08_graph_stability_closeness():
    t0 = time.time()
    rho = Fraction(1, 100)
    checked = met = failures = 0
    for H, m in criterion_08_instances():
        if max_matching(H).size > m:
            continue
        res = stability_closeness_check(H, m, rho)
        checked += 1
        if res.hypotheses_met:
            met += 1
            failures += not res.conclusion_holds
    elapsed = time.time() - t0
    ok = failures == 0 and met > 0 and elapsed < 180
    assert report(
        8, "graph-stability-closeness", ok,
        f"{checked} checked, {met} hypotheses met, {failures} hard failures, {elapsed:.1f}s",
    )


def test_criterion_09_absorption():
    t0 = time.time()
    K30 = complete_hypergraph(30, 3)
    params = AbsorbingParameters(3, 2, 1, 2)
    family = sample_absorbing_family(K30, params, Fraction(1, 20), 42, probes=100)
    members = len(family.members)
    size_ok = len(family.matching) <= 2 * 3 * Fraction(1, 20) * 30  # |M| <= 9
    # The capacity below assumes every member absorbs every (a*l+h)-set.
    premise_ok = family.diagnostics["min_absorbers_over_probes"] == members
    # Each round spends one fresh member and shrinks the leftover by k, so the
    # family absorbs |S| <= a*l + h - 1 + k*|M| and is stuck on anything larger.
    capacity = params.leftover_bound + params.k * members
    free = sorted(set(range(30)) - family.covered)
    rng = CounterRng(90)
    absorbed, stuck, failures = 0, 0, []
    for t in range(50):
        size = rng.below(9, t, 0)  # |S| <= 8
        S = tuple(sorted(rng.sample(free, size, t, 1)))
        rounds = max(0, -(-(size - params.leftover_bound) // params.k))
        try:
            res = absorb(K30, family, S)
        except AbsorptionStuckError as err:
            if rounds <= members:
                failures.append((t, size, "stuck within capacity"))
            elif len(err.pending) != params.r_size:
                failures.append((t, size, "bad pending set"))
            else:
                stuck += 1
            continue
        if rounds > members:
            failures.append((t, size, "absorbed beyond capacity"))
            continue
        covered = {v for e in res.matching for v in e}
        uncovered = set(res.uncovered)
        total = 3 * members + size
        if not (
            validate_matching(K30, res.matching)
            and covered.isdisjoint(uncovered)
            and covered | uncovered == family.covered | set(S)
            and len(res.uncovered) == size - params.k * rounds
            and len(res.uncovered) <= params.leftover_bound
            and len(res.uncovered) % 3 == total % 3
        ):
            failures.append((t, size, "bad output"))
            continue
        absorbed += 1
    elapsed = time.time() - t0
    ok = size_ok and premise_ok and not failures and elapsed < 120
    assert report(
        9, "absorption", ok,
        f"family size {members} absorbs |S| <= {capacity}: {absorbed} absorbed, "
        f"{stuck} stuck beyond capacity, {len(failures)} failing runs of 50, {elapsed:.1f}s",
    ), failures


def _barrier_noise_host():
    from hypermatch.rng import TAG_EDGE_SAMPLE

    barrier = build_space_barrier(30, 3, 3, 10)
    rng = CounterRng(99)
    noise = [
        c
        for idx, c in enumerate(combinations(range(10, 30), 3))
        if rng.bernoulli(Fraction(3, 10), TAG_EDGE_SAMPLE, idx)
    ]
    return Hypergraph(30, 3, list(barrier.edges) + noise)


def test_criterion_10_pipeline():
    t0 = time.time()
    outcomes = []
    for H in (complete_hypergraph(30, 3), _barrier_noise_host()):
        res = almost_perfect_pipeline(H, 30, Fraction(1, 3), seed=7)
        outcomes.append(
            validate_matching(H, res.matching)
            and res.uncovered_fraction <= Fraction(1, 10)
            and res.uncovered_count == 3  # frozen baseline
        )
    elapsed = time.time() - t0
    ok = all(outcomes) and elapsed < 180
    assert report(10, "almost-perfect-pipeline", ok, f"uncovered 3/30 on both hosts, {elapsed:.1f}s")


def test_criterion_11_round_one_properties():
    t0 = time.time()
    universe = Hypergraph(2000, 3, [])
    p = Fraction(1069, 1000000)
    sample = round1_sample(universe, 200, p, seed=11)
    rep = check_round1_properties(sample, universe)
    elapsed = time.time() - t0
    ok = (
        rep["pair"]["ok"]
        and rep["pair"]["violation_count"] == 0
        and rep["edge"]["ok"]
        and rep["edge"]["violation_count"] == 0
        and rep["singleton"]["ok"]
        and rep["size"]["ok"]
        and elapsed < 180
    )
    assert report(
        11, "round-one-properties", ok,
        f"max pair multiplicity {rep['pair']['max']}, {elapsed:.1f}s",
    )


def test_criterion_12_goodness_bound():
    t0 = time.time()
    bad = 0
    checked = 0
    for H, m in criterion_08_instances():
        for alpha in (Fraction(1, 10), Fraction(1, 100)):
            rep = classify_good(H, m, 2, tuple(range(m)), alpha)
            checked += 1
            bad += not rep.bad_bound_holds
    for t in range(100):
        H = random_hypergraph(9, 3, Fraction(1, 2), 120000 + t)
        for alpha in (Fraction(1, 10), Fraction(1, 100)):
            rep = classify_good(H, 3, 3, (0, 1, 2), alpha)
            checked += 1
            bad += not rep.bad_bound_holds
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 60
    assert report(12, "goodness-bound", ok, f"{checked} checks, {elapsed:.1f}s")
