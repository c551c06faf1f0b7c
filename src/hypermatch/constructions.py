"""Generators for the extremal families, the degree threshold formula and the theorem's m-range.

The partition families put the cover side W on the lowest-numbered vertices,
so their natural order agrees with the stability machinery (low indices are
the heavy side). All binomials use the convention C(a, b) = 0 when a < b or
either argument is negative, which is what the closed-form counts need for
large m.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import ceil, comb, floor

from .absorbing import default_parameters
from .core import Hypergraph, check_counts, check_enumeration, min_l_degree, vertex_subset
from .errors import DomainError
from .exact import _first_fit, max_matching
from .rng import TAG_SET_SAMPLE, CounterRng, random_hypergraph


def comb0(a: int, b: int) -> int:
    """C(a, b), zero whenever the pair is out of the classical range."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def barrier_edges(n: int, k: int, s: int, W) -> list:
    """All k-subsets of range(n) meeting W at least once and at most s times."""
    wset = frozenset(W)
    out = []
    for e in combinations(range(n), k):
        hits = sum(1 for v in e if v in wset)
        if 1 <= hits <= s:
            out.append(e)
    return out


def build_space_barrier(n: int, k: int, s: int, m: int, force: bool = False) -> Hypergraph:
    """The partition family with W = {0, .., m-1} and edges meeting W in [1, s]."""
    check_counts(m=m)  # the other counts are checked by build_space_barrier_at
    if not 0 <= m <= n:
        raise DomainError(f"need 0 <= m <= n, got m={m}, n={n}")
    return build_space_barrier_at(n, k, s, range(m), force)


def build_space_barrier_at(n: int, k: int, s: int, W, force: bool = False) -> Hypergraph:
    """Same family with an arbitrary cover side W; U is the complement of W.

    Like every generator here, it enumerates the k-subsets of range(n) in lex
    order, so its edges are canonical and it uses the trusted constructor.
    """
    check_counts(s=s)  # n and k are checked by check_enumeration
    if not 1 <= s <= k:
        raise DomainError(f"need 1 <= s <= k, got s={s}, k={k}")
    if k > n:
        raise DomainError(f"need k <= n, got k={k}, n={n}")
    check_enumeration(n, k, force)  # before W is read, so an oversized n never lists it
    w = vertex_subset(n, W)
    name = f"H^{s}_{k}(n={n},|W|={len(w)})"
    return Hypergraph._canonical(n, k, barrier_edges(n, k, s, w), name=name)


def space_barrier_edge_count(n: int, k: int, s: int, m: int) -> int:
    """Closed form: sum over i in [1, s] of C(m, i) * C(n-m, k-i)."""
    check_counts(n=n, k=k, s=s, m=m)
    return sum(comb0(m, i) * comb0(n - m, k - i) for i in range(1, s + 1))


def threshold_formula(n: int, k: int, l: int, m: int) -> int:
    """C(n-l, k-l) - C(n-l-m, k-l): the degree bound that forces nu >= m+1."""
    check_counts(n=n, k=k, l=l, m=m)
    if not 0 <= l < k or k > n:
        raise DomainError(f"need 0 <= l < k <= n, got n={n}, k={k}, l={l}")
    if not 0 <= m <= n - l:
        raise DomainError(f"need 0 <= m <= n-l, got m={m}")
    return comb0(n - l, k - l) - comb0(n - l - m, k - l)


def theorem_m_range(n: int, k: int, l: int, mu) -> range:
    """The theorem's m: n/k - mu*n <= m <= n/k - 1 - (1 - l/k)*a, for mu > 0; empty unless k/2 < l < k."""
    check_counts(n=n, k=k, l=l)
    if mu <= 0:
        raise DomainError(f"mu must be a positive rational, got {mu}")
    if not k < 2 * l < 2 * k:
        return range(0)
    upper = Fraction(n, k) - 1 - (1 - Fraction(l, k)) * default_parameters(k, l).a
    return range(max(0, ceil(Fraction(n, k) - mu * n)), floor(upper) + 1)


def threshold_sweep(k: int, l: int, n_start: int, n_end: int, mu=Fraction(1, 4), m_list=None,
                    search_trials: int = 0, search_p=Fraction(3, 4), seed: int = 0) -> dict:
    """A row per n in [n_start, n_end] and m <= n - l in theorem_m_range or m_list: the barrier
    H^k_k(n, |W| = m) against the threshold, and a seeded search above it if search_trials."""
    check_counts(k=k, l=l, n_start=n_start, n_end=n_end, search_trials=search_trials)
    for m in m_list or ():
        check_counts(m=m)
    if not 0 < l < k:
        raise DomainError(f"need 0 < l < k, got k={k}, l={l}")
    if search_trials < 0:
        raise DomainError(f"--search-trials must be non-negative, got {search_trials}")
    if not 0 <= search_p <= 1:
        raise DomainError(f"--search-p must lie in [0, 1], got {search_p}")
    theorem_m_range(n_end, k, l, mu)  # refuses mu <= 0 even when no row follows
    if n_start <= n_end:
        check_enumeration(n_end, k)  # the largest row's barrier, before the first row
    rng = CounterRng(seed)
    rows = []
    for n in range(n_start, n_end + 1):
        for m in sorted(set(m_list or ()).union(theorem_m_range(n, k, l, mu))):
            if m > n - l:
                continue
            barrier = build_space_barrier(n, k, k, m)
            thr = threshold_formula(n, k, l, m)
            delta = min_l_degree(barrier, l)
            nu = max_matching(barrier).size
            row = {
                "n": n,
                "m": m,
                "threshold": thr,
                "barrier_min_l_degree": delta,
                "barrier_nu": nu,
                "tight": delta == thr and nu == min(m, n // k),
            }
            if search_trials:  # a row without a search has neither key
                found = 0
                for t in range(search_trials):
                    H = random_hypergraph(n, k, search_p, rng.raw(TAG_SET_SAMPLE, n, m, t))
                    # m + 1 disjoint first-fit edges already give nu > m
                    if (len(tuple(islice(_first_fit(H), m + 1))) <= m
                            and min_l_degree(H, l) > thr and max_matching(H).size <= m):
                        found += 1
                row["search_trials"] = search_trials
                row["counterexamples_found"] = found
            rows.append(row)
    return {"k": k, "l": l, "mu": mu, "rows": rows}


def build_parity(na: int, nb: int, k: int, force: bool = False) -> Hypergraph:
    """k-sets f of A u B whose |f n A| differs in parity from |A|; A is first."""
    check_counts(na=na, nb=nb)  # k is checked with n = na + nb by check_enumeration
    if k < 1 or na < 0 or nb < 0 or na + nb < k:
        raise DomainError(f"need na+nb >= k >= 1, got na={na}, nb={nb}, k={k}")
    n = na + nb
    check_enumeration(n, k, force)
    edges = []
    for e in combinations(range(n), k):
        in_a = sum(1 for v in e if v < na)
        if in_a % 2 != na % 2:
            edges.append(e)
    return Hypergraph._canonical(n, k, edges, name=f"parity(|A|={na},|B|={nb},k={k})")


def build_clique_minus(n: int, k: int, force: bool = False) -> Hypergraph:
    """The full barrier H^k_k whose cover side is the top n/k - 1 vertices: the
    complete k-graph minus every k-set inside the first n - n/k + 1 vertices."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
    if n % k:
        raise DomainError(f"clique-minus needs k | n, got n={n}, k={k}")
    check_enumeration(n, k, force)
    edges = barrier_edges(n, k, k, range(n - n // k + 1, n))
    return Hypergraph._canonical(n, k, edges, name=f"clique-minus(n={n},k={k})")
