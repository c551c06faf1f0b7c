"""Generators for the extremal families and the degree threshold formula.

The partition families put the cover side W on the lowest-numbered vertices,
so their natural order agrees with the stability machinery (low indices are
the heavy side). All binomials use the convention C(a, b) = 0 when a < b or
either argument is negative, which is what the closed-form counts need for
large m.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .core import Hypergraph, check_enumeration, vertex_subset
from .errors import DomainError


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
    if not 0 <= m <= n:
        raise DomainError(f"need 0 <= m <= n, got m={m}, n={n}")
    return build_space_barrier_at(n, k, s, range(m), force)


def build_space_barrier_at(n: int, k: int, s: int, W, force: bool = False) -> Hypergraph:
    """Same family with an arbitrary cover side W; U is the complement of W.

    Like every generator here, it enumerates the k-subsets of range(n) in lex
    order, so its edges are canonical and it uses the trusted constructor.
    """
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
    return sum(comb0(m, i) * comb0(n - m, k - i) for i in range(1, s + 1))


def threshold_formula(n: int, k: int, l: int, m: int) -> int:
    """C(n-l, k-l) - C(n-l-m, k-l): the degree bound that forces nu >= m+1."""
    if not 0 <= l < k or k > n:
        raise DomainError(f"need 0 <= l < k <= n, got n={n}, k={k}, l={l}")
    if not 0 <= m <= n - l:
        raise DomainError(f"need 0 <= m <= n-l, got m={m}")
    return comb0(n - l, k - l) - comb0(n - l - m, k - l)


def build_parity(na: int, nb: int, k: int, force: bool = False) -> Hypergraph:
    """k-sets f of A u B whose |f n A| differs in parity from |A|; A is first."""
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
