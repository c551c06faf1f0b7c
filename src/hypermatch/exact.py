"""Brute-force ground truth: matching number, independence number, deficiency.

These are the oracles every property suite trusts, so the branch orders are
fixed and documented:

* max_matching returns the lexicographically least maximum matching, from
  the memoized search whose branch order _lex_least_matching states; the
  witness is read back from the recorded picks, charged as the chain walk
  was. It lists the edges once per call (the host's own, or those
  core.edges_within finds inside a vertex subset), masks the edges at a
  vertex only when the search first reaches that vertex, and kills the
  vertices above every edge at the root. Its recursion depth is nu + 1. It
  stops with SizeLimitError after MATCHING_MAX_NODES evaluations unless
  forced, and, forced or not, once nu + 1 passes Python's recursion limit.
  The absorber test in absorbing runs the same search on a vertex subset of
  the host.
* independence_number adds vertices in index order, include branch first,
  pruning a vertex whose inclusion completes an edge. It has the same node
  budget as max_matching.
* berge_deficiency scans cut sets W by increasing size, lexicographic within
  a size, keeping the first minimizer; it exits early once the running
  minimum matches a greedy (maximal-matching) lower bound, which never
  changes the reported minimizer.

Parallel splits of the branch trees would have to reproduce exactly these
tie-breaks; the implementations here are sequential.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import inf
from operator import itemgetter
from typing import NamedTuple

from . import core
from .core import Hypergraph, _mask
from .errors import CertificationError, DomainError, SizeLimitError


class MatchingResult(NamedTuple):
    size: int
    witness: tuple  # tuple of edges, pairwise disjoint


class IndependenceResult(NamedTuple):
    size: int
    witness: tuple  # sorted tuple of vertices


class BergeCertificate(NamedTuple):
    vertex_set: tuple  # the cut W
    odd_components: int
    value: int  # (n - odd_components + |W|) // 2, equals nu at the optimum


def validate_matching(H: Hypergraph, matching) -> bool:
    """True iff every member is an edge of H and members are pairwise disjoint."""
    used = 0
    for raw in matching:
        e = tuple(sorted(raw))
        if e not in H.edge_set:
            return False
        em = _mask(e)
        if em & used:
            return False
        used |= em
    return True


def greedy_matching(H: Hypergraph) -> tuple:
    """Maximal matching from a lexicographic scan; a deterministic lower bound."""
    covered = 0
    out = []
    for e, em in zip(H.edges, map(_mask, H.edges)):
        if not em & covered:
            covered |= em
            out.append(e)
    return tuple(out)


MATCHING_MAX_NODES = 1 << 20  # nodes the matching or independence search visits without force


def max_matching(H: Hypergraph, force: bool = False) -> MatchingResult:
    """Exact maximum matching; the witness is the lexicographically least one.

    It is _lex_least_matching on every vertex, with the budget the module
    docstring states.
    """
    witness = _lex_least_matching(H, range(H.n), force)
    return MatchingResult(len(witness), tuple(witness))


def _lex_least_matching(H: Hypergraph, xs, force: bool) -> list:
    """The lex-least maximum matching of H[xs], in host labels; xs lists
    distinct host vertices in increasing order.

    A search state is a dead mask: covered vertices and those left uncovered
    for good. nu(dead) walks the skip chain: at the least live vertex v it
    takes 1 + nu(dead | e) for each edge e of H[xs] that starts at v and
    avoids the dead set, in lex order, then kills v. A state stops once its
    best reaches min(live // k, live vertices at which an edge starts), since
    every matching edge has its own least vertex. Exact values are memoized
    per call on the dead mask, and only a taken edge recurses, so the depth
    is nu + 1.

    The witness is the path from the root that takes, in each state, the
    first edge, in chain order then lex order, whose child reaches the
    state's value. Each matching has one path, and where two paths part the
    one taking an edge, or the lex-smaller edge, comes first; so among
    matchings of one size, preorder is lex order, and the first child that
    reaches the optimum holds the lex-least maximum matching. That edge is
    the one that raised the state's best to its final value, so nu records
    it with its child and the count of edges it tried up to it; the witness
    is read back from the recorded picks, charged as the chain walk was: one
    evaluation per edge tried.

    H[xs]'s edges are listed once, in lex order: the host's edges when xs is
    every vertex, else those core.edges_within finds. The edges at v are
    their slice that starts at v, found by bisection and masked when the
    search first reaches v, then kept for the call. The start vertices are
    found by bisection jumps over the edges, and every vertex above the
    largest one an edge reaches is killed: such a vertex is isolated, so no
    value, and hence no pick, changes, but the root bound no longer counts
    it. On a stable host the vertices left are exactly those in edges. The
    largest vertex of xs is looked for among the edges' last vertices before
    any max is taken, so a dense host pays for a few edges only.

    Every nu call, memo hits included, counts against the budget.
    """
    k, every = H.k, len(xs) == H.n
    full = (1 << H.n) - 1 if every else _mask(xs)
    edges = H.edges if every else tuple(core.edges_within(H, xs))
    if xs and xs[-1] not in map(itemgetter(-1), edges):
        full &= (1 << max(map(itemgetter(-1), edges), default=-1) + 1) - 1
    starts, i = 0, 0
    while i < len(edges):
        v = edges[i][0]
        starts |= 1 << v
        i = bisect_left(edges, (v + 1,), i)
    at_v: dict = {}

    def edges_at(v):
        got = at_v.get(v)
        if got is None:
            at = edges[bisect_left(edges, (v,)) : bisect_left(edges, (v + 1,))]
            got = at_v[v] = list(zip(at, map(_mask, at)))
        return got

    limit = inf if force else MATCHING_MAX_NODES
    memo: dict = {}
    picks: dict = {}  # dead -> (edge, child, edges tried), for a state with nu > 0
    evaluations = 0

    def over_budget() -> SizeLimitError:
        return SizeLimitError(
            f"the exact matching search enforces at most {limit} search "
            f"evaluations; n={len(xs)}, e={len(edges)}"
        )

    def nu(dead: int) -> int:
        nonlocal evaluations
        evaluations += 1
        if evaluations > limit:
            raise over_budget()
        if dead in memo:
            return memo[dead]
        best, d, tried = 0, dead, 0
        while True:
            live = full & ~d
            bound = min(live.bit_count() // k, (starts & live).bit_count())
            if best >= bound:
                break
            v = (live & -live).bit_length() - 1
            for e, m in edges_at(v):
                if not m & d:
                    tried += 1
                    got = 1 + nu(d | m)
                    if got > best:
                        best, pick = got, (e, d | m, tried)
                        if best >= bound:
                            break
            d |= 1 << v  # v stays uncovered for good
        memo[dead] = best
        if best:
            picks[dead] = pick
        return best

    try:
        nu(0)
    except RecursionError:
        raise SizeLimitError(
            "the exact matching search recurses once per matching edge, and this matching is "
            f"deeper than Python's recursion limit; --force does not lift this; n={len(xs)}"
        ) from None
    finally:
        nu = None  # breaks the cycle nu -> its closure -> nu, so the memo is freed now
    witness, d = [], 0
    while d in picks:
        e, d, tried = picks[d]
        evaluations += tried
        if evaluations > limit:
            raise over_budget()
        witness.append(e)
    return witness


def independence_number(H: Hypergraph, force: bool = False) -> IndependenceResult:
    """Exact maximum independent set with the documented deterministic witness.

    The depth-first search keeps its own stack, so a host with many vertices
    never meets Python's recursion limit. Like max_matching, it stops with
    SizeLimitError after MATCHING_MAX_NODES search nodes unless force is set.
    """
    n = H.n
    limit = inf if force else MATCHING_MAX_NODES
    # For each vertex v, the edges whose largest vertex is v: the only edges a
    # prefix-built set can complete when v joins.
    by_max = [[] for _ in range(n)]
    for e in H.edges:
        by_max[e[-1]].append(_mask(e))

    # A node is (next vertex, chosen mask, its size); the exclude child is
    # pushed under the include child, so nodes pop in the recursive preorder.
    best_size, best = -1, 0
    stack = [(0, 0, 0)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > limit:
            raise SizeLimitError(
                f"the exact independence search enforces at most {limit} search "
                f"nodes; n={n}, e={H.num_edges}"
            )
        v, chosen, size = stack.pop()
        if size > best_size:
            best_size, best = size, chosen
        if v >= n or size + (n - v) <= best_size:
            continue
        stack.append((v + 1, chosen, size))
        cm = chosen | (1 << v)
        if all(em & cm != em for em in by_max[v]):
            stack.append((v + 1, cm, size + 1))
    witness = tuple(v for v in range(n) if best >> v & 1)
    return IndependenceResult(len(witness), witness)


BERGE_MAX_N = 24


def _odd_components(nbr: list, alive: int) -> int:
    count = 0
    rem = alive
    while rem:
        start = (rem & -rem).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            grow = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                grow |= nbr[v] & rem & ~comp
            comp |= grow
            frontier = grow
        if comp.bit_count() % 2 == 1:
            count += 1
        rem &= ~comp
    return count


def berge_deficiency(G: Hypergraph, force: bool = False) -> BergeCertificate:
    """Exact minimizer of (n - odd_components(G - W) + |W|) / 2 over cuts W.

    Enforced for graphs only (k = 2) and n <= 24 unless force is set.
    """
    if G.k != 2:
        raise DomainError(f"berge_deficiency requires k=2, got k={G.k}")
    if G.n > BERGE_MAX_N and not force:
        raise SizeLimitError(f"berge_deficiency enforces n <= {BERGE_MAX_N}, got n={G.n}")
    n = G.n
    nbr = [0] * n
    for (a, b) in G.edges:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    lower = len(greedy_matching(G))
    full = (1 << n) - 1

    best: BergeCertificate | None = None
    for size in range(n + 1):
        if best is not None and size > best.value:
            break  # every larger W has value >= |W| > current minimum
        for w in combinations(range(n), size):
            odd = _odd_components(nbr, full & ~_mask(w))
            value = (n - odd + size) // 2
            if best is None or value < best.value:
                best = BergeCertificate(w, odd, value)
                if value == lower:
                    return best
    if best is None:
        raise CertificationError("berge_deficiency scanned no cut set")
    return best
