"""k-uniform hypergraphs on vertices 0..n-1, with degrees and subgraphs.

Conventions used throughout the package:

* an edge is a sorted tuple of k distinct vertex indices,
* a vertex set is any iterable of vertex indices; operations normalize it to
  a sorted tuple and validate membership against the host,
* Hypergraph values are immutable after construction, so they are safe to
  share between parallel workers; all operations here are pure functions.

A Hypergraph stores its edges and their set only; a solver whose subset and
disjointness tests are hot builds bitmasks of the edges it scans, once per call.

There are two ways to build a Hypergraph. The public constructor trusts
nothing: host files (`load`, `from_json`), the stable completion and every
caller outside the package go through it, and every malformed edge becomes a
DomainError (edges whose masks total more than _MAX_MASK_BITS bits, a
SizeLimitError). It checks all edges in bulk and walks them one by one only to
name the first bad edge in input order. The private `Hypergraph._canonical`
checks n and k only and takes its edges as given: sorted k-tuples of distinct
ints in 0..n-1, pairwise distinct and in lex order. Only generators whose
edges have that form by construction call it: `induced` (relabeled host edges
or k-subsets of a checked vertex set), `complete_hypergraph`, the random
generator, the extremal generators (clique-minus included),
`downward_closure` and `round2_sparsify` (a checked subset of the host's
edges). `tests/test_source_rules.py` rejects a call from anywhere else.

The edges of H[X] are found on one of two routes, and `_looks_up` alone picks
it: when C(|X|, k) < e(H) each k-subset of X is looked up in the edge set,
otherwise one scan of the edges keeps those inside X. The cost is the smaller
count either way. Only `induced` and `edges_within` ask the rule: exact's
matching search on a vertex subset and the absorber probes take H[X]'s
edges from `edges_within`.

The minimum l-degree also pays for the smaller count: it splits each edge into
its l-sets, or, when more than half the k-sets are edges, each missing k-set.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, combinations, filterfalse, repeat
from math import comb
from operator import lt
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, SizeLimitError

ENUMERATE_MAX_KSETS = 1 << 17  # most k-subsets a guarded generator enumerates without force
_MAX_VERTICES = 1 << 20  # solvers keep per-vertex tables
_MAX_MASK_BITS = 1 << 28  # a solver masks an edge in as many bits as its largest vertex: 32 MiB


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _check_shape(n: int, k: int) -> None:
    # type() rather than isinstance(): a bool is an int but never a count or a vertex.
    if type(n) is not int or n < 0:
        raise DomainError(f"vertex count must be a nonnegative integer, got {n!r}")
    if type(k) is not int or k < 1:
        raise DomainError(f"uniformity must be a positive integer, got {k!r}")
    if n > _MAX_VERTICES:
        raise SizeLimitError(f"hypergraphs enforce n <= {_MAX_VERTICES}, got n={n}")


def check_counts(**counts) -> None:
    """DomainError for the first value that is not an int, by _check_shape's test."""
    for name, value in counts.items():
        if type(value) is not int:
            raise DomainError(f"{name} must be an integer, got {value!r}")


def _check_mask_bits(last_vertices: Iterable[int]) -> None:
    if sum(last_vertices) > _MAX_MASK_BITS:
        raise SizeLimitError(f"hypergraph input enforces at most {_MAX_MASK_BITS} edge-mask bits, "
                             "the sum of each edge's largest vertex")


def _bulk_checked(n: int, k: int, edges: list):
    """(edges, edge_set) if every edge is a list or tuple of k distinct ints
    in 0..n-1 and no edge repeats, else None.

    Each check is one pass over all edges or all vertices at C speed; an edge
    is sorted only when some column of the input is not strictly increasing,
    and its vertices are distinct when the sorted columns are.
    """
    if not set(map(type, edges)) <= {list, tuple} or not set(map(len, edges)) <= {k}:
        return None
    cols = list(zip(*edges))
    if not set(map(type, chain.from_iterable(cols))) <= {int}:
        return None
    if not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
        edges = list(map(sorted, edges))
        cols = list(zip(*edges))
        if not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
            return None
    if cols and (min(cols[0]) < 0 or max(cols[-1]) >= n):
        return None
    _check_mask_bits(cols[-1] if cols else ())
    del cols  # k columns of e vertices each: freed before the edges are built
    canon = sorted(map(tuple, edges))
    edge_set = frozenset(canon)
    if len(edge_set) < len(canon):
        return None
    return tuple(canon), edge_set


def _walked(n: int, k: int, edges: list) -> tuple:
    """The sorted edges, checked one at a time: raises the DomainError that
    names the first bad edge in input order, or the least duplicate edge."""
    canon = []
    for raw in edges:
        try:
            e = tuple(sorted(raw))
        except TypeError:
            raise DomainError(f"edge {raw!r} is not a list of integer vertices") from None
        if not all(type(v) is int for v in e):
            raise DomainError(f"edge {raw!r} is not a list of integer vertices")
        if len(e) != k or len(set(e)) != k:
            raise DomainError(f"edge {list(raw)} does not have exactly {k} distinct vertices")
        if e[0] < 0 or e[-1] >= n:
            raise DomainError(f"edge {list(e)} has vertices outside 0..{n - 1}")
        canon.append(e)
    canon.sort()
    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise DomainError(f"duplicate edge {list(a)}")
    _check_mask_bits(e[-1] for e in canon)
    return tuple(canon)


class Hypergraph:
    """Immutable k-uniform edge system on vertices 0..n-1.

    Edges are kept in lexicographic order; duplicate edges in the input are
    rejected rather than silently merged, so generator bugs stay visible.
    """

    __slots__ = ("n", "k", "edges", "name", "edge_set")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]], name: str | None = None):
        _check_shape(n, k)
        edges = list(edges)
        checked = _bulk_checked(n, k, edges)
        if checked is None:
            canon = _walked(n, k, edges)
            checked = (canon, frozenset(canon))
        self._fill(n, k, name, *checked)

    @classmethod
    def _canonical(cls, n: int, k: int, edges: Iterable[tuple], name: str | None = None):
        """Trusted construction: edges must already be sorted k-tuples of
        distinct ints in 0..n-1, pairwise distinct and in lex order; only n and
        k are checked (see the module docstring for who may call this)."""
        _check_shape(n, k)
        H = object.__new__(cls)
        edges = tuple(edges)
        H._fill(n, k, name, edges, frozenset(edges))
        return H

    def _fill(self, n, k, name, edges, edge_set) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "edge_set", edge_set)

    def __setattr__(self, key, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.k == other.k
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.edges))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Hypergraph(n={self.n}, k={self.k}, e={self.num_edges}{tag})"


def check_enumeration(n: int, k: int, force: bool = False) -> None:
    """Check (n, k) and, unless force, that C(n, k) <= ENUMERATE_MAX_KSETS.

    Called by the generators a CLI flag can size, by the absorbing-family
    sampler, and by sweep for its largest row, so an oversized request stops
    with SizeLimitError before any work is done.
    """
    _check_shape(n, k)
    if not force and _comb_exceeds(n, k, ENUMERATE_MAX_KSETS):
        raise SizeLimitError(
            f"enumerating k-sets enforces C(n, k) <= {ENUMERATE_MAX_KSETS}, "
            f"got C({n}, {k}) > {ENUMERATE_MAX_KSETS}"
        )


def _comb_exceeds(n: int, k: int, cap: int) -> bool:
    """C(n, k) > cap, found by building C(n, j) up from j = 0 and stopping
    once it passes cap: C(n, j) >= 2^j for j <= n/2, so the walk stays short
    however large n and k are, and no huge binomial is ever formed."""
    if k > n:
        return False
    c = 1
    for j in range(1, min(k, n - k) + 1):
        if c > cap:
            return True
        c = c * (n - j + 1) // j
    return c > cap


def complete_hypergraph(n: int, k: int) -> Hypergraph:
    _check_shape(n, k)  # before range(n) sees a non-int n
    return Hypergraph._canonical(n, k, combinations(range(n), k))


def vertex_subset(n: int, members: Iterable[int]) -> tuple:
    """Normalize to a sorted tuple and validate against the vertex range 0..n-1.

    Members follow the constructor's rule: only an int is a vertex (a bool,
    a float or a str is not), so every caller gets DomainError for them.
    """
    raw = tuple(members)
    if not set(map(type, raw)) <= {int}:
        raise DomainError(f"vertex set {list(raw)} is not a list of integer vertices")
    t = tuple(sorted(raw))
    if len(set(t)) != len(t):
        raise DomainError(f"vertex set {list(raw)} has repeated members")
    if t and (t[0] < 0 or t[-1] >= n):
        raise DomainError(f"vertex set {list(t)} not contained in 0..{n - 1}")
    return t


def degree(H: Hypergraph, T: Iterable[int]) -> int:
    """Number of edges containing T; the empty set has degree e(H)."""
    t = vertex_subset(H.n, T)
    if len(t) > H.k:
        raise DomainError(f"set larger than uniformity: |T|={len(t)} > k={H.k}")
    return sum(map(frozenset(t).issubset, H.edges))


def min_l_degree(H: Hypergraph, l: int) -> int:
    """Minimum degree over all l-subsets of the vertex set."""
    return weakest_set(H, l)[1]


def weakest_set(H: Hypergraph, l: int) -> tuple:
    """(T, d) attaining the minimum l-degree; lexicographically least minimizer.

    Each l-subset of each edge is counted once, then the l-sets are walked in
    lex order, keeping the first strict minimum and stopping at degree 0. When
    2·e(H) > C(n, k), the l-subsets of each missing k-set are counted instead:
    deg(T) = C(n - l, k - l) - lost(T), so T is the lex-least l-set that lost
    the most (the least l-set when none did). Either way the counts cost
    min(e(H), C(n, k) - e(H))·C(k, l) dict operations, plus the walk of the
    C(n, l) l-sets or a pass over the C(n, k) k-sets.
    """
    check_counts(l=l)
    if not 0 <= l <= H.k:
        raise DomainError(f"l must satisfy 0 <= l <= k, got l={l}")
    if H.n < l:
        raise DomainError(f"need n >= l, got n={H.n} < l={l}")
    if l == 0:
        return (), H.num_edges
    if not _comb_exceeds(H.n, H.k, 2 * H.num_edges - 1):  # most k-sets are edges
        missing = filterfalse(H.edge_set.__contains__, combinations(range(H.n), H.k))
        lost = Counter(chain.from_iterable(map(combinations, missing, repeat(l))))
        most = max(lost.values(), default=0)
        least = min((t for t, c in lost.items() if c == most), default=tuple(range(l)))
        return least, comb(H.n - l, H.k - l) - most
    counts = Counter(chain.from_iterable(map(combinations, H.edges, repeat(l))))
    best_t, best_d = None, None
    for t in combinations(range(H.n), l):
        d = counts[t]
        if best_d is None or d < best_d:
            best_t, best_d = t, d
            if d == 0:
                break
    return best_t, best_d


class Subgraph(NamedTuple):
    """A relabeled subgraph plus the order-preserving map back to the host.

    vertices[i] is the host label of the subgraph's vertex i, so certificates
    computed on `graph` lift back through `vertices`.
    """

    graph: Hypergraph
    vertices: tuple

    def lift(self, subset: Iterable[int]) -> tuple:
        return tuple(sorted(self.vertices[v] for v in subset))


def _looks_up(H: Hypergraph, size: int) -> bool:
    """Whether H[X] with |X| = size is found by lookup (the module docstring's route rule)."""
    return comb(size, H.k) < H.num_edges


def edges_within(H: Hypergraph, xs) -> Iterator[tuple]:
    """The edges of H inside the sorted vertex sequence xs, lazily, in lex
    order and in host labels, on _looks_up's route."""
    if _looks_up(H, len(xs)):
        return filter(H.edge_set.__contains__, combinations(xs, H.k))
    return filter(frozenset(xs).issuperset, H.edges)


def induced(H: Hypergraph, S: Iterable[int]) -> Subgraph:
    """H[S]: keep exactly the edges inside S, relabeled to 0..|S|-1.

    The k-subsets of S are looked up, or the host's edges tested against S as
    a set, as _looks_up decides. Both routes yield canonical edges over the
    checked, sorted vertex set s, so the subgraph is built by the trusted
    constructor.
    """
    s = vertex_subset(H.n, S)
    k = H.k
    if _looks_up(H, len(s)):
        edge_set = H.edge_set
        pairs = zip(combinations(range(len(s)), k), combinations(s, k))
        out = [new for new, old in pairs if old in edge_set]
    else:
        new_of = {old: i for i, old in enumerate(s)}
        out = [tuple(map(new_of.__getitem__, e)) for e in filter(frozenset(s).issuperset, H.edges)]
    return Subgraph(Hypergraph._canonical(len(s), k, out), s)


def remove(H: Hypergraph, S: Iterable[int]) -> Subgraph:
    """H - S: induced subgraph on the complement of S."""
    s = set(vertex_subset(H.n, S))
    return induced(H, [v for v in range(H.n) if v not in s])


def to_json(H: Hypergraph) -> str:
    """Canonical interchange text: edges sorted lexicographically, sorted keys."""
    obj = {"n": H.n, "k": H.k, "edges": [list(e) for e in H.edges]}
    if H.name is not None:
        obj["name"] = H.name
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str) -> Hypergraph:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer literal, deep nesting
        raise DomainError(f"malformed hypergraph file: {exc}") from exc
    if not isinstance(obj, dict):
        raise DomainError("malformed hypergraph file: expected an object")
    missing = {"n", "k", "edges"} - set(obj)
    if missing:
        raise DomainError(f"malformed hypergraph file: missing fields {sorted(missing)}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DomainError("malformed hypergraph file: name must be a string")
    if not isinstance(obj["edges"], list):
        raise DomainError("malformed hypergraph file: edges must be a list")
    return Hypergraph(obj["n"], obj["k"], obj["edges"], name=name)


def load(path) -> Hypergraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read hypergraph file: {exc}") from exc
    return from_json(text)


def save(H: Hypergraph, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json(H))
    except OSError as exc:
        raise DomainError(f"cannot write hypergraph file: {exc}") from exc
