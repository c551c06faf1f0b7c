"""k-uniform hypergraphs on vertices 0..n-1, with degrees and subgraphs.

Conventions used throughout the package:

* an edge is a sorted tuple of k distinct vertex indices,
* a vertex set is any iterable of vertex indices; operations normalize it to
  a sorted tuple and validate membership against the host,
* Hypergraph values are immutable after construction, so they are safe to
  share between parallel workers; all operations here are pure functions.

Each edge is also backed by an integer bitmask, since subset and disjointness
tests dominate every solver in the package.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple

from .errors import DomainError


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Hypergraph:
    """Immutable k-uniform edge system on vertices 0..n-1.

    Edges are kept in lexicographic order; duplicate edges in the input are
    rejected rather than silently merged, so generator bugs stay visible.
    """

    __slots__ = ("n", "k", "edges", "name", "edge_masks", "edge_set")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]], name: str | None = None):
        # type() rather than isinstance(): a bool is an int but never a count or a vertex.
        if type(n) is not int or n < 0:
            raise DomainError(f"vertex count must be a nonnegative integer, got {n!r}")
        if type(k) is not int or k < 1:
            raise DomainError(f"uniformity must be a positive integer, got {k!r}")
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "edge_masks", tuple(_mask(e) for e in canon))
        object.__setattr__(self, "edge_set", frozenset(canon))

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


def complete_hypergraph(n: int, k: int) -> Hypergraph:
    if type(k) is not int or k < 1:
        raise DomainError(f"uniformity must be a positive integer, got {k!r}")
    return Hypergraph(n, k, combinations(range(n), k))


def vertex_subset(H: Hypergraph, members: Iterable[int]) -> tuple:
    """Normalize to a sorted tuple and validate against the host vertex range."""
    t = tuple(sorted(members))
    if len(set(t)) != len(t):
        raise DomainError(f"vertex set {list(members)} has repeated members")
    if t and (t[0] < 0 or t[-1] >= H.n):
        raise DomainError(f"vertex set {list(t)} not contained in 0..{H.n - 1}")
    return t


def degree(H: Hypergraph, T: Iterable[int]) -> int:
    """Number of edges containing T; the empty set has degree e(H)."""
    t = vertex_subset(H, T)
    if len(t) > H.k:
        raise DomainError(f"set larger than uniformity: |T|={len(t)} > k={H.k}")
    tm = _mask(t)
    return sum(1 for em in H.edge_masks if em & tm == tm)


def min_l_degree(H: Hypergraph, l: int) -> int:
    """Minimum degree over all l-subsets of the vertex set."""
    return weakest_set(H, l)[1]


def weakest_set(H: Hypergraph, l: int) -> tuple:
    """(T, d) attaining the minimum l-degree; lexicographically least minimizer.

    Each l-subset of each edge is counted once, then the l-sets are walked in
    lex order, keeping the first strict minimum and stopping at degree 0:
    e(H)·C(k, l) + C(n, l) dict operations rather than C(n, l)·e(H) mask tests.
    """
    if not 0 <= l <= H.k:
        raise DomainError(f"l must satisfy 0 <= l <= k, got l={l}")
    if H.n < l:
        raise DomainError(f"need n >= l, got n={H.n} < l={l}")
    if l == 0:
        return (), H.num_edges
    counts = Counter(t for e in H.edges for t in combinations(e, l))
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

    def lift_edges(self, edges: Iterable[Iterable[int]]) -> tuple:
        return tuple(sorted(self.lift(e) for e in edges))


def induced(H: Hypergraph, S: Iterable[int]) -> Subgraph:
    """H[S]: keep exactly the edges inside S, relabeled to 0..|S|-1.

    When C(|S|, k) < e(H), each k-subset of S is looked up in the host's edge
    set; otherwise the host's edges are scanned against S's mask. Either way
    the cost is the smaller of the two counts, and the edges come out in the
    same lex order.
    """
    s = vertex_subset(H, S)
    k = H.k
    if comb(len(s), k) < H.num_edges:
        edge_set = H.edge_set
        pairs = zip(combinations(range(len(s)), k), combinations(s, k))
        out = [new for new, old in pairs if old in edge_set]
    else:
        sm = _mask(s)
        new_of = {old: i for i, old in enumerate(s)}
        out = [tuple(new_of[v] for v in e) for e, em in zip(H.edges, H.edge_masks) if em & sm == em]
    return Subgraph(Hypergraph(len(s), k, out), s)


def remove(H: Hypergraph, S: Iterable[int]) -> Subgraph:
    """H - S: induced subgraph on the complement of S."""
    s = set(vertex_subset(H, S))
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
    except json.JSONDecodeError as exc:
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
