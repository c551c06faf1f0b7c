"""Exact fractional matching and vertex cover via a fraction-free simplex.

The primal is max sum(x_e) subject to, for each vertex, sum of x_e over
incident edges at most 1, with x >= 0. Slack variables give a feasible
starting basis, Bland's rule guarantees termination, and the optimal dual
(the fractional vertex cover) is read off the slack reduced costs. Optimality
is certified by complementary feasibility in exact arithmetic, never by
tolerance: primal feasible, dual feasible, objectives equal.

The tableau is held over Python ints as T / D, with one common denominator
D > 0 (D = 1 at the start), and pivots are integer-preserving (Edmonds 1967;
Bareiss 1968). Pivoting on piv = T[r][c] leaves the pivot row as it is, turns
every other row a, the reduced-cost row included, into (a*piv - f*b) // D,
where f is a's entry in column c and b the pivot row, and then sets D = piv.
The division is exact: D is |det B| for the current basis B, and D * B^-1 is
then +-adj(B), an integer matrix, so every entry of T is an integer. T is the
rational tableau entry for entry, only scaled by D > 0. So the sign tests of
Bland's rule are unchanged, and the ratio test rhs_i / T[i][c] < rhs_r /
T[r][c] becomes the cross-multiplied rhs_i * T[r][c] < rhs_r * T[i][c] (D
cancels, both coefficients are positive), with ties still going to the
lowest basis index. Every pivot is therefore the one a Fraction tableau would
take, and x, y and the value, read as Fraction(T[i][rhs], D), come out
identical to it.

Also provides the stable completion: relabel by a minimum cover in
descending weight order and adjoin every non-edge whose cover weight reaches
1. The result is stable, preserves the cover optimum exactly, and its
matching number is at most the original fractional optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .core import Hypergraph, check_enumeration
from .errors import CertificationError

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal primal edge weights and dual vertex weights, all exact."""

    edge_weights: dict
    vertex_weights: dict
    nu_star: Fraction
    tau_star: Fraction


def _simplex_optimum(H: Hypergraph):
    """Run the integer tableau to optimality; returns (x per edge, y per vertex, value)."""
    n = H.n
    edges = H.edges
    ne = len(edges)
    width = ne + n

    if ne == 0:
        return [], [_ZERO] * n, _ZERO

    rows = []
    for v in range(n):
        row = [0] * (width + 1)
        for j, e in enumerate(edges):
            if v in e:
                row[j] = 1
        row[ne + v] = 1
        row[width] = 1  # rhs
        rows.append(row)
    # Reduced costs for max: z_j = c_B B^-1 A_j - c_j, initially -c.
    z = [-1] * ne + [0] * (n + 1)
    basis = [ne + v for v in range(n)]
    D = 1

    while True:
        enter = next((j for j in range(width) if z[j] < 0), None)  # Bland: least index
        if enter is None:
            break
        # Ratio test by cross-multiplication; ties go to the lowest basis index.
        leave_row = None
        for i in range(n):
            coef = rows[i][enter]
            if coef > 0:
                if leave_row is None:
                    leave_row = i
                    continue
                lhs = rows[i][width] * rows[leave_row][enter]
                rhs = rows[leave_row][width] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave_row]):
                    leave_row = i
        if leave_row is None:
            raise CertificationError("matching LP reported unbounded; impossible")
        prow = rows[leave_row]
        piv = prow[enter]
        for i in range(n):
            if i != leave_row:
                rows[i] = _bareiss_row(rows[i], prow, rows[i][enter], piv, D)
        z = _bareiss_row(z, prow, z[enter], piv, D)
        basis[leave_row] = enter
        D = piv

    x = [_ZERO] * ne
    for i, b in enumerate(basis):
        if b < ne:
            x[b] = Fraction(rows[i][width], D)
    y = [Fraction(z[ne + v], D) for v in range(n)]
    return x, y, Fraction(z[width], D)


def _bareiss_row(row, prow, f, piv, D):
    """One non-pivot row of an integer-preserving pivot: (a*piv - f*b) // D, exactly."""
    if f == 0:
        return row if piv == D else [a * piv // D for a in row]
    return [(a * piv - f * b) // D for a, b in zip(row, prow)]


def fractional_optimum(H: Hypergraph) -> FractionalSolution:
    """Optimal fractional matching and cover with a certified duality gap of zero."""
    x, y, _ = _simplex_optimum(H)
    nu = sum(x, _ZERO)
    tau = sum(y, _ZERO)
    # Certificate checks, all exact.
    loads = {v: _ZERO for v in range(H.n)}
    for w, e in zip(x, H.edges):
        if w < 0 or w > 1:
            raise CertificationError("edge weight outside [0, 1]")
        for v in e:
            loads[v] += w
    if any(load > 1 for load in loads.values()):
        raise CertificationError("primal infeasible: vertex load exceeds 1")
    if any(w < 0 or w > 1 for w in y):
        raise CertificationError("dual infeasible: vertex weight outside [0, 1]")
    for e in H.edges:
        if sum((y[v] for v in e), _ZERO) < 1:
            raise CertificationError("dual infeasible: uncovered edge")
    if nu != tau:
        raise CertificationError(f"duality gap: {nu} != {tau}")
    return FractionalSolution(
        edge_weights={e: w for e, w in zip(H.edges, x)},
        vertex_weights=dict(enumerate(y)),
        nu_star=nu,
        tau_star=tau,
    )


class StableCompletion(NamedTuple):
    graph: Hypergraph  # the completed, stable hypergraph on relabeled vertices
    order: tuple  # order[i] = original label of new vertex i
    weights: tuple  # minimum-cover weights in the new labeling, descending


def stable_completion(H: Hypergraph, force: bool = False) -> StableCompletion:
    """Relabel by a minimum fractional cover and adjoin all weight-1 non-edges.

    Ties in the cover weight are broken by original vertex index, so the
    relabeling (and with it the completed hypergraph) is reproducible. Every
    k-set is a candidate, so C(n, k) is guarded unless force.
    """
    check_enumeration(H.n, H.k, force)
    sol = fractional_optimum(H)
    omega = sol.vertex_weights
    order = tuple(sorted(range(H.n), key=lambda v: (-omega[v], v)))
    new_of = {old: i for i, old in enumerate(order)}
    weights = tuple(omega[old] for old in order)

    base = {tuple(sorted(new_of[v] for v in e)) for e in H.edges}
    extra = [
        c
        for c in combinations(range(H.n), H.k)
        if c not in base and sum((weights[v] for v in c), _ZERO) >= 1
    ]
    name = f"stable-completion({H.name})" if H.name else "stable-completion"
    graph = Hypergraph(H.n, H.k, sorted(base) + extra, name=name)
    return StableCompletion(graph, order, weights)
