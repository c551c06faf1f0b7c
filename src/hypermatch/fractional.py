"""Exact fractional matching and vertex cover via a fraction-free revised simplex.

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
take, and x, y and the value come out identical to it once divided by D.

A pivot with piv == D (about half of the row updates on the pipeline's LPs)
keeps D, and row a becomes a - f*b // D: it changes only where the pivot row
b is nonzero, and not at all when f = 0. So such a pivot lists b's support
once and updates only those entries, in place. f*b // D is exact as well:
(a*D - f*b) / D is an entry of the new tableau, an integer, and a*D is a
multiple of D, so f*b is one too. Every other pivot rewrites every entry of
every row.

The tableau is revised (Dantzig and Orchard-Hays 1954): only its slack block
D * B^-1, the rhs and the reduced-cost row over the slack columns and the rhs
are stored and pivoted, since every other column follows from them. The
slack reduced costs are D * y, so edge e prices at sum(D * y_v for v in e)
- D; edges are priced in index order and the first negative one enters,
then the slack columns, which is Bland's least index over the whole tableau.
The entering column of edge e is the sum of e's slack columns, D * B^-1 A_e.
Each entry is the full tableau's integer, so the pivots are the same.

Only vertices that some edge covers get a row and a slack column. An
uncovered vertex's row of the full tableau stays D * e_v, with 0 in every
entering column, so its slack never leaves the basis and its y_v stays 0.
The covered vertices' tableau is covered * (covered + 1) cells; past
LP_MAX_CELLS of them fractional_optimum raises SizeLimitError before
allocating, unless force.

The certificate runs over the integer numerators and D: 0 <= x_e <= D, each
vertex load at most D, 0 <= y_v <= D, sum(y_v for v in e) >= D on every
edge, and sum(x) = sum(y). Only then are the Fractions built.

Also provides the stable completion: relabel by a minimum cover in
descending weight order and adjoin every non-edge whose cover weight reaches
1. The result is stable, preserves the cover optimum exactly, and its
matching number is at most the original fractional optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, count
from operator import add, itemgetter
from typing import NamedTuple

from .core import Hypergraph, check_enumeration
from .errors import CertificationError, SizeLimitError

LP_MAX_CELLS = 1 << 22  # tableau cells, covered vertices * (covered + 1), solved without force

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal primal edge weights and dual vertex weights, all exact."""

    edge_weights: dict
    vertex_weights: dict
    nu_star: Fraction
    tau_star: Fraction


def _simplex_optimum(H: Hypergraph, force: bool = False):
    """Run the revised integer tableau to optimality.

    Returns (x, y, value, D): the integer numerators of x per edge, y per
    vertex and the optimum, all over the common denominator D > 0.
    """
    n = H.n
    edges = H.edges
    ne = len(edges)
    if ne == 0:
        return [], [0] * n, 0, 1

    covered = sorted(set().union(*edges))
    m = len(covered)
    if m * (m + 1) > LP_MAX_CELLS and not force:
        raise SizeLimitError(
            f"the fractional LP enforces at most {LP_MAX_CELLS} tableau cells "
            f"(covered vertices * (covered + 1)); got {m} * {m + 1}"
        )
    slack_of = {v: s for s, v in enumerate(covered)}
    cols = [[slack_of[v] for v in e] for e in edges]  # edge j's slack columns
    rows = []  # D * B^-1 over the covered slack columns, then the rhs
    for s in range(m):
        row = [0] * (m + 1)
        row[s] = 1
        row[m] = 1
        rows.append(row)
    z = [0] * (m + 1)  # slack reduced costs (D * y), then D * value
    basis = [ne + v for v in covered]  # full-tableau columns: edges, then slacks
    D = 1
    # Under Bland's rule the value z[m] / D never falls and no basis repeats, so
    # either proves a broken pivot. `seen` holds the bases met since the value
    # last rose, each as the bitmask of its columns.
    value, mask = 0, sum(1 << b for b in basis)
    seen = {mask}

    ends = list(zip(*cols))  # ends[t][j] is the t-th slack column of edge j
    while True:
        # Bland: least index, so edges in index order, then the slack columns.
        # Edge j's reduced cost is sum(z over its slack columns) - D.
        get = z.__getitem__
        sums = map(get, ends[0])
        for t in ends[1:]:
            sums = map(add, sums, map(get, t))
        enter = next(compress(count(), map(D.__gt__, sums)), None)
        if enter is not None:
            c = cols[enter]
            f = sum(map(get, c)) - D
            if len(c) > 1:
                gather = itemgetter(*c)
                column = [sum(gather(row)) for row in rows]
            else:  # a one-key itemgetter returns the entry, not a tuple
                column = [sum(map(row.__getitem__, c)) for row in rows]
        else:
            s = next((s for s in range(m) if z[s] < 0), None)
            if s is None:
                break
            enter, f = ne + covered[s], z[s]
            column = [row[s] for row in rows]
        # Ratio test by cross-multiplication; ties go to the lowest basis index.
        leave_row = None
        for i, coef in enumerate(column):
            if coef > 0:
                if leave_row is None:
                    leave_row = i
                    continue
                lhs = rows[i][m] * column[leave_row]
                rhs = rows[leave_row][m] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave_row]):
                    leave_row = i
        if leave_row is None:
            raise CertificationError("matching LP reported unbounded; impossible")
        prow = rows[leave_row]
        piv = column[leave_row]
        if piv == D:
            # D stays, so a row changes only where the pivot row is nonzero.
            support = [(j, b) for j, b in enumerate(prow) if b]
            for i, coef in enumerate(column):
                if coef and i != leave_row:
                    row = rows[i]
                    for j, b in support:
                        row[j] -= coef * b // D
            for j, b in support:  # f < 0: the entering column prices negative
                z[j] -= f * b // D
        else:
            for i, coef in enumerate(column):
                if i != leave_row:
                    rows[i] = _bareiss_row(rows[i], prow, coef, piv, D)
            z = _bareiss_row(z, prow, f, piv, D)
        mask ^= 1 << enter | 1 << basis[leave_row]
        basis[leave_row] = enter
        rise = z[m] * D - value * piv
        D, value = piv, z[m]
        if rise < 0:
            raise CertificationError("simplex value fell under Bland's rule; the pivot is broken")
        if rise:
            seen.clear()
        elif mask in seen:
            raise CertificationError("simplex revisited a basis under Bland's rule; the pivot is broken")
        seen.add(mask)

    x = [0] * ne
    for i, b in enumerate(basis):
        if b < ne:
            x[b] = rows[i][m]
    y = [0] * n
    for s, v in enumerate(covered):
        y[v] = z[s]
    return x, y, z[m], D


def _bareiss_row(row, prow, f, piv, D):
    """One non-pivot row of an integer-preserving pivot: (a*piv - f*b) // D, exactly.

    Only a pivot with piv != D comes here, and it rewrites every entry. A
    pivot with piv == D changes a row only where the pivot row b is nonzero,
    by f*b // D, which is exact because a*D - f*b and a*D are multiples of D;
    _simplex_optimum updates those entries in place.
    """
    if f == 0:
        return [a * piv // D for a in row]
    return [(a * piv - f * b) // D for a, b in zip(row, prow)]


def fractional_optimum(H: Hypergraph, force: bool = False) -> FractionalSolution:
    """Optimal fractional matching and cover with a certified duality gap of zero.

    The LP tableau is guarded by LP_MAX_CELLS (SizeLimitError) unless force.
    A Fraction is built only for a nonzero weight; every zero weight is the
    one module-level zero, built once.
    """
    x, y, _, D = _simplex_optimum(H, force)
    # Certificate checks, all exact, on the numerators over D > 0.
    loads = [0] * H.n
    for w, e in zip(x, H.edges):
        if w < 0 or w > D:
            raise CertificationError("edge weight outside [0, 1]")
        for v in e:
            loads[v] += w
    if any(load > D for load in loads):
        raise CertificationError("primal infeasible: vertex load exceeds 1")
    if any(w < 0 or w > D for w in y):
        raise CertificationError("dual infeasible: vertex weight outside [0, 1]")
    for e in H.edges:
        if sum([y[v] for v in e]) < D:
            raise CertificationError("dual infeasible: uncovered edge")
    nu, tau = sum(x), sum(y)
    if nu != tau:
        raise CertificationError(f"duality gap: {Fraction(nu, D)} != {Fraction(tau, D)}")
    return FractionalSolution(
        edge_weights={e: Fraction(w, D) if w else _ZERO for e, w in zip(H.edges, x)},
        vertex_weights={v: Fraction(w, D) if w else _ZERO for v, w in enumerate(y)},
        nu_star=Fraction(nu, D),
        tau_star=Fraction(tau, D),
    )


class StableCompletion(NamedTuple):
    graph: Hypergraph  # the completed, stable hypergraph on relabeled vertices
    order: tuple  # order[i] = original label of new vertex i
    weights: tuple  # minimum-cover weights in the new labeling, descending


def stable_completion(H: Hypergraph, force: bool = False) -> StableCompletion:
    """Relabel by a minimum fractional cover and adjoin all weight-1 non-edges.

    Ties in the cover weight are broken by original vertex index, so the
    relabeling (and with it the completed hypergraph) is reproducible. Every
    k-set is a candidate, so C(n, k) is guarded unless force, and so is the
    LP tableau.
    """
    check_enumeration(H.n, H.k, force)
    sol = fractional_optimum(H, force)
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
