"""Unified command line: one subcommand per operation, machine-readable output.

Every run prints a single report object to stdout: the command, its echoed
parameters (rationals as p/q strings), the seed when one was used, a `claim`
naming the mathematical property exercised, and the results. Identical
(command, parameters, seed) produce byte-identical output. Exit codes:
0 success, 1 domain or precondition error, 2 size-limit error, 3 stuck
pipeline or absorption.

Rational-valued flags are parsed as p/q strings; nothing here accepts a
float. Reports are data: rendering and plotting belong downstream.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import ceil, floor

from . import closeness, constructions, core, fractional, pipeline, stability
from .absorbing import AbsorbingParameters, absorb, default_parameters, sample_absorbing_family
from .errors import CertificationError, DomainError, PipelineError, SizeLimitError
from .exact import berge_deficiency, independence_number, max_matching
from .rng import TAG_SET_SAMPLE, CounterRng, random_hypergraph

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SIZE = 2
EXIT_STUCK = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like p/q, got {text!r}") from exc


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _vertices(text: str) -> tuple:
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    return value


def _flatten_pairs(obj):
    out = []

    def walk(value, path):
        if isinstance(value, dict) and value:
            for k, v in value.items():
                walk(v, f"{path}.{k}" if path else str(k))
        elif isinstance(value, list) and value:
            for i, v in enumerate(value):
                walk(v, f"{path}.{i}" if path else str(i))
        else:
            out.append((path, value))

    walk(obj, "")
    return out


def emit(report: dict, fmt: str) -> None:
    payload = _jsonable(report)
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        lines = ["field,value"]
        for path, value in _flatten_pairs(payload):
            cell = json.dumps(value) if not isinstance(value, str) else value
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            lines.append(f"{path},{cell}")
        sys.stdout.write("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


# ---------------------------------------------------------------- handlers


def cmd_construct(args):
    if args.family == "space-barrier":
        if args.s is None or args.m is None:
            raise DomainError("space-barrier needs --s and --m")
        H = constructions.build_space_barrier(args.n, args.k, args.s, args.m)
    elif args.family == "parity":
        if args.na is None or args.nb is None:
            raise DomainError("parity needs --na and --nb")
        H = constructions.build_parity(args.na, args.nb, args.k)
    else:
        H = constructions.build_clique_minus(args.n, args.k)
    core.save(H, args.output)
    return {
        "claim": "extremal-construction",
        "results": {"n": H.n, "k": H.k, "edge_count": H.num_edges, "output": args.output},
    }


def cmd_nu(args):
    res = max_matching(core.load(args.file))
    return {
        "claim": "maximum-matching",
        "results": {"size": res.size, "witness": res.witness},
    }


def cmd_alpha(args):
    res = independence_number(core.load(args.file))
    return {
        "claim": "maximum-independent-set",
        "results": {"size": res.size, "witness": res.witness},
    }


def cmd_berge(args):
    cert = berge_deficiency(core.load(args.file), force=args.force)
    return {
        "claim": "deficiency-formula",
        "results": {
            "value": cert.value,
            "vertex_set": cert.vertex_set,
            "odd_components": cert.odd_components,
        },
    }


def cmd_degrees(args):
    H = core.load(args.file)
    if args.set is not None:
        t = _vertices(args.set)
        return {
            "claim": "set-degree",
            "results": {"set": t, "degree": core.degree(H, t)},
        }
    if args.l is None:
        raise DomainError("degrees needs --l or --set")
    t, d = core.weakest_set(H, args.l)
    return {
        "claim": "minimum-l-degree",
        "results": {"l": args.l, "min_degree": d, "argmin": t},
    }


def cmd_fractional(args):
    H = core.load(args.file)
    sol = fractional.fractional_optimum(H)
    return {
        "claim": "lp-duality",
        "results": {
            "nu_star": sol.nu_star,
            "tau_star": sol.tau_star,
            "perfect": sol.nu_star == Fraction(H.n, H.k),
        },
    }


def cmd_stable_complete(args):
    H = core.load(args.file)
    comp = fractional.stable_completion(H)
    core.save(comp.graph, args.output)
    return {
        "claim": "stable-completion",
        "results": {
            "order": comp.order,
            "omega": comp.weights,
            "edge_count": comp.graph.num_edges,
            "output": args.output,
        },
    }


def cmd_stable_check(args):
    res = stability.is_stable(core.load(args.file))
    return {
        "claim": "downward-closedness",
        "results": {"stable": res.stable, "witness": res.witness},
    }


def cmd_shadow(args):
    sh = stability.shadow(core.load(args.file))
    return {"claim": "shadow", "results": {"size": len(sh), "sets": sh}}


def cmd_closeness(args):
    H = core.load(args.file)
    w = _vertices(args.w) if args.w is not None else tuple(range(args.m))
    report = closeness.barrier_deficit(H, args.m, args.s, w)
    results = {
        "deficit": report.deficit,
        "epsilon_effective": report.epsilon_effective,
        "per_vertex_deficits": report.per_vertex_deficits,
    }
    if args.alpha is not None:
        good = closeness.classify_good(H, args.m, args.s, w, args.alpha)
        results["goodness"] = {
            "alpha": good.alpha,
            "good": good.good,
            "bad": good.bad,
            "bad_bound": good.bad_bound,
            "bad_bound_holds": good.bad_bound_holds,
        }
    return {"claim": "barrier-closeness", "results": results}


def cmd_closest(args):
    H = core.load(args.file)
    w, deficit = closeness.closest_partition(
        H, args.m, args.s, local=args.local, seed=args.seed or 0, force=args.force
    )
    return {
        "claim": "closest-barrier-partition",
        "results": {
            "w_best": w,
            "deficit": deficit,
            "mode": "local-search-heuristic" if args.local else "exhaustive",
        },
    }


def cmd_fdense(args):
    H = core.load(args.file)
    dense, witness = closeness.f_density_check(H, args.eps, force=args.force, seed=args.seed or 0)
    return {
        "claim": "large-set-density",
        "results": {"dense": dense, "witness": witness},
    }


def cmd_absorb(args):
    if args.probes < 0:
        raise DomainError(f"--probes must be non-negative, got {args.probes}")
    H = core.load(args.file)
    params = AbsorbingParameters(H.k, args.l, args.a, args.h)
    family = sample_absorbing_family(H, params, args.rho, args.seed or 0, probes=args.probes)
    results = {
        "parameters": {"a": params.a, "h": params.h, "l": params.l, "k": params.k},
        "family_size": len(family.members),
        "members": family.members,
        "matching": family.matching,
        "diagnostics": family.diagnostics,
    }
    if args.absorb_set is not None:
        res = absorb(H, family, _vertices(args.absorb_set))
        results["absorb"] = {
            "matching": res.matching,
            "uncovered": res.uncovered,
            "uncovered_count": len(res.uncovered),
        }
    return {"claim": "absorbing-family", "results": results}


def cmd_round1(args):
    H = core.load(args.file)
    sample = pipeline.round1_sample(H, args.copies, args.p, args.seed or 0)
    probes = tuple(_vertices(p) for p in args.probe_set or ())
    report = pipeline.check_round1_properties(sample, H, probes, args.xi)
    return {
        "claim": "round-one-sample-properties",
        "results": {
            "copies": len(sample.copies),
            "sizes": [len(c) for c in sample.copies],
            "properties": report,
        },
    }


def cmd_sparsify(args):
    H = core.load(args.file)
    sparse, diag = pipeline.sparsify_stage(
        H, args.copies, args.p, args.seed or 0, eps=args.eps
    )
    if args.output:
        core.save(sparse, args.output)
        diag["output"] = args.output
    return {"claim": "weighted-sparsification", "results": diag}


def cmd_pipeline(args):
    H = core.load(args.file)
    res = pipeline.almost_perfect_pipeline(H, args.copies, args.p, args.seed or 0, eps=args.eps)
    results = {
        "matching": res.matching,
        "matching_size": len(res.matching),
        "uncovered_count": res.uncovered_count,
        "uncovered_fraction": res.uncovered_fraction,
        "diagnostics": res.diagnostics,
    }
    if args.sigma is not None:
        results["sigma"] = args.sigma
        results["within_sigma"] = res.uncovered_fraction <= args.sigma
    return {"claim": "almost-perfect-matching", "results": results}


def _suite_katona(trials, seed):
    rng = CounterRng(seed)
    failures = 0
    for t in range(trials):
        k = 2 + rng.below(2, TAG_SET_SAMPLE, t, 0)
        n = k + 1 + rng.below(10 - k, TAG_SET_SAMPLE, t, 1)
        H = random_hypergraph(n, k, Fraction(1, 2), rng.raw(TAG_SET_SAMPLE, t, 2))
        try:
            stability.katona_check(H)
        except CertificationError:
            failures += 1
    return {"trials": trials, "failures": failures}


def _suite_frankl(trials, seed):
    rng = CounterRng(seed)
    applicable = holds = equality = 0
    for t in range(trials):
        k = 2 + rng.below(2, TAG_SET_SAMPLE, t, 0)
        n = 6 + rng.below(5, TAG_SET_SAMPLE, t, 1)
        gens = 1 + rng.below(3, TAG_SET_SAMPLE, t, 2)
        H = stability.random_stable_hypergraph(n, k, rng.raw(TAG_SET_SAMPLE, t, 3), gens)
        res = stability.frankl_bound_check(H)
        if res.applicable:
            applicable += 1
            holds += res.holds
            equality += H.num_edges == res.bound
    return {
        "trials": trials,
        "applicable": applicable,
        "holds": holds,
        "violations": applicable - holds,
        "equality_hits": equality,
    }


def _suite_stability2(trials, seed, n, rho):
    if rho <= 0:
        raise DomainError("rho must be a positive rational")
    if n < 3:
        raise DomainError(f"stability2 needs n >= 3 (the barrier set has m >= 3), got n={n}")
    rng = CounterRng(seed)
    checked = met = failures = skipped = 0
    for t in range(trials):
        gens = 1 + rng.below(4, TAG_SET_SAMPLE, t, 0)
        G = stability.random_stable_hypergraph(n, 2, rng.raw(TAG_SET_SAMPLE, t, 1), gens)
        m = 3 + rng.below(max(1, n // 2 - 3), TAG_SET_SAMPLE, t, 2)
        try:
            res = stability.stability_closeness_check(G, m, rho)
        except DomainError:
            skipped += 1  # matching number above m: hypotheses not satisfiable
            continue
        checked += 1
        if res.hypotheses_met:
            met += 1
            if not res.conclusion_holds:
                failures += 1
    return {
        "trials": trials,
        "checked": checked,
        "skipped": skipped,
        "hypotheses_met": met,
        "conclusion_failures": failures,
        "note": "failures at desk scale would be asymptotic-regime artifacts; none expected",
    }


def cmd_verify(args):
    if args.trials < 0:
        raise DomainError(f"--trials must be non-negative, got {args.trials}")
    seed = args.seed or 0
    if args.suite == "katona":
        results = _suite_katona(args.trials, seed)
        claim = "shadow-bound-suite"
    elif args.suite == "frankl":
        results = _suite_frankl(args.trials, seed)
        claim = "edge-count-bound-suite"
    else:
        results = _suite_stability2(args.trials, seed, args.n, args.rho)
        claim = "graph-stability-closeness-suite"
    return {"claim": claim, "results": results}


def cmd_sweep(args):
    k, l = args.k, args.l
    if not 0 < l < k:
        raise DomainError(f"need 0 < l < k, got k={k}, l={l}")
    if args.search_trials < 0:
        raise DomainError(f"--search-trials must be non-negative, got {args.search_trials}")
    # The theorem's m-range n/k - mu*n <= m <= n/k - 1 - (1 - l/k)*a needs l > k/2.
    a = default_parameters(k, l).a if 2 * l > k else None
    rng = CounterRng(args.seed or 0)
    rows = []
    for n in range(args.n_start, args.n_end + 1):
        ms = set(args.m_list or ())
        if a is not None:
            upper = Fraction(n, k) - 1 - (1 - Fraction(l, k)) * a
            ms.update(range(max(0, ceil(Fraction(n, k) - args.mu * n)), floor(upper) + 1))
        for m in sorted(ms):
            if m > n - l:
                continue
            barrier = constructions.build_space_barrier(n, k, k, m)
            thr = constructions.threshold_formula(n, k, l, m)
            delta = core.min_l_degree(barrier, l)
            nu = max_matching(barrier).size
            row = {
                "n": n,
                "m": m,
                "threshold": thr,
                "barrier_min_l_degree": delta,
                "barrier_nu": nu,
                "tight": delta == thr and nu == min(m, n // k),
            }
            if args.search_trials:
                found = 0
                for t in range(args.search_trials):
                    H = random_hypergraph(n, k, args.search_p, rng.raw(TAG_SET_SAMPLE, n, m, t))
                    if core.min_l_degree(H, l) > thr and max_matching(H).size <= m:
                        found += 1
                row["search_trials"] = args.search_trials
                row["counterexamples_found"] = found
            rows.append(row)
    return {
        "claim": "degree-threshold-tightness",
        "results": {"k": k, "l": l, "mu": args.mu, "rows": rows},
    }


# ---------------------------------------------------------------- wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="hypermatch", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="seed for randomized steps")
    common.add_argument("--force", action="store_true", help="turn size guards into warnings")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common])
    p.add_argument("--family", choices=("space-barrier", "parity", "clique-minus"), required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--na", type=int)
    p.add_argument("--nb", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=cmd_construct)

    def file_command(name, handler):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file")
        p.set_defaults(handler=handler)
        return p

    file_command("nu", cmd_nu)
    file_command("alpha", cmd_alpha)
    file_command("berge", cmd_berge)

    p = file_command("degrees", cmd_degrees)
    p.add_argument("--l", type=int)
    p.add_argument("--set")

    file_command("fractional", cmd_fractional)

    p = file_command("stable-complete", cmd_stable_complete)
    p.add_argument("-o", "--output", required=True)

    file_command("stable-check", cmd_stable_check)
    file_command("shadow", cmd_shadow)

    p = file_command("closeness", cmd_closeness)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--w")
    p.add_argument("--alpha", type=_fraction)

    p = file_command("closest", cmd_closest)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--local", action="store_true")

    p = file_command("fdense", cmd_fdense)
    p.add_argument("--eps", type=_fraction, required=True)

    p = file_command("absorb", cmd_absorb)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--rho", type=_fraction, required=True)
    p.add_argument("--absorb-set")
    p.add_argument("--probes", type=int, default=100)

    p = file_command("round1", cmd_round1)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--probe-set", action="append")
    p.add_argument("--xi", type=_fraction, default=Fraction(1, 10))

    p = file_command("sparsify", cmd_sparsify)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))
    p.add_argument("-o", "--output")

    p = file_command("pipeline", cmd_pipeline)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--sigma", type=_fraction)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--suite", choices=("katona", "frankl", "stability2"), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--rho", type=_fraction, default=Fraction(1, 100))
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n-start", type=int, required=True)
    p.add_argument("--n-end", type=int, required=True)
    p.add_argument("--mu", type=_fraction, default=Fraction(1, 4))
    p.add_argument("--m-list", type=_int_list)
    p.add_argument("--search-trials", type=int, default=0)
    p.add_argument("--search-p", type=_fraction, default=Fraction(3, 4))
    p.set_defaults(handler=cmd_sweep)

    return parser


def _echo_parameters(args) -> dict:
    skip = {"handler", "command", "format", "seed"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    fmt = "json"
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        fmt = args.format
        body = args.handler(args)
        report = {
            "command": args.command,
            "parameters": _echo_parameters(args),
            "claim": body["claim"],
            "results": body["results"],
        }
        if args.seed is not None:
            report["seed"] = args.seed
        emit(report, fmt)
        return EXIT_OK
    except (DomainError, SizeLimitError, PipelineError) as exc:
        emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, fmt)
        if isinstance(exc, DomainError):
            return EXIT_DOMAIN
        return EXIT_SIZE if isinstance(exc, SizeLimitError) else EXIT_STUCK


if __name__ == "__main__":
    sys.exit(main())
