"""Unified command line: one subcommand per operation, machine-readable output.

Every run prints a single report object to stdout: the command, its echoed
parameters (rationals as p/q strings), the seed when one was used, a `claim`
naming the mathematical property exercised, and the results. Identical
(command, parameters, seed) produce byte-identical output. Exit codes:
0 success, 1 domain or precondition error, 2 size-limit error, 3 stuck
pipeline or absorption.

Rational-valued flags are parsed as p/q strings; nothing here accepts a
float. Reports are data: rendering and plotting belong downstream.

Wiring: each subcommand is defined once, in `_SUBCOMMANDS`: its handler,
whether the handler reads a host from a `file` argument, and what adds its own
flags. When the first argument names a subcommand, `main` parses with a tree
that holds only that subcommand; any other line (no arguments, `-h`, an
unknown command, an option first) gets the whole tree, so top-level help and
the invalid-choice message list every command. Each tree is built once per
process, on first use rather than at import, so importing the package stays
cheap and a command pays only for its own flags. A file command's handler
receives the host read from its `file` argument, before it checks any flag of
its own, and then the parsed arguments; every handler returns
`(claim, results)`, and only `main` builds the report around them. Handlers
only wire: every seeded draw, formula and trial loop is a library call.
`main` pauses the cyclic garbage collector for the whole command and then
restores the caller's setting, so a host's many small lists and tuples are not
scanned again and again. This is sound because no command leaves a reference
cycle (a test checks every pinned command line, parser build included):
reference counting alone frees everything, so peak memory is what it would be
with the collector running. The one exception is argparse's own: adding a flag
formats it with a fresh help formatter, which refers to itself, so a new tree
collects the youngest generation, where those formatters are, before it is used.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import sys
from fractions import Fraction

from . import closeness, constructions, core, fractional, pipeline, stability
from .absorbing import AbsorbingParameters, absorb, sample_absorbing_family
from .errors import DomainError, PipelineError, SizeLimitError
from .exact import berge_deficiency, independence_number, max_matching

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


def _fields(value) -> dict:
    """A result type's fields by name: a NamedTuple's or a dataclass's."""
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return value._asdict()


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value) or hasattr(value, "_asdict"):
        return _jsonable(_fields(value))
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    return value


def _flatten_pairs(value, path=""):
    """(path, leaf) pairs of a report, depth first, dict keys sorted. It
    recurses at module level: a recursive closure would refer to itself, a
    reference cycle per report."""
    if isinstance(value, dict) and value:
        items = ((k, value[k]) for k in sorted(value))
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        yield path, value
        return
    for k, v in items:
        yield from _flatten_pairs(v, f"{path}.{k}" if path else str(k))


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
        H = constructions.build_space_barrier(args.n, args.k, args.s, args.m, args.force)
    elif args.family == "parity":
        if args.na is None or args.nb is None:
            raise DomainError("parity needs --na and --nb")
        H = constructions.build_parity(args.na, args.nb, args.k, args.force)
    else:
        H = constructions.build_clique_minus(args.n, args.k, args.force)
    core.save(H, args.output)
    return "extremal-construction", {"n": H.n, "k": H.k, "edge_count": H.num_edges, "output": args.output}


def cmd_nu(H, args):
    return "maximum-matching", max_matching(H, force=args.force)


def cmd_alpha(H, args):
    return "maximum-independent-set", independence_number(H, force=args.force)


def cmd_berge(H, args):
    return "deficiency-formula", berge_deficiency(H, force=args.force)


def cmd_degrees(H, args):
    if args.set is not None:
        if args.l is not None:
            raise DomainError("degrees takes --l or --set, not both")
        t = _vertices(args.set)
        return "set-degree", {"set": t, "degree": core.degree(H, t)}
    if args.l is None:
        raise DomainError("degrees needs --l or --set")
    t, d = core.weakest_set(H, args.l)
    return "minimum-l-degree", {"l": args.l, "min_degree": d, "argmin": t}


def cmd_fractional(H, args):
    sol = fractional.fractional_optimum(H, args.force)
    perfect = sol.nu_star == Fraction(H.n, H.k)
    return "lp-duality", {"nu_star": sol.nu_star, "tau_star": sol.tau_star, "perfect": perfect}


def cmd_stable_complete(H, args):
    comp = fractional.stable_completion(H, args.force)
    core.save(comp.graph, args.output)
    return "stable-completion", {
        "order": comp.order,
        "omega": comp.weights,
        "edge_count": comp.graph.num_edges,
        "output": args.output,
    }


def cmd_stable_check(H, args):
    return "downward-closedness", stability.is_stable(H)


def cmd_shadow(H, args):
    sh = stability.shadow(H)
    return "shadow", {"size": len(sh), "sets": sh}


def cmd_closeness(H, args):
    w = _vertices(args.w) if args.w is not None else range(args.m)
    results = closeness.barrier_deficit(H, args.m, args.s, w)
    if args.alpha is not None:
        good = closeness.classify_good(H, args.m, args.s, w, args.alpha)
        results = {**_fields(results), "goodness": good}
    return "barrier-closeness", results


def cmd_closest(H, args):
    seed = args.seed or 0
    w, deficit = closeness.closest_partition(H, args.m, args.s, seed=seed, force=args.force)
    mode = "exhaustive" if closeness.exhaustive(H.n, args.force) else "local-search-heuristic"
    return "closest-barrier-partition", {"w_best": w, "deficit": deficit, "mode": mode}


def cmd_fdense(H, args):
    dense, witness = closeness.f_density_check(H, args.eps, force=args.force, seed=args.seed or 0)
    mode = "exhaustive" if closeness.exhaustive(H.n, args.force) else "sampled"
    return "large-set-density", {"dense": dense, "witness": witness, "mode": mode}


def cmd_absorb(H, args):
    params = AbsorbingParameters(H.k, args.l, args.a, args.h)
    family = sample_absorbing_family(H, params, args.rho, args.seed or 0, args.probes, args.force)
    results = {
        "parameters": params,
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
    return "absorbing-family", results


def cmd_round1(H, args):
    sample = pipeline.round1_sample(H, args.copies, args.p, args.seed or 0, args.force)
    probes = tuple(_vertices(p) for p in args.probe_set or ())
    report = pipeline.check_round1_properties(sample, H, probes, args.xi, args.force)
    return "round-one-sample-properties", {
        "copies": len(sample.copies),
        "sizes": [len(c) for c in sample.copies],
        "properties": report,
    }


def cmd_sparsify(H, args):
    sparse, diag = pipeline.sparsify_stage(
        H, args.copies, args.p, args.seed or 0, eps=args.eps, force=args.force
    )
    if args.output:
        core.save(sparse, args.output)
        diag["output"] = args.output
    return "weighted-sparsification", diag


def cmd_pipeline(H, args):
    res = pipeline.almost_perfect_pipeline(
        H, args.copies, args.p, args.seed or 0, eps=args.eps, force=args.force
    )
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
    return "almost-perfect-matching", results


def cmd_verify(args):
    claim, suite = stability.SUITES[args.suite]
    # Called through the module, so a suite patched or traced there is the one that runs.
    return claim, getattr(stability, suite.__name__)(args.trials, args.seed or 0, n=args.n, rho=args.rho)


def cmd_sweep(args):
    return "degree-threshold-tightness", constructions.threshold_sweep(
        args.k, args.l, args.n_start, args.n_end, args.mu, args.m_list,
        args.search_trials, args.search_p, args.seed or 0,
    )


# ---------------------------------------------------------------- wiring


def _common_flags(p) -> None:
    p.add_argument("--seed", type=int, default=None, help="seed for randomized steps")
    force_help = (
        "lift the berge size guard, the search budget of nu and alpha, the k-set "
        "enumeration guard of construct, stable-complete and absorb's family "
        "sampler, the LP tableau guard of fractional and stable-complete and the "
        "copies * n guard of round1, sparsify and pipeline and round1's pair and "
        "k-set count guard; closest and fdense scan every candidate set"
    )
    p.add_argument("--force", action="store_true", help=force_help)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _output_flag(p) -> None:
    p.add_argument("-o", "--output", required=True)


def _construct_flags(p) -> None:
    p.add_argument("--family", choices=("space-barrier", "parity", "clique-minus"), required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--na", type=int)
    p.add_argument("--nb", type=int)
    _output_flag(p)


def _degrees_flags(p) -> None:
    p.add_argument("--l", type=int)
    p.add_argument("--set")


def _barrier_flags(p) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)


def _closeness_flags(p) -> None:
    _barrier_flags(p)
    p.add_argument("--w")
    p.add_argument("--alpha", type=_fraction)


def _fdense_flags(p) -> None:
    p.add_argument("--eps", type=_fraction, required=True)


def _absorb_flags(p) -> None:
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--rho", type=_fraction, required=True)
    p.add_argument("--absorb-set")
    p.add_argument("--probes", type=int, default=100)


def _sample_flags(p) -> None:
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--p", type=_fraction, required=True)


def _round1_flags(p) -> None:
    _sample_flags(p)
    p.add_argument("--probe-set", action="append")
    p.add_argument("--xi", type=_fraction, default=Fraction(1, 10))


def _sparsify_flags(p) -> None:
    _sample_flags(p)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))
    p.add_argument("-o", "--output")


def _pipeline_flags(p) -> None:
    _sample_flags(p)
    p.add_argument("--sigma", type=_fraction)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))


def _verify_flags(p) -> None:
    p.add_argument("--suite", choices=stability.SUITES, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--rho", type=_fraction, default=Fraction(1, 100))


def _sweep_flags(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n-start", type=int, required=True)
    p.add_argument("--n-end", type=int, required=True)
    p.add_argument("--mu", type=_fraction, default=Fraction(1, 4))
    p.add_argument("--m-list", type=_int_list)
    p.add_argument("--search-trials", type=int, default=0)
    p.add_argument("--search-p", type=_fraction, default=Fraction(3, 4))


def _on_host(handler, args):
    return handler(core.load(args.file), args)


# Each subcommand, in help order: its handler, whether the handler takes the host
# read from a `file` argument first, and what adds its own flags, if it has any.
_SUBCOMMANDS = {
    "construct": (cmd_construct, False, _construct_flags),
    "nu": (cmd_nu, True, None),
    "alpha": (cmd_alpha, True, None),
    "berge": (cmd_berge, True, None),
    "degrees": (cmd_degrees, True, _degrees_flags),
    "fractional": (cmd_fractional, True, None),
    "stable-complete": (cmd_stable_complete, True, _output_flag),
    "stable-check": (cmd_stable_check, True, None),
    "shadow": (cmd_shadow, True, None),
    "closeness": (cmd_closeness, True, _closeness_flags),
    "closest": (cmd_closest, True, _barrier_flags),
    "fdense": (cmd_fdense, True, _fdense_flags),
    "absorb": (cmd_absorb, True, _absorb_flags),
    "round1": (cmd_round1, True, _round1_flags),
    "sparsify": (cmd_sparsify, True, _sparsify_flags),
    "pipeline": (cmd_pipeline, True, _pipeline_flags),
    "verify": (cmd_verify, False, _verify_flags),
    "sweep": (cmd_sweep, False, _sweep_flags),
}


@functools.cache
def build_parser(command: str | None = None) -> _Parser:
    """The argparse tree with the one subcommand `command`, or with all of them."""
    # The help text is the docstring without its wiring note, which is for readers of this module.
    parser = _Parser(prog="hypermatch", description=__doc__ and __doc__.partition("\n\nWiring:")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS if command is None else (command,):
        handler, reads_host, add_flags = _SUBCOMMANDS[name]
        p = sub.add_parser(name)
        _common_flags(p)
        if reads_host:
            p.add_argument("file")
            p.set_defaults(handler=functools.partial(_on_host, handler))
        else:
            p.set_defaults(handler=handler)
        if add_flags:
            add_flags(p)
    gc.collect(0)  # argparse's garbage cycles; see the wiring note in the module docstring
    return parser


def _echo_parameters(args) -> dict:
    skip = {"handler", "command", "format", "seed"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip and value is not None}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    fmt = "json"
    collecting = gc.isenabled()
    gc.disable()  # see the wiring note in the module docstring
    try:
        parser = build_parser(argv[0]) if argv and argv[0] in _SUBCOMMANDS else build_parser()
        args = parser.parse_args(argv)
        fmt = args.format
        claim, results = args.handler(args)
        report = {
            "command": args.command,
            "parameters": _echo_parameters(args),
            "claim": claim,
            "results": results,
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
