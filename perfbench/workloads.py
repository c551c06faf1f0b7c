"""Workload definitions: host files, argv streams and independent output checks.

A workload is an endless stream of *rotations*. A rotation is a fixed cycle of
CLI calls (one per host, suite or absorb configuration), so every rotation has
the same mix of commands and only the seeds drawn for it differ. Rotations are
generators that the caller resumes only after it has run and checked the
previous op, so the `absorb` workflow can pick its second call's absorb set
from the family its first call's check recorded.

Every random choice here comes from a `random.Random` owned by the
benchmark, never from the program's own generator, so the inputs stay fixed
when the program's internals change. The checks read the host JSON files with
the standard `json` module and verify each report without calling hypermatch.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

OUT_DIR = Path("perfbench") / "out"

# Every run starts with one rotation drawn from this seed; its report digest is
# pinned in digests.json, so a change to any witness or seeded draw fails the run.
REFERENCE_SEED = 0


def host_rng(seed: int) -> random.Random:
    return random.Random(f"hosts:{seed}")


def op_rng(seed: int) -> random.Random:
    return random.Random(f"ops:{seed}")


class CheckError(Exception):
    """A report that fails its independent check."""


class Op(NamedTuple):
    """One CLI call: its argv and the check its report must pass."""

    argv: list
    check: Callable  # (exit code, parsed report) -> "ok" or "stuck"; raises CheckError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Host:
    """A host as the checks see it: read back from the JSON file the program loads."""

    def __init__(self, path: Path):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        self.path = str(path)
        self.n = obj["n"]
        self.k = obj["k"]
        self.edges = frozenset(tuple(e) for e in obj["edges"])


def _check_matching(host: Host, matching, label: str) -> set:
    """Every member is a host edge and members are pairwise disjoint; returns V(M)."""
    used: set = set()
    for e in matching:
        t = tuple(e)
        _require(t in host.edges, f"{label}: {list(t)} is not an edge of {host.path}")
        _require(used.isdisjoint(t), f"{label}: {list(t)} overlaps an earlier edge")
        used.update(t)
    return used


def _ok_report(rc, report, command: str, seed: int) -> dict:
    _require(rc == 0, f"exit code {rc}: {report.get('error') if report else None}")
    _require(report.get("command") == command, f"command {report.get('command')!r}")
    _require(report.get("seed") == seed, f"seed echo {report.get('seed')!r} != {seed}")
    return report["results"]


# ---------------------------------------------------------------- pipeline


PIPELINE_SIZES = {
    # n, k, |W|, noise rate outside W, copies, p
    "full": (30, 3, 10, 0.3, 10, "1/4"),
    "tiny": (15, 3, 5, 0.3, 4, "1/2"),
}


# Barrier-noise hosts drawn from --seed. How much LP work a host's copies need
# is a property of the whole host, so the rotations cycle through several.
BARRIER_POOL = 8


def _barrier_key(index: int) -> str:
    """The barrier-noise host of rotation `index`; rotation 0 has the reference host."""
    if index == 0:
        return "barrier-noise-ref-0"
    return f"barrier-noise-run-{(index - 1) % BARRIER_POOL}"


def _pipeline_hosts(hm, seed: int, size: str) -> dict:
    n, k, w, noise_rate, _, _ = PIPELINE_SIZES[size]
    paths = {"complete": OUT_DIR / f"pipeline-{size}-complete.json"}
    hm.save(hm.complete_hypergraph(n, k), paths["complete"])
    barrier = list(hm.build_space_barrier(n, k, k, w).edges)
    outside = list(combinations(range(w, n), k))
    for role, role_seed, count in (("ref", REFERENCE_SEED, 1), ("run", seed, BARRIER_POOL)):
        rng = host_rng(role_seed)
        for i in range(count):
            noise = [c for c in outside if rng.random() < noise_rate]
            path = OUT_DIR / f"pipeline-{size}-barrier-noise-{role}-{i}.json"
            hm.save(hm.Hypergraph(n, k, barrier + noise), path)
            paths[f"barrier-noise-{role}-{i}"] = path
    return paths


def _pipeline_check(host: Host, seed: int):
    def check(rc, report):
        res = _ok_report(rc, report, "pipeline", seed)
        matching = res["matching"]
        _check_matching(host, matching, "pipeline matching")
        _require(res["matching_size"] == len(matching), "matching_size disagrees with the matching")
        uncovered = host.n - host.k * len(matching)
        _require(res["uncovered_count"] == uncovered, f"uncovered_count != n - k|M| = {uncovered}")
        _require(
            res["uncovered_fraction"] == str(Fraction(uncovered, host.n)),
            "uncovered_fraction disagrees with uncovered_count",
        )
        return "ok"

    return check


def _pipeline_rotation(rng, fixed, hosts: dict, index: int, size: str):
    _, _, _, _, copies, p = PIPELINE_SIZES[size]
    for key in ("complete", _barrier_key(index)):
        host = hosts[key]
        seed = fixed.getrandbits(32)  # fixes the round-one copy sizes, hence the LP sizes
        argv = ["pipeline", host.path, "--copies", str(copies), "--p", p, "--seed", str(seed)]
        yield Op(argv, _pipeline_check(host, seed))


# ---------------------------------------------------------------- extremal


EXTREMAL_SIZES = {
    # verify trials, stability2 n, sweep (k, l, n_start, n_end, search_trials) x 2
    "full": (100, 12, ((3, 2, 9, 12, 20), (4, 3, 9, 13, 5))),
    "tiny": (5, 8, ((3, 2, 9, 9, 2), (4, 3, 9, 10, 1))),
}


def _verify_check(suite: str, trials: int, seed: int):
    def check(rc, report):
        res = _ok_report(rc, report, "verify", seed)
        _require(res["trials"] == trials, f"{suite}: trials {res['trials']} != {trials}")
        if suite == "katona":
            _require(res["failures"] == 0, f"katona: {res['failures']} failures")
        elif suite == "frankl":
            _require(res["violations"] == 0, f"frankl: {res['violations']} violations")
            _require(res["holds"] == res["applicable"], "frankl: holds != applicable")
        else:
            _require(res["conclusion_failures"] == 0, "stability2: conclusion failures")
            _require(res["checked"] + res["skipped"] == trials, "stability2: trials unaccounted")
        return "ok"

    return check


def _sweep_check(search_trials: int, seed: int):
    def check(rc, report):
        rows = _ok_report(rc, report, "sweep", seed)["rows"]
        _require(bool(rows), "sweep: no rows")
        for row in rows:
            where = f"sweep row n={row['n']} m={row['m']}"
            _require(row["tight"] is True, f"{where}: not tight")
            _require(row["search_trials"] == search_trials, f"{where}: search_trials")
            _require(row["counterexamples_found"] == 0, f"{where}: counterexample found")
        return "ok"

    return check


def _extremal_rotation(rng, fixed, hosts: dict, index: int, size: str):
    trials, n_stab, sweeps = EXTREMAL_SIZES[size]
    suites = (
        ("stability2", ["--n", str(n_stab), "--rho", "1/100"]),
        ("katona", []),
        ("frankl", []),
    )
    for suite, extra in suites:
        seed = rng.getrandbits(32)
        argv = ["verify", "--suite", suite, *extra, "--trials", str(trials), "--seed", str(seed)]
        yield Op(argv, _verify_check(suite, trials, seed))
    for k, l, n_start, n_end, search in sweeps:
        seed = rng.getrandbits(32)
        argv = [
            "sweep", "--k", str(k), "--l", str(l), "--n-start", str(n_start),
            "--n-end", str(n_end), "--search-trials", str(search), "--seed", str(seed),
        ]
        yield Op(argv, _sweep_check(search, seed))


# ---------------------------------------------------------------- absorb


ABSORB_SIZES = {
    # (n, k, l, h) per host; a = 1 throughout
    "full": ((30, 3, 2, 2), (24, 4, 3, 2)),
    "tiny": ((12, 3, 2, 2), (10, 4, 3, 2)),
}
ABSORB_A = 1
ABSORB_RHOS = ("1/5", "1/20")
ABSORB_CYCLE = 3  # rotations, each with its own family seeds, before they repeat


def _absorb_hosts(hm, seed: int, size: str) -> dict:
    paths = {}
    for n, k, _, _ in ABSORB_SIZES[size]:
        path = OUT_DIR / f"absorb-{size}-complete-{n}-{k}.json"
        hm.save(hm.complete_hypergraph(n, k), path)
        paths[(n, k)] = path
    return paths


def _rounds_needed(s: int, r_size: int, k: int) -> int:
    """Rounds `absorb` runs on an s-set: each takes one member and shrinks the leftover by k."""
    return 0 if s < r_size else (s - r_size + k) // k


def _check_family(host: Host, res: dict, a: int) -> tuple:
    """Members are disjoint a*k-sets, each spanning a-many of the family matching's edges."""
    members = [tuple(m) for m in res["members"]]
    _require(res["family_size"] == len(members), "family_size disagrees with members")
    seen: set = set()
    for m in members:
        _require(len(m) == a * host.k and len(set(m)) == len(m), f"member {list(m)} has wrong size")
        _require(all(0 <= v < host.n for v in m), f"member {list(m)} leaves the vertex range")
        _require(seen.isdisjoint(m), f"member {list(m)} overlaps another member")
        seen.update(m)
    matching = res["matching"]
    _check_matching(host, matching, "family matching")
    for m in members:
        inside = sum(1 for e in matching if set(e) <= set(m))
        _require(inside == a, f"member {list(m)} spans {inside} matching edges, not {a}")
    _require(len(matching) == a * len(members), "family matching has edges outside the members")
    return tuple(members), seen


def _family_check(host: Host, seed: int, state: dict):
    def check(rc, report):
        res = _ok_report(rc, report, "absorb", seed)
        state["members"], state["covered"] = _check_family(host, res, ABSORB_A)
        return "ok"

    return check


def _absorb_check(host: Host, seed: int, l: int, h: int, S: tuple, state: dict):
    r_size = ABSORB_A * l + h
    # On a complete host every unused member absorbs every R (a*l + h >= k), so
    # absorption gets stuck exactly when the family has fewer members than rounds.
    needed = _rounds_needed(len(S), r_size, host.k)

    def check(rc, report):
        family_size = len(state["members"])
        if rc == 3:
            error = report.get("error", {})
            _require(error.get("type") == "AbsorptionStuckError", f"exit 3 with {error}")
            _require(
                needed > family_size,
                f"stuck although {needed} rounds <= family size {family_size}",
            )
            return "stuck"
        res = _ok_report(rc, report, "absorb", seed)
        members, covered = _check_family(host, res, ABSORB_A)
        _require(members == state["members"], "family differs from the first call's family")
        _require(needed <= family_size, f"absorbed {needed} rounds with {family_size} members")
        out = res["absorb"]
        used = _check_matching(host, out["matching"], "absorbed matching")
        uncovered = set(out["uncovered"])
        _require(out["uncovered_count"] == len(uncovered), "uncovered_count disagrees")
        _require(used.isdisjoint(uncovered), "an uncovered vertex is matched")
        _require(used | uncovered == covered | set(S), "absorbed matching loses or adds vertices")
        _require(len(uncovered) <= r_size - 1, f"{len(uncovered)} uncovered > a*l+h-1")
        _require(len(uncovered) == len(S) - host.k * needed, "uncovered count != |S| - k*rounds")
        return "ok"

    return check


def _absorb_rotation(rng, fixed, hosts: dict, index: int, size: str):
    for n, k, l, h in ABSORB_SIZES[size]:
        host = hosts[(n, k)]
        for rho in ABSORB_RHOS:
            seed = fixed.getrandbits(32)  # fixes the family, hence the probe work
            base = [
                "absorb", host.path, "--l", str(l), "--a", str(ABSORB_A), "--h", str(h),
                "--rho", rho, "--seed", str(seed),
            ]
            state: dict = {"members": (), "covered": set()}
            yield Op(base, _family_check(host, seed, state))
            free = [v for v in range(n) if v not in state["covered"]]
            count = rng.randrange(min(2 * (ABSORB_A * l + h), len(free)) + 1)
            S = tuple(sorted(rng.sample(free, count)))
            argv = base + ["--absorb-set", ",".join(map(str, S))]
            yield Op(argv, _absorb_check(host, seed, l, h, S, state))


# ---------------------------------------------------------------- registry


class Workload(NamedTuple):
    """Hosts to build at set-up, the op cycle, and the layer the trace should show leading."""

    name: str
    build_hosts: Callable  # (hypermatch, seed, size) -> {key: path written}
    rotation: Callable  # (rng, fixed rng, hosts, rotation index, size) -> generator of Op
    intended_leader: str
    # If set, the fixed draws restart every `cycle` rotations after rotation 0,
    # and a run stops only after whole cycles, so it holds whole copies of one
    # cycle whatever its length. If None, they continue, and a run may stop
    # after any rotation.
    cycle: int | None = None


WORKLOADS = {
    # Where an op's cost swings with a draw, that draw comes from `fixed` and is
    # the same in every run, or a run would measure the draw rather than the
    # code. A pipeline op's seed fixes its round-one copy sizes, and the exact
    # LP's time grows steeply with them (0.56 s at 12 vertices of K30^(3),
    # 1.97 s at 15). An absorb op's seed fixes its family, and the probe work
    # grows with the family. --seed draws the pipeline's barrier-noise hosts,
    # absorb's leftover sets and every extremal op. Pipeline and absorb
    # rotations differ in cost (pipeline's up to 5x), so a run that stopped
    # after any rotation would change its mix, and so its figures, with the
    # stopping point; they run whole cycles instead, pipeline's as long as its
    # host pool.
    "pipeline": Workload(
        "pipeline", _pipeline_hosts, _pipeline_rotation, "fractional.fractional_optimum",
        cycle=BARRIER_POOL,
    ),
    "extremal": Workload(
        "extremal", lambda hm, seed, size: {}, _extremal_rotation, "exact.max_matching"
    ),
    "absorb": Workload(
        "absorb", _absorb_hosts, _absorb_rotation, "core.induced", cycle=ABSORB_CYCLE
    ),
}
