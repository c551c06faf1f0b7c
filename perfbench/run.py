"""Closed-loop benchmark of the hypermatch CLI, with checked outputs.

    python3 perfbench/run.py --workload {pipeline,extremal,absorb} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

One client in one thread calls `hypermatch.cli.main(argv)` in-process, waits
for the report, checks it independently and sends the next call. The ops come
in rotations (see workloads.py). Rotation 0 is always drawn from the reference
seed and the hash of its reports must equal the one pinned in digests.json;
the following rotations are drawn from --seed. New rotations start until the
ops have taken --seconds of scaled time (see below), so a run measures the
same ops whatever the machine's speed, or until twice --seconds of wall time
have passed; at least two rotations always run.

Every timed piece of work (an op, a set-up) is timed together with the speed
of a fixed stdlib-only Python kernel, sampled just before, just after and
every TICK_S during it, and its wall time is scaled by that speed; see
`scaled`. The end-to-end metrics are these scaled times; the raw wall times
are printed beside them.

--trace 0 reports the end-to-end metrics. --trace 1 runs the loop for half of
--seconds without tracing, replays the same ops with every layer traced (see
spans.py) and reports the per-layer metrics, plus the tracing overhead.
Human-readable lines come first; the last line of stdout is the JSON result.
The exit code is 0 only if every op passed its check and every digest matched.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import spans
from workloads import OUT_DIR, REFERENCE_SEED, WORKLOADS, CheckError, Host, Op, op_rng

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path("perfbench") / "digests.json"

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_REPEATS = 9
MIN_ROTATIONS = 2  # the reference rotation and one drawn from --seed
WALL_CAP = 2  # on a machine this much slower than nominal, stop on wall time instead
# About the kernel's time, sampled between the program's own work, on the 2-vCPU
# machine the bounds were set on; the scaled metrics read as seconds on a
# machine that runs the kernel this fast there.
KERNEL_NOMINAL_S = 0.003
KERNEL_TRIES = 3
TICK_S = 0.1  # how often the kernel samples the speed during a piece of work


def kernel() -> Fraction:
    """Fixed pure-Python work like hypermatch's own: Gauss-Jordan elimination over
    Fractions of a fixed 8 x 9 matrix. Nothing of hypermatch runs in it.

    Of the kernels tried (this one, a mix of frozensets, dicts, Fractions and
    sorting, one with JSON and a small recursive matching search, and one that
    reads a 3 MB list), this one followed the speed of pipeline and sweep ops
    most closely.
    """
    n = 8
    rows = [
        [Fraction((i * 3 + j * 5) % 11 + 13 * (i == j), 1 + (i + j) % 3) for j in range(n + 1)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = rows[c][c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / pivot
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows[0][-1]


def kernel_sample(tries: int = 1) -> tuple:
    """(start, end, the fastest of `tries` kernel times) of one speed sample."""
    start = perf_counter()
    best = float("inf")
    for _ in range(tries):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return start, perf_counter(), best


def scaled(fn) -> tuple:
    """(wall seconds, scaled seconds, result) of `fn()`.

    The machine this runs on is shared, and its CPU speed drifts by up to 2x,
    within seconds as over minutes, on CPU time as on wall time. So the kernel
    samples the speed just before and after `fn`, and every TICK_S while it
    runs, from a SIGALRM handler in this same thread. Each stretch of `fn`
    between two samples counts as its wall time x KERNEL_NOMINAL_S / kernel
    time, with the kernel time of the stretch's two ends averaged as speeds.
    The sum measures the program rather than the machine's current speed. The
    kernel is the benchmark's own code: a change to hypermatch cannot move it.
    The samples' own time is taken out of both figures.
    """
    samples = [kernel_sample(KERNEL_TRIES)]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(kernel_sample()))
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(kernel_sample(KERNEL_TRIES))
    wall = scaled_s = 0.0
    for (_, end, k0), (start, _, k1) in zip(samples, samples[1:]):
        wall += start - end
        scaled_s += (start - end) * KERNEL_NOMINAL_S * (1 / k0 + 1 / k1) / 2
    return wall, scaled_s, result


def locate_package(src: Path) -> None:
    """Import hypermatch only from this checkout's src/, or stop."""
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("hypermatch")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or not origin.is_relative_to(src.resolve()):
        sys.exit(f"perfbench: no hypermatch package under {src}")


class SetUp:
    """A fresh import of hypermatch plus the workload's hosts built and written
    to JSON, done and timed SETUP_REPEATS times.

    `reload` imports hypermatch afresh, untimed; the loop calls it after every
    rotation, so no module-level state carries over from one rotation to the next.
    """

    def __init__(self, workload, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.times: list = []  # (wall, scaled) per set-up
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        for _ in range(SETUP_REPEATS):
            self._forget()
            wall, scaled_s, _ = scaled(self._import_and_build)
            self.times.append((wall, scaled_s))
        self.hosts = {key: Host(path) for key, path in self.paths.items()}

    @staticmethod
    def _forget() -> None:
        for name in [n for n in sys.modules if n == "hypermatch" or n.startswith("hypermatch.")]:
            del sys.modules[name]
        gc.collect()  # free the previous import's reference cycles, or they pile up in RSS

    def _import_and_build(self) -> None:
        hm = importlib.import_module("hypermatch")
        self.cli = importlib.import_module("hypermatch.cli")
        self.paths = self.workload.build_hosts(hm, self.seed, self.size)

    def reload(self) -> None:
        self._forget()
        self.cli = importlib.import_module("hypermatch.cli")


def rotations(workload, seed: int, hosts: dict, size: str):
    """Rotation 0 draws everything from the reference seed. Later ones draw from
    --seed, except the draws a workload takes from `fixed`, the reference
    stream, which are the same in every run. The stream continues, or restarts
    at the start of every cycle if the workload has one."""
    fixed = op_rng(REFERENCE_SEED)
    yield workload.rotation(fixed, fixed, hosts, 0, size)
    rng = op_rng(seed)
    for index in itertools.count(1):
        if workload.cycle and (index - 1) % workload.cycle == 0:
            fixed = op_rng(REFERENCE_SEED)
        yield workload.rotation(rng, fixed, hosts, index, size)


def unscaled(fn) -> tuple:
    """(wall seconds, wall seconds, result) of `fn()`, with no speed samples."""
    start = perf_counter()
    result = fn()
    wall = perf_counter() - start
    return wall, wall, result


def call(cli, argv, timer=scaled) -> tuple:
    """(wall seconds, scaled seconds, exit code or None if it raised, stdout) of
    one in-process CLI call.

    `cli.main` is looked up on every call, so a traced replay reaches the
    wrapper. The replay times with `unscaled`, so the speed samples do not
    land in the layers' spans.
    """
    buf = io.StringIO()

    def run():
        try:
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)
        except Exception:  # an escaped exception is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            return None

    wall, scaled_s, rc = timer(run)
    return wall, scaled_s, rc, buf.getvalue()


def judge(op, rc, text: str) -> str:
    """'ok', 'stuck' (a verified AbsorptionStuckError) or 'failed'."""
    if rc is None:
        return "failed"
    try:
        return op.check(rc, json.loads(text))
    except (CheckError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"perfbench: check failed for {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
        return "failed"


class Record(NamedTuple):
    op: Op
    seconds: float  # wall time
    scaled: float  # wall time scaled to the nominal machine speed
    rc: int | None  # None when cli.main raised
    sha: bytes  # sha256 of the report text
    outcome: str  # as judge() returns it


def run_loop(setup, source, seconds: float, cycle: int | None) -> tuple:
    """Run rotations until the ops' scaled time reaches `seconds` (or wall time
    WALL_CAP x `seconds`), stopping only after whole cycles of rotations 1 on;
    (records, rotation count, digests of rotations 0 and 1)."""
    records = []
    hashes = [hashlib.sha256(), hashlib.sha256()]
    start = perf_counter()
    for index, rotation in enumerate(source):
        measured = sum(r.scaled for r in records)
        late = perf_counter() - start >= WALL_CAP * seconds
        whole = (index - 1) % (cycle or 1) == 0
        if index >= MIN_ROTATIONS and whole and (measured >= seconds or late):
            break
        for op in rotation:
            dt, dt_scaled, rc, text = call(setup.cli, op.argv)
            data = text.encode()
            if index < MIN_ROTATIONS:
                hashes[index].update(data)
            sha = hashlib.sha256(data).digest()
            records.append(Record(op, dt, dt_scaled, rc, sha, judge(op, rc, text)))
        setup.reload()
    return records, index, [h.hexdigest() for h in hashes]


def replay_traced(cli, records: list, workload: str, seed: int) -> tuple:
    """Replay the ops with every layer traced; (tracer, replay records, outputs differing)."""
    tracer = spans.Tracer()
    tracer.install()
    replay = []
    differing = 0
    try:
        for i, rec in enumerate(records):
            root = tracer.open_op(i, rec.op.argv[0])
            dt, dt_scaled, rc, text = call(cli, rec.op.argv, unscaled)
            tracer.close_op(root)
            sha = hashlib.sha256(text.encode()).digest()
            outcome = judge(rec.op, rc, text)
            differing += sha != rec.sha or outcome != rec.outcome
            replay.append(Record(rec.op, dt, dt_scaled, rc, sha, outcome))
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
    return tracer, replay, differing


def harrell_davis_median(values: list) -> float:
    """The Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) density over their ranks.

    Op times of a mixed workload leave gaps of 10% and more between neighbours
    near the middle, so the sample median jumps whenever one op moves past
    another; this estimate moves smoothly. The density is summed on a grid of
    `steps` points per rank.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 200
    weights = [0.0] * n
    for j in range(n * steps):
        x = (j + 0.5) / (n * steps)
        weights[j // steps] += math.exp(log_norm + (a - 1) * math.log(x * (1 - x)))
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(times: list) -> str:
    """The highest percentile with at least ten samples beyond it (p90 at most)."""
    n = len(times)
    if n < 20:
        return f"op tail      n/a (needs >= 20 ops, have {n})"
    q = min(90, 100 * (n - 10) // n)
    value = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    return f"op_p{q}_s     {value:.6f} s (n={n})"


def layer_table(tracer, intended: str) -> list:
    calls, self_s, total = tracer.layer_times()
    lines = [f"layer self time over {total:.3f} s of traced ops:"]
    for name, secs in self_s.most_common(10):
        lines.append(f"  {name:48s} {secs:9.4f} s {100 * secs / total:6.2f}%  calls={calls[name]}")
    leader = self_s.most_common(1)[0][0] if self_s else "none"
    verdict = "as intended" if leader == intended else f"NOT the intended {intended}"
    lines.append(f"largest self time: {leader} ({verdict})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    os.chdir(ROOT)
    locate_package(ROOT / "src")
    expected = json.loads(DIGESTS.read_text())[args.size][args.workload]
    workload = WORKLOADS[args.workload]

    setup = SetUp(workload, args.seed, args.size)
    source = rotations(workload, args.seed, setup.hosts, args.size)
    if args.trace:
        loop = run_loop(setup, source, args.seconds / 2, workload.cycle)
    else:
        loop = run_loop(setup, source, args.seconds, workload.cycle)
    records, rotation_count, (reference, seeded) = loop

    print(
        f"perfbench workload={args.workload} size={args.size} seed={args.seed} "
        f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
        f"commit={git_commit()}"
    )
    digest_ok = reference == expected
    verdict = "matches" if digest_ok else "MISMATCH, pinned"
    print(f"reference digest {reference} ({verdict} {expected})")
    print(f"seeded digest    {seeded} (rotation 1, seed {args.seed})")

    checked = records
    differing = 0
    if args.trace:
        tracer, replay, differing = replay_traced(setup.cli, records, args.workload, args.seed)
        checked = records + replay
        untraced = sum(r.seconds for r in records)
        overhead = sum(r.seconds for r in replay) / untraced - 1
        metrics = tracer.metrics(overhead)
        print(f"traced replay of {len(replay)} ops: overhead {overhead:.4f} of {untraced:.3f} s")
        print(f"replayed outputs differing from the untraced run: {differing}")
        print("\n".join(layer_table(tracer, workload.intended_leader)))
    else:
        walls = {
            "ops": [r.seconds for r in records],
            "setup": [wall for wall, _ in setup.times],
        }
        times = {"ops": [r.scaled for r in records], "setup": [s for _, s in setup.times]}
        values, raw = {}, {}
        for out, source in ((values, times), (raw, walls)):
            out["ops_per_s"] = len(source["ops"]) / sum(source["ops"])
            out["op_p50_s"] = harrell_davis_median(source["ops"])
            out["setup_s"] = statistics.median(source["setup"])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["peak_rss_mb"] = raw["peak_rss_mb"] = rss
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = {"op_p50_s": f" (n={len(records)})", "setup_s": f" (n={len(setup.times)})"}
        for name, unit in END_TO_END:
            print(
                f"{name:12s} {values[name]:.6f} {unit}{notes.get(name, '')}"
                f"   wall {raw[name]:.6f} {unit}"
            )
        print(tail(times["ops"]))

    attempted = len(checked)
    failed = sum(r.outcome == "failed" for r in checked)
    stuck = sum(r.outcome == "stuck" for r in checked)
    nonzero = sum(r.rc != 0 for r in checked)
    print(
        f"ops {attempted} (untraced {len(records)} in {rotation_count} rotations), failed {failed} "
        f"(fail_frac {failed / attempted:.4f}), verified stuck {stuck}, "
        f"nonzero exit {nonzero} (nonzero_exit_frac {nonzero / attempted:.4f})"
    )
    correct = failed == 0 and digest_ok and differing == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
