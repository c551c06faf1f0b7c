"""Fuzz `main()` across every subcommand on tiny hosts.

Whatever the flags hold, a run must end with a known exit code and a single
JSON object on stdout; a nonzero exit carries a package error type. Hosts
have n <= 8 and the usual sweep and suite values stay at n <= 10. Wild
values are capped per flag: a digit string has at most 3 characters on the
count flags (`--copies`, `--trials`, `--probes`, `--search-trials`), whose
work grows linearly with the value (`pipeline --copies 30000` takes about
half a minute), and at most 6 on every other flag, the size flags `--n`,
`--n-end`, `--m` and `--k` among them. Junk, negative, empty and p/q values
reach every flag. A wild `--n` (`--n 99` asks the stability2 suite for
`max_matching` on 99-vertex graphs) ends in a `SizeLimitError` once the
matching search passes its work budget, instead of reaching an unguarded
solver. A wild `--n-end` (99) or a 6-digit `--n` ends the same way before
any k-set is built: `sweep` checks its largest row up front, and generators
that enumerate the C(n, k) k-sets stop at `core.ENUMERATE_MAX_KSETS` unless
`--force`.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermatch import Hypergraph, build_space_barrier, complete_hypergraph, save
from hypermatch.cli import main

from conftest import FANO_LINES

ERROR_TYPES = {"DomainError", "SizeLimitError", "PipelineError", "AbsorptionStuckError"}

HOSTS = {
    "fano": Hypergraph(7, 3, FANO_LINES),
    "k8": complete_hypergraph(8, 3),
    "barrier": build_space_barrier(8, 3, 3, 2),
    "c6": Hypergraph(6, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    "empty": Hypergraph(5, 2, []),
}
# "{dir}" is filled in with the host directory when a run starts.
FILES = [f"{{dir}}/{name}.json" for name in [*HOSTS, "junk", "missing"]]
OUTPUTS = ["{dir}/out.json", "{dir}/no-such-dir/out.json"]


@pytest.fixture(scope="module")
def host_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("hosts")
    for name, H in HOSTS.items():
        save(H, path / f"{name}.json")
    (path / "junk.json").write_text('{"n": 3, "k": 2, "edges": [[0, 0]]}')
    return path



def one(*values):
    return st.sampled_from(values)


def wild(digits):
    """A wild flag value: a bounded int, a p/q string, junk, or up to `digits` characters."""
    return (
        st.integers(-3, 9).map(str)
        | st.builds(lambda p, q: f"{p}/{q}", st.integers(-2, 9), st.integers(0, 9))
        | one("", "x", "1.5", "nan", "1,,2", "ü")
        | st.text(alphabet="0123456789,/- x", max_size=digits)
    )


# Any flag but -o may instead get a wild value. A count flag asks for work
# linear in its value, so its wild strings stop at 3 digits; every other flag
# may get 6.
COUNT_FLAGS = {"--copies", "--trials", "--probes", "--search-trials"}
wild_count, wild_other = wild(3), wild(6)
vertex_sets = st.lists(st.integers(0, 8), max_size=5, unique=True).map(lambda vs: ",".join(map(str, vs)))
files = one(*FILES)
outputs = one(*OUTPUTS)
copies, probability = one("1", "3"), one("1/4", "1/2", "1")
m_and_s = {"--m": one("1", "2"), "--s": one("2", "3")}
seeds = one("0", "1", "5")  # --seed, which only the commands that draw take

# Per command: positional arguments, required flags, optional flags, each
# flag with its usual values (None for a switch).
COMMANDS = {
    "construct": (
        [],
        {"--family": one("space-barrier", "parity", "clique-minus"), "--k": one("2", "3"), "-o": outputs},
        {"--n": one("6", "8"), "--s": one("1", "2", "3"), "--m": one("1", "2"), "--na": one("3", "4"), "--nb": one("3", "4")},
    ),
    "nu": ([files], {}, {}),
    "alpha": ([files], {}, {}),
    "berge": ([files], {}, {}),
    "degrees": ([files], {}, {"--l": one("1", "2"), "--set": vertex_sets}),
    "fractional": ([files], {}, {}),
    "stable-complete": ([files], {"-o": outputs}, {}),
    "stable-check": ([files], {}, {}),
    "shadow": ([files], {}, {}),
    "closeness": ([files], m_and_s, {"--w": vertex_sets, "--alpha": one("1/10", "1/2")}),
    "closest": ([files], m_and_s, {"--seed": seeds}),
    "fdense": ([files], {"--eps": one("1/4", "1/2")}, {"--seed": seeds}),
    "absorb": (
        [files],
        {"--l": one("2"), "--a": one("1"), "--h": one("2"), "--rho": one("1/20", "1/5", "1/2")},
        {"--absorb-set": vertex_sets, "--probes": one("0", "5"), "--seed": seeds},
    ),
    "round1": (
        [files], {"--copies": copies, "--p": probability},
        {"--probe-set": vertex_sets, "--xi": one("1/10"), "--seed": seeds},
    ),
    "sparsify": (
        [files], {"--copies": copies, "--p": probability},
        {"--eps": one("1/2"), "-o": outputs, "--seed": seeds},
    ),
    "pipeline": (
        [files], {"--copies": copies, "--p": probability},
        {"--sigma": one("1/2"), "--eps": one("1/2"), "--seed": seeds},
    ),
    "verify": (
        [],
        {"--suite": one("katona", "frankl", "stability2")},
        {"--trials": one("2", "4"), "--n": one("6", "8", "10"), "--rho": one("1/100", "1/10"), "--seed": seeds},
    ),
    "sweep": (
        [],
        {"--k": one("3", "4"), "--l": one("2", "3"), "--n-start": one("6", "8"), "--n-end": one("8", "10")},
        {
            "--mu": one("1/4", "1/2"), "--m-list": vertex_sets, "--search-trials": one("1", "3"),
            "--search-p": one("3/4"), "--seed": seeds,
        },
    ),
}
COMMON = {"--force": None}


@st.composite
def argvs(draw, command):
    positionals, required, optional = COMMANDS[command]
    argv = [command] + [draw(s) for s in positionals]
    flags = list(required.items())
    flags += [(f, v) for f, v in {**optional, **COMMON}.items() if draw(st.booleans())]
    for flag, values in flags:
        if values is None:
            argv.append(flag)
        elif flag == "-o":  # a wild value would write outside the host directory
            argv += [flag, draw(values)]
        else:
            wild_values = wild_count if flag in COUNT_FLAGS else wild_other
            argv += [flag, draw(wild_values if draw(st.integers(0, 5)) == 0 else values)]
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(data=st.data())
def test_main_reports_every_outcome_as_json(host_dir, command, data):
    argv = [arg.replace("{dir}", str(host_dir)) for arg in data.draw(argvs(command))]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    if code:
        assert list(report) == ["error"] and report["error"]["type"] in ERROR_TYPES
    else:
        assert report["command"] == command
