"""Reports render the library's result types: golden JSON and CSV field order.

`golden_reports.json` maps each command line below to the exact stdout it
printed when the handlers still copied result fields into dicts by hand
(`CASES` up to the absorb lines), or when every command still built its own
parser, loaded its own host and wrapped its own report (the rest, with
`CSV_CASE` and the first `ERROR_CASES`), or when the library first refused a
non-positive eps or xi (the last `ERROR_CASES`). Hosts and outputs are written
under relative names, so the echoed `file` and `output` parameters do not
depend on where the test runs.
"""

import argparse
import functools
import gc
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hypermatch
from hypermatch import DomainError, Hypergraph, SizeLimitError, build_parity, build_space_barrier, complete_hypergraph, save
from hypermatch import cli, stability, threshold_sweep
from hypermatch.cli import main

from conftest import FANO_LINES

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

HOSTS = {
    "fano.json": Hypergraph(7, 3, FANO_LINES),
    "barrier.json": build_space_barrier(9, 3, 3, 2),
    "parity.json": build_parity(4, 3, 3),
    "graph.json": Hypergraph(6, 2, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),
    "k12.json": complete_hypergraph(12, 3),
}

CASES = [
    *(f"{cmd} {name}" for cmd in ("nu", "alpha", "stable-check") for name in HOSTS),
    "berge graph.json",
    "closeness barrier.json --m 2 --s 3",
    "closeness barrier.json --m 2 --s 3 --alpha 1/9",
    "closeness fano.json --m 2 --s 3 --w 0,3 --alpha 1/10",
    "closeness parity.json --m 3 --s 1",
    "closeness parity.json --m 3 --s 2 --alpha 1/50",
    "absorb k12.json --l 2 --a 1 --h 2 --rho 1/4 --seed 3 --probes 5",
    "absorb k12.json --l 2 --a 1 --h 2 --rho 1/4 --seed 3 --probes 0 --absorb-set 6,8,11",
    "absorb barrier.json --l 2 --a 1 --h 2 --rho 1/3 --seed 1 --probes 10",
    "construct --family space-barrier --n 9 --k 3 --s 3 --m 2 -o sb.json",
    "construct --family parity --na 4 --nb 3 --k 3 -o par.json",
    "construct --family clique-minus --n 9 --k 3 -o cm.json",
    "degrees barrier.json --l 2",
    "degrees barrier.json --set 0,3",
    "fractional fano.json",
    "stable-complete fano.json -o completed.json",
    "shadow fano.json",
    "closest barrier.json --m 2 --s 3",
    "fdense barrier.json --eps 1/2",
    "pipeline k12.json --copies 8 --p 1/2 --seed 2 --sigma 1/2",
    "round1 k12.json --copies 2 --p 1/2 --seed 1",
    "round1 k12.json --copies 2 --p 1/2 --seed 1 --probe-set 0,1 --probe-set 2,3,4",
    "sparsify k12.json --copies 6 --p 2/3 --seed 5 -o sparse.json",
    *(f"verify --suite {suite} --trials 3 --seed 4" for suite in ("katona", "frankl", "stability2")),
    "sweep --k 3 --l 2 --n-start 9 --n-end 10 --m-list 1,2 --search-trials 2 --seed 5",
]

CSV_CASE = "round1 k12.json --copies 2 --p 1/2 --seed 1 --probe-set 0,1 --format csv"

# Error reports, each with the exit code it pins.
ERROR_CASES = {
    "nu missing.json": 1,
    "sweep --k 3 --l 2 --n-start 6 --n-end 99": 2,
    "pipeline graph.json --copies 1 --p 1": 3,
    "pipeline k12.json --copies 3 --p 1/2 --eps -1": 1,
    "sparsify k12.json --copies 6 --p 2/3 --seed 5 --eps 0": 1,
    "round1 k12.json --copies 2 --p 1/2 --seed 1 --xi 0": 1,
}


@pytest.fixture
def host_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, H in HOSTS.items():
        save(H, name)
    return tmp_path


def run(capsys, line):
    code = main(shlex.split(line))
    return code, capsys.readouterr().out


def csv_fields(text):
    lines = text.splitlines()
    assert lines[0] == "field,value"
    return [line.split(",", 1)[0] for line in lines[1:]]


def json_fields(value, path=""):
    """Leaf paths of a parsed JSON report, in the order the JSON text lists them."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        return [path]
    return [f for k, v in items for f in json_fields(v, f"{path}.{k}" if path else str(k))]


def golden(line):
    return json.loads(GOLDEN.read_text())[line]


@pytest.mark.parametrize("line", [*CASES, CSV_CASE])
def test_report_matches_golden(capsys, host_dir, line):
    code, out = run(capsys, line)
    assert code == 0
    assert out == golden(line)


@pytest.mark.parametrize("line", ERROR_CASES)
def test_error_report_matches_golden(capsys, host_dir, line):
    code, out = run(capsys, line)
    assert (code, out) == (ERROR_CASES[line], golden(line))


@pytest.mark.parametrize("line", CASES)
def test_csv_fields_follow_json_key_order(capsys, host_dir, line):
    _, out = run(capsys, line)
    _, csv_text = run(capsys, line + " --format csv")
    assert csv_fields(csv_text) == json_fields(json.loads(out))


@pytest.mark.parametrize("line", [*CASES, CSV_CASE, *ERROR_CASES])
def test_leaves_no_reference_cycle(capsys, host_dir, line):
    # main pauses the collector for the command, so a garbage cycle it left
    # would stay in memory until the collector next ran. The window includes
    # the command's first parser build.
    cli.build_parser.cache_clear()
    gc.collect()
    gc.disable()
    try:
        run(capsys, line)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestOneParserPerProcess:
    ROUND1 = "round1 k12.json --copies 2 --p 1/2 --seed 1"
    PROBES = ROUND1 + " --probe-set 0,1 --probe-set 2,3,4"

    def test_append_flags_do_not_leak_into_the_next_call(self, capsys, host_dir):
        src = Path(hypermatch.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        for line in (self.PROBES, self.ROUND1):
            fresh = subprocess.run(
                [sys.executable, "-m", "hypermatch", *shlex.split(line)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (fresh.returncode, fresh.stderr) == (0, "")
            assert run(capsys, line) == (0, fresh.stdout) == (0, golden(line))

    def test_an_argparse_error_leaves_the_parser_usable(self, capsys, host_dir):
        code, out = run(capsys, "round1 k12.json --p 1/2")
        assert code == 1
        assert json.loads(out)["error"]["message"] == "the following arguments are required: --copies"
        assert run(capsys, self.PROBES) == (0, golden(self.PROBES))

    def test_the_parser_is_built_once(self, capsys, host_dir, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        counts = []
        lines = (self.ROUND1, "nu fano.json", self.PROBES, "verify --suite katona --trials 3 --seed 4", "nu k12.json")
        for line in lines:
            assert run(capsys, line) == (0, golden(line))
            counts.append(len(built))
        # A command's first run builds the top level and its own subparser, nothing
        # else; its later runs build nothing.
        assert counts == [2, 4, 4, 6, 6]
        assert [parser.prog for parser in built] == [
            "hypermatch", "hypermatch round1", "hypermatch", "hypermatch nu", "hypermatch", "hypermatch verify",
        ]
        assert built[0] is cli.build_parser("round1")
        # With no command, the whole tree is built, as for a line that names none.
        whole = cli.build_parser()
        assert len(built) == 6 + 1 + len(cli._SUBCOMMANDS)
        assert list(choices(whole)) == list(cli._SUBCOMMANDS)


def choices(parser):
    """The subparsers of a tree, by name."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parse_error(parser, argv):
    with pytest.raises(DomainError) as caught:
        parser.parse_args(argv)
    return str(caught.value)


class TestOneCommandTree:
    """A command's own tree parses, helps and refuses exactly as the whole tree does."""

    @staticmethod
    def target(handler):
        """What a handler runs: a file command's handler is the host loader bound to it."""
        return (handler.func, handler.args) if isinstance(handler, functools.partial) else handler

    @pytest.mark.parametrize("name", cli._SUBCOMMANDS)
    def test_one_command_tree_matches_the_whole_tree(self, name):
        one, whole = cli.build_parser(name), cli.build_parser()
        assert list(choices(one)) == [name]
        sub, whole_sub = choices(one)[name], choices(whole)[name]
        assert sub.format_help() == whole_sub.format_help()

        lines = [line for line in json.loads(GOLDEN.read_text()) if line.split()[0] == name]
        assert lines
        for line in lines:
            argv = shlex.split(line)
            a, b = vars(one.parse_args(argv)), vars(whole.parse_args(argv))
            assert self.target(a.pop("handler")) == self.target(b.pop("handler"))
            assert a == b

        # A missing required argument, an unknown flag and a bad value (not an int, a
        # rational or an int list) for each typed flag.
        base = shlex.split(lines[0])
        refused = [[name], [*base, "--bogus"]]
        refused += [[*base, action.option_strings[-1], "1/0"] for action in sub._actions if action.type]
        for argv in refused:
            assert parse_error(one, argv) == parse_error(whole, argv)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus' (choose from {})"),
            (["--seed", "3", "nu", "x"], "argument command: invalid choice: '3' (choose from {})"),
        ],
    )
    def test_a_line_without_a_leading_command_gets_the_whole_tree(self, capsys, argv, message):
        names = (
            "construct nu alpha berge degrees fractional stable-complete stable-check shadow closeness "
            "closest fdense absorb round1 sparsify pipeline verify sweep"
        )
        message = message.format(", ".join(repr(name) for name in names.split()))
        report = json.dumps({"error": {"message": message, "type": "DomainError"}}, separators=(",", ":"))
        assert run(capsys, shlex.join(argv)) == (1, report + "\n")

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv", [["-h"], ["pipeline", "-h"]], ids=["whole", "pipeline"])
    def test_help_exits_zero_and_restores_the_collector(self, capsys, argv, collecting):
        (gc.enable if collecting else gc.disable)()
        try:
            with pytest.raises(SystemExit) as caught:
                main(argv)
            restored = gc.isenabled()
        finally:
            gc.enable()
        assert (caught.value.code, restored) == (0, collecting)
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith(" ".join(["usage: hypermatch", *argv[:-1]]) + " ")


# The library calls behind each pinned verify and sweep line, with the same parameters.
LIBRARY_CALLS = {
    "verify --suite katona --trials 3 --seed 4": lambda: stability.katona_suite(3, seed=4),
    "verify --suite frankl --trials 3 --seed 4": lambda: stability.frankl_suite(3, seed=4),
    "verify --suite stability2 --trials 3 --seed 4": (
        lambda: stability.stability2_suite(3, seed=4, n=10, rho=Fraction(1, 100))
    ),
    "sweep --k 3 --l 2 --n-start 9 --n-end 10 --m-list 1,2 --search-trials 2 --seed 5": (
        lambda: threshold_sweep(3, 2, 9, 10, m_list=[1, 2], search_trials=2, seed=5)
    ),
}


def test_every_pinned_verify_and_sweep_line_has_its_library_call():
    assert list(LIBRARY_CALLS) == [line for line in CASES if line.split()[0] in ("verify", "sweep")]


@pytest.mark.parametrize("line", LIBRARY_CALLS)
def test_library_call_gives_the_golden_results(line):
    assert cli._jsonable(LIBRARY_CALLS[line]()) == json.loads(golden(line))["results"]


def test_library_sweep_raises_the_golden_error():
    line = "sweep --k 3 --l 2 --n-start 6 --n-end 99"
    with pytest.raises(SizeLimitError) as caught:
        threshold_sweep(3, 2, 6, 99)
    assert json.loads(golden(line))["error"] == {"type": "SizeLimitError", "message": str(caught.value)}
