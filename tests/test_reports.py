"""Reports render the library's result types: golden JSON and CSV field order.

`golden_reports.json` maps each command line below to the exact stdout it
printed when the handlers still copied result fields into dicts by hand.
Hosts are written under relative names, so the echoed `file` parameter does
not depend on where the test runs.
"""

import json
import shlex
from pathlib import Path

import pytest

from hypermatch import Hypergraph, build_parity, build_space_barrier, complete_hypergraph, save
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
]


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


@pytest.mark.parametrize("line", CASES)
def test_report_matches_golden(capsys, host_dir, line):
    code, out = run(capsys, line)
    assert code == 0
    assert out == json.loads(GOLDEN.read_text())[line]


@pytest.mark.parametrize("line", CASES)
def test_csv_fields_follow_json_key_order(capsys, host_dir, line):
    _, out = run(capsys, line)
    _, csv_text = run(capsys, line + " --format csv")
    assert csv_fields(csv_text) == json_fields(json.loads(out))
