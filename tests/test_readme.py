"""The README's library tour and command block run as written."""

import re
import shlex
from pathlib import Path

from hypermatch import Hypergraph, complete_hypergraph, save
from hypermatch.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def test_library_tour_runs():
    (tour,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(tour, "README.md library tour", "exec"), {})


def test_every_command_line_exits_zero(tmp_path, monkeypatch, capsys):
    (block,) = [body for lang, body in BLOCKS if "hypermatch construct" in body]
    monkeypatch.chdir(tmp_path)
    save(complete_hypergraph(30, 3), "k30.json")
    save(Hypergraph(6, 2, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]), "graph.json")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) >= 19 and all(argv[0] == "hypermatch" for argv in commands)
    failed = []
    for argv in commands:
        code = main(argv[1:])
        out = capsys.readouterr().out
        if code != 0:
            failed.append((argv, out))
    assert failed == []
