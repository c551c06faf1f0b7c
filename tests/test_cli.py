import json
from fractions import Fraction
from math import ceil

import pytest

from hypermatch import (
    Hypergraph,
    build_space_barrier,
    complete_hypergraph,
    f_density_check,
    is_stable,
    load,
    save,
    to_json,
)
from hypermatch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def fano_file(tmp_path, fano):
    path = tmp_path / "fano.json"
    save(fano, path)
    return str(path)


@pytest.fixture
def barrier_file(tmp_path, capsys):
    path = tmp_path / "barrier.json"
    code, _ = run(
        capsys, "construct", "--family", "space-barrier",
        "--n", "9", "--k", "3", "--s", "3", "--m", "2", "-o", str(path),
    )
    assert code == 0
    return str(path)


class TestBasicCommands:
    def test_construct_then_solve(self, capsys, barrier_file):
        code, rep = run_json(capsys, "nu", barrier_file)
        assert code == 0
        assert rep["results"]["size"] == 2
        code, rep = run_json(capsys, "alpha", barrier_file)
        assert rep["results"]["size"] == 7

    def test_nu_on_fano(self, capsys, fano_file):
        code, rep = run_json(capsys, "nu", fano_file)
        assert code == 0 and rep["results"]["size"] == 1
        assert rep["results"]["witness"] == [[0, 1, 2]]

    def test_degrees(self, capsys, barrier_file):
        code, rep = run_json(capsys, "degrees", barrier_file, "--l", "2")
        assert rep["results"]["min_degree"] == 2
        code, rep = run_json(capsys, "degrees", barrier_file, "--set", "5")
        assert rep["results"]["degree"] == 13

    def test_fractional(self, capsys, fano_file):
        code, rep = run_json(capsys, "fractional", fano_file)
        assert rep["results"]["nu_star"] == "7/3"
        assert rep["results"]["tau_star"] == "7/3"
        assert rep["results"]["perfect"] is True

    def test_shadow_and_stability(self, capsys, fano_file, barrier_file):
        code, rep = run_json(capsys, "shadow", fano_file)
        assert rep["results"]["size"] == 21
        code, rep = run_json(capsys, "stable-check", barrier_file)
        assert rep["results"]["stable"] is True

    def test_stable_complete_writes_stable_file(self, capsys, tmp_path, fano_file):
        out = tmp_path / "completed.json"
        code, rep = run_json(capsys, "stable-complete", fano_file, "-o", str(out))
        assert code == 0
        completed = load(out)
        assert is_stable(completed).stable
        assert sorted(rep["results"]["order"]) == list(range(7))

    def test_closeness_and_closest(self, capsys, barrier_file):
        code, rep = run_json(capsys, "closeness", barrier_file, "--m", "2", "--s", "3")
        assert rep["results"]["deficit"] == 0
        code, rep = run_json(
            capsys, "closeness", barrier_file, "--m", "2", "--s", "3", "--alpha", "1/9"
        )
        assert rep["results"]["goodness"]["bad"] == []
        code, rep = run_json(capsys, "closest", barrier_file, "--m", "2", "--s", "3")
        assert rep["results"]["w_best"] == [0, 1] and rep["results"]["deficit"] == 0

    def test_fdense(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        code, _ = run(
            capsys, "construct", "--family", "space-barrier",
            "--n", "9", "--k", "3", "--s", "1", "--m", "3", "-o", str(path),
        )
        code, rep = run_json(capsys, "fdense", str(path), "--eps", "1/2")
        assert rep["results"]["dense"] is False
        assert rep["results"]["witness"] == [3, 4, 5, 6, 7]
        # eps >= 4(1 - 1/k) makes the qualifying size 0: the empty set violates.
        path = tmp_path / "two.json"
        save(Hypergraph(7, 3, [(0, 1, 2), (2, 3, 4)]), path)
        code, rep = run_json(capsys, "fdense", str(path), "--eps", "4")
        assert code == 0
        assert rep["results"] == {"dense": False, "witness": []}

    def test_fdense_sampled_mode_uses_seed(self, capsys, tmp_path):
        # n = 18 is above the exhaustive limit, so candidate sets are drawn.
        H = build_space_barrier(18, 3, 1, 6)
        path = tmp_path / "barrier18.json"
        save(H, path)
        code, rep = run_json(capsys, "fdense", str(path), "--eps", "1/2", "--seed", "5")
        assert code == 0 and rep["seed"] == 5
        dense, witness = f_density_check(H, Fraction(1, 2), seed=5)
        assert dense is False and rep["results"]["dense"] is False
        assert rep["results"]["witness"] == list(witness)
        assert witness != f_density_check(H, Fraction(1, 2), seed=0)[1]

    def test_absorb_and_round1_and_pipeline(self, capsys, tmp_path):
        path = tmp_path / "k12.json"
        save(complete_hypergraph(12, 3), path)
        code, rep = run_json(
            capsys, "absorb", str(path), "--l", "2", "--a", "1", "--h", "2",
            "--rho", "1/4", "--seed", "3", "--probes", "5",
        )
        assert code == 0 and rep["seed"] == 3
        code, rep = run_json(
            capsys, "round1", str(path), "--copies", "2", "--p", "1/2", "--seed", "1"
        )
        assert code == 0 and rep["results"]["properties"]["pair"]["ok"] is True
        code, rep = run_json(
            capsys, "pipeline", str(path), "--copies", "8", "--p", "1/2",
            "--seed", "2", "--sigma", "1/2",
        )
        assert code == 0
        assert rep["results"]["within_sigma"] is True

    def test_sparsify(self, capsys, tmp_path):
        path = tmp_path / "k9.json"
        save(complete_hypergraph(9, 3), path)
        out = tmp_path / "sub.json"
        code, rep = run_json(
            capsys, "sparsify", str(path), "--copies", "6", "--p", "2/3",
            "--seed", "5", "-o", str(out),
        )
        assert code == 0
        sub = load(out)
        assert sub.n == 9 and set(sub.edges) <= set(complete_hypergraph(9, 3).edges)

    def test_verify_suites(self, capsys):
        code, rep = run_json(capsys, "verify", "--suite", "katona", "--trials", "25", "--seed", "4")
        assert code == 0 and rep["results"]["failures"] == 0
        code, rep = run_json(capsys, "verify", "--suite", "frankl", "--trials", "25", "--seed", "4")
        assert code == 0 and rep["results"]["violations"] == 0
        code, rep = run_json(
            capsys, "verify", "--suite", "stability2", "--trials", "40",
            "--seed", "4", "--n", "10", "--rho", "1/100",
        )
        assert code == 0 and rep["results"]["conclusion_failures"] == 0

    def test_katona_suite_lets_program_errors_propagate(self, capsys, monkeypatch):
        # Only a certification failure counts as a suite failure.
        def broken(H):
            raise TypeError("bug")

        monkeypatch.setattr("hypermatch.stability.katona_check", broken)
        with pytest.raises(TypeError):
            main(["verify", "--suite", "katona", "--trials", "3"])

    def test_sweep_empty_range(self, capsys):
        code, rep = run_json(
            capsys, "sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "8"
        )
        assert code == 0 and rep["results"]["rows"] == []
        _, csv_text = run(
            capsys, "sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "8",
            "--format", "csv",
        )
        assert "results.rows,[]" in csv_text.splitlines()

    def test_sweep_reference_row(self, capsys):
        code, rep = run_json(
            capsys, "sweep", "--k", "3", "--l", "2",
            "--n-start", "9", "--n-end", "9", "--m-list", "2",
        )
        rows = rep["results"]["rows"]
        row = next(r for r in rows if r["m"] == 2)
        assert row["threshold"] == 2
        assert row["barrier_min_l_degree"] == 2
        assert row["barrier_nu"] == 2

    def test_sweep_m_range_with_absorber_ceiling_two(self, capsys):
        mu = Fraction(1, 4)
        # (6, 4, 13) has 3l >= 2k but r = n mod k < k - l: m = ceil(n/k) - 2 = 1
        # lies above the range and gets no row.
        for k, l, n_start, n_end, a in [(5, 3, 10, 12, 2), (6, 4, 13, 13, 1)]:
            assert a == ceil(Fraction(k - l, 2 * l - k))
            code, rep = run_json(
                capsys, "sweep", "--k", str(k), "--l", str(l),
                "--n-start", str(n_start), "--n-end", str(n_end),
            )
            assert code == 0
            rows = rep["results"]["rows"]
            got = {}
            for row in rows:
                got.setdefault(row["n"], set()).add(row["m"])
            # Exactly n/k - mu*n <= m <= n/k - 1 - (1 - l/k)*a.
            lower = lambda n: Fraction(n, k) - mu * n
            upper = lambda n: Fraction(n, k) - 1 - (1 - Fraction(l, k)) * a
            expected = {
                n: {m for m in range(n - l + 1) if lower(n) <= m <= upper(n)}
                for n in range(n_start, n_end + 1)
            }
            assert got == expected
            assert all(row["tight"] for row in rows)


class TestErrorSurface:
    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 4, "k": 2, "edges": [[0,1],[0,1]]}')
        code, rep = run_json(capsys, "nu", str(bad))
        assert code == 1 and rep["error"]["type"] == "DomainError"

    def test_berge_requires_graphs(self, capsys, fano_file):
        code, rep = run_json(capsys, "berge", fano_file)
        assert code == 1 and "k=2" in rep["error"]["message"]

    def test_size_guard_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        save(Hypergraph(25, 2, [(0, 1)]), path)
        code, rep = run_json(capsys, "berge", str(path))
        assert code == 2 and rep["error"]["type"] == "SizeLimitError"

    def test_absorption_stuck_exit_code(self, capsys, tmp_path):
        path = tmp_path / "k30.json"
        save(complete_hypergraph(30, 3), path)
        code, rep = run_json(
            capsys, "absorb", str(path), "--l", "2", "--a", "1", "--h", "2",
            "--rho", "1/20", "--seed", "42", "--probes", "0",
            "--absorb-set", "0,2,3,4,5,6,7,8",
        )
        assert code == 3 and rep["error"]["type"] == "AbsorptionStuckError"

    def test_unknown_flag_is_domain_error(self, capsys, fano_file):
        code, rep = run_json(capsys, "nu", fano_file, "--nope")
        assert code == 1

    @pytest.mark.parametrize(
        "content, argv, message",
        [
            pytest.param(b'{"n": 4, "k": 2, "edges": null}', ["nu", "{file}"], None, id="edges-null"),
            pytest.param(b'{"n": 4, "k": 2, "edges": [5]}', ["nu", "{file}"], None, id="edge-not-list"),
            pytest.param(b'{"n": 4, "k": 2, "edges": [["a", 1]]}', ["nu", "{file}"], None, id="string-vertex"),
            pytest.param(b'{"n": true, "k": 1, "edges": [[0]]}', ["nu", "{file}"], None, id="bool-n"),
            pytest.param(b'{"n": 4, "k": true, "edges": [[0]]}', ["nu", "{file}"], None, id="bool-k"),
            pytest.param(b'{"n": 4, "k": 2, "edges": [[false, true]]}', ["nu", "{file}"], None, id="bool-vertices"),
            pytest.param(b'{"n": 4, "k": 2, "edges": [[0.0, 1]]}', ["nu", "{file}"], None, id="float-vertex"),
            pytest.param(b"\xff\xfe", ["nu", "{file}"], None, id="not-utf8"),
            pytest.param(None, ["nu", "{file}"], None, id="missing-file"),
            pytest.param(
                None,
                ["construct", "--family", "clique-minus", "--n", "6", "--k", "3", "-o", "{dir}/out.json"],
                None,
                id="output-dir-missing",
            ),
            pytest.param(
                b'{"n": 6, "k": 3, "edges": [[0, 1, 2]]}',
                ["round1", "{file}", "--copies", "1", "--p", "0", "--probe-set", "0,1,2,3"],
                None,
                id="probe-set-above-k",
            ),
            pytest.param(
                b'{"n": 6, "k": 3, "edges": [[0, 1, 2]]}',
                ["round1", "{file}", "--copies", "1", "--p", "1", "--probe-set", "99"],
                None,
                id="probe-vertex-outside",
            ),
            pytest.param(None, ["verify", "--suite", "stability2", "--rho", "0"], None, id="stability2-rho-zero"),
            pytest.param(None, ["verify", "--suite", "stability2", "--n", "2"], None, id="stability2-n-below-three"),
            pytest.param(None, ["verify", "--suite", "katona", "--trials", "-3"], None, id="negative-trials"),
            pytest.param(
                to_json(complete_hypergraph(9, 3)).encode(),
                ["absorb", "{file}", "--l", "2", "--a", "1", "--h", "2", "--rho", "1/5", "--probes", "-4"],
                None,
                id="negative-probes",
            ),
            pytest.param(
                None,
                ["sweep", "--k", "3", "--l", "2", "--n-start", "6", "--n-end", "6", "--search-trials", "-2"],
                None,
                id="negative-search-trials",
            ),
            pytest.param(
                b'{"n": 6, "k": 3, "edges": [[0, 1, 2]]}',
                ["round1", "{file}", "--copies", "1", "--p", "abc"],
                "argument --p: expected a rational like p/q, got 'abc'",
                id="p-not-rational",
            ),
            pytest.param(
                b'{"n": 6, "k": 3, "edges": [[0, 1, 2]]}',
                ["round1", "{file}", "--copies", "1", "--p", "1/0"],
                "argument --p: expected a rational like p/q, got '1/0'",
                id="p-zero-denominator",
            ),
            pytest.param(
                None,
                ["sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "9", "--m-list", "a"],
                "argument --m-list: expected comma-separated integers, got 'a'",
                id="m-list-not-integer",
            ),
            pytest.param(
                None,
                ["sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "9", "--m-list", "1,,2"],
                "argument --m-list: expected comma-separated integers, got '1,,2'",
                id="m-list-empty-item",
            ),
        ],
    )
    def test_malformed_input_is_domain_error(self, capsys, tmp_path, content, argv, message):
        path = tmp_path / "in.json"
        if content is not None:
            path.write_bytes(content)
        argv = [a.format(file=path, dir=tmp_path / "no-such-dir") for a in argv]
        code, rep = run_json(capsys, *argv)
        assert code == 1
        assert list(rep) == ["error"] and rep["error"]["type"] == "DomainError"
        assert "outside" not in rep["error"]["message"]
        if message is not None:
            assert rep["error"]["message"] == message


class TestReportDiscipline:
    def test_replay_is_byte_identical(self, capsys, barrier_file):
        _, first = run(capsys, "nu", barrier_file)
        _, second = run(capsys, "nu", barrier_file)
        assert first == second

    def test_csv_agrees_with_json_field_for_field(self, capsys, tmp_path, barrier_file):
        _, payload = run_json(capsys, "degrees", barrier_file, "--l", "1")
        _, csv_text = run(capsys, "degrees", barrier_file, "--l", "1", "--format", "csv")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert fields["results.min_degree"] == "13"
        assert fields["command"] == "degrees"
        # Every scalar leaf of the JSON payload appears in the CSV.
        assert str(payload["results"]["l"]) == fields["results.l"]
        # An empty container is a leaf too: nu on an edgeless host has no witness.
        path = tmp_path / "edgeless.json"
        save(Hypergraph(6, 3, []), path)
        _, payload = run_json(capsys, "nu", str(path))
        _, csv_text = run(capsys, "nu", str(path), "--format", "csv")
        fields = dict(line.split(",", 1) for line in csv_text.strip().splitlines()[1:])
        assert payload["results"]["witness"] == [] and fields["results.witness"] == "[]"

    def test_reports_echo_parameters_and_seed(self, capsys, tmp_path):
        path = tmp_path / "k9.json"
        save(complete_hypergraph(9, 3), path)
        _, rep = run_json(
            capsys, "round1", str(path), "--copies", "3", "--p", "1/2", "--seed", "8"
        )
        assert rep["seed"] == 8
        assert rep["parameters"]["copies"] == 3
        assert rep["parameters"]["p"] == "1/2"
        assert rep["claim"]
