import gc
import json
from fractions import Fraction
from math import ceil, comb
from time import perf_counter

import pytest

from hypermatch import (
    Hypergraph,
    build_space_barrier,
    build_space_barrier_at,
    complete_hypergraph,
    f_density_check,
    is_stable,
    load,
    save,
    to_json,
)
from hypermatch import core, exact, pipeline
from hypermatch.cli import main
from hypermatch.rng import random_hypergraph
from hypermatch.stability import StabilityResult

from conftest import cli_under_a_memory_cap


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

    def test_nu_on_a_long_sparse_host(self, capsys, tmp_path):
        # Recursion depth follows the matching number, not the vertex count.
        path = tmp_path / "long.json"
        save(Hypergraph(1500, 2, [(0, 1)]), path)
        code, rep = run_json(capsys, "nu", str(path))
        assert code == 0 and rep["results"]["size"] == 1

    def test_nu_deeper_than_the_recursion_limit_is_a_size_error(self, capsys, tmp_path):
        # 1,500 disjoint pairs: the search recurses once per matching edge.
        path = tmp_path / "pairs.json"
        save(Hypergraph(3000, 2, [(2 * i, 2 * i + 1) for i in range(1500)]), path)
        for force in ([], ["--force"]):
            code, rep = run_json(capsys, "nu", str(path), *force)
            assert code == 2 and rep["error"]["type"] == "SizeLimitError"
            assert "recursion limit" in rep["error"]["message"]
            assert "--force does not lift this" in rep["error"]["message"]

    def test_alpha_on_a_long_sparse_host(self, capsys, tmp_path):
        # The independent-set search keeps its own stack, so depth is not bounded by recursion.
        path = tmp_path / "long.json"
        save(Hypergraph(1500, 2, [(0, 1)]), path)
        code, rep = run_json(capsys, "alpha", str(path))
        assert code == 0 and rep["results"]["size"] == 1499
        assert rep["results"]["witness"] == [0] + list(range(2, 1500))

    def test_degrees(self, capsys, barrier_file):
        code, rep = run_json(capsys, "degrees", barrier_file, "--l", "2")
        assert rep["results"]["min_degree"] == 2
        code, rep = run_json(capsys, "degrees", barrier_file, "--set", "5")
        assert rep["results"]["degree"] == 13

    def test_degrees_refuses_l_with_set(self, capsys, barrier_file):
        # --l has no effect on a set degree, so a report must not echo it.
        code, rep = run_json(capsys, "degrees", barrier_file, "--l", "2", "--set", "0,1")
        assert code == 1
        assert rep == {"error": {"type": "DomainError", "message": "degrees takes --l or --set, not both"}}

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
        assert rep["results"] == {"dense": False, "witness": [], "mode": "exhaustive"}

    def test_fdense_sampled_mode_uses_seed(self, capsys, tmp_path):
        # n = 18 is above the exhaustive limit, so candidate sets are drawn.
        H = build_space_barrier(18, 3, 1, 6)
        path = tmp_path / "barrier18.json"
        save(H, path)
        code, rep = run_json(capsys, "fdense", str(path), "--eps", "1/2", "--seed", "5")
        assert code == 0 and rep["seed"] == 5
        assert rep["results"]["mode"] == "sampled"
        dense, witness = f_density_check(H, Fraction(1, 2), seed=5)
        assert dense is False and rep["results"]["dense"] is False
        assert rep["results"]["witness"] == list(witness)
        assert witness != f_density_check(H, Fraction(1, 2), seed=0)[1]

    def test_fdense_force_scans_every_set_above_the_limit(self, capsys, tmp_path):
        path = tmp_path / "k17.json"
        save(complete_hypergraph(17, 2), path)
        code, rep = run_json(capsys, "fdense", str(path), "--eps", "1/2")
        assert code == 0 and rep["results"] == {"dense": True, "witness": None, "mode": "sampled"}
        code, rep = run_json(capsys, "fdense", str(path), "--eps", "1/2", "--force")
        assert code == 0 and rep["results"] == {"dense": True, "witness": None, "mode": "exhaustive"}

    def test_closest_above_the_limit_searches_locally_unless_forced(self, capsys, tmp_path):
        path = tmp_path / "barrier17.json"
        save(build_space_barrier_at(17, 3, 3, (4, 9)), path)
        code, rep = run_json(capsys, "closest", str(path), "--m", "2", "--s", "3", "--seed", "3")
        assert code == 0 and rep["results"]["mode"] == "local-search-heuristic"
        assert rep["results"]["deficit"] >= 0  # a labelled heuristic value, not certified
        code, rep = run_json(capsys, "closest", str(path), "--m", "2", "--s", "3", "--force")
        assert code == 0
        assert rep["results"] == {"w_best": [4, 9], "deficit": 0, "mode": "exhaustive"}

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

    def test_stability2_suite_skips_only_a_matching_number_above_m(self, capsys, monkeypatch):
        # Every trial of a host wrongly reported unstable used to count as a nu > m skip, exit 0.
        monkeypatch.setattr("hypermatch.stability.is_stable", lambda H: StabilityResult(False, None))
        code, rep = run_json(capsys, "verify", "--suite", "stability2", "--trials", "5", "--seed", "4")
        assert code == 1 and list(rep) == ["error"]
        assert rep["error"] == {"type": "DomainError", "message": "hypothesis failed: H is not stable, witness None"}

    def test_sweep_empty_range(self, capsys):
        code, rep = run_json(
            capsys, "sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "8"
        )
        assert code == 0 and rep["results"]["rows"] == []

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

    def test_absorb_guards_its_candidate_count_and_force_lifts_it(self, capsys, tmp_path):
        # C(30, 10) = 30,045,015 candidates are refused before the first draw;
        # C(94, 3) = 134,044 is just over core.ENUMERATE_MAX_KSETS = 131,072.
        path = tmp_path / "h5.json"
        save(Hypergraph(30, 5, [(0, 1, 2, 3, 4)]), path)
        code, rep = run_json(
            capsys, "absorb", str(path), "--l", "3", "--a", "2", "--h", "3", "--rho", "1/5", "--seed", "1",
        )
        assert code == 2 and rep["error"]["type"] == "SizeLimitError"
        assert "got C(30, 10) > 131072" in rep["error"]["message"]
        path = tmp_path / "h3.json"
        save(Hypergraph(94, 3, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(31)]), path)
        absorb = ["absorb", str(path), "--l", "2", "--a", "1", "--h", "2", "--rho", "1/5", "--probes", "0"]
        code, rep = run_json(capsys, *absorb)
        assert code == 2 and "got C(94, 3) > 131072" in rep["error"]["message"]
        code, rep = run_json(capsys, *absorb, "--force")
        assert code == 0 and rep["results"]["diagnostics"]["p"] == str(Fraction(94, 5 * 134044))

    def test_sweep_checks_its_largest_row_first(self, capsys):
        # Row by row, this sweep ran to n = 31 before the matching budget ran out.
        code, rep = run_json(capsys, "sweep", "--k", "3", "--l", "2", "--n-start", "6", "--n-end", "99")
        assert code == 2 and rep["error"]["type"] == "SizeLimitError"
        assert rep["error"]["message"].endswith("got C(99, 3) > 131072")

    def test_unknown_flag_is_domain_error(self, capsys, fano_file):
        code, rep = run_json(capsys, "nu", fano_file, "--nope")
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--copies", "0", "--p", "5", "--eps", "-1"],
            ["--copies", "0", "--p", "1/2", "--eps", "-1"],
            ["--copies", "1", "--p=-1/2"],
            ["--copies", "1", "--p", "1/2", "--eps", "0"],
            ["--copies", "100000000000", "--p", "2", "--force"],
        ],
        ids=["p-first", "copies-before-eps", "p-negative", "eps-zero", "p-with-force"],
    )
    def test_edgeless_pipeline_refuses_what_a_one_edge_host_refuses(self, capsys, tmp_path, flags):
        reports = []
        for edges in ([], [(0, 1, 2)]):
            path = tmp_path / "host.json"
            save(Hypergraph(6, 3, edges), path)
            reports.append(run(capsys, "pipeline", str(path), *flags))
        assert reports[0] == reports[1] and reports[0][0] == 1
        assert json.loads(reports[0][1])["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("copies", ["1", "100000000000"])
    def test_edgeless_pipeline_short_circuits_on_valid_flags(self, capsys, tmp_path, copies):
        # An edgeless host draws nothing, so the copies guard does not apply.
        path = tmp_path / "empty.json"
        save(Hypergraph(6, 3, []), path)
        code, rep = run_json(capsys, "pipeline", str(path), "--copies", copies, "--p", "1/2", "--eps", "1/3")
        assert code == 0
        assert rep["results"]["diagnostics"] == {"short_circuit": "host has no edges"}

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
            pytest.param(
                b'{"n": ' + b"1" * 4301 + b', "k": 2, "edges": []}', ["nu", "{file}"], None, id="over-long-integer"
            ),
            pytest.param(b"[" * 100000, ["nu", "{file}"], None, id="deeply-nested"),
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
            pytest.param(
                to_json(complete_hypergraph(6, 3)).encode(),
                ["pipeline", "{file}", "--copies", "3", "--p", "1/2", "--eps", "-1"],
                "eps must be a positive rational",
                id="pipeline-eps-negative",
            ),
            pytest.param(
                to_json(complete_hypergraph(6, 3)).encode(),
                ["pipeline", "{file}", "--copies", "3", "--p", "1/2", "--eps", "0"],
                "eps must be a positive rational",
                id="pipeline-eps-zero",
            ),
            pytest.param(
                to_json(complete_hypergraph(6, 3)).encode(),
                ["sparsify", "{file}", "--copies", "3", "--p", "1/2", "--eps", "-1"],
                "eps must be a positive rational",
                id="sparsify-eps-negative",
            ),
            pytest.param(
                to_json(complete_hypergraph(6, 3)).encode(),
                ["round1", "{file}", "--copies", "3", "--p", "1/2", "--xi", "0"],
                "xi must be a positive rational",
                id="round1-xi-zero",
            ),
            pytest.param(
                to_json(complete_hypergraph(6, 3)).encode(),
                ["round1", "{file}", "--copies", "3", "--p", "1/2", "--xi", "-1"],
                "xi must be a positive rational",
                id="round1-xi-negative",
            ),
            pytest.param(None, ["verify", "--suite", "stability2", "--rho", "0"], None, id="stability2-rho-zero"),
            pytest.param(None, ["verify", "--suite", "stability2", "--n", "2"], None, id="stability2-n-below-three"),
            pytest.param(None, ["verify", "--suite", "katona", "--trials", "-3"], None, id="negative-trials"),
            pytest.param(
                None,
                ["construct", "--family", "parity", "--k", "-1", "--na", "4", "--nb", "3", "-o", "{dir}/x.json"],
                None,
                id="parity-negative-k",
            ),
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
                None,
                ["sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "9", "--search-p", "-1"],
                "--search-p must lie in [0, 1], got -1",
                id="search-p-negative",
            ),
            pytest.param(
                None,
                ["sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "9", "--search-trials", "2", "--search-p", "5/2"],
                "--search-p must lie in [0, 1], got 5/2",
                id="search-p-above-one",
            ),
            pytest.param(
                None,
                ["sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "12", "--mu=-1"],
                "mu must be a positive rational, got -1",
                id="mu-negative",
            ),
            pytest.param(
                None,
                ["sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "12", "--mu=0"],
                "mu must be a positive rational, got 0",
                id="mu-zero",
            ),
            pytest.param(
                None,
                ["sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "8", "--mu=0"],
                "mu must be a positive rational, got 0",
                id="mu-zero-no-rows",
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


@pytest.mark.parametrize(
    "host, message",
    [
        # one edge whose mask alone would be a 12.5 GB integer
        ({"n": 100000000000, "k": 2, "edges": [[0, 99999999999]]}, "n <= "),
        # 5,000 edges of 128 KiB masks each: 655 MB from an 84 KB file
        ({"n": 1 << 20, "k": 2, "edges": [[i, (1 << 20) - 1] for i in range(5000)]}, "edge-mask bits"),
    ],
    ids=["huge-n", "many-wide-edges"],
)
def test_huge_host_ends_in_a_report_under_a_memory_cap(tmp_path, host, message):
    # Each edge is a mask as wide as its largest vertex: both files once died
    # with a bare MemoryError traceback under a 1 GiB address space.
    pytest.importorskip("resource")  # the address-space cap is POSIX only
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(host))
    proc = cli_under_a_memory_cap("nu", path)
    assert proc.returncode == 2, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["error"]["type"] == "SizeLimitError" and message in rep["error"]["message"]


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (["construct", "--family", "space-barrier", "--n", "100000000000", "--k", "2", "--s", "1",
          "--m", "100000000000", "-o", "{out}"], 2, "SizeLimitError"),
        (["construct", "--family", "clique-minus", "--n", "100000000000", "--k", "2", "-o", "{out}"],
         2, "SizeLimitError"),
        (["closeness", "{host}", "--m", "100000000000", "--s", "1"], 1, "DomainError"),
        (["round1", "{host}", "--copies", "100000000000", "--p", "1/2"], 2, "SizeLimitError"),
        (["sparsify", "{host}", "--copies", "100000000000", "--p", "1/2", "-o", "{out}"],
         2, "SizeLimitError"),
        (["pipeline", "{host}", "--copies", "100000000000", "--p", "1/2"], 2, "SizeLimitError"),
        (["round1", "{wide}", "--copies", "1", "--p", "1"], 2, "SizeLimitError"),
        (["round1", "{wide3}", "--copies", "1", "--p", "1"], 2, "SizeLimitError"),
    ],
    ids=["space-barrier", "clique-minus", "closeness", "round1", "sparsify", "pipeline",
         "round1-pairs", "round1-triples"],
)
def test_oversized_flag_ends_in_a_report_under_a_memory_cap(tmp_path, argv, code, kind):
    # Each construct or closeness line once listed range(10^11) as a vertex
    # set and died with a bare MemoryError traceback; n and m are now checked
    # before any set is built. The --copies lines drew copy after copy, with
    # no output, until memory ran out; copies * n is now checked first. The
    # last two lines draw one whole copy of a wide host, well under the copies
    # guard, and then counted its C(20,000, 2) pairs, or C(3,000, 3) triples,
    # until memory ran out; the pair and k-set count is now checked first.
    pytest.importorskip("resource")
    hosts = {
        "host": Hypergraph(6, 2, [(0, 1)]),
        "wide": Hypergraph(20000, 2, [(0, 1)]),
        "wide3": Hypergraph(3000, 3, [(0, 1, 2)]),
    }
    for name, H in hosts.items():
        save(H, tmp_path / f"{name}.json")
    paths = {name: tmp_path / f"{name}.json" for name in hosts}
    argv = [a.format(**paths, out=tmp_path / "out.json") for a in argv]
    start = perf_counter()
    proc = cli_under_a_memory_cap(*argv)
    elapsed = perf_counter() - start
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == "" and proc.stdout.count("\n") == 1
    rep = json.loads(proc.stdout)
    assert list(rep) == ["error"] and rep["error"]["type"] == kind
    assert elapsed < 1.0
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["round1", "sparsify", "pipeline"])
def test_force_lifts_the_copies_guard_and_draws_the_same_copies(capsys, monkeypatch, tmp_path, command):
    host = tmp_path / "k9.json"
    save(complete_hypergraph(9, 3), host)
    argv = [command, str(host), "--copies", "3", "--p", "1/2", "--seed", "4"]
    code, before = run_json(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(pipeline, "ROUND1_MAX_DRAWS", 26)  # copies * n = 27
    code, rep = run_json(capsys, *argv)
    assert code == 2 and rep["error"] == {
        "type": "SizeLimitError",
        "message": "round one enforces copies * n <= 26 vertex draws, got copies=3, n=9",
    }
    code, forced = run_json(capsys, *argv, "--force")
    assert code == 0 and forced["results"] == before["results"]


def test_force_lifts_the_multiplicity_count_guard_and_gives_the_same_report(capsys, monkeypatch, tmp_path):
    host = tmp_path / "k9.json"
    save(complete_hypergraph(9, 3), host)
    argv = ["round1", str(host), "--copies", "3", "--p", "1/2", "--seed", "4"]
    code, before = run_json(capsys, *argv)
    assert code == 0
    count = sum(comb(size, 2) + comb(size, 3) for size in before["results"]["sizes"])
    monkeypatch.setattr(core, "ENUMERATE_MAX_KSETS", count - 1)
    code, rep = run_json(capsys, *argv)
    assert code == 2 and rep["error"]["type"] == "SizeLimitError"
    assert f"C(|copy|, 2) + C(|copy|, k) <= {count - 1}, passed at copy 2" in rep["error"]["message"]
    code, forced = run_json(capsys, *argv, "--force")
    assert code == 0 and forced["results"] == before["results"]


class TestMatchingBudget:
    # Hosts on which the unmemoized branch-and-bound search ran for seconds to
    # minutes; the default budget makes each a deterministic work bound.

    @pytest.mark.parametrize("small_first", [True, False], ids=["5-side-first", "19-side-first"])
    def test_nu_on_k_5_19(self, capsys, tmp_path, small_first):
        small, big = (range(5), range(5, 24)) if small_first else (range(19, 24), range(19))
        path = tmp_path / "k5_19.json"
        save(Hypergraph(24, 2, [tuple(sorted((a, b))) for a in small for b in big]), path)
        code, rep = run_json(capsys, "nu", str(path))
        assert code == 0 and rep["results"]["size"] == 5
        first = [[v, 5 + v] for v in range(5)] if small_first else [[v, 19 + v] for v in range(5)]
        assert rep["results"]["witness"] == first

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--k", "3", "--l", "2", "--n-start", "18", "--n-end", "18"],
            ["verify", "--suite", "stability2", "--n", "20", "--trials", "20"],
        ],
        ids=["sweep-n18", "stability2-n20"],
    )
    def test_former_runaways_return(self, capsys, argv):
        code, rep = run_json(capsys, *argv)
        assert code == 0 and rep["command"] == argv[0]

    def test_dense_barrier_exceeds_the_budget(self, capsys, tmp_path):
        path = tmp_path / "h4.json"
        save(build_space_barrier(30, 4, 4, 7), path)
        code, rep = run_json(capsys, "nu", str(path))
        assert code == 2 and rep["error"]["type"] == "SizeLimitError"
        assert "search evaluations" in rep["error"]["message"]

    def test_force_lifts_the_budget_for_nu_only(self, capsys, barrier_file, monkeypatch):
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 2)
        code, rep = run_json(capsys, "nu", barrier_file)
        assert code == 2 and rep["error"]["type"] == "SizeLimitError"
        code, rep = run_json(capsys, "nu", barrier_file, "--force")
        assert code == 0 and rep["results"]["size"] == 2
        sweep = ["sweep", "--k", "3", "--l", "2", "--n-start", "9", "--n-end", "9", "--force"]
        code, rep = run_json(capsys, *sweep)
        assert code == 2 and rep["error"]["type"] == "SizeLimitError"

    def test_sparse_graph_exceeds_the_alpha_budget(self, capsys, tmp_path):
        # With --force the search runs for seconds and reports alpha = 18.
        path = tmp_path / "g40.json"
        save(random_hypergraph(40, 2, Fraction(1, 10), 0), path)
        code, rep = run_json(capsys, "alpha", str(path))
        assert code == 2 and rep["error"]["type"] == "SizeLimitError"
        assert rep["error"]["message"].endswith("search nodes; n=40, e=72")

    def test_force_lifts_the_budget_for_alpha_but_not_the_pipeline_gate(self, capsys, barrier_file, monkeypatch):
        monkeypatch.setattr(exact, "MATCHING_MAX_NODES", 2)
        code, rep = run_json(capsys, "alpha", barrier_file)
        assert code == 2 and "independence search" in rep["error"]["message"]
        code, rep = run_json(capsys, "alpha", barrier_file, "--force")
        assert code == 0 and rep["parameters"]["force"] is True and rep["results"]["size"] == 7
        code, rep = run_json(capsys, "pipeline", barrier_file, "--copies", "1", "--p", "1", "--force")
        assert code == 2 and "independence search" in rep["error"]["message"]


class TestCollectorPause:
    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("kind", ["report", "error", "exception"])
    def test_paused_during_the_command_and_restored_after(
        self, capsys, monkeypatch, fano_file, tmp_path, kind, collecting
    ):
        # `main` runs the command with the cyclic collector paused, then restores
        # the caller's setting, however the command ends.
        seen = []  # whether the collector ran while the host was read
        load = core.load

        def spy(path):
            seen.append(gc.isenabled())
            if kind == "exception":
                raise RuntimeError("handler bug")
            return load(path)

        monkeypatch.setattr(core, "load", spy)
        if not collecting:
            gc.disable()
        try:
            if kind == "exception":
                with pytest.raises(RuntimeError, match="handler bug"):
                    main(["nu", fano_file])
            elif kind == "error":
                assert run(capsys, "nu", str(tmp_path / "missing.json"))[0] == 1
            else:
                assert run(capsys, "nu", fano_file)[0] == 0
            assert gc.isenabled() == collecting
        finally:
            gc.enable()
        assert seen == [False]


class TestReportDiscipline:
    def test_replay_is_byte_identical(self, capsys, barrier_file):
        _, first = run(capsys, "nu", barrier_file)
        _, second = run(capsys, "nu", barrier_file)
        assert first == second

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
