"""Command line interface: exit codes, schemas and reproducibility."""

import json

import numpy as np
import pytest

from bethegauge import bridge, cli, solve
from bethegauge.cli import run
from bethegauge.chain import ORACLE_MAX_SITES, BetheRoots, ChainSpec, _check_oracle
from bethegauge.gauge import BRANCH_PLUS, GaugeTheorySpec, vacuum_lhs
from bethegauge.solve import SolveConfig, solve_bethe, solve_vacuum


def _json_doc(capsys, argv):
    code = run(argv + ["--json", "--no-timestamp"])
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_zero_on_success(capsys):
    assert run(["roots", "--family", "A", "--rank", "4"]) == 0
    capsys.readouterr()


def test_exit_one_on_check_failure(capsys):
    # forcing the minus-branch preset onto the plus branch must fail loudly
    code = run(["verify", "--preset", "B-3d-P5", "--branch", "+", "--samples", "5"])
    assert code == 1
    capsys.readouterr()


def test_exit_one_on_value_error(capsys):
    # the arguments parse; the open-chain dictionary then refuses an odd N_f
    code = run(["verify", "--preset", "B-3d-P1", "--nf", "3", "--samples", "5"])
    assert code == 1
    assert ("error: open-chain dictionaries need an even number of fundamentals"
            in capsys.readouterr().err)


def test_exit_two_on_parse_failure(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["roots", "--family", "Z", "--rank", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


#: one run of each subcommand, a failing verify and cross-check among them
_EVERY_SUBCOMMAND = [
    ["roots", "--family", "E8", "--rank", "8"],
    ["specfun-selftest"],
    ["vacuum", "--family", "B", "--rank", "2"],
    ["bethe", "--kind", "closed-xxx", "--sites", "4", "--magnons", "2", "--eta", "0.3",
     "--u", "0.1+0.2j,-0.25"],
    ["chain-oracle", "--kind", "open-xxz"],
    ["verify", "--preset", "B-3d-P1", "--samples", "5"],
    ["verify", "--preset", "B-3d-P5", "--branch", "+", "--samples", "5"],
    ["calibrate", "--family", "B", "--regime", "3d", "--samples", "5"],
    ["duality-compare", "--family", "C", "--rank", "2", "--samples", "5"],
    ["solve-bethe", "--kind", "closed-xxz", "--sites", "4", "--magnons", "1", "--eta", "0.3",
     "--starts", "8"],
    ["solve-vacuum", "--family", "B", "--rank", "2", "--starts", "8"],
    ["cross-check", "--preset", "A-3d", "--starts", "8"],
    ["cross-check", "--preset", "D-3d", "--rank", "1", "--nf", "2"],
    ["report-all"],
]
#: the subcommands that evaluate without grading: no ``pass``, exit 0
_UNGRADED = {"vacuum", "bethe", "solve-bethe", "solve-vacuum"}


def test_the_exit_code_contract_runs_every_subcommand():
    names = cli.build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in _EVERY_SUBCOMMAND} == set(names) and len(names) == 12


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=" ".join)
def test_exit_code_is_one_exactly_when_the_report_fails(capsys, argv):
    code = run(argv + ["--json", "--no-timestamp"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == (1 if doc.get("pass") is False else 0)
    assert ("pass" in doc) == (argv[0] not in _UNGRADED)


def test_csv_unsupported_payload(capsys):
    with pytest.raises(SystemExit):
        run(["specfun-selftest", "--csv"])
    capsys.readouterr()


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def _refusal(build):
    """The message of the ValueError that building a library input raises."""
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


def _chain(kind="closed-xxz", sites=3, magnons=1, eta=0.3, **boundary):
    return ChainSpec(kind, sites, magnons, eta, (0.5,) * sites, (0.0,) * sites, **boundary)


CHAIN_FLAGS = ["--kind", "closed-xxz", "--sites", "3", "--magnons", "1"]
OPEN_FLAGS = ["solve-bethe", "--kind", "open-xxz", "--sites", "4", "--magnons", "2", "--eta", "0.3"]


@pytest.mark.parametrize("argv,build", [
    (["solve-bethe", "--kind", "open-xxz", "--sites", "3", "--magnons", "1", "--eta", "0.3"],
     lambda: _chain("open-xxz")),
    (["bethe"] + CHAIN_FLAGS + ["--eta", "1", "--u", "0.2"], lambda: _chain(eta=1.0)),
    (["solve-bethe"] + CHAIN_FLAGS + ["--eta", "0.3", "--xi-plus", "0.1"],
     lambda: _chain(xi_plus=0.1)),
    (["bethe", "--kind", "closed-xxz", "--sites", "3", "--magnons", "2", "--eta", "0.3",
      "--u", "0.2,0.2"], lambda: BetheRoots((0.2, 0.2))),
    (["chain-oracle", "--kind", "closed-xxz", "--eta", "0"], lambda: _chain(eta=0.0)),
    (OPEN_FLAGS + ["--xi-plus=infj", "--xi-minus", "0.2"],
     lambda: _chain("open-xxz", 4, 2, xi_plus=complex("infj"), xi_minus=0.2)),
    (OPEN_FLAGS + ["--xi-plus=nan", "--xi-minus=-infj"],
     lambda: _chain("open-xxz", 4, 2, xi_plus=complex("nan"), xi_minus=complex("-infj"))),
    (["solve-bethe", "--kind", "open-xxx", "--sites", "4", "--magnons", "2", "--eta", "0.3",
      "--xi-plus=infj", "--xi-minus=-infj"],
     lambda: _chain("open-xxx", 4, 2, xi_plus=complex("infj"), xi_minus=complex("-infj"))),
], ids=["open-without-xi", "integer-eta", "xi-on-closed", "coincident-u", "oracle-eta-zero",
        "lone-infinite-xi", "nan-xi", "infinite-xi-on-xxx"])
def test_exit_two_with_the_message_of_the_library_input_it_refuses(capsys, argv, build):
    # the CLI prints the library's own statement of the rule, not a copy of it
    assert "error: %s\n" % _refusal(build) in _usage_error(capsys, argv)


def test_exit_two_on_mismatched_masses(capsys):
    err = _usage_error(capsys, ["vacuum", "--family", "B", "--rank", "2", "--nf", "2",
                                "--masses", "0.1"])
    assert "expected 2 fundamental masses" in err


@pytest.mark.parametrize("argv", [["bethe", "--u", "0.2"], ["solve-bethe"]])
def test_exit_two_without_sites_or_spins(capsys, argv):
    err = _usage_error(capsys, argv + ["--kind", "closed-xxz", "--magnons", "1", "--eta", "0.3"])
    assert "need --sites" in err


@pytest.mark.parametrize("argv,message", [
    (["vacuum", "--family", "B", "--rank", "2", "--sigma", "0.1"],
     "sigma must have 2 components"),
    (["vacuum", "--family", "A", "--rank", "2", "--nf", "2", "--masses-anti", "0.1"],
     "got 1 anti-fundamental masses for --nf 2"),
    (["solve-vacuum", "--family", "A", "--rank", "2", "--nf", "1", "--masses-anti", "0.1,0.2"],
     "got 2 anti-fundamental masses for --nf 1"),
    (["vacuum", "--family", "B", "--rank", "2", "--nf", "2", "--masses-anti", "0.1",
      "--realization", "I"], "got 1 anti-fundamental masses for --nf 2"),
    (["vacuum", "--family", "E8", "--rank", "3"], "E8 has rank 8"),
    (["vacuum", "--family", "F4", "--rank", "2"], "F4 has rank 4"),
    (["vacuum", "--family", "E8", "--rank", "8", "--realization", "I"],
     "realization I is only defined for the classical families"),
    (["vacuum", "--family", "F4", "--rank", "4", "--realization", "I"],
     "realization I is only defined for the classical families"),
    (["verify", "--preset", "B-3d-P9"], "invalid choice: 'B-3d-P9'"),
    (["cross-check", "--preset", "nope"], "invalid choice: 'nope'"),
])
def test_exit_two_on_gauge_list_lengths(capsys, argv, message):
    assert message in _usage_error(capsys, argv)


def test_chain_oracle_exits_two_above_the_dense_cap(capsys):
    sites = ORACLE_MAX_SITES + 1
    err = _usage_error(capsys, ["chain-oracle", "--sites", str(sites)])
    assert "error: %s\n" % _refusal(lambda: _check_oracle(sites, (0.5,) * sites)) in err


@pytest.mark.parametrize("family,rank,message", [
    ("E8", "3", "E8 has rank 8"), ("F4", "2", "F4 has rank 4"), ("E6", "7", "E6 has rank 6"),
])
def test_roots_exits_two_on_a_rank_the_name_contradicts(capsys, family, rank, message):
    assert message in _usage_error(capsys, ["roots", "--family", family, "--rank", rank])
    assert run(["roots", "--family", family, "--rank", family[1]]) == 0


@pytest.mark.parametrize("argv", [
    ["vacuum", "--family", "B", "--rank", "2", "--masses-anti", "0.1,0.2"],
    ["solve-vacuum", "--family", "C", "--rank", "2", "--nf", "2", "--masses-anti", "0.1,0.2"],
    ["vacuum", "--family", "E8", "--rank", "8", "--masses-anti", "0.1,0.2"],
])
def test_exit_two_on_anti_masses_outside_a_and_realization_one(capsys, argv):
    # realization II of B, C, D and the exceptional families takes no anti-fundamental masses
    assert "anti-fundamental masses only enter the A family or realization I" in _usage_error(
        capsys, argv)


def test_realization_one_reads_the_anti_masses(capsys):
    argv = ["vacuum", "--family", "B", "--rank", "2", "--nf", "2", "--masses", "0.31,0.52",
            "--m-adj", "0.23", "--sigma", "0.4,1.3", "--realization", "I"]
    spec = GaugeTheorySpec("B", 2, 2, (0.31, 0.52), 0.23, realization="I",
                           masses_anti=(0.17, 0.44))
    lhs = [vacuum_lhs(spec, np.array([0.4, 1.3]), j) for j in range(2)]
    _, doc = _json_doc(capsys, argv + ["--masses-anti", "0.17,0.44"])
    assert [complex(v["re"], v["im"]) for v in doc["lhs"]] == lhs
    _, plain = _json_doc(capsys, argv)  # without the list, the fundamental masses
    assert plain["lhs"] != doc["lhs"]
    found = solve_vacuum(spec, BRANCH_PLUS, SolveConfig(seed=0))
    _, doc = _json_doc(capsys, ["solve-vacuum"] + argv[1:11] + ["--realization", "I",
                                                                 "--masses-anti", "0.17,0.44"])
    assert found and [s["sigma"] for s in doc["solutions"]] == [list(s) for s in found]


@pytest.mark.parametrize("subcommand", ["specfun-selftest", "chain-oracle"])
def test_exit_two_on_csv_without_table(capsys, subcommand):
    assert "--csv" in _usage_error(capsys, [subcommand, "--csv"])


def test_exit_two_on_malformed_seed_environment(capsys, monkeypatch):
    monkeypatch.setenv("BGL_SEED", "abc")
    assert "'abc'" in _usage_error(capsys, ["roots", "--family", "A", "--rank", "2"])
    # an explicit --seed never reads the environment
    assert run(["roots", "--family", "A", "--rank", "2", "--seed", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("family,rank", [("F4", "4"), ("E8", "8")])
def test_exit_two_on_rational_regime_outside_classical(capsys, family, rank):
    err = _usage_error(capsys, ["vacuum", "--family", family, "--rank", rank, "--nf", "0",
                                "--regime", "2d"])
    assert "2d regime covers only" in err


@pytest.mark.parametrize("argv,message", [
    (["bethe", "--sites", "3", "--spins", "0.5,0.5", "--u", "0.2"],
     "spins and inhomogeneities must have length 3"),
    (["solve-bethe", "--sites", "3", "--thetas", "0.1"],
     "spins and inhomogeneities must have length 3"),
    (["solve-bethe", "--spins", "0.5,0.5", "--thetas", "0.1,0.2,0.3"],
     "spins and inhomogeneities must have length 2"),
    (["bethe", "--sites", "3", "--u", "0.1,0.2"], "expected 1 roots, got 2"),
], ids=["argv%d" % k for k in range(4)])
def test_exit_two_on_chain_list_lengths(capsys, argv, message):
    err = _usage_error(capsys, argv + ["--kind", "closed-xxz", "--magnons", "1", "--eta", "0.3"])
    assert message in err


SOLVE_COMMANDS = {
    "solve-bethe": ["solve-bethe", "--kind", "closed-xxz", "--sites", "3", "--magnons", "1",
                    "--eta", "0.3"],
    "solve-vacuum": ["solve-vacuum", "--family", "B", "--rank", "2", "--nf", "2"],
    "cross-check": ["cross-check", "--preset", "B-2d"],
}


@pytest.mark.parametrize("command", sorted(SOLVE_COMMANDS))
@pytest.mark.parametrize("tol", [solve.DEDUP_TOL, 1e-5])
def test_exit_two_on_a_tol_the_deduplication_swallows(capsys, command, tol):
    err = _usage_error(capsys, SOLVE_COMMANDS[command] + ["--tol", repr(tol)])
    assert "tol must be smaller than DEDUP_TOL = 1e-06" in err


@pytest.mark.parametrize("command", ["solve-bethe", "solve-vacuum"])
def test_exit_two_on_too_few_iterations(capsys, command):
    err = _usage_error(capsys, SOLVE_COMMANDS[command] + ["--max-iter", str(solve.MIN_ITER - 1)])
    assert "max_iter must be at least %d" % solve.MIN_ITER in err
    assert run(SOLVE_COMMANDS[command] + ["--max-iter", str(solve.MIN_ITER), "--starts", "2"]) == 0
    capsys.readouterr()


def test_parser_is_built_once(monkeypatch, capsys):
    parser = cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run(["roots", "--family", "A", "--rank", "2"]) == 0
    assert cli._parser() is parser
    capsys.readouterr()


def test_repeated_runs_build_the_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv in (["specfun-selftest"], ["roots", "--family", "A", "--rank", "2"],
                     ["solve-bethe", "--kind", "closed-xxz", "--sites", "3", "--magnons", "1",
                      "--eta", "0.3", "--starts", "4"], ["specfun-selftest"]):
            assert run(argv) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------


def test_roots_json_schema(capsys):
    code, doc = _json_doc(capsys, ["roots", "--family", "E8", "--rank", "8"])
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["command"] == "roots"
    assert doc["count"] == 240
    assert doc["expected"] == 240
    assert doc["weight_factor_histogram"] == {"2": 240}
    assert "timestamp" not in doc


def test_roots_csv_lists_every_root(capsys):
    code = run(["roots", "--family", "D", "--rank", "3", "--csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 12  # header + one row per root


@pytest.mark.parametrize("family", ["A", "D"])
def test_roots_of_a_rank_one_family_without_roots(capsys, family):
    argv = ["roots", "--family", family, "--rank", "1"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "family %s rank 1: 0 roots (expected 0)\n" % family
    code, doc = _json_doc(capsys, argv)
    assert code == 0
    assert (doc["count"], doc["expected"], doc["weight_factor_histogram"]) == (0, 0, {})
    assert run(argv + ["--csv"]) == 0
    assert capsys.readouterr().out == "index,x0\n"  # the header alone


def test_timestamp_only_when_requested(capsys):
    run(["roots", "--family", "A", "--rank", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc


def test_specfun_selftest(capsys):
    assert run(["specfun-selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_vacuum_at_exact_solution(capsys):
    code, doc = _json_doc(
        capsys,
        ["vacuum", "--family", "C", "--rank", "1", "--nf", "2",
         "--masses", "0.26,0.41", "--m-adj", "0.17",
         "--sigma", "1.5707963267948966"],
    )
    assert code == 0
    assert doc["residuals"][0] < 1e-12
    assert doc["branch"] == 1


def test_bethe_at_frozen_root(capsys):
    code, doc = _json_doc(
        capsys,
        ["bethe", "--kind", "closed-xxz", "--sites", "3", "--magnons", "1",
         "--eta", "0.317", "--thetas", "0.03,-0.07,0.11",
         "--u", "0.3646017624694252"],
    )
    assert code == 0
    assert max(doc["residuals"]) < 1e-10


def test_chain_oracle(capsys):
    code, doc = _json_doc(capsys, ["chain-oracle"])
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "yang_baxter" in names
    assert doc["pass"] is True


def test_chain_oracle_takes_no_magnon_number(capsys):
    # no check of the oracle depends on a magnon number, so none is taken or reported
    assert "unrecognized arguments: --magnons 1" in _usage_error(
        capsys, ["chain-oracle", "--magnons", "1"])
    code, doc = _json_doc(capsys, ["chain-oracle"])
    assert code == 0
    assert {"kind", "sites", "eta", "checks", "pass"} <= set(doc)
    assert not [key for key in doc if "magnon" in key]


def test_chain_oracle_checks_the_reflection_equation_at_both_boundaries(monkeypatch, capsys):
    seen = []
    reflection = cli.reflection_residual

    def recorded(u, v, xi, ctx):
        seen.append((xi, reflection(u, v, xi, ctx)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "reflection_residual", recorded)
    code, doc = _json_doc(capsys, ["chain-oracle", "--kind", "open-xxz", "--seed", "3"])
    assert code == 0
    rng = np.random.default_rng(3)
    rng.uniform(0.2, 0.4)  # eta
    xi_plus, xi_minus = rng.uniform(-0.4, 0.4, size=2)
    assert sorted(xi for xi, _ in seen) == sorted([xi_plus, xi_minus])
    (check,) = [c for c in doc["checks"] if c["name"] == "reflection"]
    assert check["value"] == max(value for _, value in seen)


def test_chain_oracle_takes_eta_zero(capsys):
    # --eta 0 is a value, not a request for a drawn eta
    assert "eta must not be an integer" in _usage_error(capsys, ["chain-oracle", "--eta", "0"])
    code, doc = _json_doc(capsys, ["chain-oracle", "--kind", "closed-xxx", "--eta", "0"])
    assert code == 0
    assert doc["eta"] == 0.0


def test_verify_preset(capsys):
    code, doc = _json_doc(capsys, ["verify", "--preset", "C-3d-P1", "--samples", "20"])
    assert code == 0
    assert doc["pass"] is True
    assert doc["preset_id"] == "C-3d-P1"
    assert doc["max_residual"] < 1e-10


def test_solve_bethe_reports_root_sets(capsys):
    code, doc = _json_doc(
        capsys,
        ["solve-bethe", "--kind", "closed-xxz", "--sites", "3", "--magnons", "1",
         "--eta", "0.317", "--thetas", "0.03,-0.07,0.11", "--starts", "48"],
    )
    assert code == 0
    assert len(doc["root_sets"]) == 3
    assert all(rs["max_residual"] < 1e-10 for rs in doc["root_sets"])


def test_the_limit_boundary_solves_and_evaluates(capsys):
    # xi = (+i inf, -i inf) is a boundary the chain takes, not a NaN
    code, doc = _json_doc(capsys, OPEN_FLAGS + ["--xi-plus=infj", "--xi-minus=-infj"])
    assert code == 0
    assert doc["root_sets"] and all(rs["max_residual"] < 1e-10 for rs in doc["root_sets"])
    code, doc = _json_doc(capsys, ["bethe", "--kind", "open-xxz", "--sites", "4", "--magnons",
                                   "1", "--eta", "0.3", "--xi-plus=-infj", "--xi-minus=infj",
                                   "--u", "0.2+0.1j"])
    assert code == 0
    assert all(np.isfinite(r) for r in doc["residuals"])


def test_solve_vacuum_finds_anchor(capsys):
    code, doc = _json_doc(
        capsys,
        ["solve-vacuum", "--family", "C", "--rank", "1", "--nf", "2",
         "--masses", "0.26,0.41", "--m-adj", "0.17", "--starts", "32"],
    )
    assert code == 0
    sols = doc["solutions"]
    assert len(sols) >= 1


def test_duality_compare(capsys):
    code, doc = _json_doc(
        capsys,
        ["duality-compare", "--family", "B", "--rank", "2", "--samples", "10"],
    )
    assert code == 0
    assert doc["pass"] is True


def test_cross_check(capsys):
    code, doc = _json_doc(
        capsys,
        ["cross-check", "--preset", "B-3d-P1", "--rank", "1", "--starts", "48"],
    )
    assert code == 0
    assert doc["pass"] is True


def _reject_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_json_writes_a_non_finite_residual_as_null(capsys):
    # D rank 1 has no roots: every chain solution is dropped and the residual is inf
    code = run(["cross-check", "--preset", "D-3d", "--rank", "1", "--nf", "2",
                "--json", "--no-timestamp"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 1
    assert doc["pass"] is False
    assert doc["max_residual"] is None
    assert doc["schema_version"] == "1"


# ---------------------------------------------------------------------------
# seeds, files, determinism
# ---------------------------------------------------------------------------


def test_seed_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("BGL_SEED", "7")
    _, doc = _json_doc(capsys, ["vacuum", "--family", "B", "--rank", "2"])
    assert doc["seed"] == 7
    _, doc = _json_doc(capsys, ["vacuum", "--family", "B", "--rank", "2", "--seed", "3"])
    assert doc["seed"] == 3


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code = run(["roots", "--family", "A", "--rank", "3", "--json",
                "--no-timestamp", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 6


def test_report_all_is_reproducible(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = run(["report-all", "--seed", "42", "--json", "--no-timestamp",
                    "--out", str(p)])
        assert code == 0
    capsys.readouterr()
    a, b = paths[0].read_bytes(), paths[1].read_bytes()
    assert a == b
    doc = json.loads(a)
    assert all(c["pass"] for c in doc["criteria"])


def test_verify_rejects_draws_with_coincident_mapped_roots(capsys):
    # seed 6 draws a point whose mapped Bethe roots coincide; the draw is
    # rejected like a singular one instead of aborting the whole run
    code, doc = _json_doc(capsys, ["verify", "--preset", "D-2d", "--rank", "3", "--seed", "6"])
    assert code == 0
    assert doc["pass"] is True
    assert doc["samples"] == 200


def test_gradient_battery_passes_next_to_a_pole():
    # seed 5 draws a D rank-3 point 9.3e-5 from a pole, where a three-point
    # difference with h = 1e-6 is off by 3.8e-5; the five-point one is not
    result = cli._battery_gradient(5)
    assert result["pass"]
    assert result["detail"]["max_fd_gap"] <= 1e-6


def test_solver_human_output_ends_with_the_fate_ledger(capsys):
    assert run(["solve-vacuum", "--family", "C", "--rank", "1", "--nf", "2",
                "--masses", "0.26,0.41", "--m-adj", "0.17", "--starts", "32"]) == 0
    last = capsys.readouterr().out.rstrip().splitlines()[-1]
    assert last.startswith("  32 starts: ")
    counts = dict(part.rsplit(" ", 1) for part in last.split(": ", 1)[1].split(", "))
    assert sum(map(int, counts.values())) == 32
    assert int(counts["accepted"]) >= 1


def test_cross_check_notes_name_the_self_conjugate_filter(capsys):
    code = run(["cross-check", "--preset", "D-3d", "--rank", "1", "--nf", "2",
                "--json", "--no-timestamp"])
    notes = json.loads(capsys.readouterr().out)["notes"]
    assert code == 1
    assert notes["cause"] == "64 starts: self_conjugate 64"
    assert notes["fates"]["self_conjugate"] == notes["n_converged"] == 64


def test_solve_bethe_prints_the_residuals_its_solve_accepted(capsys, monkeypatch):
    def rescore(*args):
        raise AssertionError("solve-bethe scored a root set again")

    monkeypatch.setattr(cli, "bethe_residuals", rescore)
    code, doc = _json_doc(capsys, ["solve-bethe", "--kind", "closed-xxz", "--sites", "3",
                                   "--magnons", "1", "--eta", "0.317",
                                   "--thetas=0.03,-0.07,0.11", "--starts", "16", "--seed", "0"])
    chain = ChainSpec("closed-xxz", 3, 1, 0.317, (0.5,) * 3, (0.03, -0.07, 0.11))
    result = solve_bethe(chain, SolveConfig(n_starts=16, seed=0))
    assert code == 0 and result.residuals
    assert [s["max_residual"] for s in doc["root_sets"]] == result.residuals


def test_cross_check_summary_names_why_no_set_was_accepted(capsys):
    assert run(["cross-check", "--preset", "D-3d", "--rank", "1", "--nf", "2"]) == 1
    assert capsys.readouterr().out == ("cross-check D-3d rank 1 nf 2: 0 root set(s), mapped "
                                       "residual inf (64 starts: self_conjugate 64) -> FAIL\n")
    assert run(["cross-check", "--preset", "A-3d", "--rank", "1", "--nf", "2"]) == 0
    assert "starts" not in capsys.readouterr().out


def test_solve_vacuum_prints_the_residuals_its_solve_accepted(capsys, monkeypatch):
    def rescore(*args):
        raise AssertionError("solve-vacuum scored a solution again")

    monkeypatch.setattr(cli, "_vacuum_lhs_values", rescore)
    code, doc = _json_doc(capsys, ["solve-vacuum", "--family", "B", "--rank", "2", "--nf", "2",
                                   "--masses=-0.31,0.52", "--m-adj", "0.3",
                                   "--starts", "16", "--seed", "0"])
    spec = GaugeTheorySpec("B", 2, 2, (-0.31, 0.52), 0.3)
    result = solve_vacuum(spec, BRANCH_PLUS, SolveConfig(n_starts=16, seed=0))
    assert code == 0 and result.residuals
    assert [s["max_residual"] for s in doc["solutions"]] == result.residuals


def test_solve_bethe_without_magnons_accounts_for_every_start(capsys):
    assert run(["solve-bethe", "--kind", "closed-xxz", "--sites", "3", "--magnons", "0",
                "--eta", "0.3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  64 starts: duplicate 63, accepted 1"


def test_solve_vacuum_without_interactions_prints_its_one_solution(capsys):
    assert run(["solve-vacuum", "--family", "A", "--rank", "1", "--nf", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  sigma=['0']  max|LHS-branch|=0.000e+00"


def test_calibrate_without_a_preset_names_the_family_and_regime(capsys):
    assert run(["calibrate", "--family", "A", "--regime", "2d"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no preset to calibrate from for family A in regime 2d\n"


def test_calibrate_counts_its_grid_and_reports_the_chosen_trial_once(capsys, monkeypatch):
    # minus-branch trials raise RuntimeError, plus-branch ones with fixed sites
    # ValueError: C 3d has 2 boundary pairs x 13 site patterns x 2 branches
    calls = []
    real = bridge.verify_identity

    def verify(trial, *args, **kwargs):
        calls.append(trial)
        if trial.branch.sign < 0:
            raise RuntimeError("refused")
        if trial.fixed_sites:
            raise ValueError("refused")
        return real(trial, *args, **kwargs)

    monkeypatch.setattr(bridge, "verify_identity", verify)
    monkeypatch.setattr(cli, "verify_identity", verify)
    argv = ["calibrate", "--family", "C", "--regime", "3d", "--samples", "5", "--seed", "3"]
    code, doc = _json_doc(capsys, argv)
    assert code == 0 and len(calls) == 52  # each trial verified once, the chosen one too
    assert doc["grid"] == {"trials": 52, "refused": {"RuntimeError": 26, "ValueError": 24}}
    assert doc["report"] in [json.loads(json.dumps(real(t, (2, 4), 5, seed=3).to_dict()))
                             for t in calls if t.branch.sign > 0 and not t.fixed_sites]
    assert run(argv) == 0
    assert (capsys.readouterr().out.splitlines()[-1]
            == "grid: 52 trials, 50 refused (RuntimeError 26, ValueError 24)")
