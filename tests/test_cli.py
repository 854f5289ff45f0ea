"""Command line interface: exit codes, schemas and reproducibility."""

import json

import pytest

from bethegauge import cli
from bethegauge.cli import run
from bethegauge.chain import ChainSpec
from bethegauge.solve import SolveConfig, solve_bethe


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
    code = run(["verify", "--preset", "B-3d-P9", "--samples", "5"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_parse_failure(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["roots", "--family", "Z", "--rank", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_csv_unsupported_payload(capsys):
    with pytest.raises(SystemExit):
        run(["specfun-selftest", "--csv"])
    capsys.readouterr()


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_exit_two_on_mismatched_masses(capsys):
    err = _usage_error(capsys, ["vacuum", "--family", "B", "--rank", "2", "--nf", "2",
                                "--masses", "0.1"])
    assert "got 1 masses for --nf 2" in err


@pytest.mark.parametrize("argv", [["bethe", "--u", "0.2"], ["solve-bethe"]])
def test_exit_two_without_sites_or_spins(capsys, argv):
    err = _usage_error(capsys, argv + ["--kind", "closed-xxz", "--magnons", "1", "--eta", "0.3"])
    assert "need --sites" in err


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


@pytest.mark.parametrize("argv", [
    ["bethe", "--sites", "3", "--spins", "0.5,0.5", "--u", "0.2"],
    ["solve-bethe", "--sites", "3", "--thetas", "0.1"],
    ["solve-bethe", "--spins", "0.5,0.5", "--thetas", "0.1,0.2,0.3"],
])
def test_exit_two_on_chain_list_lengths(capsys, argv):
    err = _usage_error(capsys, argv + ["--kind", "closed-xxz", "--magnons", "1", "--eta", "0.3"])
    assert "values for" in err


def test_parser_is_built_once(monkeypatch, capsys):
    parser = cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run(["roots", "--family", "A", "--rank", "2"]) == 0
    assert cli._parser() is parser
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


def test_chain_oracle_takes_eta_zero(capsys):
    # --eta 0 is a value, not a request for a drawn eta
    assert run(["chain-oracle", "--eta", "0"]) == 1
    assert "eta must not be an integer" in capsys.readouterr().err
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
