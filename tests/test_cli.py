import dataclasses
import gc
import json

import numpy as np
import pytest
from click.testing import CliRunner

from lpmax import cli, hpopt
from lpmax.cli import (
    EXIT_BOUND,
    EXIT_DEGENERATE,
    EXIT_PARSE,
    EXIT_RESOURCE,
    RunReport,
    main,
    run,
)
from lpmax.hpopt import HpCertificate
from lpmax.mlopt import MlCertificate
from lpmax.oracle import OracleResult
from lpmax.pqnorm import RoundedPair
from lpmax.tensor import load_tensor, save_tensor

from supersym import random_supersym


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path, rng):
    mat = tmp_path / "mat.json"
    save_tensor(rng.standard_normal((3, 3)), mat)
    cube = tmp_path / "cube.json"
    save_tensor(rng.standard_normal((2, 2, 2)), cube)
    sym = tmp_path / "sym.json"
    save_tensor(random_supersym(rng, 2, 3), sym)
    zero = tmp_path / "zero.json"
    zero.write_text('{"dims": [2, 2], "coo": []}\n')
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    return {"mat": str(mat), "cube": str(cube), "sym": str(sym),
            "zero": str(zero), "garbage": str(garbage), "dir": tmp_path}


FAST = ["--trials", "16", "--max-samples", "4"]


def test_solve_ml_text_output(runner, files):
    res = runner.invoke(main, ["solve-ml", files["cube"], "--p", "inf", "--seed", "3"] + FAST)
    assert res.exit_code == 0, res.output
    assert res.output.startswith("command: solve-ml\n")
    assert "value: " in res.output and "xs: " in res.output
    assert "wall_time_s: " in res.output


def test_solve_ml_json_roundtrip(runner, files):
    res = runner.invoke(main, ["solve-ml", files["cube"], "--p", "inf", "--format", "json"] + FAST)
    assert res.exit_code == 0, res.output
    report = RunReport.from_json(res.output)
    assert report.command == "solve-ml"
    assert report.certificate["value"] >= 0.0
    assert RunReport.from_json(report.to_json()) == report


def test_determinism_across_invocations(runner, files):
    args = ["solve-hp", files["sym"], "--p", "3", "--seed", "7", "--format", "json"] + FAST
    outs = []
    for _ in range(3):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        doc.pop("timing")
        outs.append(json.dumps(doc, sort_keys=True))
    assert len(set(outs)) == 1


def test_solve_hp_oracle_ratio(runner, files):
    res = runner.invoke(main, ["solve-hp", files["sym"], "--p", "inf", "--oracle",
                               "--format", "json"] + FAST)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["oracle"] is not None
    assert doc["oracle"]["ratio"] <= 1.0 + 1e-6
    assert doc["certificate"]["value"] <= doc["oracle"]["value"] + 1e-6


def test_pqnorm_identity(runner, tmp_path):
    path = tmp_path / "eye.json"
    save_tensor(np.eye(2), path)
    res = runner.invoke(main, ["pqnorm", str(path), "--p", "inf", "--format", "json"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["certificate"]["value"] == pytest.approx(2.0, abs=1e-6)
    assert doc["certificate"]["value"] <= doc["certificate"]["upper_bound"]


def test_pqnorm_rejects_cube(runner, files):
    res = runner.invoke(main, ["pqnorm", files["cube"], "--p", "inf"])
    assert res.exit_code == EXIT_DEGENERATE


def test_symmetrize_writes_block_matrix(runner, tmp_path):
    src = tmp_path / "b.json"
    save_tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), src)
    out = tmp_path / "s.json"
    res = runner.invoke(main, ["symmetrize", str(src), "--out", str(out)])
    assert res.exit_code == 0, res.output
    S = load_tensor(out)
    assert S.dims == (4, 4)
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(S.data[:2, 2:], B)
    assert np.array_equal(S.data[2:, :2], B.T)
    assert not S.data[:2, :2].any() and not S.data[2:, 2:].any()


def test_oracle_modes(runner, files):
    res = runner.invoke(main, ["oracle", files["cube"], "--mode", "ml", "--p", "inf",
                               "--format", "json"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["certificate"]["method"] == "vertex_enum"
    assert doc["certificate"]["resolution"] == 0.0

    res = runner.invoke(main, ["oracle", files["sym"], "--mode", "hp", "--p", "inf"])
    assert res.exit_code == 0, res.output

    res = runner.invoke(main, ["oracle", files["mat"], "--mode", "pqnorm", "--p", "3",
                               "--steps", "17"])
    assert res.exit_code == 0, res.output


def test_oracle_enumerates_a_first_slot_of_length_one(runner, tmp_path):
    row = tmp_path / "row.json"
    save_tensor(np.array([[1.0, -2.0, 0.5, 3.0]]), row)
    res = runner.invoke(main, ["oracle", str(row), "--p", "inf", "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["certificate"]["value"] == 6.5


def test_exit_code_parse_errors(runner, files):
    assert runner.invoke(main, ["solve-ml", files["garbage"], "--p", "inf"]).exit_code == EXIT_PARSE
    assert runner.invoke(main, ["solve-ml", files["cube"], "--p", "2"]).exit_code == EXIT_PARSE
    assert runner.invoke(main, ["solve-ml", files["cube"], "--p", "nope"]).exit_code == EXIT_PARSE
    missing = str(files["dir"] / "missing.json")
    assert runner.invoke(main, ["solve-ml", missing, "--p", "inf"]).exit_code == EXIT_PARSE


def test_exit_code_non_integer_document(runner, tmp_path):
    # documents the reader used to truncate or coerce: dims 2.7, index 1.9, a
    # boolean among the numbers of a dense payload
    for doc in ('{"dims": [2.7, 2], "coo": []}', '{"dims": [2, 2], "coo": [[1.9, 1, 1.0]]}',
                '{"dims": [2, 2], "dense": [1.5, true, 2, 3]}'):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        res = runner.invoke(main, ["solve-ml", str(bad), "--p", "inf"])
        assert res.exit_code == EXIT_PARSE and "error:" in res.stderr, doc


def test_exit_code_degenerate(runner, files):
    assert runner.invoke(main, ["solve-ml", files["zero"], "--p", "inf"]).exit_code == EXIT_DEGENERATE
    # non-supersymmetric tensor for the polynomial solver
    assert runner.invoke(main, ["solve-hp", files["cube"], "--p", "inf"]).exit_code == EXIT_DEGENERATE


def test_exit_code_resource(runner, tmp_path, rng):
    big = tmp_path / "big.json"
    save_tensor(rng.standard_normal((30, 30)), big)
    # sym(30x30) would need 60^2 entries: fine; the oracle grid on 30 dims is not
    res = CliRunner().invoke(main, ["oracle", str(big), "--mode", "ml", "--p", "3",
                                    "--steps", "33"])
    assert res.exit_code == EXIT_RESOURCE


def test_config_file_and_flag_precedence(runner, files, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": "inf", "seed": 3, "trials": 16, "max_samples": 4}))
    monkeypatch.setenv("LPMAX_CONFIG", str(cfg))
    via_cfg = runner.invoke(main, ["solve-ml", files["cube"], "--format", "json"])
    assert via_cfg.exit_code == 0, via_cfg.output
    monkeypatch.delenv("LPMAX_CONFIG")
    via_flags = runner.invoke(main, ["solve-ml", files["cube"], "--p", "inf", "--seed", "3"]
                              + FAST + ["--format", "json"])
    a, b = json.loads(via_cfg.output), json.loads(via_flags.output)
    a.pop("timing"), b.pop("timing")
    assert a == b
    # a flag beats the config file
    monkeypatch.setenv("LPMAX_CONFIG", str(cfg))
    over = runner.invoke(main, ["solve-ml", files["cube"], "--seed", "8", "--format", "json"])
    assert json.loads(over.output)["seed"] == 8


def test_exit_code_bound_violation(runner, files, monkeypatch):
    # a recovery below the d!/d^d floor is a failed guarantee, not a crash
    monkeypatch.setattr(hpopt, "polarize_odd", lambda A, xs, p: (np.zeros(A.dims[0]), -1.0))
    res = runner.invoke(main, ["solve-hp", files["sym"], "--p", "inf"] + FAST)
    assert res.exit_code == EXIT_BOUND
    assert "error: odd-degree recovery bound violated" in res.output


@pytest.mark.parametrize("doc", [{"strategy": "bogus"}, {"trials": "abc"},
                                 {"format": "xml"}, {"max_samples": -3},
                                 {"trials": 2.7}, {"max_samples": 4.0}, {"seed": True},
                                 {"steps": True}, {"tol": True}, {"steps": 1}, {"tol": 0}])
def test_config_values_are_validated_like_flags(runner, files, tmp_path, monkeypatch, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.setenv("LPMAX_CONFIG", str(cfg))

    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran on an invalid config")

    monkeypatch.setattr(cli, "solve_ml", no_solve)
    monkeypatch.setattr(cli, "load_tensor", no_solve)
    for command in ("solve-ml", "solve-hp", "pqnorm", "oracle"):
        res = runner.invoke(main, [command, files["cube"], "--p", "inf"])
        assert res.exit_code == EXIT_PARSE, (command, res.output)
        assert "error: invalid " + next(iter(doc)) in res.output


def test_oracles_are_looked_up_on_the_cli_module(runner, files, monkeypatch):
    # the bench tracer rebinds module attributes; the CLI must call through them
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "oracle_ml", spy("oracle_ml"))
    monkeypatch.setattr(cli, "grid_hp", spy("grid_hp"))
    runs = [(["oracle", files["cube"], "--mode", "ml"], "oracle_ml"),
            (["oracle", files["sym"], "--mode", "hp"], "grid_hp"),
            (["oracle", files["mat"], "--mode", "pqnorm"], "oracle_ml"),
            (["solve-ml", files["cube"], "--oracle"] + FAST, "oracle_ml"),
            (["solve-hp", files["sym"], "--oracle"] + FAST, "grid_hp"),
            (["pqnorm", files["mat"], "--oracle", "--trials", "16"], "oracle_ml")]
    for argv, name in runs:
        calls.clear()
        res = runner.invoke(main, argv + ["--p", "inf", "--steps", "9"])
        assert res.exit_code == 0, res.output
        assert calls == [name], argv


def test_direct_calls_ignore_config_file(files, tmp_path, monkeypatch):
    plain = run("solve-ml", files["cube"], "inf", trials=16, max_samples=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "trials": 8, "strategy": "bogus", "oracle": True}))
    monkeypatch.setenv("LPMAX_CONFIG", str(cfg))
    again = run("solve-ml", files["cube"], "inf", trials=16, max_samples=4)
    plain.timing = again.timing = {}
    assert again == plain
    assert again.seed == 0 and again.oracle is None


def test_config_file_missing_is_parse_error(runner, files, monkeypatch):
    monkeypatch.setenv("LPMAX_CONFIG", str(files["dir"] / "no-such.json"))
    res = runner.invoke(main, ["solve-ml", files["cube"], "--p", "inf"])
    assert res.exit_code == EXIT_PARSE


def test_run_returns_reports(files):
    rep = run("solve-ml", files["cube"], "inf", trials=16, max_samples=4)
    assert isinstance(rep, RunReport)
    assert rep.certificate["trials_used"] <= 4
    assert rep.certificate["samples_capped"] is True
    rep = run("solve-hp", files["sym"], "inf", trials=16, max_samples=4)
    assert rep.certificate["parity"] == "odd"
    rep = run("pqnorm", files["mat"], "3", trials=16)
    assert rep.certificate["value"] <= rep.certificate["upper_bound"]
    rep = run("oracle", files["mat"], "inf", mode="ml")
    assert rep.certificate["method"] == "vertex_enum"
    for r in (rep,):
        assert RunReport.from_json(r.to_json()) == r


def test_reports_print_every_field_of_their_results(files):
    def names(result, drop=()):
        return {f.name for f in dataclasses.fields(result)} - set(drop)

    fast = {"trials": 16, "steps": 5, "oracle": True}
    reports = [(run("solve-ml", files["cube"], "inf", max_samples=4, **fast),
                names(MlCertificate, ["seed"])),
               (run("solve-hp", files["sym"], "inf", max_samples=4, **fast),
                names(HpCertificate, ["seed"])),
               (run("pqnorm", files["mat"], "inf", **fast), names(RoundedPair) | {"upper_bound"}),
               (run("oracle", files["mat"], "inf", mode="pqnorm"), names(OracleResult))]
    for rep, want in reports:
        assert set(rep.certificate) == want, rep.command
    for rep, _ in reports[:3]:
        assert set(rep.oracle) == names(OracleResult, ["argmax"]) | {"ratio"}


def test_settings_a_command_lacks_exit_2(runner, files, tmp_path, monkeypatch, capsys):
    # pqnorm draws no recursion candidates, so it has no --max-samples to ignore
    res = runner.invoke(main, ["pqnorm", files["mat"], "--p", "3", "--max-samples", "1"])
    assert res.exit_code == EXIT_PARSE
    assert "--max-samples" in res.output
    # run exits 2 too on a key outside the command's options, or on a typo
    for key in ("max_samples", "trails"):
        with pytest.raises(SystemExit) as exc:
            run("pqnorm", files["mat"], "3", **{key: 1})
        assert exc.value.code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: pqnorm has no option {key}\n"
    # one config file serves every command, so pqnorm passes over its max_samples
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": "3", "trials": 8, "max_samples": 1}))
    monkeypatch.setenv("LPMAX_CONFIG", str(cfg))
    res = runner.invoke(main, ["pqnorm", files["mat"], "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["config"]["trials"] == 8


def test_config_file_typo_exits_2(runner, files, tmp_path, monkeypatch):
    # a config key that is no setting of any command is a typo, caught before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran on a config file with a typo")

    cfg = tmp_path / "cfg.json"
    monkeypatch.setenv("LPMAX_CONFIG", str(cfg))
    cfg.write_text(json.dumps({"p": "3", "trails": 1}))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve_ml", no_solve)
        patch.setattr(cli, "load_tensor", no_solve)
        for command in ("solve-ml", "solve-hp", "pqnorm", "oracle"):
            res = runner.invoke(main, [command, files["mat"]])
            assert res.exit_code == EXIT_PARSE, (command, res.output)
            assert res.output == "error: config file has no setting trails\n"
    # a setting of another command still passes: mode is the oracle's alone
    cfg.write_text(json.dumps({"p": "3", "trials": 8, "mode": "hp"}))
    res = runner.invoke(main, ["pqnorm", files["mat"], "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["config"]["trials"] == 8


def test_text_format_is_stable(files):
    rep = run("solve-ml", files["cube"], "inf", trials=16, max_samples=4)
    text = rep.to_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("command: ")
    assert lines[1].startswith("instance: ")
    assert lines[2].startswith("seed: ")
    assert lines[3].startswith("config: ")
    assert lines[-1].startswith("wall_time_s: ")


def test_in_process_calls_release_their_output_streams(files, tmp_path):
    # click.echo without file= caches a wrapper keyed by the current sys.stdout
    # whose value refers back to that stream, so each CliRunner call's streams
    # (and everything written to them) would stay alive
    from click.testing import _NamedTextIOWrapper

    def live():
        return sum(isinstance(o, _NamedTextIOWrapper) for o in gc.get_objects())

    runner = CliRunner()
    calls = (["oracle", files["mat"], "--p", "inf"],                        # report
             ["solve-ml", files["garbage"], "--p", "inf"],                  # error
             ["symmetrize", files["mat"], "--out", str(tmp_path / "s.json")])
    gc.collect()
    before = live()
    for _ in range(17):
        for args in calls:
            runner.invoke(main, args)
    gc.collect()
    assert live() == before
