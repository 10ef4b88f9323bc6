"""Pinned CLI reports: every command, both formats, the oracle, a config file
and the error exits.  Each case stores a hash of its exit code, its report
with the wall-clock time removed, and its standard error."""
import hashlib
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from lpmax.cli import main
from lpmax.tensor import save_tensor

from supersym import random_supersym

FAST = ("--trials", "16", "--max-samples", "4")

# case id -> (argv, LPMAX_CONFIG document or None)
CASES = {
    "ml-text": (("solve-ml", "cube.json", "--p", "inf", "--seed", "3") + FAST, None),
    "ml-json": (("solve-ml", "cube.json", "--p", "3", "--format", "json") + FAST, None),
    "ml-oracle": (("solve-ml", "cube.json", "--p", "inf", "--oracle", "--steps", "9",
                   "--format", "json") + FAST, None),
    "ml-oracle-grid": (("solve-ml", "cube.json", "--p", "4", "--oracle", "--steps", "5")
                       + FAST, None),
    "ml-d2-hyperplane": (("solve-ml", "mat.json", "--p", "inf", "--strategy", "hyperplane",
                          "--format", "json"), None),
    "hp-text": (("solve-hp", "sym.json", "--p", "inf", "--seed", "2") + FAST, None),
    "hp-json": (("solve-hp", "sym.json", "--p", "7/2", "--format", "json") + FAST, None),
    "hp-oracle": (("solve-hp", "sym.json", "--p", "inf", "--oracle", "--format", "json")
                  + FAST, None),
    "hp-even": (("solve-hp", "sym4.json", "--p", "3", "--tol", "1e-5", "--format", "json")
                + FAST, None),
    "pq-text": (("pqnorm", "mat.json", "--p", "inf"), None),
    "pq-json": (("pqnorm", "mat.json", "--p", "3", "--seed", "4", "--trials", "12",
                 "--format", "json"), None),
    "pq-oracle": (("pqnorm", "mat.json", "--p", "inf", "--oracle", "--format", "json"), None),
    # pqnorm has no --max-samples, so click exits 2
    "pq-max-samples": (("pqnorm", "mat.json", "--p", "4", "--max-samples", "7",
                        "--strategy", "hyperplane", "--format", "json"), None),
    "oracle-ml": (("oracle", "cube.json", "--p", "inf", "--format", "json"), None),
    "oracle-ml-grid": (("oracle", "cube.json", "--p", "3", "--steps", "7"), None),
    "oracle-hp": (("oracle", "sym.json", "--p", "inf", "--mode", "hp", "--format", "json"),
                  None),
    "oracle-pqnorm": (("oracle", "mat.json", "--p", "3", "--mode", "pqnorm", "--steps", "9"),
                      None),
    "symmetrize": (("symmetrize", "mat.json", "--out", "s.json"), None),
    "cfg-ml": (("solve-ml", "cube.json"),
               {"p": "3", "seed": 5, "trials": 8, "max_samples": 3, "format": "json",
                "steps": 7, "oracle": True, "strategy": "hyperplane", "tol": 1e-5}),
    "cfg-ml-flag-wins": (("solve-ml", "cube.json", "--seed", "9", "--format", "text"),
                         {"p": "inf", "seed": 5, "trials": 8, "max_samples": 3,
                          "format": "json"}),
    "cfg-hp": (("solve-hp", "sym.json"), {"p": "inf", "trials": 8, "max_samples": 3}),
    "cfg-pq": (("pqnorm", "mat.json", "--format", "json"),
               {"p": "4", "seed": 2, "trials": 9, "max_samples": 2, "oracle": True}),
    "cfg-oracle": (("oracle", "sym.json"), {"p": "inf", "mode": "hp", "steps": 5,
                                            "format": "json", "seed": 11}),
    "help-ml": (("solve-ml", "--help"), None),
    "help-pq": (("pqnorm", "--help"), None),
    "help-main": (("--help",), None),
    "exit2-garbage": (("solve-ml", "garbage.json", "--p", "inf"), None),
    "exit2-missing": (("solve-hp", "missing.json", "--p", "inf"), None),
    "exit2-p": (("pqnorm", "mat.json", "--p", "2"), None),
    "exit2-p-word": (("oracle", "mat.json", "--p", "nope"), None),
    "exit2-strategy-flag": (("solve-ml", "cube.json", "--strategy", "bogus"), None),
    "exit2-trials-flag": (("pqnorm", "mat.json", "--trials", "0"), None),
    "exit2-steps-flag": (("solve-ml", "cube.json", "--p", "inf", "--oracle", "--steps", "1"),
                         None),
    "exit2-tol-config": (("pqnorm", "mat.json"), {"p": "inf", "tol": 0}),
    "exit2-oracle-mode": (("oracle", "mat.json", "--mode", "xx"), None),
    "exit2-symmetrize-garbage": (("symmetrize", "garbage.json", "--out", "g.json"), None),
    "exit2-cfg-oracle": (("oracle", "mat.json", "--p", "inf"), {"strategy": "bogus"}),
    "exit2-cfg-not-object": (("pqnorm", "mat.json"), [1, 2]),
    "exit3-zero": (("solve-ml", "zero.json", "--p", "inf"), None),
    "exit3-hp-asym": (("solve-hp", "cube.json", "--p", "inf"), None),
    "exit3-pq-cube": (("pqnorm", "cube.json", "--p", "inf"), None),
    "exit3-oracle-pq-cube": (("oracle", "cube.json", "--p", "inf", "--mode", "pqnorm"), None),
    "exit3-oracle-ml-vector": (("oracle", "vec.json", "--p", "inf", "--mode", "ml"), None),
    "exit4-oracle-grid": (("oracle", "big.json", "--p", "3"), None),
}

PINNED = {
    "cfg-hp": "8fe3cb76489c8570",
    "cfg-ml": "fbf13982f6035d4e",
    "cfg-ml-flag-wins": "8a2f738e8c51ba13",
    "cfg-oracle": "f832e29a960d1d9f",
    "cfg-pq": "d57a0c8a8daa09d9",
    "exit2-cfg-not-object": "9111c8c282db70b7",
    "exit2-cfg-oracle": "18648f21baca13ed",
    "exit2-garbage": "74e3978b60f4d7d8",
    "exit2-missing": "e0530ec1f8a4733b",
    "exit2-oracle-mode": "93cbd100f49d708d",
    "exit2-p": "ea21412fbfd7c525",
    "exit2-p-word": "e2d80794483856c0",
    "exit2-strategy-flag": "96c7d31dc7439149",
    "exit2-steps-flag": "878cc64528ab36f7",
    "exit2-symmetrize-garbage": "74e3978b60f4d7d8",
    "exit2-tol-config": "c1bd13de19940cda",
    "exit2-trials-flag": "65e793e76cbfd86e",
    "exit3-hp-asym": "43b7d0a0657efdf8",
    "exit3-oracle-ml-vector": "dbf87888810fcdaa",
    "exit3-oracle-pq-cube": "eb6458545a8e9660",
    "exit3-pq-cube": "e7a3001485f79e2c",
    "exit3-zero": "9cef3b40fbd18afe",
    "exit4-oracle-grid": "4373e8da219beb1c",
    "help-main": "43bf58ce3fe35c19",
    "help-ml": "15b5d1038ca101b6",
    "help-pq": "9904997b636519a0",
    "hp-even": "84d4b62b86ae6859",
    "hp-json": "adab6de2c5b9d1b1",
    "hp-oracle": "1958bc336c8493ee",
    "hp-text": "a12c8d7d6a12da40",
    "ml-d2-hyperplane": "d270ec6d783d8d03",
    "ml-json": "541cb2172b07a1e7",
    "ml-oracle": "3a7d2aa95b85f1ea",
    "ml-oracle-grid": "7422a6fb2c925e15",
    "ml-text": "7dee8941c9f3953a",
    "oracle-hp": "6bbb16f4db8cccd8",
    "oracle-ml": "5fd0fa33c2584e18",
    "oracle-ml-grid": "4c897e00193ff394",
    "oracle-pqnorm": "6cef38fa63163fb4",
    "pq-json": "6ae044e8bf454678",
    "pq-max-samples": "f918e2693bcda31b",
    "pq-oracle": "e908e92c50035d4e",
    "pq-text": "7a08c60700f26a18",
    "symmetrize": "69a140c8512af169",
}


def write_files(path):
    rng = np.random.default_rng(4401)
    save_tensor(rng.standard_normal((3, 3)), path / "mat.json")
    save_tensor(rng.standard_normal((2, 2, 2)), path / "cube.json")
    save_tensor(random_supersym(rng, 2, 3), path / "sym.json")
    save_tensor(random_supersym(rng, 2, 4), path / "sym4.json")
    save_tensor(rng.standard_normal((30, 30)), path / "big.json")
    (path / "zero.json").write_text('{"dims": [2, 2], "coo": []}\n')
    save_tensor(np.array([1.0, -2.0]), path / "vec.json")
    (path / "garbage.json").write_text("{not json")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    write_files(tmp_path)
    # relative paths keep the reports free of the temporary directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LPMAX_CONFIG", raising=False)
    return tmp_path


def _strip_timing(stdout: str) -> str:
    # the report's only wall-clock field, in text and in JSON form
    return re.sub(r'(wall_time_s"?: )[-+.e0-9]+', r"\1T", stdout)


def case_digest(workdir, monkeypatch, case: str) -> str:
    argv, config = CASES[case]
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
        monkeypatch.setenv("LPMAX_CONFIG", "cfg.json")
    res = CliRunner().invoke(main, list(argv))
    parts = [str(res.exit_code), _strip_timing(res.stdout), res.stderr]
    for written in sorted(workdir.glob("s.json")):
        parts.append(written.read_text())
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_report(workdir, monkeypatch, case):
    assert case_digest(workdir, monkeypatch, case) == PINNED[case]
