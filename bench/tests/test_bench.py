"""Tests of the benchmark itself: corpus determinism, the output checker and
the span analysis.  Run with ``python -m pytest bench/tests -q``."""
import json
import math

import numpy as np
import pytest

import checker
import run
import speed
import tracing
import workloads
from lpmax.cli import RunReport
from lpmax.cli import main as cli_main

INF = math.inf


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_is_byte_identical_per_seed(tmp_path, workload):
    a = workloads.build_corpus(workload, 11, str(tmp_path / "a"))
    b = workloads.build_corpus(workload, 11, str(tmp_path / "b"))
    c = workloads.build_corpus(workload, 12, str(tmp_path / "c"))
    assert a.digest == b.digest != c.digest
    for x, y in zip(a.ops, b.ops):
        with open(x.path, "rb") as fx, open(y.path, "rb") as fy:
            assert fx.read() == fy.read()
        assert x.reference == y.reference and x.argv[0] == y.argv[0]
    assert a.why == workloads.WHY[workload]


def test_exact_reference_matches_brute_force():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 2, 4))
    brute = max(abs(workloads.form(A, [x, y, z]))
                for x in workloads._sign_rows(3, False)
                for y in workloads._sign_rows(2, False)
                for z in workloads._sign_rows(4, False))
    assert workloads.exact_ml_linf(A) == pytest.approx(brute, rel=1e-12)
    assert workloads.ml_ascent(A, INF, rng) <= brute + 1e-12


def test_supersymmetric_entries_are_bit_identical():
    S = workloads._supersymmetric(np.random.default_rng(0), 4, 3)
    for ax in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.array_equal(S, np.transpose(S, ax))


def _pqnorm_op(tmp_path):
    B = np.array([[1.0, -2.0, 0.5], [0.3, 1.0, -1.0]])
    path = tmp_path / "b.json"
    path.write_bytes(workloads.tensor_bytes(B))
    exact = workloads.exact_ml_linf(B)
    return workloads.Op(label="pqnorm 2x3", slot=0, kind="pqnorm", argv=(), tensor=B, p=INF,
                        reference=exact, exact=exact, path=str(path)), B


def _report(y, z, value):
    return RunReport(command="pqnorm", instance={"file": "b.json", "dims": [2, 3],
                                                 "order": 2, "p": "inf"},
                     seed=0, config={}, oracle=None, timing={},
                     certificate={"value": value, "relax_value": value,
                                  "y": list(y), "z": list(z)}).to_json()


def test_checker_accepts_an_honest_certificate_and_rejects_forgeries(tmp_path):
    op, B = _pqnorm_op(tmp_path)
    y = np.array([1.0, -1.0])
    z = np.where(y @ B >= 0, 1.0, -1.0)
    value = float(y @ B @ z)
    good = checker.check(op, 0, _report(y, z, value), RunReport)
    assert good.ok and good.ratio == pytest.approx(1.0)

    scaled = checker.check(op, 0, _report(1.01 * y, z, 1.01 * value), RunReport)
    assert not scaled.ok and "norm" in scaled.reason
    tampered = checker.check(op, 0, _report(y, z, value * (1 + 1e-7)), RunReport)
    assert not tampered.ok and "recomputed" in tampered.reason
    assert not checker.check(op, 3, _report(y, z, value), RunReport).ok
    assert not checker.check(op, 0, "not json", RunReport).ok


def test_checker_rejects_a_value_above_the_exact_optimum(tmp_path):
    op, B = _pqnorm_op(tmp_path)
    y = np.array([1.0, -1.0])
    z = np.where(y @ B >= 0, 1.0, -1.0)
    lowered = workloads.Op(**{**op.__dict__, "exact": float(y @ B @ z) - 1e-3})
    verdict = checker.check(lowered, 0, _report(y, z, float(y @ B @ z)), RunReport)
    assert not verdict.ok and "exact optimum" in verdict.reason


def test_checker_symmetrize_identity(tmp_path):
    A = np.random.default_rng(5).standard_normal((2, 3, 2))
    out = tmp_path / "sym.json"
    op = workloads.Op(label="symmetrize", slot=0, kind="symmetrize", argv=(), tensor=A, p=None,
                      reference=None, exact=None, path="", out=str(out), check_seed=9)
    N, sls, S = 7, [slice(0, 2), slice(2, 5), slice(5, 7)], np.zeros((7, 7, 7))
    for chi in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        S[tuple(sls[c] for c in chi)] = np.transpose(A, chi)
    out.write_bytes(workloads.tensor_bytes(S))
    assert checker.check(op, 0, "", RunReport, str(out)).ok
    S[0, 2, 5] += 0.5
    out.write_bytes(workloads.tensor_bytes(S))
    assert not checker.check(op, 0, "", RunReport, str(out)).ok


def test_each_symmetrize_run_writes_its_own_file(tmp_path):
    corpus = workloads.build_corpus("verify", 3, str(tmp_path))
    sym = next(op for op in corpus.ops if op.kind == "symmetrize")
    (argv0, out0), (argv1, out1) = sym.invocation(0), sym.invocation(1)
    assert out0 != out1 and argv0[-2:] == ("--out", out0) and argv1[-1] == out1
    oracle = next(op for op in corpus.ops if op.kind == "oracle-ml")
    assert oracle.invocation(5) == (oracle.argv, None)


def _oracle_report(xs, value, method):
    return RunReport(command="oracle", instance={"file": "b.json", "dims": [2, 3],
                                                 "order": 2, "p": "inf"},
                     seed=0, config={}, oracle=None, timing={},
                     certificate={"value": value, "method": method, "resolution": 0.0,
                                  "argmax": [list(x) for x in xs]}).to_json()


def test_checker_holds_an_exact_oracle_to_the_optimum(tmp_path):
    op, B = _pqnorm_op(tmp_path)
    op = workloads.Op(**{**op.__dict__, "kind": "oracle-ml"})
    y = np.array([1.0, 1.0])
    z = np.where(y @ B >= 0, 1.0, -1.0)
    value = float(y @ B @ z)
    assert value < op.exact - 1e-3          # a feasible vertex, but not the best one
    assert not checker.check(op, 0, _oracle_report([y, z], value, "vertex_enum"), RunReport).ok
    assert checker.check(op, 0, _oracle_report([y, z], value, "grid"), RunReport).ok


def test_checker_passes_real_cli_output(tmp_path):
    corpus = workloads.build_corpus("verify", 3, str(tmp_path))
    runner = run.Runner(cli_main)
    for k, op in enumerate((corpus.warmup,) + corpus.ops[:3]):
        argv, out_file = op.invocation(k)
        code, out = runner(argv)
        verdict = checker.check(op, code, out, RunReport, out_file)
        assert verdict.ok, verdict.reason


def _span(i, name, parent, start, end, op=0):
    return tracing.Span(id=i, op=op, name=name, parent=parent, start=start, end=end)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, "cli", None, 0.0, 10.0),
        _span(1, "mlopt.solve_ml", 0, 1.0, 4.0),
        _span(2, "pqnorm.solve_vecp", 1, 2.0, 3.0),
        _span(3, "oracle.grid_ml", 0, 5.0, 9.0),
        _span(4, "tensor.eval_multilinear", 3, 5.0, 7.0),
        _span(5, "tensor.eval_multilinear", 3, 6.0, 8.0),   # overlaps its sibling
        _span(6, "tensor.load_tensor", 0, 9.5, 11.0),       # runs past its parent
    ]
    st = tracing.self_times(spans)
    assert st == pytest.approx({0: 10.0 - 3.0 - 4.0 - 0.5, 1: 2.0, 2: 1.0,
                                3: 1.0, 4: 2.0, 5: 2.0, 6: 1.5})


def test_layer_shares_account_for_operation_time():
    spans = [
        _span(0, "cli", None, 0.0, 4.0, op=0),
        _span(1, "pqnorm.solve_vecp", 0, 0.5, 3.0, op=0),
        _span(2, "sampler.derive_rng", 1, 1.0, 1.5, op=0),
        _span(3, "cli", None, 4.0, 6.0, op=1),
        _span(4, "tensor.load_tensor", 3, 4.0, 4.5, op=1),
    ]
    m = tracing.layer_metrics(spans)
    assert m["pqnorm.solve_vecp.share"] == pytest.approx(2.0 / 6.0)
    assert m["sampler.share"] == pytest.approx(0.5 / 6.0)
    assert m["cli.self_share"] == pytest.approx(3.0 / 6.0)
    assert m["pqnorm.solve_vecp.calls_per_op"] == 0.5
    assert m["tensor.load_tensor.s_p50"] == pytest.approx(0.5)


def test_tracer_catches_internal_callers_and_restores_bindings():
    import lpmax.cli
    import lpmax.mlopt
    import lpmax.pqnorm

    original = lpmax.pqnorm.solve_vecp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lpmax.cli.solve_vecp is lpmax.mlopt.solve_vecp is lpmax.pqnorm.solve_vecp
        assert lpmax.mlopt.solve_vecp is not original
        cert = tracer.run_op(0, lambda: lpmax.solve_ml_d2(np.array([[1.0, 2.0], [3.0, -1.0]]), 4))
    finally:
        tracer.uninstall()
    assert lpmax.mlopt.solve_vecp is original and lpmax.cli.solve_vecp is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli" and "pqnorm.solve_vecp" in names and "pqnorm.round_gram" in names
    assert all(s.parent is not None for s in tracer.spans[1:])
    assert cert.value > 0


class _Op:
    def __init__(self, slot, label="a"):
        self.slot, self.label = slot, label


def test_slot_weighted_statistics():
    # slot 0 reached three times, slot 1 once: each slot weighs one half
    recs = [run.Record(_Op(0), 0.0, 1.0, 0, ""), run.Record(_Op(1), 1.0, 5.0, 0, ""),
            run.Record(_Op(0), 5.0, 6.0, 0, ""), run.Record(_Op(0), 6.0, 9.0, 0, "")]
    w = run.slot_weights(recs)
    assert w == pytest.approx([1 / 3, 1.0, 1 / 3, 1 / 3])
    assert run.mix_rate(recs, lambda r: r.duration) == pytest.approx(2 / (5 / 3 + 4.0))
    recs[1].speed = 2.0     # the machine ran at half the reference speed
    assert recs[1].scaled == 2.0
    assert run.mix_rate(recs, lambda r: r.scaled) == pytest.approx(2 / (5 / 3 + 2.0))
    durations = [r.duration for r in recs]
    # weight midpoints of the sorted values 1, 1, 3, 4 sit at 1/12, 3/12, 5/12, 9/12
    assert run.weighted_quantile(durations, w, 0.5) == pytest.approx(3.25)
    assert run.weighted_quantile(durations, w, 0.05) == 1.0
    assert run.weighted_quantile(durations, w, 0.9) == 4.0
    assert run.weighted_quantile([2.0, 1.0, 7.0], [1.0, 1.0, 1.0], 0.5) == 2.0
    assert run.weighted_quantile([2.0, 1.0], [1.0, 1.0], 0.5) == 1.5


def test_alternatives_within_a_slot_weigh_the_same():
    # slot 0 reached its cheap alternative twice and its dear one once
    recs = [run.Record(_Op(0, "cheap"), 0.0, 1.0, 0, ""), run.Record(_Op(0, "dear"), 1.0, 4.0, 0, ""),
            run.Record(_Op(0, "cheap"), 4.0, 5.0, 0, ""), run.Record(_Op(1), 5.0, 7.0, 0, "")]
    assert run.slot_weights(recs) == pytest.approx([0.25, 0.5, 0.25, 1.0])
    assert run.mix_rate(recs, lambda r: r.duration) == pytest.approx(2 / (2.0 + 2.0))


def test_bounds_in_benchmark_json_cover_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert set(workloads.TAIL_Q) == set(workloads.WORKLOADS)
    assert all(0.5 < q < 1.0 for q in workloads.TAIL_Q.values())


def test_traced_run_fails_when_a_root_span_misses_operation_time():
    tracer = tracing.Tracer()
    tracer.spans = [_span(0, "cli", None, 10.0, 12.0, op=0),
                    _span(1, "tensor.load_tensor", 0, 10.5, 11.0, op=0)]
    verdict = checker.Verdict(True, certificate={"value": 1.0})
    covered = [run.Record(_Op(0), 0.0, 2.0, 0, "", traced=False),
               run.Record(_Op(0), 2.0, 4.0 + 1e-5, 0, "", traced=True)]
    metrics, ok = run.layer_metrics(covered, [verdict, verdict], tracer)
    assert ok and metrics["cli.self_share"][0] == pytest.approx(0.75)
    missed = [covered[0], run.Record(_Op(0), 2.0, 4.5, 0, "", traced=True)]
    assert not run.layer_metrics(missed, [verdict, verdict], tracer)[1]


def test_speed_factor_uses_the_probes_near_an_operation():
    ref = speed.REF_S
    slow = (4.0 * ref[0],) + ref[1:]
    # (mid time, part times): reference speed until t = 10, then the first
    # part takes four times as long
    samples = [(t, ref) for t in range(10)] + [(t, slow) for t in range(10, 20)]
    assert speed.speed_factor(samples, 3.0, 4.0) == pytest.approx(1.0)
    assert speed.speed_factor(samples, 15.0, 16.0) == pytest.approx(4.0 ** (1 / len(ref)))
    # no probe within the window: the nearest MIN_PROBES decide
    assert speed.speed_factor(samples, 40.0, 41.0) == pytest.approx(4.0 ** (1 / len(ref)))
    # enough probes during an operation: they alone decide, not the many
    # faster ones near it
    during = [(4.0 + k / 4, slow) for k in range(speed.MIN_PROBES)]
    near = [(t / 10, ref) for t in range(100) if not 40 <= t <= 50]
    assert speed.speed_factor(near + during, 4.0, 5.0) == pytest.approx(4.0 ** (1 / len(ref)))
    # too few during it: the window mixes in the faster probes before it
    assert speed.speed_factor(samples, 8.5, 10.0) < 4.0 ** (1 / len(ref)) - 1e-3


def test_probes_inside_an_operation_leave_its_time():
    probe = speed.Probe()
    clock = speed.time.perf_counter
    with probe.inside() as probes:
        s = clock()
        while clock() - s < 3.5 * speed.INSIDE_PERIOD_S:
            pass
        e = clock()
    assert len(probes) >= 2 and len(probe.samples) == len(probes)
    assert all(s <= a < b <= e for a, b in probes)
    probe_s = sum(b - a for a, b in probes)
    rec = run.Record(_Op(0), s, e, 0, "", probe_s=probe_s)
    assert rec.duration == pytest.approx(e - s - probe_s)
    assert speed.signal.getitimer(speed.signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_records_every_part():
    probe = speed.Probe()
    probe.run()
    (mid, times), = probe.samples
    assert len(times) == len(speed.REF_S) and all(t > 0 for t in times)
    assert probe.busy_s >= sum(times)
    assert probe.factor(mid, mid) > 0
