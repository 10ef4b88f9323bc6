#!/usr/bin/env python3
"""lpmax benchmark: time-to-certificate and certificate quality.

Usage, from the repository root:

    python3 bench/run.py --workload {bilinear,multilinear,verify} --seed N \
        --seconds S --trace {0,1}

Closed loop, one client, one process: each operation is one in-process
invocation of ``lpmax.cli.main`` with ``--format json`` on a tensor file
written at set-up, and the next starts when it returns.  Solver settings stay
at their CLI defaults, ``LPMAX_CONFIG`` is unset and BLAS runs on one thread.
Every output is checked by numpy code in ``checker.py`` after the timed loop.
Untraced runs time a fixed probe between and inside operations
(``speed.py``) and report operation and set-up times scaled to the probe's
reference speed, so that the machine's own changes of speed do not show as
changes of the program's.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation twice, once untraced and once with every layer function wrapped by
``tracing.Tracer``, in alternating order; it prints the per-layer metrics and
writes the spans to ``bench/out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``bench/NOTES.md`` defines every metric.
"""
import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
ROOT_GAP_S = 1e-3


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("bilinear", "multilinear", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_facts() -> dict:
    import platform

    import numpy as np
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


class Runner:
    """Invokes the click entry point in-process; returns (exit code, stdout)."""

    def __init__(self, cli_main):
        from click.testing import CliRunner

        self.cli_main = cli_main
        self.runner = CliRunner()

    def __call__(self, argv):
        res = self.runner.invoke(self.cli_main, list(argv))
        return res.exit_code, res.stdout


class Record:
    __slots__ = ("op", "start", "end", "code", "stdout", "out", "traced", "speed", "probe_s")

    def __init__(self, op, start, end, code, stdout, out=None, traced=False, probe_s=0.0):
        self.op, self.start, self.end = op, start, end
        self.code, self.stdout, self.out, self.traced = code, stdout, out, traced
        self.speed = 1.0    # speed factor during the operation (speed.py)
        self.probe_s = probe_s  # time the speed probe took inside the operation

    @property
    def duration(self):
        """Wall time, less the speed probes that ran inside the operation."""
        return self.end - self.start - self.probe_s

    @property
    def scaled(self):
        """Wall time at the probe's reference speed."""
        return self.duration / self.speed


def slot_weights(records):
    """Every schedule slot of the cycle weighs the same, however many times
    the run reached it, and so does every alternative reached within a slot:
    a run that reached a slot's cheap alternative twice and its dear one
    once still weighs them equally."""
    counts, alternatives = {}, {}
    for r in records:
        key = (r.op.slot, r.op.label)
        counts[key] = counts.get(key, 0) + 1
        alternatives.setdefault(r.op.slot, set()).add(r.op.label)
    return [1.0 / (counts[r.op.slot, r.op.label] * len(alternatives[r.op.slot]))
            for r in records]


def weighted_quantile(values, weights, q):
    """Weighted quantile with linear interpolation between the weight
    midpoints of the sorted values, so it moves smoothly as weights shift.
    With equal weights it is the usual median at q = 0.5."""
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    mids, acc = [], 0.0
    for _, w in pairs:
        mids.append((acc + 0.5 * w) / total)
        acc += w
    if q <= mids[0]:
        return pairs[0][0]
    for (v0, _), (v1, _), c0, c1 in zip(pairs, pairs[1:], mids, mids[1:]):
        if q <= c1:
            return v0 + (v1 - v0) * (q - c0) / (c1 - c0)
    return pairs[-1][0]


def mix_rate(records, time_of) -> float:
    """Operations per second for the workload's mix: one operation of every
    schedule slot reached, each at its weighted mean time in this run."""
    slots = {r.op.slot for r in records}
    return len(slots) / sum(w * time_of(r) for r, w in zip(records, slot_weights(records)))


def timed_loop(run, ops, seconds, probe):
    """Runs operations until ``seconds`` have passed.  The probe runs inside
    each operation (``speed.Probe.inside``) and, between operations, whenever
    it has had less than ``speed.PROBE_SHARE`` of the elapsed time; each
    record then gets the speed factor during or near it."""
    import speed

    clock = time.perf_counter
    records = []
    for _ in range(speed.MIN_PROBES):
        probe.run()
    t0 = clock()
    busy0 = probe.busy_s
    i = 0
    while clock() - t0 < seconds:
        op = ops[i % len(ops)]
        i += 1
        argv, out_file = op.invocation(len(records))
        with probe.inside() as probes:
            s = clock()
            code, out = run(argv)
            e = clock()
        probe_s = sum(b - a for a, b in probes if s <= a and b <= e)
        records.append(Record(op, s - t0, e - t0, code, out, out_file, probe_s=probe_s))
        while probe.busy_s - busy0 < speed.PROBE_SHARE * (clock() - t0):
            probe.run()
    for _ in range(speed.MIN_PROBES):
        probe.run()
    for r in records:
        r.speed = probe.factor(t0 + r.start, t0 + r.end)
    return records


def traced_loop(run, ops, seconds, tracer):
    """Each operation runs once untraced and once traced, in alternating
    order so neither side always runs second; both count toward the window.
    Installing and removing the wrappers stays outside the timed calls."""
    clock = time.perf_counter
    records = []
    t0 = clock()
    i = 0
    while clock() - t0 < seconds:
        op = ops[i % len(ops)]
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            argv, out_file = op.invocation(len(records))
            if is_traced:
                tracer.install()
            try:
                s = clock()
                code, out = (tracer.run_op(i, lambda: run(argv)) if is_traced
                             else run(argv))
                e = clock()
            finally:
                if is_traced:
                    tracer.uninstall()
            records.append(Record(op, s - t0, e - t0, code, out, out_file, traced=is_traced))
        i += 1
    return records


def main(argv=None) -> int:
    args = _args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read once, when numpy loads OpenBLAS
    os.environ.pop("LPMAX_CONFIG", None)
    if not (ROOT / "src" / "lpmax" / "__init__.py").is_file():
        print(f"error: no lpmax sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import lpmax
    from lpmax.cli import RunReport
    from lpmax.cli import main as cli_main

    import checker
    import speed
    import tracing
    import workloads

    if not Path(lpmax.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported lpmax from {lpmax.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    t_imported = time.perf_counter()

    facts = machine_facts()
    run = Runner(cli_main)
    probe = speed.Probe()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, digests, warm_ok = [], set(), True
        for _ in range(SETUP_REPEATS):
            for _ in range(speed.MIN_PROBES):
                probe.run()
            t = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            corpus = workloads.build_corpus(args.workload, args.seed, str(workdir))
            code, out = run(corpus.warmup.argv)
            setups.append((t, time.perf_counter()))
            digests.add(corpus.digest)
            warm_ok &= checker.check(corpus.warmup, code, out, RunReport).ok
        for _ in range(speed.MIN_PROBES):
            probe.run()
        import_s = (t_imported - _T_START) / probe.factor(_T_START, t_imported)
        setup_s = import_s + statistics.median((e - s) / probe.factor(s, e) for s, e in setups)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is None:
            records = timed_loop(run, corpus.ops, args.seconds, probe)
        else:
            records = traced_loop(run, corpus.ops, args.seconds, tracer)

        verdicts = [checker.check(r.op, r.code, r.stdout, RunReport, r.out) for r in records]
        failures = [(r, v) for r, v in zip(records, verdicts) if not v.ok]
        for r, v in failures[:10]:
            print(f"FAILED {r.op.label}: {v.reason}")
        attempted, failed = len(records), len(failures)
        correct = failed == 0 and warm_ok and len(digests) == 1
        if len(digests) != 1:
            print("FAILED corpus: repeated set-up wrote different files")
        if not warm_ok:
            print("FAILED warm-up operation")

        print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} ops_in_corpus={len(corpus.ops)}")
        print(f"why: {corpus.why}")
        print("machine: " + json.dumps(facts, sort_keys=True))

        tail_q = workloads.TAIL_Q[args.workload]
        if tracer is None:
            metrics = end_to_end(records, verdicts, setup_s, failed, tail_q)
        else:
            metrics, trace_ok = layer_metrics(records, verdicts, tracer)
            correct &= trace_ok
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                                     "machine": facts, "operations": attempted // 2})
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

        print_classes(records, verdicts)
        if tracer is None:
            print(f"value ratio min {min_ratio(verdicts):.6g} (a per-layer metric: see NOTES.md)")
            print_speed(records, probe, tail_q)
        for name, (value, unit) in metrics.items():
            extra = ""
            if name == "op_s_tail":
                above = sum(r.scaled > value for r in records)
                extra = (f"  (p{100.0 * tail_q:g} of the slot-weighted mix; "
                         f"{above} of {len(records)} operations above it)")
            print(f"{name:40s} {value:<14.6g} {unit}{extra}")
        print(json.dumps({
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }))
        sys.stdout.flush()
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()


def layer_metrics(records, verdicts, tracer):
    """Per-layer metrics of a traced run, and whether its self-checks held:
    tracing must not change a certificate, and each traced operation's root
    span must cover its time as measured outside the tracer, to within
    ``ROOT_GAP_S``.  The self times of an operation's spans partition its
    root span, so they then account for the operation's time, and
    ``cli.self_share`` is the part no wrapped layer explains."""
    import tracing

    ok = True
    plain = [v for r, v in zip(records, verdicts) if not r.traced]
    traced = [v for r, v in zip(records, verdicts) if r.traced]
    if any(a.certificate != b.certificate for a, b in zip(plain, traced)):
        ok = False
        print("FAILED tracing changed a certificate")
    roots = [s for s in tracer.spans if s.name == tracing.ROOT]
    timed = [r for r in records if r.traced]
    gaps = [r.duration - s.duration for r, s in zip(timed, roots)]
    print(f"root spans cover each traced operation to within {max(gaps) * 1e6:.0f} us")
    if len(roots) != len(timed) or min(gaps) < 0.0 or max(gaps) > ROOT_GAP_S:
        ok = False
        print("FAILED root spans do not cover the traced operations")
    metrics = tracing.layer_metrics(tracer.spans)
    print(f"wrapped layers account for {1.0 - metrics['cli.self_share']:.4f} of traced time")
    untraced_s = sum(r.duration for r in records if not r.traced)
    traced_s = sum(r.duration for r in records if r.traced)
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    metrics["value_ratio_min"] = min_ratio(verdicts)
    return {name: (metrics[name], unit) for name, unit in tracing.PER_LAYER}, ok


def print_classes(records, verdicts):
    """One line per instance class: count, median wall time, median scaled
    time and lowest value ratio."""
    by_label = {}
    for r, v in zip(records, verdicts):
        ds, ss, rs = by_label.setdefault(r.op.label, ([], [], []))
        ds.append(r.duration)
        ss.append(r.scaled)
        if v.ratio is not None:
            rs.append(v.ratio)
    for label, (ds, ss, rs) in by_label.items():
        ratio = f"  value ratio min {min(rs):.4f}" if rs else ""
        print(f"  {label:34s} n={len(ds):<3d} median {statistics.median(ds):.4g} s"
              f" (scaled {statistics.median(ss):.4g} s){ratio}")


def print_speed(records, probe, tail_q):
    """The run's speed factors, and the time metrics as plain wall time."""
    import speed

    factors = [r.speed for r in records]
    probe_share = sum(r.probe_s for r in records) / sum(r.end - r.start for r in records)
    weights = slot_weights(records)
    walls = [r.duration for r in records]
    print(f"speed factor per operation: median {statistics.median(factors):.4g}, "
          f"range {min(factors):.4g}-{max(factors):.4g}, from {len(probe.samples)} probes "
          "(reference part times " + ", ".join(f"{t * 1e3:g} ms" for t in speed.REF_S) + ")")
    print(f"probes took {100.0 * probe_share:.2f} % of the operations' wall time "
          "and are left out of their times")
    print(f"unscaled wall time, probes left out: ops_per_s {mix_rate(records, lambda r: r.duration):.6g} 1/s, "
          f"op_s_p50 {weighted_quantile(walls, weights, 0.5):.6g} s, "
          f"op_s_tail {weighted_quantile(walls, weights, tail_q):.6g} s")


def min_ratio(verdicts) -> float:
    """Lowest value ratio over the operations that passed the checker."""
    return min((v.ratio for v in verdicts if v.ok and v.ratio is not None), default=0.0)


def end_to_end(records, verdicts, setup_s, failed, tail_q):
    """End-to-end metrics from scaled times.  Times and ratios are weighted
    by schedule slot, and the tail is read at the workload's fixed level
    ``tail_q``."""
    weights = slot_weights(records)
    durations = [r.scaled for r in records]
    rated = [(v.ratio, w) for v, w in zip(verdicts, weights) if v.ok and v.ratio is not None]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (mix_rate(records, lambda r: r.scaled), "1/s"),
        "op_s_p50": (weighted_quantile(durations, weights, 0.5), "s"),
        "op_s_tail": (weighted_quantile(durations, weights, tail_q), "s"),
        "value_ratio_median": (weighted_quantile(*zip(*rated), 0.5) if rated else 0.0, "ratio"),
        "passed_frac": (1.0 - failed / len(records), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


if __name__ == "__main__":
    sys.exit(main())
