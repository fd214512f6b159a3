"""Benchmark for unieq's decisions: one closed-loop caller, one process.

    python3 bench/run.py --workload float-generic --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's seeded instance list (see
``workloads.py``) until ``--seconds`` have passed, checks every verdict
against ground truth computed apart from the program (``truth.py``) and
re-verifies every NO certificate.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
run with ``--trace 1``).  Per-case verdicts and times and, when traced, the
spans are written under ``bench/results/``.
"""

import os

# One BLAS thread: a second one costs the float closure about 1.5x the CPU
# for a modest cut in wall time, and one caller on two cores would then
# compete with itself.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"

# set-up is timed in this many fresh processes; the median is reported
SETUP_CHILDREN = 10
CHILD_READY = "ready"
CHILD_TIMEOUT_S = 60


def import_program():
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    if not (SRC / "unieq" / "__init__.py").is_file():
        sys.exit(f"bench: program source not found at {SRC / 'unieq'}")
    sys.path.insert(0, str(SRC))
    import unieq

    if Path(unieq.__file__).resolve().parent != SRC / "unieq":
        sys.exit(f"bench: imported unieq from {unieq.__file__}, not {SRC}")


def _parse(argv):
    p = argparse.ArgumentParser(description="unieq decision benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="short list of small cases (smoke test)")
    p.add_argument("--setup-child", action="store_true",
                   help="set up, warm up, print a ready line and exit")
    p.add_argument("--mislabel", type=int, default=None, metavar="INDEX",
                   help="flip the label of one case (smoke test)")
    return p.parse_args(argv)


def _setup_child(args) -> int:
    """Everything a run does before its first timed decision."""
    import_program()
    import workloads as W

    cases = W.build_cases(args.workload, args.seed, args.tiny)
    _warm_up(W, cases[0], None)
    print(CHILD_READY, flush=True)
    return 0


def _warm_up(W, case, tracer):
    """One untimed decision; a failure here is counted in the timed loop."""
    try:
        if tracer is None:
            W.decide(case)
        else:
            tracer.root(tracing.ROOT_WARMUP, W.decide, case)
    except Exception:
        pass


def _setup_seconds(args) -> tuple:
    """Times (raw, scaled) from process start to ready, one per fresh
    process, and the factors of the probe that scaled them.

    Start-up is file and loader work more than arithmetic, so its probe is
    a fresh interpreter that imports numpy, run before and after each one.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-child"]
    if args.tiny:
        cmd.append("--tiny")
    probe = reference.SpeedProbe(("process",))
    times = []
    for _ in range(SETUP_CHILDREN):
        probe.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line != CHILD_READY or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append((t0, t1))
    probe.sample()
    return ([(t1 - t0, probe.scaled(t0, t1)) for t0, t1 in times],
            probe.factors)


def _signature(verdict):
    cert = verdict.certificate
    return (verdict.result, None if cert is None else str(cert.word))


def end_to_end(cases, case_ms, recheck_ms):
    """The end-to-end timing metrics from per-case samples (ms).

    A case's latency is the median of its times over the rounds.  The
    quantiles are taken over the cases of the list, each at its latency.
    Every case runs once a round, so each weighs the same as in a quantile
    over all decisions.
    """
    timed = [(c, statistics.median(ms)) for c, ms in zip(cases, case_ms) if ms]
    latency = [t for _, t in timed]
    yes = [t for c, t in timed if c.label]
    no = [t for c, t in timed if not c.label]
    recheck = [statistics.median(ms) for ms in recheck_ms if ms]

    def median(values):  # 0 when every such operation failed
        return statistics.median(values) if values else 0.0

    return {
        "decide_per_s": (
            1e3 * len(latency) / sum(latency) if latency else 0.0, "1/s"),
        "yes_p50_ms": (median(yes), "ms"),
        "no_p50_ms": (median(no), "ms"),
        "decide_p90_ms": (
            statistics.quantiles(latency, n=10)[-1] if len(latency) > 1
            else median(latency), "ms"),
        "recheck_p50_ms": (median(recheck), "ms"),
    }


def _run(args, tracer, probe):
    """The timed loop.  The traced run scales its times too, but only to
    measure the tracing overhead; its metrics are the per-layer ones."""
    import truth
    import workloads as W

    def timed(root, fn, *fargs):
        t0 = time.perf_counter()
        out = fn(*fargs) if tracer is None else tracer.root(root, fn, *fargs)
        return out, (t0, time.perf_counter())

    cases, _ = timed(tracing.ROOT_GENERATE, W.build_cases, args.workload, args.seed, args.tiny)
    if args.mislabel is not None:
        cases[args.mislabel].label = not cases[args.mislabel].label
    proven = [truth.prove(c)[0] for c in cases]
    _warm_up(W, cases[0], tracer)

    signatures = [None] * len(cases)
    case_spans = [[] for _ in cases]  # (start, end) of each timed call
    recheck_spans = [[] for _ in cases]
    errors = []
    attempted = failed = 0
    correct = True
    gr_ops = traced = 0
    dims = []
    t_start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - t_start < args.seconds:
        rounds += 1
        for index, case in enumerate(cases):
            attempted += 1
            counts0 = (tracer.gr_ops, tracer.traced) if tracer else (0, 0)
            probe.sample_if_due()
            try:
                verdict, span = timed(tracing.ROOT_DECIDE, W.decide, case)
            except Exception as exc:  # a crash is a failed operation
                failed += 1
                errors.append(f"{index} {case.name}: {type(exc).__name__}: {exc}")
                continue
            if tracer:
                gr_ops += tracer.gr_ops - counts0[0]
                traced += tracer.traced - counts0[1]
            if verdict.dimension is not None:
                dims.append(verdict.dimension)
            case_spans[index].append(span)
            sig = _signature(verdict)
            if signatures[index] is None:
                signatures[index] = sig
            ok = verdict.equivalent == case.label and sig == signatures[index]
            if ok and not verdict.equivalent:
                try:
                    ok, span = timed(tracing.ROOT_RECHECK, W.recheck, case, verdict)
                except Exception as exc:
                    ok = False
                    errors.append(f"{index} {case.name}: recheck {type(exc).__name__}: {exc}")
                else:
                    recheck_spans[index].append(span)
            if not ok:
                failed += 1
                continue
            if not proven[index] or not truth.certificate_confirmed(case, verdict):
                correct = False

    probe.sample()

    def ms(spans, scaled):
        if scaled:
            return [[1e3 * probe.scaled(*s) for s in row] for row in spans]
        return [[1e3 * (end - start) for start, end in row] for row in spans]

    case_ms, recheck_ms = ms(case_spans, False), ms(recheck_spans, False)
    scaled_ms, scaled_recheck_ms = ms(case_spans, True), ms(recheck_spans, True)
    decisions = sum(map(len, case_ms))
    summary = {
        "rounds": rounds,
        "decisions": decisions,
        "decide_s_total": sum(map(sum, case_ms)) / 1e3,
        "cases": [
            {"class": c.name, "label": c.label, "verdict": sig,
             "decide_ms": dms, "recheck_ms": rms, "decide_ms_scaled": sms}
            for c, sig, dms, rms, sms in zip(cases, signatures, case_ms, recheck_ms, scaled_ms)
        ],
        "probe_factors": probe.factors,
        "verdict_digest": hashlib.sha256(
            json.dumps(signatures).encode()).hexdigest()[:16],
        "errors": errors[:20],
    }
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer.spans, max(1, decisions), gr_ops, traced,
                                statistics.fmean(dims) if dims else 0.0)
    else:
        metrics = end_to_end(cases, scaled_ms, scaled_recheck_ms)
    return correct, attempted, failed, metrics, summary


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_child:
        return _setup_child(args)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}, "
                 f"expected one of {', '.join(workloads.WORKLOADS)}")
    tracer = setup = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup, setup_factors = _setup_seconds(args)
    probe = reference.SpeedProbe(workloads.PROBE_KERNELS[args.workload])
    correct, attempted, failed, metrics, summary = _run(args, tracer, probe)
    if setup is not None:
        summary["setup_s"] = setup
        summary["setup_probe_factors"] = setup_factors
        metrics["setup_s"] = (statistics.median(s for _, s in setup), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "result": result, **summary}, fh, indent=1)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
