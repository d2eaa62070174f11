"""kgbench: the kgw_ray benchmark (see README.md next to this file).

    python3 kgbench/run.py --workload webkg_build --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Everything the run writes lives in a
private directory ``.kgbench/run-<pid>`` that is removed at exit; traced
runs keep their spans in ``.kgbench/spans-<workload>-<seed>.json``. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 3  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 150  # a run gives up (exit 3) after this many seconds

END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s"),
    ("op_geomean_ms", "ms"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
]


def log(msg: str) -> None:
    print(f"kgbench: {msg}", file=sys.stderr, flush=True)


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def prune_dead_runs(state_dir: str) -> None:
    """Remove the private directories of earlier runs that were killed
    before they could remove their own (runs still alive keep theirs)."""
    if not os.path.isdir(state_dir):
        return
    for name in os.listdir(state_dir):
        if name.startswith("run-") and name[4:].isdigit():
            if not os.path.exists(f"/proc/{name[4:]}"):
                shutil.rmtree(os.path.join(state_dir, name), ignore_errors=True)


def end_to_end(setups: list[float], rss: float, records: list[dict]) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in records:
        for k, v in r["ops"].items():
            kinds.setdefault(k, []).extend(v)
    unit = sorted(x for r in records for x in r["unit"])
    geo = math.exp(statistics.fmean(math.log(statistics.median(v)) for v in kinds.values()))
    q = statistics.quantiles(unit, n=10, method="inclusive") if len(unit) > 1 else unit * 9
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "pass_s": statistics.median(r["wall"] for r in records),
        "op_geomean_ms": 1000 * geo,
        "op_ms_p50": 1000 * statistics.median(unit),
        "op_ms_p90": 1000 * q[8],
    }


def measure(wl, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
    """Closed loop of passes for ``seconds`` (at least ``wl.min_passes``).
    Traced runs alternate untraced and traced passes; returns
    (untraced records, traced records)."""
    untraced, traced = [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            wl.trace_targets(tracer)
            tracer.install()
            n_spans, n_exec = len(tracer.spans), len(tracer.executions)
            counts = dict(tracer.counts)
            t0 = time.perf_counter()
            try:
                rec = wl.run_pass(i, tracer.span)
            finally:
                tracer.uninstall()
            t1 = time.perf_counter()
            rec.update(
                spans_from=n_spans,
                executions=len(tracer.executions) - n_exec,
                exec_s=tracer.exec_union_s(t0, t1, n_exec),
                materialize=tracer.counts["materialize"] - counts["materialize"],
                count=tracer.counts["count"] - counts["count"],
            )
            traced.append(rec)
        else:
            untraced.append(wl.run_pass(i))
        i += 1
        done = len(untraced) >= wl.min_passes and (tracer is None or traced)
        if done and time.perf_counter() - t_start >= seconds:
            return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kgw_ray benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one answer before checking (smoke test)")
    a = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "kgw_ray", "__init__.py")):
        log(f"kgw_ray not found under {ROOT}; run from a checkout of the repo")
        return 2
    sys.path[:0] = [HERE, ROOT]
    import gen
    import ray_session
    import workloads

    if a.workload not in workloads.WORKLOADS:
        log(f"unknown workload {a.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2

    state_dir = os.path.join(ROOT, ".kgbench")
    prune_dead_runs(state_dir)
    run_dir = os.path.join(state_dir, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)  # left by a dead run with our pid
    os.makedirs(run_dir)
    # private scratch for everything the run and its Ray processes write;
    # KGBENCH_RUN marks every process the run starts
    os.environ.update(
        KGBENCH_RUN=run_dir,
        KGW_RAY_HUB_DIR=os.path.join(run_dir, "hub"),
        RAY_USAGE_STATS_ENABLED="0",
        RAY_DATA_DISABLE_PROGRESS_BARS="1",
    )
    # keep stdout for the result line: everything else goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    session = None
    phases: dict[str, float] = {}
    t_phase = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal t_phase
        now = time.perf_counter()
        phases[name] = now - t_phase
        t_phase = now

    try:
        wl = workloads.WORKLOADS[a.workload](run_dir, a.seed, a.size, a.inject_wrong)
        wl.prepare()
        warm_dir = os.path.join(run_dir, "warm")
        workloads.prepare_warm_up(warm_dir)
        log(f"{a.workload} seed {a.seed}: inputs sha256 {gen.digest(wl.dir)}")
        ncpu = ray_session.cpu_count()
        phase("prepare")

        import ray.data as rd
        from kgw_ray._shipping import ensure_importable_in_workers

        ensure_importable_in_workers()  # driver-side imports, once
        setups = []
        for _ in range(1 if a.trace else SETUPS):
            if session is not None:
                session.stop()
            t0 = time.perf_counter()
            session = ray_session.Session(run_dir, ncpu)
            rd.DataContext.get_current().enable_progress_bars = False
            workloads.warm_up(warm_dir)
            setups.append(time.perf_counter() - t0)
        wl.prime()
        phase("setup")

        tracer = None
        if a.trace:
            from tracing import Tracer

            tracer = Tracer()
        with ray_session.PeakRss() as rss:
            untraced, traced = measure(wl, a.seconds, tracer)
        session.stop()
        session = None
        phase("measure")

        records = untraced + traced
        attempted, failed, why = wl.check(records)
        phase("check")
        for w in why:
            log(f"wrong answer: {w}")
        if a.trace:
            metrics = dict.fromkeys((n for n, _ in workloads.PER_LAYER), 0.0)
            metrics.update(wl.layers(tracer, traced, untraced))
            units = dict(workloads.PER_LAYER)
            tracer.dump(os.path.join(state_dir, f"spans-{a.workload}-{a.seed}.json"))
            log(f"tracing overhead: {metrics['trace.overhead_share']:+.1%} of a pass")
        else:
            metrics = end_to_end(setups, rss.mb, records)
            units = dict(END_TO_END)
        phase("report")
        log("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items())
            + f"; {len(records)} passes on {ncpu} CPUs: "
            + " ".join(f"{r['wall']:.2f}" for r in records) + " s")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
    except Exception:
        log(traceback.format_exc())
        return 3
    finally:
        signal.alarm(0)
        if session is not None:
            try:
                session.stop()
            except Exception:
                log(traceback.format_exc())
        shutil.rmtree(run_dir, ignore_errors=True)
        os.dup2(result_fd, 1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
