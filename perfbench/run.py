"""Seeded end-to-end benchmark of the phcle CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the workload's inputs from
the seed, then repeats one closed-loop cycle of CLI calls (build-cooc,
train, retrieve/describe/export, correlate) in a single process chain
until the next cycle would end after S seconds (at least two cycles),
checks every output, and prints the metrics, with times scaled to a
reference host speed (see KERNEL_NOMINAL_S). The last stdout line is one
JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one extra cycle whose calls run under
``traced.py``. A fuller record (environment, sample counts, failed
checks, spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# BLAS threads change the trained bits and add run-to-run spread, so they
# are pinned.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every child is killed once the run has lasted this long, so the run
# ends well inside three minutes even if the program hangs.
HARD_LIMIT_S = 160.0
# The speed of a CPU of a shared host swings by up to 1.5x within
# seconds (CPU time swings with wall time, so it is not preemption), and
# the other CPU's swings do not follow it. So the run is pinned to one
# CPU, and while each call runs a thread on that CPU times a fixed kernel
# in its own CPU time every PROBE_INTERVAL_S. A call's wall time is
# divided by the median kernel time over KERNEL_NOMINAL_S, which scales
# it to a reference speed; a train's iterations and its set-up are each
# scaled by the probes taken while they ran. The run's record keeps the
# raw wall times and the factors.
KERNEL_NOMINAL_S = 0.004
PROBE_INTERVAL_S = 0.1

END_TO_END = {
    "train_s": "s", "iter_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "objective_final": "objective",
    "build_cooc_s": "s", "query_s": "s", "correlate_s": "s", "pipeline_s": "s",
}


@dataclass
class Call:
    argv: list
    code: int
    wall: float                 # raw wall time
    probes: list                # (wall-clock time, kernel seconds) taken during the call
    rss_mb: float
    stdout: str
    stderr: str

    def speed_where(self, taken) -> float:
        """Median kernel time over KERNEL_NOMINAL_S, of the probes whose
        time passes ``taken`` (of all probes when none does)."""
        kernel_s = [k for t, k in self.probes if taken(t)] or [k for _, k in self.probes]
        return statistics.median(kernel_s) / KERNEL_NOMINAL_S

    @property
    def speed(self) -> float:
        return self.speed_where(lambda t: True)

    @property
    def seconds(self) -> float:
        """Wall time at the reference speed."""
        return self.wall / self.speed


@dataclass
class Cycle:
    calls: list = field(default_factory=list)
    checks: list = field(default_factory=list)   # (name, error or None)
    spans: list = field(default_factory=list)    # one span list per traced call
    absent: set = field(default_factory=set)
    train: Call | None = None
    train_s: float = 0.0
    setup_s: float | None = None
    iter_seconds: list = field(default_factory=list)
    objective: float | None = None
    model_sha: str | None = None
    build_s: float = 0.0
    query_s: list = field(default_factory=list)
    correlate_s: list = field(default_factory=list)
    pipeline_s: float = 0.0


class Runner:
    """Runs phcle CLI calls as child processes, one at a time."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
        import numpy as np

        self.kernel_matrix = np.random.default_rng(0).random((96, 96))

    def kernel(self) -> float:
        """CPU seconds of a fixed mix of interpreter loop and single-thread
        BLAS products, the two kinds of work the program does."""
        import numpy as np

        start = time.thread_time()
        acc = 0
        for i in range(60_000):
            acc += i * i
        m = self.kernel_matrix
        for _ in range(4):
            m = np.tanh(m @ self.kernel_matrix)
        return time.thread_time() - start

    def probe(self, samples: list, stop: threading.Event):
        while True:
            samples.append((time.time(), self.kernel()))
            if stop.wait(PROBE_INTERVAL_S):
                return

    def call(self, argv, spans_path=None) -> Call:
        self.count += 1
        if spans_path is None:
            cmd = [sys.executable, "-m", "phcle.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(spans_path), "--", *argv]
        out_path = self.workdir / f"call{self.count}.out"
        err_path = self.workdir / f"call{self.count}.err"
        remaining = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            probes, stop = [], threading.Event()
            prober = threading.Thread(target=self.probe, args=(probes, stop))
            prober.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                # Interrupted (SIGTERM or Ctrl-C): leave no child behind.
                proc.kill()
                proc.wait()
                raise
            finally:
                stop.set()
                watchdog.cancel()
                prober.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(
            argv=list(argv), code=proc.returncode, wall=wall, probes=probes, rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def run_cycle(wl, runner: Runner, index: int, traced: bool) -> Cycle:
    import checks
    from phcle.datamodel import load_model

    cycle = Cycle()
    workdir = Path(wl.directory)
    model = workdir / f"model{index}.bin"

    def call(argv):
        spans_path = workdir / f"spans{runner.count + 1}.json" if traced else None
        result = runner.call(argv, spans_path)
        cycle.calls.append(result)
        if traced and spans_path.exists():
            data = json.loads(spans_path.read_text(encoding="utf-8"))
            cycle.spans.append(data["spans"])
            cycle.absent.update(data["absent"])
        return result

    def with_model(argv):
        return [argv[0], "--model", str(model), *argv[1:]]

    # The chain runs back to back; its outputs are checked afterwards.
    build = call(wl.build_args)
    cycle.train = call([*wl.train_args, "--out", str(model)])
    cycle.train_s = cycle.train.seconds
    queries = [(kind, argv, call(with_model(argv))) for kind, argv in wl.queries]
    correlates = [call(with_model(wl.correlate_args)) for _ in range(wl.correlates)]
    cycle.pipeline_s = sum(c.seconds for c in cycle.calls)
    cycle.build_s = build.seconds
    cycle.query_s = [q.seconds for _, _, q in queries]
    cycle.correlate_s = [c.seconds for c in correlates]

    def check(name, fn, *args):
        try:
            error = fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        cycle.checks.append((name, error))

    for c in cycle.calls:
        error = None if c.code == 0 else f"exit code {c.code}: {c.stderr.strip()[-300:]}"
        cycle.checks.append((f"exit {c.argv[0]}", error))
    check("build-cooc summary", checks.check_build, build.stdout, wl.D)

    def history_checks():
        history = checks.read_history(f"{model}.history.tsv")
        # The iterations run back to back and end just before the model
        # is written.
        raw = [row["seconds"] for row in history[1:]]
        end = model.stat().st_mtime
        first = end - sum(raw)
        cycle.iter_seconds = []
        for i, seconds in enumerate(raw):
            stop = end - sum(raw[i + 1:])
            cycle.iter_seconds.append(seconds / cycle.train.speed_where(lambda t: stop - seconds <= t <= stop))
        cycle.setup_s = (cycle.train.wall - sum(raw)) / cycle.train.speed_where(lambda t: not first <= t <= end)
        cycle.train_s = cycle.setup_s + sum(cycle.iter_seconds)
        cycle.objective = history[-1]["objective"]
        loaded, vocab, _ = load_model(model)
        cycle.model_sha = hashlib.sha256(model.read_bytes()).hexdigest()
        return checks.check_objective(checks.reference_objective(wl, loaded, vocab), cycle.objective) \
            or checks.check_descent(history)

    check("objective recomputed and descending", history_checks)
    for kind, argv, q in queries:
        if kind == "retrieve":
            query, topk = argv[argv.index("--query") + 1], int(argv[argv.index("--topk") + 1])
            check("retrieve", checks.check_retrieve, q.stdout, query, topk, wl.labels)
        elif kind == "describe":
            check("describe", checks.check_describe, q.stdout)
        elif kind == "export":
            check("export header", checks.check_export, argv[argv.index("--out") + 1], len(wl.labels), wl.dim)
    for c in correlates:
        check("correlate", checks.check_correlate, c.stdout, wl.subset, wl.clusters)
    return cycle


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    sources = sorted((ROOT / "src").rglob("*.py"))
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources)
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "src_lines": src_lines,
        "thread_env": THREAD_ENV,
    }


def end_to_end(cycles) -> tuple[dict, dict]:
    """Medians over the cycles, and the samples behind each."""
    trains = [c.train for c in cycles]
    samples = {
        "train_s": [c.train_s for c in cycles],
        "iter_s": [s for c in cycles for s in c.iter_seconds],
        "setup_s": [c.setup_s for c in cycles if c.setup_s is not None],
        "peak_rss_mb": [t.rss_mb for t in trains],
        "objective_final": [c.objective for c in cycles if c.objective is not None],
        "build_cooc_s": [c.build_s for c in cycles],
        "query_s": [s for c in cycles for s in c.query_s],
        "correlate_s": [s for c in cycles for s in c.correlate_s],
        "pipeline_s": [c.pipeline_s for c in cycles],
    }
    values = {k: statistics.median(v) if v else float("nan") for k, v in samples.items()}
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phcle" / "cli.py").is_file():
        print(f"error: no phcle sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    # Pin BLAS threads for this process's own numpy before it loads.
    os.environ.update(THREAD_ENV)
    # One CPU for this process, its probe thread and every child.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import layers
    import workloads

    if args.workload not in workloads.GENERATORS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        wl = workloads.GENERATORS[args.workload](args.seed, str(workdir))
        generate_s = time.perf_counter() - started
        runner = Runner(workdir, started)

        # Untraced cycles fill the window; a traced run keeps room for one
        # traced cycle after them. No cycle starts that would be expected to
        # end after the window (once the minimum is met) or the hard limit.
        cycles = []
        window = time.perf_counter()
        minimum, ahead = (1, 2) if args.trace else (2, 1)
        while True:
            cycles.append(run_cycle(wl, runner, len(cycles), traced=False))
            elapsed = time.perf_counter() - window
            needed = ahead * elapsed / len(cycles)
            if len(cycles) >= minimum and elapsed + needed > args.seconds:
                break
            if time.perf_counter() - started + needed > HARD_LIMIT_S:
                break
        traced_cycle = run_cycle(wl, runner, len(cycles), traced=True) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()

    every = cycles + ([traced_cycle] if traced_cycle else [])
    checks_run = [chk for c in every for chk in c.checks]
    shas = {c.model_sha for c in every}
    checks_run.append(("same model SHA-256 on every cycle", None if len(shas) == 1 and None not in shas
                       else f"model hashes differ across cycles: {sorted(map(str, shas))}"))
    failures = [(name, error) for name, error in checks_run if error]
    attempted, failed = len(checks_run), len(failures)

    values, samples = end_to_end(cycles)
    if args.trace:
        metrics = layers.aggregate(traced_cycle.spans)
        metrics["trace.overhead_s"] = traced_cycle.train_s - values["train_s"]
        units = {name: layers.unit(name) for name in metrics}
    else:
        metrics, units = values, END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "generate_s": generate_s, "cycles": len(cycles),
        "samples": samples, "end_to_end": values, "metrics": metrics,
        "calls": [{"argv": c.argv[0], "wall_s": c.wall, "speed": c.speed} for cy in every for c in cy.calls],
        "fail_ratio": failed / attempted, "failures": failures,
        "absent_spans": sorted(traced_cycle.absent) if traced_cycle else [],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced_cycle:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(traced_cycle.spans) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(cycles)} untraced cycles of "
          f"{len(wl.queries)} queries each, closed loop, one client; "
          f"inputs generated in {generate_s:.2f} s")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, unit in units.items():
        count = f"  (median of {len(samples[name])})" if name in samples else ""
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}{count}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>16.6g} ratio"
          f"  ({failed} failed of {attempted} calls and checks)")
    for name, error in failures:
        print(f"FAILED {name}: {error}")
    if record["absent_spans"]:
        print("absent spans: " + " ".join(record["absent_spans"]))
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
