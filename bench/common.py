"""Plumbing shared by the workloads: paths, the environment of every process
the benchmark starts, running program commands, and summary statistics."""

from __future__ import annotations

import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
CATALOG_FILE = SRC / "macronet" / "data" / "protoss_vs_terran.catalog"

# One BLAS thread everywhere: every process shares the one CPU the benchmark
# pins itself to.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 120.0


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU. On a
    shared virtual machine a request whose peer sleeps on another vCPU waits
    a host-dependent time for it to wake; with client and server on one
    CPU that wait, which doubled service latency in slow spells, is gone."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def stolen_seconds() -> float:
    """Time the host has taken from this process's CPU while it had work:
    the steal column of /proc/stat for the CPU the benchmark is pinned to,
    or 0 where the kernel does not report it."""
    cpu = min(os.sched_getaffinity(0))
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class Stopwatch:
    """Wall time less the time the host stole from the benchmark's CPU. On
    a shared virtual machine the host took up to a third of the CPU in slow
    spells, and throughput and set-up times moved with it by more than the
    changes the benchmark is meant to see."""

    def __init__(self):
        self._wall = time.perf_counter()
        self._stolen = stolen_seconds()

    def wall(self) -> float:
        return time.perf_counter() - self._wall

    def stolen(self) -> float:
        return stolen_seconds() - self._stolen

    def seconds(self) -> float:
        return self.wall() - self.stolen()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def macronet_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "macronet", *args]


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for proc with wait4, so its own resource usage comes back; kill it
    if it outlives the timeout. Returns (exit code, peak RSS in MB)."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class CommandFailed(RuntimeError):
    pass


def run_command(args: list[str], workdir: Path) -> tuple[float, float, str]:
    """Run one macronet subcommand to completion from a collected heap.
    Returns (Stopwatch seconds, peak RSS MB of the command's process, stdout)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        gc.collect()
        clock = Stopwatch()
        proc = subprocess.Popen(macronet_argv(*args), stdout=out, stderr=err, env=child_env())
        code, rss = _reap(proc, COMMAND_TIMEOUT_S)
        seconds = clock.seconds()
    if code != 0:
        raise CommandFailed(f"macronet {args[0]} exited {code}: {err_path.read_text()[-2000:]}")
    return seconds, rss, out_path.read_text()


class ServerProcess:
    """``macronet serve`` in its own process, on a port the kernel picks."""

    def __init__(self, model_path: Path, seed: int, log_path: Path):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            macronet_argv("serve", "--model", str(model_path), "--bind", "127.0.0.1:0",
                          "--seed", str(seed)),
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(),
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace").strip()
        finally:
            watchdog.cancel()
        if not line.startswith("serving model "):
            self.stop()
            raise CommandFailed(f"server did not start: {line!r}")
        host, _, port = line.rsplit(" ", 1)[1].rpartition(":")
        self.address = (host, int(port))
        self.peak_rss_mb = None

    def stop(self) -> float:
        """SIGTERM, then wait; returns the server's peak RSS in MB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _, self.peak_rss_mb = _reap(self.proc, 30.0)
            self.proc.stdout.close()
            self._log.close()
        return self.peak_rss_mb


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    return float(statistics.quantiles(values, n=100)[q - 1])


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except Exception as e:  # the BLAS report is informative only
        blas = {"error": f"{type(e).__name__}: {e}"}
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))


SETUP_REPS = 5


class Context:
    """One run of one workload: its seed, its measuring time, its scratch
    directory and, on a traced run, the tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer, program):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.program = program
        self.work = OUT / "work" / f"{workload}-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.metrics: dict[str, dict] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.details: dict = {}
        self.closers: list = []  # called when the run ends, however it ends
        self.clock = Stopwatch()

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def stolen_share(self) -> float:
        """Share of the run's wall time the host took from its CPU."""
        return self.clock.stolen() / self.clock.wall()

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def count(self, workload: str, kind: str, attempted: int, failed: int = 0) -> None:
        """Count operations of ``workload``; a traced run also drives the
        other workloads' layers, and counts only its own workload's."""
        if workload != self.workload:
            return
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed

    def record_overhead(self, part: str, untraced_s: float, traced_s: float) -> None:
        self.details.setdefault("tracing", {})[part] = {
            "untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
            "overhead_s": traced_s - untraced_s}

    def set_up(self, make, discard=None):
        """Run ``make`` SETUP_REPS times, each from a collected heap, and
        record the median as setup_s; earlier results go to ``discard``.
        A traced run sets up once and records no setup_s."""
        reps = 1 if self.traced else SETUP_REPS
        times, result = [], None
        for rep in range(reps):
            if result is not None and discard is not None:
                discard(result)
            gc.collect()
            clock = Stopwatch()
            result = make()
            times.append(clock.seconds())
        if not self.traced:
            self.metric("setup_s", median(times), "s")
        self.details["setup_s_each"] = times
        return result
