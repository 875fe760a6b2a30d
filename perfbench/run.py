#!/usr/bin/env python3
"""Benchmark of rhbvp: one workload per run, closed loop with one caller.

    python3 perfbench/run.py --workload disk_certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from src/.
A run sets up once, then repeats rounds of its workload until --seconds
have passed (at least three rounds), collecting garbage between rounds.
Every output is checked (workloads.py, checks.py).

With --trace 0 the metrics are setup_s, round_s and peak_rss_mb; with
--trace 1 rounds alternate untraced and traced and the metrics are the
per-module ones of tracing.py, per traced round, plus the tracing
overhead.  The last line of standard output is one JSON object.

Times are given at the reference host speed.  The speed of this host's
CPUs drifts by up to 1.8x over seconds to minutes, so a fixed probe
kernel (speed_probe) runs before each operation and after each round,
and a round's wall time is multiplied by REFERENCE_PROBE_S over the
median probe time of that round.  See README.md.
"""

import os

BLAS_THREADS = 1  # fixed, and at most nproc; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 11
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("disk_certify", "family_solve", "cli_star")

# The probe's time on the reference machine (2-core Xeon, 2.0 GHz).
REFERENCE_PROBE_S = 0.003


def speed_probe() -> float:
    """Seconds taken by a fixed mix of vector math, an FFT and interpreted code."""
    import numpy as np
    z = np.exp(1j * np.linspace(0.0, 1.0, 4096))
    x = np.cos(np.arange(2**15))
    t0 = time.perf_counter()
    for _ in range(8):
        np.exp(z * 1.0001)
    np.fft.fft(x)
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    return time.perf_counter() - t0


def import_rhbvp():
    """Import rhbvp (and its CLI) from the checkout's src/, nowhere else."""
    if not (SRC / "rhbvp" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rhbvp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rhbvp
    import rhbvp.cli  # noqa: F401
    if Path(rhbvp.__file__).resolve().parent != SRC / "rhbvp":
        raise ImportError(f"rhbvp imported from {rhbvp.__file__}, not {SRC}")
    return rhbvp


def build(R, name: str, seed: int, small: bool, workdir: Path):
    import numpy as np
    from workloads import WORKLOADS
    return WORKLOADS[name](R, np.random.default_rng(seed), small, workdir, CONFIGS)


class Recorder:
    """Times the operations of one round and collects their failed checks."""

    def __init__(self, tracer, known_faults):
        self.tracer = tracer
        self.known = known_faults
        self.elapsed = 0.0
        self.probes: list[float] = []
        self.attempted = 0
        self.failed: list[tuple[str, list]] = []
        self.unexpected = False

    def count(self, name, value):
        if self.tracer is not None:
            self.tracer.count(name, value)

    def op(self, name, run, check):
        self.attempted += 1
        self.probes.append(speed_probe())
        failures = []
        out = None
        if self.tracer is not None:
            self.tracer.active = True
        try:
            t0 = time.perf_counter()
            out = run()
            self.elapsed += time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(("raised", f"{type(exc).__name__}: {exc}"))
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        if not failures:
            def expect(check_name, ok, detail=""):
                if not ok:
                    failures.append((check_name, detail))
            try:
                check(out, expect)
            except Exception as exc:
                failures.append(("check_raised", f"{type(exc).__name__}: {exc}"))
        if failures:
            self.failed.append((name, failures))
            if any((name, c) not in self.known for c, _ in failures):
                self.unexpected = True
        return out

    def speed_scale(self) -> float:
        """Factor from this round's wall time to time at the reference speed."""
        self.probes.append(speed_probe())
        return REFERENCE_PROBE_S / statistics.median(self.probes)


def setup_probe(args) -> None:
    """Child process: time import rhbvp plus building the workload's inputs."""
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        R = import_rhbvp()
        build(R, args.workload, args.seed, args.small, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe = statistics.median(speed_probe() for _ in range(5))
    print(json.dumps({"setup_s": elapsed, "probe_s": probe}))


def median_setup(args) -> float:
    """Median set-up time of fresh processes, at the reference speed.

    Each process rescales its own time by probes it runs right after.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(child["setup_s"] * REFERENCE_PROBE_S / child["probe_s"])
    return statistics.median(samples)


def run_workload(args) -> int:
    from tracing import METRICS, Tracer
    from workloads import KNOWN_FAULTS

    R = import_rhbvp()
    import numpy as np
    workdir = OUT / f"run-{os.getpid()}"
    try:
        setup_s = median_setup(args)
        wl = build(R, args.workload, args.seed, args.small, workdir)
        tracer = Tracer() if args.trace else None
        plain, traced, wall = [], [], []
        attempted, failed, unexpected = 0, {}, False
        min_rounds = 2 * MIN_ROUNDS if tracer else MIN_ROUNDS
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k < min_rounds or time.perf_counter() < deadline:
            traced_round = tracer is not None and k % 2 == 1
            gc.collect()
            if traced_round:
                tracer.round = len(traced)
                tracer.install()
            rec = Recorder(tracer if traced_round else None, KNOWN_FAULTS)
            try:
                wl.round(rec)
            finally:
                if traced_round:
                    tracer.uninstall()
            scale = rec.speed_scale()
            if traced_round:
                tracer.end_round(scale)
                traced.append(rec.elapsed * scale)
            else:
                plain.append(rec.elapsed * scale)
                wall.append(rec.elapsed)
            attempted += rec.attempted
            unexpected |= rec.unexpected
            for name, failures in rec.failed:
                failed.setdefault(name, [0, failures])[0] += 1
            k += 1
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_failed = sum(c for c, _ in failed.values())
    print(f"workload={args.workload} seed={args.seed} small={int(args.small)} "
          f"trace={args.trace} blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
          f"numpy={np.__version__} rounds={len(plain)}+{len(traced)} traced "
          f"median_wall_round_s={statistics.median(wall):.6g}")
    for name, (count, failures) in sorted(failed.items()):
        known = all((name, c) in KNOWN_FAULTS for c, _ in failures)
        detail = "; ".join(f"{c}: {d}" for c, d in failures)
        print(f"FAILED {name} x{count} ({'known fault' if known else 'UNEXPECTED'}): "
              f"{detail}")
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "round_s": (statistics.median(plain), "s"),
                   "peak_rss_mb": (peak, "MiB")}
    else:
        per_round = tracer.per_round(len(traced))
        metrics = {n: (per_round[n], METRICS[n]) for n in METRICS}
        metrics["tracing.round_s"] = (statistics.median(traced), "s")
        metrics["tracing.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s")
        metrics["tracing.unattributed_s"] = (
            (sum(traced) - tracer.top_level_s) / len(traced), "s")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {n_failed}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": n_failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        code = max(code, subprocess.run(cmd, cwd=ROOT, timeout=600).returncode)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small problem sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
