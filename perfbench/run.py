"""zrbr benchmark: one workload, one process, timed through the public API.

    python3 perfbench/run.py --workload strang-2d --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are
the per-layer metrics from a traced run (see perfbench/README.md).  Full
results, and the spans of a traced run, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# Single-threaded numerics for this process and its set-up probes only.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TRACE_UNTRACED_SHARE = 0.35  # of --seconds, in a traced run

# The speed of a shared machine drifts by tens of percent over seconds.  A
# fixed calibration kernel is timed before and after every unit, and each
# unit's wall time is rescaled to the speed at which the kernel takes
# CAL_NOMINAL_S (near its fastest time on a 2-CPU Xeon with numpy 2.4.6).
CAL_NOMINAL_S = 0.025


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("strang-2d", "strang-3d-diag", "spacetime", "verify"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # internal: time import and set-up
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def pin_cpu():
    """Pin this process (and the set-up probes it starts) to one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1]


def environment(pinned_cpu) -> dict:
    import numpy as np

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "pocketfft" if "numpy.fft._pocketfft" in sys.modules else "unknown",
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(values):
    """(label, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return f"p{int(100 * (n - 10) / n)}", sorted(values)[n - 11]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Calibration:
    """Fixed mix of small FFTs, transcendental ufuncs and interpreted loop,
    bound to the numpy functions before any tracer wraps them."""

    def __init__(self):
        import numpy as np

        self._fftn, self._ifftn, self._exp = np.fft.fftn, np.fft.ifftn, np.exp
        self._a = np.random.default_rng(0).random((64, 64)) + 0j

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(96):
            self._ifftn(self._exp(1e-3j * self._fftn(self._a).real))
        acc = 0
        for i in range(80_000):
            acc += i * i
        return time.perf_counter() - t0


class Run:
    """Timed units of one workload, with their check outcomes."""

    def __init__(self, workload):
        self.workload = workload
        # per kind, seconds per item: at nominal speed, and as measured
        self.times = {k.name: [] for k in workload.kinds}
        self.raw = {k.name: [] for k in workload.kinds}
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict = {}
        self.calibrate = Calibration()
        self._last_cal = None

    def unit(self, kind, tracer=None):
        gc.collect()
        self.attempted += 1
        cal_before = self._last_cal or self.calibrate()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = kind.call()
            else:
                with tracer.span("unit." + kind.name):
                    result = kind.call()
            wall = time.perf_counter() - t0
            summary = kind.summarize(result)
        except Exception:  # a unit that raises is a failed operation
            self.failures.append(f"{kind.name}: {traceback.format_exc(limit=3)}")
            return
        finally:
            self._last_cal = self.calibrate()
        del result
        speed = CAL_NOMINAL_S / (0.5 * (cal_before + self._last_cal))
        self.times[kind.name].append(wall * speed / kind.items)
        self.raw[kind.name].append(wall / kind.items)
        problems = kind.check(summary)
        ref = self.workload.reference
        if ref is not None:
            import workloads

            problems += [f"reference {p}" for p in workloads.compare(
                {k: summary[k] for k in kind.reference_keys}, ref[kind.name])]
        if "ineq3_max_ratio" in summary:
            self.notes["ineq3_max_ratio"] = summary["ineq3_max_ratio"]
        if problems:
            self.failures.append(f"{kind.name}: " + "; ".join(problems))

    def rounds(self, seconds, min_rounds, tracer=None):
        """Run every kind in turn for about `seconds`: a round starts only
        if it is expected to end less than half a round past the deadline."""
        start = time.perf_counter()
        done = 0
        while True:
            elapsed = time.perf_counter() - start
            if done >= min_rounds and elapsed + 0.5 * elapsed / max(done, 1) >= seconds:
                break
            for kind in self.workload.kinds:
                for _ in range(kind.per_round):
                    self.unit(kind, tracer)
            done += 1


def setup_probes(args, calibrate) -> list:
    """Set-up time of fresh processes, spawn to inputs ready, in seconds at
    nominal speed."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    cal = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        wall = float(proc.stdout.split()[-1]) - t0
        cal_after = calibrate()
        out.append(wall * CAL_NOMINAL_S / (0.5 * (cal + cal_after)))
        cal = cal_after
    return out


def end_to_end(run, probe_setups) -> dict:
    from workloads import warm

    metrics = {}
    excess = 0.0
    for kind in run.workload.kinds:
        t = run.times[kind.name]
        if not t:
            continue
        rest = warm(t)
        metrics[kind.slot] = {"value": statistics.median(rest), "unit": "s"}
        # Work moved into first calls or caches shows in set-up time.  Only the
        # part of a first unit beyond the outer fence of the later ones (upper
        # quartile plus three interquartile ranges) counts, so that noise on
        # a shared machine does not.
        if len(rest) > 1:
            q1, _, q3 = statistics.quantiles(rest, n=4)
            excess += max(0.0, t[0] - (q3 + 3.0 * (q3 - q1))) * kind.items
    metrics["setup_s"] = {"value": statistics.median(probe_setups) + excess, "unit": "s"}
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MiB"}
    return metrics


def print_timings(run):
    from workloads import warm

    for kind in run.workload.kinds:
        t = [v * kind.scale for v in warm(run.times[kind.name])]
        if not t:
            print(f"timing {kind.name}: no successful units")
            continue
        raw = statistics.median(warm(run.raw[kind.name])) * kind.scale
        line = (f"timing {kind.name}: median {statistics.median(t):.6g} {kind.unit}"
                f" at nominal speed ({raw:.6g} as measured) over {len(t)} units"
                f" after the first ({kind.slot})")
        tl = tail(t)
        line += f", {tl[0]} {tl[1]:.6g} {kind.unit}" if tl else ", too few units for a tail"
        print(line)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zrbr", "__init__.py")):
        print(f"error: package sources not found under {SRC}; run from a zrbr checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cpu = pin_cpu()

    import workloads

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, out_dir, REFERENCE)
        print(time.monotonic())
        return 0

    os.makedirs(OUT, exist_ok=True)
    try:
        wl = workloads.prepare(args.workload, args.seed, out_dir, REFERENCE)
        run = Run(wl)
        probes = [] if args.trace else setup_probes(args, run.calibrate)
        if args.trace:
            import layers

            result = layers.traced_run(run, args.seconds, TRACE_UNTRACED_SHARE, OUT, args)
            metrics = result["metrics"]
        else:
            run.rounds(args.seconds, min_rounds=2)
            metrics = end_to_end(run, probes)
            result = {"setup_probes_s": probes}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    env = environment(cpu)
    failed = len(run.failures)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f" reference-check {'on' if wl.reference is not None else 'off (not the default seed)'}")
    print_timings(run)
    print(f"ops_failed_frac: {failed / max(run.attempted, 1):.6g} ratio"
          f" ({failed} of {run.attempted} units)")
    for key, value in run.notes.items():
        print(f"{key}: {value:.6g} (reported, not gated)")
    for text in run.failures:
        print(f"FAILED {text}")
    for name, m in metrics.items():
        print(f"metric {name}: {m['value']:.9g} {m['unit']}")

    record = dict(result, env=env, workload=args.workload, seed=args.seed, trace=args.trace,
                  attempted=run.attempted, failures=run.failures, notes=run.notes,
                  timings=run.times, raw_timings=run.raw, metrics=metrics)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
