"""curvint benchmark: one workload, run in this process through
`curvint.cli.run`, as a closed loop with one client.

    python3 perfbench/run.py --workload mesh_flow --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run it from anywhere inside a checkout: it imports curvint from the
checkout's `src/` and writes only under `.perfbench_out/` there. The
last line of stdout is the JSON result; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. Each run also writes
a JSON record (environment, digests, samples) to `.perfbench_out/runs/`.
"""

import os

# one BLAS/OpenMP thread: the host may have only two cores, and the
# benchmark runs a single client
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # never used while tuning; re-check gains on it
SETUP_PASSES = 8  # spread over the timed window, after the first one
TAIL_BEYOND = 10
E2E = [("setup_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"), ("items_per_s", "1/s"),
       ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]


# ---------------------------------------------------------------------------
# machine-speed calibration
#
# The small shared hosts this runs on execute both interpreted code and
# numpy up to 1.8x slower in phases lasting seconds to minutes, so raw
# wall times of the same code wander by more than any useful bound. A
# fixed piece of work, timed right before and right after every job and
# set-up pass, slows down with them; each time is reported scaled to a
# host on which that work takes CAL_REF_S (see README, "Calibration").

CAL_REF_S = 0.025
# a fixed 7-point ring: the calibration never depends on --seed
_CAL_RING = np.random.default_rng(20111).standard_normal((7, 3))


def calibration() -> float:
    """Wall seconds the fixed calibration work takes now: an interpreted
    loop, then many numpy calls on one-ring-sized arrays, about two thirds
    and one third of it on the defining host; curvint's jobs are made of
    both. Of the mixes tried, this one tracked the slow phases of all four
    workloads best."""
    t0 = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i
    p = _CAL_RING
    for _ in range(160):
        np.linalg.norm(np.cross(p[1:] - p[0], p[:-1] - p[0]), axis=1).sum()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, from the calibrations around it."""
    return seconds * 2.0 * CAL_REF_S / (before + after)


def calibrated(fn):
    """Run `fn()` between two calibrations: (wall s, scaled s, result)."""
    before = calibration()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return wall, scaled(wall, before, calibration()), result


# ---------------------------------------------------------------------------
# set-up


def import_curvint():
    """Import curvint afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "curvint" or n.startswith("curvint.")]:
        del sys.modules[name]
    ci = importlib.import_module("curvint")
    importlib.import_module("curvint.cli")
    if Path(ci.__file__).resolve().parent != SRC / "curvint":
        raise RuntimeError(f"imported curvint from {ci.__file__}, not from {SRC}")
    return ci


def set_up(workload, seed: int, work: Path):
    """Import curvint and write the inputs, timed and calibrated; returns
    (wall s, scaled s, curvint, job).

    A curvint that is already loaded is put back afterwards, so that jobs
    keep running the same, warm modules."""
    live = {n: m for n, m in sys.modules.items() if n == "curvint" or n.startswith("curvint.")}

    def once():
        ci = import_curvint()
        indir = work / "in"
        shutil.rmtree(indir, ignore_errors=True)
        indir.mkdir(parents=True)
        return ci, workload.setup(ci, np.random.default_rng(seed), indir)

    wall, seconds, (ci, job) = calibrated(once)
    sys.modules.update(live)
    return wall, seconds, ci, job


# ---------------------------------------------------------------------------
# jobs


def run_job(job, work: Path):
    """Run one job's CLI calls; returns (seconds, exit codes, outputs)."""
    for name in job.outputs:
        (work / name).unlink(missing_ok=True)
    cli = sys.modules["curvint.cli"]
    codes = []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            for argv in job.calls:
                codes.append(cli.run(argv))
        except Exception as exc:  # a raising job is a failed job, not a crash
            codes.append(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
    outputs = {name: (work / name).read_text() for name in job.outputs
               if (work / name).exists()}
    if err.getvalue():
        outputs["stderr"] = err.getvalue()
    return seconds, codes, outputs


def digests(outputs: dict) -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}


class Gate:
    """Checks every job's outputs: a job whose outputs are byte-identical
    to the fully checked warm-up passes; any other job is checked in full."""

    def __init__(self, workload, job, expected):
        self.workload, self.job, self.expected = workload, job, expected
        self.verified = None
        self.other_digests = 0  # passing jobs whose outputs differ from the warm-up's
        self.failures: list[str] = []
        self.max_rel_err = 0.0

    def check(self, codes, outputs) -> bool:
        key = (tuple(codes), tuple(sorted(digests(outputs).items())))
        if key == self.verified:
            return True
        self.other_digests += self.verified is not None
        try:
            chk = self.workload.check(self.job, self.expected, outputs, codes)
        except (ValueError, IndexError, KeyError) as exc:  # output not in the expected shape
            chk = Checks()
            chk.require(f"malformed output: {type(exc).__name__}: {exc}", False)
        if "stderr" in outputs:
            chk.failures.append(f"stderr: {outputs['stderr'].strip()[:200]}")
        self.max_rel_err = max(self.max_rel_err, chk.max_rel_err)
        if chk.failures:
            self.failures += chk.failures[:3]
            return False
        self.verified = self.verified or key
        return True

    def self_test(self, codes, outputs) -> bool:
        """The check must reject a deliberately corrupted output."""
        bad = self.workload.corrupt(self.job, outputs)
        return bool(self.workload.check(self.job, self.expected, bad, codes).failures)


def timed_loop(job, work: Path, gate: Gate, seconds: float, tracer=None, between=None):
    """Run jobs for `seconds`, each followed by a calibration; returns
    (wall job times, scaled job times, failed jobs). `between()` runs
    SETUP_PASSES times at even marks of that window, and its time does not
    count against it."""
    wall, times, failed, passes, paused = [], [], 0, 0, 0.0
    gc.collect()
    start = time.perf_counter()
    before = calibration()
    while not times or time.perf_counter() - start - paused < seconds:
        if between is not None and passes < SETUP_PASSES and \
                time.perf_counter() - start - paused >= passes * seconds / SETUP_PASSES:
            t0 = time.perf_counter()
            between()
            before = calibration()
            paused += time.perf_counter() - t0
            passes += 1
            continue
        if tracer is not None:
            tracer.job = len(times) + 1
        t, codes, outputs = run_job(job, work)
        after = calibration()
        wall.append(t)
        times.append(scaled(t, before, after))
        before = after
        failed += not gate.check(codes, outputs)
    for _ in range(SETUP_PASSES - passes if between is not None else 0):
        between()
    return wall, times, failed


def tail(times):
    """The highest order statistic with TAIL_BEYOND samples above it, but
    never below the median: (value, percentile, samples beyond)."""
    s = sorted(times)
    k = max(len(s) - 1 - TAIL_BEYOND, len(s) // 2)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


# ---------------------------------------------------------------------------
# run record


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else f"unknown ({ref[5:]} is packed)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curvint").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# one workload


def measure_plain(workload, seed, seconds, work, job, gate, setups):
    """End-to-end metrics, with set-up passes spread over the timed window.
    `setups` holds (wall s, scaled s) of each set-up pass."""

    def again():
        wall, t, _, same = set_up(workload, seed, work)
        if same.calls != job.calls:
            raise RuntimeError("set-up is not deterministic for this seed")
        setups.append((wall, t))

    wall, times, failed = timed_loop(job, work, gate, seconds, between=again)
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(t for _, t in setups),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "items_per_s": job.items * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (len(times) - failed) / len(times),
    }
    extra = {"tail_percentile": pct, "tail_samples_beyond": beyond, "job_wall_s": wall,
             "wall_job_p50_s": statistics.median(wall),
             "wall_setup_s": statistics.median(w for w, _ in setups)}
    return metrics, times, failed, extra


def measure_traced(workload, seed, seconds, work, job, gate, ci):
    """Per-layer metrics: half the window untraced, then one traced set-up
    pass and half the window of traced jobs, whose outputs must match."""
    wall_plain, plain, failed_plain = timed_loop(job, work, gate, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        job_traced = workload.setup(ci, np.random.default_rng(seed), work / "in")
        gate_traced = Gate(workload, job, gate.expected)
        gate_traced.verified = gate.verified
        wall, times, failed_traced = timed_loop(job_traced, work, gate_traced, seconds / 2,
                                                tracer)
    finally:
        tracer.remove()
    match = gate_traced.other_digests == 0 and job_traced.calls == job.calls
    gate.failures += gate_traced.failures
    gate.max_rel_err = max(gate.max_rel_err, gate_traced.max_rel_err)
    metrics = tracer.metrics()
    metrics.update({
        "trace.untraced_job_p50_s": statistics.median(plain),
        "trace.traced_job_p50_s": statistics.median(times),
        "trace.overhead_s": statistics.median(times) - statistics.median(plain),
        "trace.digest_match": float(match),
        "check.max_rel_err": gate.max_rel_err,
    })
    spans = OUT / "runs" / f"spans-{workload.name}-seed{seed}-{os.getpid()}.csv.gz"
    tracer.write_spans(spans)
    extra = {"spans_file": str(spans.relative_to(ROOT)), "digest_match": match,
             "job_wall_s": wall_plain + wall}
    return metrics, plain + times, failed_plain + failed_traced, extra


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)  # the jobs' argv name their files relative to the work directory
    try:
        wall, t, ci, job = set_up(workload, seed, work)
        setups = [(wall, t)]
        gate = Gate(workload, job, workload.reference(job, work / "in"))

        # warm-up: untimed, checked in full, then the check's self-test
        _, codes, outputs = run_job(job, work)
        warm_ok = gate.check(codes, outputs)
        caught = warm_ok and gate.self_test(codes, outputs)

        record = {
            "workload": name, "item": workload.item, "seed": seed,
            "held_out_seed": HELD_OUT_SEED, "seconds": seconds, "trace": int(traced),
            "load": {"loop": "closed", "clients": 1, "subprocess_per_job": False,
                     "threads": threading.active_count()},
            "environment": environment(),
            "calibration": {"ref_s": CAL_REF_S, "now_s": calibration()},
            "calls_per_job": job.calls, "items_per_job": job.items,
            "setup_s_samples": setups, "warm_up_ok": warm_ok, "self_test_caught": caught,
            "output_sha256": digests(outputs),
        }
        if traced:
            metrics, times, failed, extra = measure_traced(workload, seed, seconds, work, job,
                                                           gate, ci)
            units = dict(trace_metric_names())
        else:
            metrics, times, failed, extra = measure_plain(workload, seed, seconds, work, job,
                                                          gate, setups)
            units = dict(E2E)
        correct = warm_ok and caught and extra.get("digest_match", True) and failed == 0
        record.update(extra)
        record.update(jobs=len(times), failed=failed, other_digests=gate.other_digests,
                      failures=gate.failures[:10], max_rel_err=gate.max_rel_err,
                      job_times_s=times, correct=correct, metrics=metrics)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = OUT / "runs" / f"{name}-seed{seed}-trace{int(traced)}-{stamp}-{os.getpid()}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        return {"correct": correct, "attempted": len(times), "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
                "record": str(path.relative_to(ROOT)), "summary": record}
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def trace_metric_names():
    return metric_names() + [("trace.untraced_job_p50_s", "s"), ("trace.traced_job_p50_s", "s"),
                             ("trace.overhead_s", "s"), ("trace.digest_match", "bool"),
                             ("check.max_rel_err", "ratio")]


def print_result(result: dict):
    s = result["summary"]
    print(f"# {s['workload']} seed={s['seed']} trace={s['trace']} jobs={s['jobs']} "
          f"failed={s['failed']} fail_frac={s['failed'] / s['jobs']:g} "
          f"max_rel_err={s['max_rel_err']:.3e} self_test_caught={s['self_test_caught']}")
    if not s["trace"]:
        print(f"# job_tail_s is p{s['tail_percentile']:.1f} of {s['jobs']} jobs; "
              f"one item = {s['item']}, {s['items_per_job']} per job")
        print(f"# times are scaled to the reference speed; wall medians: "
              f"job {s['wall_job_p50_s']:.6g} s, set-up {s['wall_setup_s']:.6g} s")
    for failure in s["failures"]:
        print(f"# FAILED {failure}")
    for key, m in result["metrics"].items():
        print(f"{key:45s} {m['value']:.6g} {m['unit']}")
    print(f"# record: {result['record']}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curvint" / "__init__.py").is_file():
        print(f"error: no curvint sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", E2E), ("per_layer", trace_metric_names())):
        if [m["name"] for m in declared[key]] != [n for n, _ in names]:
            print(f"error: BENCHMARK.json {key} names differ from the metrics reported",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    print_result(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
