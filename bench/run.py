"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {sweep,cli-chain} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory. The last line of standard output is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones. A run record
(revision, machine, versions, seed, workload, result, every set-up and
operation time with its calibration time) and, when traced, the spans
are written under ``.bench_out/``.

A run sets up, runs ``rounds`` identical rounds of operations (more if
they end before ``--seconds``; those are checked but not timed into
the metrics), then draws once from every sampler to check it. Each
output is checked in a forked child process (see Checker).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# One thread per workload process; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Draws of the long sampler probe; its time minus the n=1 set-up time,
# over this count, is the per-step cost. Long enough that the steps
# outweigh the spread of wrw's 0.5 s set-up.
PROBE_STEPS = 1_000_000
# Reported times are seconds on a host where one run of the calibration
# loop takes this long (see Calibration); about its fastest run on a
# 2-vCPU Xeon virtual machine.
CALIBRATION_S = 0.002
# Draws of each sampler's checked call.
CHECK_DRAWS = 20_000


def import_package():
    """Import categraph from this checkout's ``src/``, never from
    anywhere else on the path."""
    src = ROOT / "src"
    if not (src / "categraph" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {src}/categraph")
    sys.path.insert(0, str(src))
    import categraph
    if Path(categraph.__file__).resolve().parent != (src / "categraph").resolve():
        sys.exit(f"bench: categraph imported from {categraph.__file__}, not {src}")
    return categraph


def git_revision() -> str:
    """HEAD read from the files of ``.git``; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Checker:
    """The workload's checks, run in a forked child process.

    The child builds the benchmark's reference (for ``cli-chain`` the
    parsed graph files) and reads the outputs, so neither enters this
    process's peak resident set, which then measures categraph's work
    alone. Checks are run one at a time, while this process waits, so
    they never run beside a timed operation; the child builds the
    reference before the first one starts.
    """

    def __init__(self, workload):
        sys.stdout.flush()   # the child must not write a copy of pending output
        sys.stderr.flush()
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=self._serve, args=(workload, child))
        self._proc.start()
        child.close()
        self._conn.recv()   # the reference is built: nothing runs beside the timing

    @staticmethod
    def _serve(workload, conn) -> None:
        try:
            workload.reference()
            checks = [check for *_, check in workload.operations()]
        except Exception:
            broken = traceback.format_exc()
        else:
            broken = None
        conn.send(None)
        while (task := conn.recv()) is not None:
            key, arg = task
            if broken:
                conn.send(broken)
                continue
            try:
                (checks[key] if isinstance(key, int) else getattr(workload, key))(arg)
            except Exception:
                conn.send(traceback.format_exc())
            else:
                conn.send(None)

    def __call__(self, key, arg) -> bool:
        """Run check ``key`` (an operation's index in a round, or the
        name of a workload method) on ``arg``; False and the reason on
        standard error if it fails."""
        self._conn.send((key, arg))
        error = self._conn.recv()
        if error:
            print(error, file=sys.stderr)
        return error is None

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._conn.send(None)
        self._proc.join(30)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


class Calibration:
    """A fixed loop of the kinds of work categraph does, an interpreter
    loop over Python objects and numpy passes over 100,000 integers,
    timed beside every operation.

    Other tenants of a shared host slow it by up to a third for tens of
    seconds at a time, longer than a run. An operation's time over the
    loop's time around it moves far less, so times are reported as
    that ratio times CALIBRATION_S: seconds on a host where the loop
    takes CALIBRATION_S.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._keys = list(range(10_000))
        self._array = np.random.default_rng(0).integers(0, 5000, 100_000)

    def _loop(self) -> None:
        counts = {}
        for k in self._keys:
            counts[k & 255] = counts.get(k & 255, 0) + k
        self._np.bincount(self._array, minlength=5000)
        self._np.sort(self._array)

    def __call__(self) -> float:
        """Fastest of three runs of the loop, in seconds."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._loop()
            best = min(best, time.perf_counter() - t0)
        return best


def timed(calibrate: Calibration, fn):
    """Run ``fn`` between two calibrations; return its result (or the
    traceback of its exception, and True), its time and the mean of
    the calibration times before and after it, which follows the host's
    speed over a long operation better than either alone."""
    before = calibrate()
    t0 = time.perf_counter()
    try:
        out, failed = fn(), False
    except Exception:
        out, failed = traceback.format_exc(), True
    seconds = time.perf_counter() - t0
    return out, failed, seconds, (before + calibrate()) / 2


def run_round(workload, calibrate: Calibration, check: Checker,
              stats: Counter) -> list[tuple[str, float, float]]:
    """Run every operation of one round; return each operation's kind,
    time and calibration time. Each output is checked after its timing
    ends."""
    times = []
    for i, (kind, count, op, _) in enumerate(workload.operations()):
        stats["attempted"] += count
        out, failed, seconds, cal = timed(calibrate, op)
        times.append((kind, seconds, cal))
        if failed:
            stats["failed"] += count
            print(out, file=sys.stderr)
        elif not check(i, out):
            stats["incorrect"] += 1
    return times


def measured_rounds(workload, seconds: float, calibrate: Calibration, check: Checker,
                    stats: Counter) -> list[list[tuple[str, float, float]]]:
    """``workload.rounds`` rounds, then more whole rounds while less
    than ``seconds`` have passed. Only the first ``workload.rounds``
    are returned for the metrics, so that a faster program is timed
    over the same number of repeats; later rounds are checked all the
    same."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < workload.rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, calibrate, check, stats))
    return rounds[:workload.rounds]


def scaled(times) -> float:
    """Median over repeats of time / calibration time, in seconds at
    CALIBRATION_S (see Calibration)."""
    return CALIBRATION_S * statistics.median(t / cal for *_, t, cal in times)


def round_time(rounds, kind: str | None = None) -> float:
    """Time of one round (only its operations of ``kind``, if given):
    the sum over its operations of each one's scaled time across the
    rounds, which repeat identical operations."""
    return sum(scaled(repeats) for repeats in zip(*rounds)
               if kind is None or repeats[0][0] == kind)


def sampler_calls(g, part, cw) -> dict:
    """One call per sampler on the workload's graph: ``call(n, seed)``.
    wis weighs nodes by degree, wrw categories by ``cw``."""
    from categraph import sampling

    return {
        "uis": lambda n, s: sampling.sample_uis(g, n, seed=s),
        "wis": lambda n, s: sampling.sample_wis(g, g.degrees.astype(float), n, seed=s),
        "rw": lambda n, s: sampling.sample_rw(g, n, seed=s),
        "mhrw": lambda n, s: sampling.sample_mhrw(g, n, seed=s),
        "wrw": lambda n, s: sampling.sample_wrw(g, part, cw, n, seed=s),
    }


def check_samplers(calls: dict, seed: int, check: Checker, stats: Counter) -> None:
    """Draw once from every sampler, outside the timing, and check the
    draws: walks step along edges, weights are stationary weights. Every
    sampler is checked on every workload, whether or not its rounds
    call it."""
    for name, call in calls.items():
        stats["attempted"] += 1
        try:
            trace = call(CHECK_DRAWS, [seed, 5])
        except Exception:
            stats["failed"] += 1
            traceback.print_exc()
            continue
        if not check("check_draws", (name, trace.nodes, trace.weights, trace.start)):
            stats["incorrect"] += 1


def probe_samplers(calls: dict, seed: int) -> dict[str, float]:
    """Fixed set-up cost (fastest of three n=1 calls after a warm-up
    call) and per-step cost of every sampler on the workload's graph."""
    out = {}
    for name, call in calls.items():
        call(1, [seed, 0])
        times = []
        for i in range(1, 5):
            t0 = time.perf_counter()
            call(1 if i < 4 else PROBE_STEPS, [seed, i])
            times.append(time.perf_counter() - t0)
        setup = min(times[:3])
        out[f"sampling.{name}.setup_ms"] = setup * 1e3
        out[f"sampling.{name}.step_ns"] = (times[3] - setup) / PROBE_STEPS * 1e9
    return out


def untraced(workload, seconds: float, stats: Counter, detail: dict) -> dict[str, float]:
    """Set up ``workload.setup_repeats`` times, the workload's own graph
    last, run the measured rounds, then check every sampler."""
    calibrate = Calibration()
    setups = detail["setups"] = []
    for rep in reversed(range(workload.setup_repeats)):
        out, failed, t, cal = timed(calibrate, lambda: workload.setup(rep))
        if failed:
            raise RuntimeError(f"set-up failed:\n{out}")
        setups.append(("setup", t, cal))
    check = Checker(workload)
    try:
        rounds = detail["rounds"] = measured_rounds(workload, seconds, calibrate, check, stats)
        check_samplers(sampler_calls(*workload.sampler_inputs()), workload.seed, check, stats)
    finally:
        check.close()
    return {"setup_s": scaled(setups),
            "wall_s": round_time(rounds),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(workload, seconds: float, stats: Counter, detail: dict,
           spans_path: Path) -> dict[str, float]:
    """A traced set-up, the untraced measured rounds, then one traced
    round; then every sampler is checked and probed. Tracing overhead is
    the traced round's scaled time minus the untraced rounds'."""
    import spans

    calibrate = Calibration()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        workload.setup(0)
    finally:
        tracer.restore()
    check = Checker(workload)
    try:
        plain = Counter()
        rounds = detail["rounds"] = measured_rounds(workload, seconds, calibrate, check, plain)
        spans.install(tracer)
        try:
            traced_round = detail["traced_round"] = run_round(workload, calibrate, check, stats)
        finally:
            tracer.restore()
        calls = sampler_calls(*workload.sampler_inputs())
        check_samplers(calls, workload.seed, check, stats)
    finally:
        check.close()
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_s"] = round_time([traced_round]) - round_time(rounds)
    metrics["trace.spans"] = len(tracer.spans)
    for kind in ("exact", "sample", "observe", "estimate"):
        metrics[f"cli.{kind}_s"] = round_time(rounds, kind)
    stats.update(plain)
    metrics.update(probe_samplers(calls, workload.seed))
    with open(spans_path, "w") as fh:
        json.dump([{"name": name, "start": start, "end": end, "parent": parent, "self": own}
                   for (name, start, end, parent), own
                   in zip(tracer.spans, spans.self_times(tracer.spans))], fh)
        fh.write("\n")
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    categraph = import_package()
    import numpy as np
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    stats, detail = Counter(), {}
    try:
        if args.trace:
            values = traced(workload, args.seconds, stats, detail, OUT / f"{tag}-spans.json")
        else:
            values = untraced(workload, args.seconds, stats, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": stats["incorrect"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": git_revision(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "categraph": categraph.__version__, "result": result, **detail,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
