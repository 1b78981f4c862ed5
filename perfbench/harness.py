"""Set-up, the closed timed loop, and the metrics of one benchmark run."""

from __future__ import annotations

import importlib
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import FAILED, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 5
TAIL_MIN_JOBS = 40  # below this the tail percentile has too few jobs beyond it
PROBE_EVERY_S = 0.2  # timed work between two speed probes
PROBE_REF_S = 0.0015  # probe duration that defines the reference speed


def probe() -> float:
    """Duration of a fixed piece of Fraction arithmetic, the kind of work
    ckkms spends its time on: the median of five short timings, so that a
    one-off interruption does not count.  This VM's speed drifts by up to
    60% over seconds and affects all code alike, so job times divided by the
    probe times around them vary far less from run to run than raw times."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        x = Fraction(1, 3)
        for _ in range(50):
            x = (x * x + Fraction(1, 7)).limit_denominator(1 << 64)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def fresh_import():
    """Import ckkms from this checkout's source tree as if for the first
    time; an installed copy elsewhere is never measured."""
    if not (SRC / "ckkms").is_dir():
        raise SystemExit(f"no ckkms source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ckkms" or n.startswith("ckkms.")]:
        del sys.modules[name]
    return importlib.import_module("ckkms")


class Clock:
    """Times each call into ckkms.  `job` calls are the measured jobs;
    `build` calls (state construction) count toward the timed phase but not
    toward job latencies.  A call that raises is reported once on stderr and
    returns FAILED."""

    def __init__(self, tracer=None, profiler=None):
        self.latencies = []
        self.busy = 0.0
        self.step = 0
        self.tracer = tracer
        self.profiler = profiler
        self.reported = False
        self.probes = [probe()]
        self.job_probe = []  # index of the last probe before each job
        self.segments = [0.0]  # timed work between consecutive probes

    def _call(self, fn, args, kwargs):
        tracer, profiler = self.tracer, self.profiler
        if tracer is not None:
            tracer.job = self.step
            tracer.active = True
        if profiler is not None:
            profiler.enable()
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failing job is counted, the run goes on
            out = FAILED
            if not self.reported:
                self.reported = True
                traceback.print_exc()
        dt = perf_counter() - t0
        if profiler is not None:
            profiler.disable()
        if tracer is not None:
            tracer.active = False
        self.step += 1
        self.busy += dt
        self.segments[-1] += dt
        if self.segments[-1] >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.segments.append(0.0)
        return out, dt

    def build(self, fn, *args, **kwargs):
        return self._call(fn, args, kwargs)[0]

    def job(self, fn, *args, **kwargs):
        self.job_probe.append(len(self.probes) - 1)
        out, dt = self._call(fn, args, kwargs)
        self.latencies.append(dt)
        return out

    def _scales(self) -> list:
        """Reference-speed factor of each segment of timed work: PROBE_REF_S
        over the mean of the probes either side of it (the last probe alone
        for the open segment)."""
        pairs = zip(self.probes, self.probes[1:] + self.probes[-1:])
        return [PROBE_REF_S * 2 / (a + b) for a, b in pairs]

    def reference_busy(self) -> float:
        """The timed phase so far at the reference speed."""
        return sum(seg * s for seg, s in zip(self.segments, self._scales()))

    def normalised(self) -> tuple:
        """(timed phase, job latencies) at the reference speed, after a
        closing probe."""
        self.probes.append(probe())
        self.segments.append(0.0)
        scales = self._scales()
        latencies = [dt * scales[k] for dt, k in zip(self.latencies, self.job_probe)]
        return self.reference_busy(), latencies


def tail_ms(latencies) -> float | None:
    """The highest percentile with at least ten jobs beyond it."""
    if len(latencies) < TAIL_MIN_JOBS:
        return None
    ordered = sorted(latencies)
    return ordered[len(ordered) - 11] * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool = False,
        profiler=None) -> dict:
    """One run: set up SETUP_REPEATS times (fresh import and round-0
    inputs; the last set-up is used), then run whole rounds until the timed
    phase reaches `seconds` at the reference speed (one round when it is 0),
    then check every record.  Stopping on reference time makes the number
    of rounds, and so the job mix and the memo sizes, the same from run to
    run whatever the VM's speed.  Returns the counts, the metrics, the
    tracer and the records."""
    wl = WORKLOADS[workload]()
    setups, raw_setups = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ck = fresh_import()
        inputs = wl.make_round(ck, seed, 0)
        dt = perf_counter() - t0
        after = probe()
        raw_setups.append(dt)
        setups.append(dt * PROBE_REF_S * 2 / (before + after))
        before = after

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if hasattr(wl, "prepare"):
        wl.prepare(ck)
    clock = Clock(tracer, profiler)
    records = []
    rounds = 0
    while True:
        records += wl.run_round(ck, inputs, clock)
        rounds += 1
        if clock.reference_busy() >= seconds:
            break
        inputs = wl.make_round(ck, seed, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    norm_busy, norm_latencies = clock.normalised()

    import oracle  # loads numpy, so only after the memory reading
    failed = oracle.CHECKS[workload](records)
    jobs = len(clock.latencies)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "jobs_per_s": {"value": jobs / norm_busy, "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(norm_latencies) * 1e3,
                       "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    wall = {"setup_s": statistics.median(raw_setups),
            "jobs_per_s": jobs / clock.busy,
            "job_p50_ms": statistics.median(clock.latencies) * 1e3,
            "job_tail_ms": tail_ms(clock.latencies)}
    return {"attempted": len(records), "failed": failed, "rounds": rounds,
            "jobs": jobs, "metrics": metrics, "wall": wall,
            "job_tail_ms": tail_ms(norm_latencies), "tracer": tracer,
            "records": records}
