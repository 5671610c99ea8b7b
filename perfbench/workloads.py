"""The benchmark's three workloads, driven through public entry points only.

* ``drive_tcp``   -- :func:`repro.experiments.runners.run_single_drive`
  with its defaults: the golden ``default_tcp`` drive (WGTT, 8-AP road,
  one client at 15 mph, closed-loop bulk TCP download, seed 0).
* ``city_uplink`` -- :func:`repro.city.runner.run_city_drive` on a 3x3
  road grid at the density of ``benchmarks/test_perf_city.py`` (4 APs and
  8 vehicles per segment: 48 APs, 96 vehicles), open-loop 5 Mb/s uplink
  CBR per vehicle, seed 7.
* ``sweep``       -- :func:`repro.orchestration.run_queue_sweep` over the
  CI smoke grid (3-AP road, UDP 10 Mb/s, modes ``wgtt`` and ``baseline``,
  many seeds): once cold (FileQueue, 2 workers, columnar store,
  aggregator, empty result cache), then rerun warm (every job a hit).

Each workload has a *unit* of work (one drive, or one cold sweep) and a
*warm* step (the unit's jobs re-served from a warm result cache through
``run_queue_sweep``).  Every unit's output is checked; a unit whose check
fails counts as a failed operation.  Durations are reported calibrated
to the reference host (see :mod:`calibrate`); the raw ones are kept in
each unit's ledger.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.city import CityConfig
from repro.city.runner import run_city_drive
from repro.experiments import runners
from repro.experiments.builder import ExperimentConfig
from repro.experiments.digest import deliveries_digest, drive_digests
from repro.orchestration import (
    ColumnarStore,
    FileQueue,
    ResultCache,
    SweepAggregator,
    SweepSpec,
    run_queue_sweep,
)
from repro.orchestration import runner as sweep_runner
from repro.perf import PERF
from repro.sim.engine import Simulator

from calibrate import Calibration

__all__ = ["WORKLOADS", "Workload", "Unit", "SimClock", "fresh_state"]

#: Sweep worker processes (the container's ``nproc``).
SWEEP_WORKERS = 2
#: Seeds per mode in the sweep grid (two modes -> twice as many jobs).
SWEEP_SEEDS_PER_MODE = 100
#: Simulated seconds per sweep job: the shortest drive of the smoke grid
#: whose measurement window (traffic starts ~0.45 s in at 35 mph) is
#: non-empty, so per-job orchestration cost stays visible.
SWEEP_JOB_DURATION_S = 1.0
#: Simulated seconds of the city drive (with 0.25 s warm-up).  The first
#: ~1.5 s are association and collision-driven start-up; by 2.5 s the
#: fleet delivers steadily (as in ``benchmarks/test_perf_city.py``).
CITY_DURATION_S = 2.5
CITY_WARMUP_S = 0.25
CITY_SEED = 7
#: Kernel runs next to each short sample (set-up probe, warm rerun).
SAMPLE_KERNELS = 3


class SetupDone(Exception):
    """Raised by a set-up probe once the first simulated event is due."""


def fresh_state() -> None:
    """Reset the process-global state that leaks across in-process runs.

    ``repro.perf.PERF`` accumulates counters for the life of the process,
    and flow ids come from a module-global counter that the golden
    digests pin to 1 (as ``scripts/regolden_drives.py`` does).
    """
    PERF.reset()
    runners._next_flow_id[0] = 1


class SimClock:
    """Watch :meth:`Simulator.run` from outside while an entry call runs.

    Records when the simulator is first asked to run (set-up is over).
    With ``abort=True`` the entry call stops right there (a set-up probe
    that builds everything a real run builds and simulates nothing).
    With ``chunk_sim_s`` the run advances in slices of simulated time,
    each followed by a calibration kernel.  ``sim_cpu_s`` accumulates the
    CPU time of the simulation alone.  Slicing is exact: the engine fires
    the same events in the same order, which the output checks confirm
    on every run.
    """

    def __init__(self, abort: bool = False, chunk_sim_s: float = None) -> None:
        self.abort = abort
        self.chunk_sim_s = chunk_sim_s
        self.t_first_event: Optional[float] = None
        self.sim_cpu_s = 0.0
        self.cal = Calibration()

    def __enter__(self) -> "SimClock":
        original = self._original = Simulator.__dict__["run"]

        def run(sim, until=None, max_events=None):
            if self.t_first_event is None:
                self.t_first_event = time.perf_counter()
                if self.abort:
                    raise SetupDone()
            if self.chunk_sim_s is None or until is None or max_events is not None:
                c0 = time.process_time()
                try:
                    return original(sim, until, max_events)
                finally:
                    self.sim_cpu_s += time.process_time() - c0
            t = sim.now
            while True:
                t = min(t + self.chunk_sim_s, until)
                c0 = time.process_time()
                original(sim, until=t)
                self.sim_cpu_s += time.process_time() - c0
                self.cal.sample()
                if t >= until:
                    return None

        Simulator.run = run
        return self

    def __exit__(self, *exc) -> None:
        Simulator.run = self._original


def _reap_workers(timeout_s: float = 30.0) -> List[str]:
    """Wait for every worker process the sweep started; none may outlive it."""
    problems = []
    for proc in multiprocessing.active_children():
        proc.join(timeout_s)
        if proc.is_alive():
            proc.terminate()
            proc.join()
            problems.append(f"sweep worker {proc.pid} outlived its sweep")
    return problems


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


@dataclass
class Unit:
    """One unit of work and what the checks and metrics need from it.

    Times are in reference-host seconds (calibrated); ``ledger["raw"]``
    keeps the uncalibrated ones.
    """

    #: Clients x simulated seconds the unit simulated.
    client_sim_s: float
    #: CPU seconds of the simulation itself (set-up excluded).
    cpu_s: float
    #: Wall seconds of the whole entry call.
    wall_s: float
    #: Entry call -> first simulated event (sweep: call -> enqueue returns).
    setup_s: float
    #: Jobs (drives or sweep jobs) the unit completed.
    jobs: int
    #: Output identity; equal identities mean equal outputs.
    digest: Dict[str, Any]
    #: Problems the output check found (empty = correct).
    problems: List[str]
    #: Operations of this unit whose output check failed.
    failed: int
    #: Jobs to re-serve warm, with their cold summaries.
    warm_jobs: List[Tuple[Any, Any]] = field(default_factory=list)
    #: Objects the per-layer ledger reads (network, sweep result...).
    ledger: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadJob:
    """Result-cache identity of a drive workload's single job.

    A warm rerun never executes its jobs, so a drive workload that is not
    expressible as a :class:`~repro.orchestration.JobSpec` (the uplink
    city drive) still gets a stable cache key from its canonical inputs.
    """

    workload: str
    params: str

    def canonical(self) -> Dict[str, Any]:
        return {"workload": self.workload, "params": json.loads(self.params)}

    def key(self) -> str:
        digest = hashlib.sha256(self.params.encode()).hexdigest()[:10]
        return f"{self.workload}:{digest}"


def _canonical(summary) -> str:
    return json.dumps(summary.deterministic_dict(), sort_keys=True)


def check_sweep_outputs(result, store_dir: str, n_jobs: int,
                        warm: bool) -> List[str]:
    """Zero failures, every job summarised and counted exactly once."""
    problems = []
    if result.failures:
        problems.append(f"{len(result.failures)} sweep jobs failed: "
                        f"{result.failures[0].error}")
    if any(s is None for s in result.summaries):
        problems.append("sweep returned missing summaries")
    if warm and result.stats.cached != n_jobs:
        problems.append(f"warm rerun served {result.stats.cached} of "
                        f"{n_jobs} jobs from the cache")
    try:
        with open(os.path.join(store_dir, "aggregate.json")) as fh:
            snap = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"aggregate.json unreadable: {exc}"]
    counted = sum(cell["n"] for cell in snap["cells"])
    if snap["jobs_seen"] != n_jobs or counted != n_jobs:
        problems.append(f"aggregate.json counts {snap['jobs_seen']} / "
                        f"{counted} jobs, expected {n_jobs}")
    stored = len(ColumnarStore(store_dir))
    if stored != n_jobs:
        problems.append(f"columnar store holds {stored} of {n_jobs} jobs")
    return problems


class Workload:
    """Shared run logic: set-up probes, timed units, warm reruns."""

    name = ""
    #: Set-up probes per untraced run (their median is ``setup_s``).
    setup_probes = 5

    def __init__(self, seed: int, root: str, scratch: str) -> None:
        self.seed = seed
        self.root = root
        self.scratch = scratch

    # -------------------------------------------------------- hooks
    def unit(self, entry_wrapper: Callable = None) -> Unit:
        """One unit; ``entry_wrapper(call)`` runs the entry call traced."""
        raise NotImplementedError

    def probe_setup(self) -> float:
        """Calibrated set-up seconds of one aborted entry call."""
        raise NotImplementedError

    def warm_cache(self, unit: Unit) -> ResultCache:
        """A result cache that holds every job of ``unit``."""
        cache = ResultCache(self.tempdir("cache"))
        for job, summary in unit.warm_jobs:
            cache.put(job, summary)
        return cache

    # -------------------------------------------------------- shared
    def tempdir(self, tag: str) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-{tag}-", dir=self.scratch)

    def warm(self, unit: Unit, cache: ResultCache
             ) -> Tuple[float, int, List[str], Any]:
        """Re-serve ``unit.warm_jobs`` from ``cache`` via ``run_queue_sweep``.

        Returns (calibrated wall s, jobs, problems, sweep result).  Each
        rerun gets its own queue and store directories, removed afterwards.
        """
        jobs = [job for job, _summary in unit.warm_jobs]
        if not jobs:
            return 0.0, 0, ["no completed jobs to rerun warm"], None
        qdir, sdir = self.tempdir("wq"), self.tempdir("ws")
        t0 = time.perf_counter()
        result = run_queue_sweep(jobs, workers=SWEEP_WORKERS,
                                 queue=FileQueue(qdir), cache=cache,
                                 store=ColumnarStore(sdir),
                                 aggregator=SweepAggregator())
        wall = time.perf_counter() - t0
        cal = Calibration()
        cal.sample(SAMPLE_KERNELS)
        problems = check_sweep_outputs(result, sdir, len(jobs), warm=True)
        for (job, cold), summary in zip(unit.warm_jobs, result.summaries):
            if summary is None or _canonical(summary) != _canonical(cold):
                problems.append(f"warm summary of {job.key()} differs from cold")
        shutil.rmtree(qdir, ignore_errors=True)
        shutil.rmtree(sdir, ignore_errors=True)
        return cal(wall), len(jobs), problems, result


# ------------------------------------------------------------ drives
class DriveWorkload(Workload):
    """A single simulation drive per unit."""

    n_clients = 1
    traffic = ""
    #: Simulated seconds between calibration kernels during a drive
    #: (about 50 kernels per drive).
    chunk_sim_s = 0.25

    def run_entry(self, traced: bool):
        raise NotImplementedError

    def job(self) -> WorkloadJob:
        raise NotImplementedError

    def digest(self, result) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, result, digest: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def probe_setup(self) -> float:
        fresh_state()
        t0 = time.perf_counter()
        with SimClock(abort=True) as clock:
            try:
                self.run_entry(traced=False)
            except SetupDone:
                pass
        if clock.t_first_event is None:
            raise RuntimeError("set-up probe never reached the first event")
        clock.cal.sample(SAMPLE_KERNELS)
        gc.collect()
        return clock.cal(clock.t_first_event - t0)

    def unit(self, entry_wrapper: Callable = None) -> Unit:
        traced = entry_wrapper is not None
        fresh_state()
        gc.collect()
        with SimClock(chunk_sim_s=self.chunk_sim_s) as clock:
            t0 = time.perf_counter()
            if traced:
                result = entry_wrapper(lambda: self.run_entry(True))
            else:
                result = self.run_entry(False)
            wall = time.perf_counter() - t0 - clock.cal.wall_s
        cal = clock.cal
        digest = self.digest(result)
        problems = self.check(result, digest)
        job = self.job()
        summary = result.summarize(job_key=job.key(), mode="wgtt",
                                   seed=result.net.config.seed,
                                   traffic=self.traffic)
        setup = clock.t_first_event - t0
        return Unit(
            client_sim_s=self.n_clients * result.duration_s,
            cpu_s=cal(clock.sim_cpu_s), wall_s=cal(wall), setup_s=cal(setup),
            jobs=1, digest=digest, problems=problems,
            failed=1 if problems else 0,
            warm_jobs=[(job, summary)],
            ledger={"result": result, "perf": PERF.snapshot()["counters"],
                    "t_entry": t0, "t_first_event": clock.t_first_event,
                    "cpu_total_s": cal(clock.sim_cpu_s),
                    "raw": {"cpu_s": clock.sim_cpu_s, "wall_s": wall,
                            "setup_s": setup, "host_factor": cal.factor}},
        )


class DriveTcp(DriveWorkload):
    name = "drive_tcp"
    traffic = "tcp"
    #: Its set-up is ~3 ms, so it takes many probes for a steady median.
    setup_probes = 25

    def __init__(self, *args) -> None:
        super().__init__(*args)
        with open(os.path.join(self.root, "tests", "golden",
                               "drive_digests.json")) as fh:
            golden = json.load(fh)["default_tcp"]
        self.kwargs = golden.pop("kwargs")
        self.golden = golden

    def run_entry(self, traced: bool):
        return runners.run_single_drive(**self.kwargs)

    def job(self) -> WorkloadJob:
        return WorkloadJob(self.name, json.dumps(self.kwargs, sort_keys=True))

    def digest(self, result) -> Dict[str, Any]:
        return drive_digests(result)

    def check(self, result, digest) -> List[str]:
        if digest != self.golden:
            diverged = sorted(k for k in digest if digest[k] != self.golden.get(k))
            return [f"default drive diverged from the golden digest: {diverged}"]
        return []


class CityUplink(DriveWorkload):
    name = "city_uplink"
    traffic = "udp-up"
    chunk_sim_s = 0.05

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.city = CityConfig(rows=3, cols=3, aps_per_segment=4,
                               n_vehicles=12 * 8, cell_m=45.0)
        self.n_clients = self.city.n_vehicles
        #: Digest of the first drive in this process; every later drive
        #: (traced ones included) must reproduce it.
        self.reference: Optional[Dict[str, Any]] = None

    def params(self) -> Dict[str, Any]:
        return {"city": self.city.to_dict(), "seed": CITY_SEED,
                "traffic": self.traffic, "udp_rate_mbps": 5.0,
                "duration_s": CITY_DURATION_S, "warmup_s": CITY_WARMUP_S}

    def run_entry(self, traced: bool):
        # Invariant monitors are armed in traced runs only: they are
        # passive, so the traced drive must still match the untraced one.
        config = ExperimentConfig(seed=CITY_SEED, city=self.city,
                                  check_invariants=traced)
        return run_city_drive(config, traffic=self.traffic, udp_rate_mbps=5.0,
                              duration_s=CITY_DURATION_S,
                              warmup_s=CITY_WARMUP_S)

    def job(self) -> WorkloadJob:
        return WorkloadJob(self.name, json.dumps(self.params(), sort_keys=True))

    def digest(self, result) -> Dict[str, Any]:
        return {
            "deliveries": deliveries_digest(result.deliveries),
            "n_deliveries": len(result.deliveries),
            "events_fired": result.net.sim.events_fired,
            "fleet_mbps_hex": float(result.throughput_mbps).hex(),
        }

    def check(self, result, digest) -> List[str]:
        problems = []
        if digest["n_deliveries"] == 0:
            problems.append("city drive delivered nothing")
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("city drive is not reproducible: "
                            f"{digest} != {self.reference}")
        invariants = result.net.invariants
        if invariants is not None and invariants.violation_count:
            problems.append(f"{invariants.violation_count} invariant "
                            f"violations: {invariants.violations[:3]}")
        return problems


# ------------------------------------------------------------- sweep
class _TimedQueue(FileQueue):
    """A FileQueue that notes when the coordinator's enqueue returns."""

    abort = False

    def enqueue(self, jobs):
        names = super().enqueue(jobs)
        self.user_cpu_enqueued = _user_cpu()
        if self.abort:
            raise SetupDone()
        return names


class _ProbeQueue(_TimedQueue):
    abort = True


class _PollCalibration:
    """Sample the kernel on the coordinator's polling sleeps.

    The simulation runs in worker processes, so the coordinator measures
    host speed while it would otherwise wait: one kernel per ``every``
    polls of ``repro.orchestration.runner.sleep``.  Without that hook (a
    different coordinator loop) only the kernels taken before and after
    the sweep calibrate it.
    """

    def __init__(self, cal: Calibration, every: int = 4) -> None:
        self.cal = cal
        self.every = every
        self.calls = 0

    def __enter__(self) -> "_PollCalibration":
        self._original = getattr(sweep_runner, "sleep", None)
        if self._original is not None:
            original = self._original

            def sleep(seconds):
                self.calls += 1
                if self.calls % self.every == 0:
                    self.cal.sample()
                return original(seconds)

            sweep_runner.sleep = sleep
        return self

    def __exit__(self, *exc) -> None:
        if self._original is not None:
            sweep_runner.sleep = self._original


class Sweep(Workload):
    """Cold sweep, then warm reruns.

    Its ``setup_s`` is the coordinator's user-space CPU from the call to
    the return of ``enqueue``.  Wall time would add the kernel's cost of
    the 200 job files ``enqueue`` writes, which swings 2-5x with the file
    system's state (this disk discards on every delete) and would drift
    across back-to-back runs.
    """

    name = "sweep"
    setup_probes = 11

    def jobs(self):
        base = 1000 * self.seed
        return SweepSpec(
            modes=("wgtt", "baseline"), speeds_mph=(35.0,), traffics=("udp",),
            udp_rate_mbps=10.0, n_aps=3, duration_s=SWEEP_JOB_DURATION_S,
            seeds=[base + i for i in range(SWEEP_SEEDS_PER_MODE)],
        ).expand()

    def _call(self, queue_cls):
        jobs = self.jobs()
        qdir, sdir, cdir = (self.tempdir("q"), self.tempdir("s"),
                            self.tempdir("c"))
        queue = queue_cls(qdir)
        cache = ResultCache(cdir)
        queue.user_cpu_called = _user_cpu()
        t0 = time.perf_counter()
        try:
            result = run_queue_sweep(jobs, workers=SWEEP_WORKERS, queue=queue,
                                     cache=cache, store=ColumnarStore(sdir),
                                     aggregator=SweepAggregator())
        except SetupDone:
            result = None
        return jobs, queue, cache, sdir, result, t0

    def probe_setup(self) -> float:
        _jobs, queue, cache, sdir, _result, _t0 = self._call(_ProbeQueue)
        setup = queue.user_cpu_enqueued - queue.user_cpu_called
        cal = Calibration()
        cal.sample(SAMPLE_KERNELS)
        for path in (queue.root, cache.root, sdir):
            shutil.rmtree(path, ignore_errors=True)
        return cal(setup)

    def unit(self, entry_wrapper: Callable = None) -> Unit:
        fresh_state()
        gc.collect()
        cal = Calibration()
        cal.sample(5)
        c0, ch0 = time.process_time(), _cpu_children()
        with _PollCalibration(cal):
            if entry_wrapper is None:
                jobs, queue, cache, sdir, result, t0 = self._call(_TimedQueue)
            else:
                jobs, queue, cache, sdir, result, t0 = entry_wrapper(
                    lambda: self._call(_TimedQueue))
            wall = time.perf_counter() - t0
        problems = _reap_workers()
        cpu_workers = _cpu_children() - ch0
        cpu_self = time.process_time() - c0
        cal.sample(5)
        problems += check_sweep_outputs(result, sdir, len(jobs), warm=False)
        failed = len(result.failures) + sum(s is None for s in result.summaries)
        if problems and not failed:
            failed = len(jobs)  # a broken store/aggregate spoils every job
        summaries = [s for s in result.summaries if s is not None]
        setup = queue.user_cpu_enqueued - queue.user_cpu_called
        return Unit(
            client_sim_s=sum(s.duration_s for s in summaries),
            # Simulation runs in the workers; the coordinator only routes.
            cpu_s=cal(cpu_workers), wall_s=cal(wall), setup_s=cal(setup),
            jobs=len(jobs),
            digest={"summaries": hashlib.sha256("\n".join(
                _canonical(s) for s in summaries).encode()).hexdigest(),
                    "events_fired": sum(s.events_fired for s in summaries)},
            problems=problems, failed=failed,
            warm_jobs=[(job, s) for job, s in zip(result.jobs, result.summaries)
                       if s is not None],
            ledger={"result": result, "cache": cache, "queue": queue,
                    "cpu_total_s": cal(cpu_self + cpu_workers),
                    "raw": {"cpu_s": cpu_workers, "cpu_self_s": cpu_self,
                            "wall_s": wall, "setup_s": setup,
                            "host_factor": cal.factor}},
        )

    def warm_cache(self, unit: Unit) -> ResultCache:
        return unit.ledger["cache"]  # the cold sweep filled it


WORKLOADS = {cls.name: cls for cls in (DriveTcp, CityUplink, Sweep)}
