"""Scenario execution: in-process or across parallel worker processes.

:func:`execute_scenario` runs one scenario's repetitions deterministically
(per-scenario seeding, derived from the scenario's own ``seed`` field) and
captures failures per scenario instead of aborting a whole sweep.  A
collective repetition the lockstep tier refuses (``LockstepError``) is not a
failure: it is re-run on the event-by-event schedules and counted in the
scenario's ``telemetry["lockstep_refusals"]``.

:func:`run_scenarios` streams :class:`ScenarioResult` objects in submission
order.  With ``workers > 1`` the uncached scenarios are distributed over a
``multiprocessing`` pool; each worker returns its
:class:`~repro.bench.harness.BenchTelemetry` counters, which the parent
merges into the module-global :data:`~repro.bench.harness.TELEMETRY` sink —
so parallel sweeps feed the same ``BENCH_*.json`` perf trajectory as
in-process benchmarks (in-process runs are counted by the cluster-run
observer directly and are *not* merged twice).

:func:`run_spec` is the one-call entry of the CLI and of the figure benches
under ``benchmarks/``: expand, run, collect, aggregate telemetry.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence

from ..bench.harness import (
    TELEMETRY,
    BenchTelemetry,
    Measurement,
    collective_program,
    run_rank_durations,
)
from ..bench.programs import (
    jquick_program,
    overlapping_program,
    range_bcast_program,
    split_halves_program,
)
from ..bench.workloads import generate
from ..core.spmd import LockstepError
from ..simulator.cluster import add_run_observer, remove_run_observer
from ..simulator.errors import RankFailedError
from ..simulator.trace import Tracer
from ..sorting import JQuickConfig
from .cache import ResultCache
from .spec import ExperimentSpec, Scenario

__all__ = ["ScenarioResult", "ExperimentRun", "execute_scenario",
           "run_scenarios", "run_spec"]


@dataclass
class ScenarioResult:
    """Outcome of one scenario: per-repetition timings plus run counters.

    ``durations_us[rep]`` is the *max-over-ranks* virtual duration of
    repetition ``rep`` (the paper's timing convention); ``telemetry`` holds
    the :class:`~repro.bench.harness.BenchTelemetry` snapshot of exactly the
    simulations this scenario ran.  ``error`` carries the formatted traceback
    of a failed scenario (its other fields are then empty).
    """

    scenario: Scenario
    durations_us: tuple = ()
    messages: int = 0
    telemetry: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    error: Optional[str] = None
    cached: bool = False
    #: Structured trace of the first repetition (``repro.obs`` JSONL text)
    #: when the scenario ran with ``trace=True``; the sweep driver persists
    #: it next to the cached result and clears this field, so it never
    #: lands in the result cache itself.
    trace_jsonl: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def measurement(self) -> Measurement:
        """The scenario's timings as a harness :class:`Measurement`."""
        if not self.ok:
            raise RuntimeError(
                f"scenario {self.scenario.scenario_id} failed:\n{self.error}")
        return Measurement.from_samples(self.durations_us, messages=self.messages)

    @property
    def time_ms(self) -> float:
        """Mean over repetitions of the max-over-ranks time (milliseconds)."""
        return self.measurement().mean_ms

    def to_dict(self) -> dict:
        payload = {
            "scenario_id": self.scenario.scenario_id,
            "scenario": self.scenario.canonical(),
            "durations_us": list(self.durations_us),
            "messages": self.messages,
            "telemetry": dict(self.telemetry),
            "wall_clock_s": self.wall_clock_s,
            "error": self.error,
            "cached": self.cached,
        }
        if self.trace_jsonl is not None:
            payload["trace_jsonl"] = self.trace_jsonl
        return payload

    @classmethod
    def from_dict(cls, data: dict, scenario: Optional[Scenario] = None) -> "ScenarioResult":
        if scenario is None:
            scenario = Scenario.from_dict(data["scenario"])
        return cls(
            scenario=scenario,
            durations_us=tuple(data.get("durations_us", ())),
            messages=int(data.get("messages", 0)),
            telemetry=dict(data.get("telemetry", {})),
            wall_clock_s=float(data.get("wall_clock_s", 0.0)),
            error=data.get("error"),
            cached=bool(data.get("cached", False)),
            trace_jsonl=data.get("trace_jsonl"),
        )


# ---------------------------------------------------------------------------
# Single-scenario execution.
# ---------------------------------------------------------------------------

# One function per scenario kind: run repetition ``rep`` of ``scenario`` and
# return ``(max-over-ranks duration in µs, ClusterResult)``.

def _collective_rep(scenario: Scenario, params, placement, rep, trace, *,
                    telemetry):
    run = partial(run_rank_durations, scenario.num_ranks, collective_program,
                  params=params, placement=placement, trace=trace,
                  operation=scenario.operation, impl=scenario.impl,
                  vendor=scenario.vendor, words=scenario.words)
    try:
        return run()
    except RankFailedError as exc:
        if not isinstance(exc.original, LockstepError):
            raise
        # The lockstep tier refused to price this repetition (it could
        # not prove it would match the event engine bit for bit).  The
        # event-by-event schedules are the reference it mirrors, so the
        # repetition runs on them; the refusal stays on the books (a
        # failed run reaches no cluster-run observer).
        telemetry.lockstep_refusals += 1
        return run(lockstep=False)


def _jquick_rep(scenario: Scenario, params, placement, rep, trace):
    p = scenario.num_ranks
    # Deterministic per-scenario seeding: the data stream and the pivot
    # stream are derived from the scenario's own seed and the repetition
    # index only, so any cell can be re-run in isolation bit-identically.
    parts = generate(scenario.workload, scenario.n_per_proc * p, p,
                     seed=scenario.seed + rep)
    config = JQuickConfig(schedule=scenario.schedule,
                          seed=scenario.seed + 7919 * (rep + 1))
    rank_kwargs = [dict(local_data=parts[rank]) for rank in range(p)]
    return run_rank_durations(
        p, jquick_program, params=params, placement=placement,
        rank_kwargs=rank_kwargs, trace=trace,
        backend=scenario.impl, vendor=scenario.vendor, config=config)


def _comm_create_rep(scenario: Scenario, params, placement, rep, trace):
    if scenario.operation == "split_halves":
        program, fields = split_halves_program, {}
    elif scenario.operation == "overlapping":
        program, fields = overlapping_program, dict(schedule=scenario.schedule)
    else:
        program, fields = range_bcast_program, dict(
            words=scenario.words, num_bcasts=scenario.num_bcasts)
    return run_rank_durations(
        scenario.num_ranks, program, params=params, placement=placement,
        trace=trace, method=scenario.method, vendor=scenario.vendor, **fields)


class _ScenarioSink:
    """Per-scenario aggregation: merged trace stats + the first-rep trace."""

    def __init__(self, num_ranks: int):
        self.tracer = Tracer(num_ranks)
        self.trace = None

    def absorb(self, result) -> None:
        self.tracer.merge(result.stats)
        if result.trace is not None and self.trace is None:
            self.trace = result.trace

    def trace_jsonl(self) -> Optional[str]:
        if self.trace is None:
            return None
        import io

        from ..obs import dump_jsonl
        buffer = io.StringIO()
        dump_jsonl(self.trace, buffer)
        return buffer.getvalue()


def execute_scenario(scenario: Scenario, *, trace: bool = False) -> ScenarioResult:
    """Run one scenario in this process; never raises for scenario errors.

    ``trace=True`` additionally records a structured :mod:`repro.obs` trace
    of the first repetition and returns its JSONL text on
    ``result.trace_jsonl``.
    """
    telemetry = BenchTelemetry()
    add_run_observer(telemetry.record)
    sink = _ScenarioSink(scenario.num_ranks)
    start = time.perf_counter()
    try:
        scenario.validate()
        params, placement = scenario.resolve_machine()
        run_rep = {"collective": partial(_collective_rep, telemetry=telemetry),
                   "jquick": _jquick_rep,
                   "comm_create": _comm_create_rep}[scenario.kind]
        samples, messages = [], 0
        for rep in range(scenario.repetitions):
            # Tracing only the first repetition bounds artifact size
            # (repetitions of one scenario differ only in seed); recording
            # is proven non-perturbing, so the traced repetition's timing is
            # bit-identical to the others'.
            duration, result = run_rep(scenario, params, placement, rep,
                                       trace and rep == 0)
            samples.append(duration)
            messages = max(messages, result.stats.messages_sent)
            sink.absorb(result)
        snapshot = telemetry.snapshot()
        snapshot["trace_stats"] = sink.tracer.stats.as_dict()
        return ScenarioResult(
            scenario=scenario,
            durations_us=tuple(samples),
            messages=messages,
            telemetry=snapshot,
            wall_clock_s=time.perf_counter() - start,
            trace_jsonl=sink.trace_jsonl(),
        )
    except Exception:
        return ScenarioResult(
            scenario=scenario,
            telemetry=telemetry.snapshot(),
            wall_clock_s=time.perf_counter() - start,
            error=traceback.format_exc(),
        )
    finally:
        remove_run_observer(telemetry.record)


def _worker(scenario_dict: dict) -> dict:
    """Pool entry point: dict in, dict out (both picklable and stable).

    Construction is deliberately unvalidated — :func:`execute_scenario`
    validates inside its try block, so an invalid scenario comes back as a
    captured per-scenario failure (matching the serial path) instead of an
    exception that aborts the whole pool.  The ``__trace__`` key (popped
    before construction) threads the sweep's trace flag through the one
    picklable argument ``imap`` gives us.
    """
    trace = bool(scenario_dict.pop("__trace__", False))
    return execute_scenario(Scenario(**scenario_dict), trace=trace).to_dict()


# ---------------------------------------------------------------------------
# Sweep execution.
# ---------------------------------------------------------------------------

def run_scenarios(scenarios: Sequence[Scenario], *, workers: int = 1,
                  cache: Optional[ResultCache] = None, force: bool = False,
                  progress: Optional[Callable[[ScenarioResult], None]] = None,
                  trace: bool = False,
                  ) -> Iterator[ScenarioResult]:
    """Yield one :class:`ScenarioResult` per scenario, in submission order.

    ``cache`` serves unchanged scenarios from disk (``force=True`` re-runs
    them anyway); fresh successful results are written back.  ``workers > 1``
    executes uncached scenarios on a process pool; cached hits are yielded
    without touching the pool.  ``progress`` is invoked with every result as
    it is finalised (before it is yielded).  ``trace=True`` records a
    structured trace per fresh scenario and persists it as JSONL next to the
    cached result (:meth:`ResultCache.trace_path_for`); it requires a cache,
    and a cached result whose trace artifact is missing or incomplete (the
    sweep ran untraced before) counts as a miss and is re-run.
    """
    if trace and cache is None:
        raise ValueError("trace=True needs a result cache to persist the "
                         "trace artifacts into")
    cached_results: dict = {}
    pending: List[Scenario] = []
    for scenario in scenarios:
        hit = None if (cache is None or force) else cache.get(scenario)
        if hit is not None and (not trace or cache.has_trace(scenario)):
            cached_results[scenario.scenario_id] = hit
        else:
            pending.append(scenario)

    def finalise(result: ScenarioResult, *, from_subprocess: bool) -> ScenarioResult:
        if from_subprocess:
            # In-process runs were already counted by the cluster-run
            # observer; subprocess counters only exist in this snapshot.
            TELEMETRY.merge(result.telemetry)
        if result.trace_jsonl is not None and cache is not None:
            # Artifact first, entry second: an entry on disk then implies
            # its trace.  The blob is not duplicated inside the entry.
            cache.put_trace(result.scenario, result.trace_jsonl)
            result.trace_jsonl = None
        if cache is not None and result.ok and not result.cached:
            cache.put(result)
        if progress is not None:
            progress(result)
        return result

    if workers > 1 and len(pending) > 1:
        with multiprocessing.Pool(processes=min(workers, len(pending))) as pool:
            payloads = [dict(s.canonical(), __trace__=trace) if trace
                        else s.canonical() for s in pending]
            fresh_iter = iter(pool.imap(_worker, payloads))
            pending_iter = iter(pending)
            for scenario in scenarios:
                hit = cached_results.get(scenario.scenario_id)
                if hit is not None:
                    yield finalise(hit, from_subprocess=False)
                else:
                    # imap preserves submission order, so the next fresh dict
                    # belongs to the next pending scenario; reusing that
                    # object skips re-validation (which would re-raise an
                    # invalid scenario's error instead of reporting it).
                    result = ScenarioResult.from_dict(next(fresh_iter),
                                                      scenario=next(pending_iter))
                    yield finalise(result, from_subprocess=True)
    else:
        for scenario in scenarios:
            hit = cached_results.get(scenario.scenario_id)
            if hit is not None:
                yield finalise(hit, from_subprocess=False)
            else:
                yield finalise(execute_scenario(scenario, trace=trace),
                               from_subprocess=False)


@dataclass
class ExperimentRun:
    """Everything one sweep produced: results plus aggregate counters."""

    spec: ExperimentSpec
    results: List[ScenarioResult]
    wall_clock_s: float

    @property
    def executed(self) -> int:
        return sum(1 for r in self.results if r.ok and not r.cached)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def telemetry(self) -> BenchTelemetry:
        """Counters of the simulations this run actually executed (cache
        hits contributed no fresh simulation and are excluded)."""
        total = BenchTelemetry()
        for result in self.results:
            if not result.cached:
                total.merge(result.telemetry)
        return total

    def summary(self) -> str:
        return (f"{len(self.results)} scenario(s) — {self.executed} executed, "
                f"{self.cached} cached, {self.failed} failed")


def run_spec(spec: ExperimentSpec, *, workers: int = 1,
             cache: Optional[ResultCache] = None, force: bool = False,
             progress: Optional[Callable[[ScenarioResult], None]] = None,
             trace: bool = False,
             ) -> ExperimentRun:
    """Expand ``spec`` and run every scenario; returns the collected run."""
    start = time.perf_counter()
    results = list(run_scenarios(spec.scenarios(), workers=workers,
                                 cache=cache, force=force, progress=progress,
                                 trace=trace))
    return ExperimentRun(spec=spec, results=results,
                         wall_clock_s=time.perf_counter() - start)
