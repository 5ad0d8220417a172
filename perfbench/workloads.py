"""The three workloads: detect-cold, eco-edit and sweep-grid.

Each is a closed loop: one single-threaded client, one request in flight.
An untraced run sets the system up :data:`SETUPS` times (``setup_s`` is the
median), measures the op stream once and checks every answer.  A traced
run (``--trace 1``) replays half the stream twice on a fresh in-process
system, first with tracing off and then on, and reports the per-layer
split of the traced pass plus the tracing overhead between the two.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.io as rio
from repro.finder.config import FinderConfig
from repro.finder.finder import TangledLogicFinder
from repro.errors import ReproError
from repro.incremental import NetlistDelta, apply_delta
from repro.netlist.hypergraph import Netlist
from repro.obs import RunReport, trace
from repro.server import Client
from repro.service import (
    BatchRunner,
    ResultStore,
    config_from_dict,
    plan_sweep,
    report_to_dict,
    run_sweep,
)

import inputs
import layers
from harness import (
    Tally,
    WorkDir,
    clock,
    median,
    parallel_map,
    peak_rss_mib,
    same_report,
    start_daemon,
)

#: Set-ups per untraced run; ``setup_s`` is their median.  Five, because
#: one daemon set-up can take half a second longer than the next on a busy
#: host.
SETUPS = 5
#: Sweep set-ups: each pre-warms one quarter of the grid (see sweep_grid).
SWEEP_SETUPS = 4
#: Pool width of the sweep workload.
SWEEP_WORKERS = 2
#: A detect or edit stream stops early once it has run this many times its
#: share of ``--seconds``, which bounds a run on a host slower than the
#: one the streams were sized on.  The ops differ in cost, so a stream cut
#: short moves the median: the cap sits well above the ~1.9x slowdown
#: seen on a busy host.
OVERRUN = 3.0

#: What a submit may raise when the daemon fails an op or the connection
#: breaks; the op is counted as failed.
OP_ERRORS = (ReproError, OSError, ValueError)

#: ``tamper(workload, op index, answer)`` may rewrite an answer before it is
#: checked; the smoke test uses it to prove a wrong answer fails the op.
Tamper = Callable[[str, int, Any], Any]


@dataclass
class Context:
    """What one benchmark run was asked to do."""

    root: str
    workload: str
    seed: int
    seconds: float
    scale: inputs.Scale
    traced: bool
    tamper: Optional[Tamper] = None
    lines: List[str] = field(default_factory=list)

    def answer(self, index: int, result: Any) -> Any:
        return self.tamper(self.workload, index, result) if self.tamper else result

    @property
    def pass_s(self) -> float:
        """Seconds one pass measures (a traced run makes two)."""
        return self.seconds / 2 if self.traced else self.seconds

    def share(self, per_op_s: float, minimum: int) -> int:
        """Ops that fill one pass on the host the costs were measured on."""
        return max(minimum, round(self.pass_s / per_op_s))


@dataclass
class Outcome:
    tally: Tally
    metrics: Dict[str, float]
    designs: List[Netlist]


def _report_of(result: Any) -> Any:
    return result.get("report") if isinstance(result, dict) else None


def _reference(item: Tuple[str, Optional[Dict[str, Any]], Dict[str, Any]]):
    """Cold in-process detect of a packed design, edited by ``delta`` if given."""
    path, delta, config = item
    netlist = rio.load_packed(path)
    if delta is not None:
        netlist = apply_delta(netlist, NetlistDelta.from_dict(delta))
    return report_to_dict(TangledLogicFinder(netlist, config_from_dict(config)).run())


# -- daemon workloads ------------------------------------------------------

@dataclass
class Session:
    """A daemon with packed designs behind it."""

    daemon: Any
    client: Client
    paths: List[str]
    setup_s: float


def _serve(
    ctx: Context,
    work: WorkDir,
    tag: str,
    designs: Sequence[Netlist],
    prime: Optional[Callable[[Client, List[str]], None]] = None,
) -> Session:
    """Set-up: pack the designs, start the daemon, run ``prime``."""
    began = clock()
    folder = work.sub(tag + "-designs")
    paths = []
    for index, netlist in enumerate(designs):
        path = os.path.abspath(os.path.join(folder, f"d{index}.nla"))
        rio.write_packed(netlist, path)
        paths.append(path)
    daemon = start_daemon(ctx.root, work, tag, len(designs), ctx.traced)
    client = Client(daemon.socket_path, timeout_s=120.0)
    try:
        if prime is not None:
            prime(client, paths)
    except BaseException:
        daemon.stop()
        raise
    return Session(daemon, client, paths, clock() - began)


def _setups(ctx, work, designs, prime=None) -> Tuple[Session, float]:
    """:data:`SETUPS` fresh set-ups; all but the last are torn down."""
    session = None
    times = []
    for attempt in range(SETUPS):
        if session is not None:
            session.daemon.stop()
        session = _serve(ctx, work, f"s{attempt}", designs, prime)
        times.append(session.setup_s)
    return session, median(times)


@dataclass
class Stream:
    """Answers and timings of one pass over an op stream."""

    latencies: List[float] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    def submit(self, client: Client, **request) -> Any:
        """One closed-loop submit; a failure is recorded, not raised."""
        events: List[Dict[str, Any]] = []
        began = clock()
        try:
            result, error = client.submit(on_event=events.append, **request), ""
        except OP_ERRORS as failure:
            result, error = None, f"{type(failure).__name__}: {failure}"
        self.latencies.append(clock() - began)
        self.results.append(result)
        self.errors.append(error)
        self.waits.extend(
            e.get("wait_s", 0.0) for e in events if e.get("event") == "started"
        )
        return result

    def overheads_ms(self) -> List[float]:
        return [
            1000.0 * (latency - result.get("runtime_seconds", 0.0))
            for latency, result in zip(self.latencies, self.results)
            if isinstance(result, dict)
        ]


def _cold_stream(session: Session, ops, cap_s: float) -> Stream:
    stream = Stream()
    began = clock()
    for design, config in ops:
        stream.submit(session.client, design=session.paths[design], config=config)
        if clock() - began > cap_s:
            break
    stream.wall_s = clock() - began
    return stream


def _check_cold(ctx, tally, stream, refs, label) -> None:
    for index, (result, ref) in enumerate(zip(stream.results, refs)):
        answer = ctx.answer(index, result)
        tally.check(
            same_report(_report_of(answer), ref),
            f"{label} op {index} {stream.errors[index]}",
        )


def _check_repeats(tally, stream, answers, label) -> None:
    """Repeats must come from the cache and equal the first answer."""
    for index, result in enumerate(stream.results):
        first = answers[index % len(answers)]
        ok = (
            isinstance(result, dict)
            and result.get("cached") is True
            and same_report(_report_of(result), _report_of(first))
        )
        tally.check(ok, f"{label} repeat {index} {stream.errors[index]}")


def detect_cold(ctx: Context, work: WorkDir) -> Outcome:
    scale = ctx.scale
    designs = [
        inputs.scenario_design(scale, i, ctx.seed)
        for i in range(scale.cold_designs)
    ]
    ops = inputs.cold_ops(scale, ctx.share(scale.cold_op_s, scale.cold_designs))
    tally = Tally()
    if ctx.traced:
        return _detect_cold_traced(ctx, work, designs, ops, tally)

    session, setup_s = _setups(ctx, work, designs)
    try:
        stream = _cold_stream(session, ops, OVERRUN * ctx.pass_s)
        ops = ops[:len(stream.results)]
        rss = session.daemon.peak_rss_mib()
    finally:
        session.daemon.stop()

    refs = parallel_map(
        _reference, [(session.paths[d], None, config) for d, config in ops]
    )
    _check_cold(ctx, tally, stream, refs, "cold")
    ctx.lines.append(f"op_p50_ms over {len(stream.latencies)} cold detects")
    return Outcome(tally, {
        "setup_s": setup_s,
        "op_p50_ms": 1000.0 * median(stream.latencies),
        "ops_per_s": len(ops) / stream.wall_s,
        "peak_rss_mib": rss,
    }, designs)


def _traced_pass(run: Callable[[], Any]) -> Tuple[Any, RunReport]:
    """``run()`` with tracing on and the layer wrappers installed."""
    trace.enable()
    layers.instrument()
    try:
        result = run()
    finally:
        layers.uninstrument()
        trace.disable()
    return result, RunReport.from_tracer()


def _detect_cold_traced(ctx, work, designs, ops, tally) -> Outcome:
    def one_pass(tag: str, ops, cap_s: float):
        session = _serve(ctx, work, tag, designs)
        try:
            stream = _cold_stream(session, ops, cap_s)
            warm = Stream()
            for design, config in ops[:len(stream.results)]:
                warm.submit(session.client, design=session.paths[design], config=config)
        finally:
            session.daemon.stop()
        return session, stream, warm

    # The traced pass replays exactly the ops the untraced one finished.
    session, plain, plain_warm = one_pass("u", ops, OVERRUN * ctx.pass_s)
    ops = ops[:len(plain.results)]
    (_, stream, warm), report = _traced_pass(
        lambda: one_pass("t", ops, float("inf"))
    )

    refs = parallel_map(
        _reference, [(session.paths[d], None, config) for d, config in ops]
    )
    for cold, repeats, label in (
        (plain, plain_warm, "untraced"), (stream, warm, "traced")
    ):
        _check_cold(ctx, tally, cold, refs, label)
        _check_repeats(tally, repeats, cold.results, label)
    ctx.lines.extend(layers.layer_table(report))
    return Outcome(tally, layers.layer_metrics(
        report,
        pool_workers=1,
        overhead_ms=stream.overheads_ms(),
        queue_wait_ms=[1000.0 * w for w in stream.waits],
        warm_hit_ms=[1000.0 * s for s in warm.latencies],
        trace_overhead=_overhead(ctx, plain.wall_s, stream.wall_s),
    ), designs)


def _overhead(ctx: Context, untraced_s: float, traced_s: float) -> float:
    ctx.lines.append(
        f"tracing overhead: untraced pass {untraced_s:.3f}s, traced pass "
        f"{traced_s:.3f}s ({traced_s / untraced_s - 1.0:+.1%})"
    )
    return traced_s / untraced_s - 1.0


def _eco_config(scale: inputs.Scale) -> Dict[str, int]:
    return {
        "num_seeds": scale.eco_num_seeds,
        "max_order_length": scale.eco_order_length,
        "seed": 7,
    }


def _eco_stream(session: Session, edits, config, cap_s) -> Tuple[Stream, Stream]:
    """Each edit, then one repeat of the same delta submit."""
    edited, repeated = Stream(), Stream()
    began = clock()
    for delta in edits:
        request = dict(design=session.paths[0], config=config, delta=delta.to_dict())
        edited.submit(session.client, **request)
        repeated.submit(session.client, **request)
        if clock() - began > cap_s:
            break
    edited.wall_s = repeated.wall_s = clock() - began
    return edited, repeated


def eco_edit(ctx: Context, work: WorkDir) -> Outcome:
    scale = ctx.scale
    base = inputs.scenario_design(scale, 0, ctx.seed)
    config = _eco_config(scale)
    edits = inputs.eco_edits(
        base, ctx.share(scale.eco_pair_s, 2), scale.eco_moves, ctx.seed
    )
    primed: List[Any] = []

    def prime(client: Client, paths: List[str]) -> None:
        # The base detect every edit is patched against.
        primed.append(client.submit(design=paths[0], config=config))

    tally = Tally()
    if ctx.traced:
        def one_pass(tag: str, cap_s: float) -> Tuple[Session, Stream, Stream]:
            session = _serve(ctx, work, tag, [base], prime)
            try:
                return session, *_eco_stream(session, edits, config, cap_s)
            finally:
                session.daemon.stop()

        # The traced pass replays exactly the edits the untraced one finished.
        _, *plain = one_pass("u", OVERRUN * ctx.pass_s)
        edits = edits[:len(plain[0].results)]
        (session, edited, repeated), report = _traced_pass(
            lambda: one_pass("t", float("inf"))
        )
        passes = [plain, (edited, repeated)]
    else:
        session, setup_s = _setups(ctx, work, [base], prime)
        try:
            edited, repeated = _eco_stream(
                session, edits, config, OVERRUN * ctx.pass_s
            )
            edits = edits[:len(edited.results)]
            rss = session.daemon.peak_rss_mib()
        finally:
            session.daemon.stop()
        passes = [(edited, repeated)]

    base_ref, *refs = parallel_map(_reference, [
        (session.paths[0], delta, config)
        for delta in [None] + [edit.to_dict() for edit in edits]
    ])
    for index, answer in enumerate(primed):
        tally.check(same_report(_report_of(answer), base_ref), f"base detect {index}")
    for edit_stream, repeat_stream in passes:
        _check_cold(ctx, tally, edit_stream, refs, "edit")
        _check_repeats(tally, repeat_stream, edit_stream.results, "edit")
    if not ctx.traced:
        ctx.lines.append(f"op_p50_ms over {len(edited.latencies)} edits")
        return Outcome(tally, {
            "setup_s": setup_s,
            "op_p50_ms": 1000.0 * median(edited.latencies),
            "ops_per_s": 2 * len(edits) / edited.wall_s,
            "peak_rss_mib": rss,
        }, [base])

    ctx.lines.extend(layers.layer_table(report))
    return Outcome(tally, layers.layer_metrics(
        report,
        pool_workers=1,
        overhead_ms=edited.overheads_ms(),
        queue_wait_ms=[1000.0 * w for w in edited.waits],
        warm_hit_ms=[1000.0 * s for s in repeated.latencies],
        trace_overhead=_overhead(ctx, plain[0].wall_s, edited.wall_s),
    ), [base])


# -- sweep -----------------------------------------------------------------

@dataclass
class SweepSession:
    """A worker pool and result store with one quarter of the grid warm."""

    runner: BatchRunner
    store: ResultStore
    netlist: Netlist
    warm: Dict[int, Any]
    setup_s: float

    def close(self) -> None:
        self.runner.close()
        self.store.close()


def _quarter(job_index: int) -> int:
    return job_index % SWEEP_SETUPS


def _sweep_setup(ctx, work, tag, design, base, grid, quarter) -> SweepSession:
    """Set-up: pack and load the design, open the store, start the pool by
    pre-warming quarter ``quarter`` of the grid's jobs."""
    began = clock()
    folder = work.sub(tag)
    path = os.path.join(folder, "design.nla")
    rio.write_packed(design, path)
    netlist = rio.load_packed(path)
    store = ResultStore(os.path.join(folder, "cache"))
    runner = BatchRunner(workers=SWEEP_WORKERS, store=store)
    try:
        jobs = plan_sweep([("design", netlist)], base, grid).jobs
        chosen = [j for j in range(len(jobs)) if _quarter(j) == quarter]
        warm = dict(zip(chosen, runner.run([jobs[j] for j in chosen])))
    except BaseException:
        runner.close()
        store.close()
        raise
    return SweepSession(runner, store, netlist, warm, clock() - began)


def _sweep(session: SweepSession, base, grid) -> Tuple[Any, float]:
    began = clock()
    with trace.span(layers.SWEEP_SPAN):
        outcome = run_sweep([("design", session.netlist)], base, grid, session.runner)
    return outcome, clock() - began


def _result_report(result: Any) -> Optional[Dict[str, Any]]:
    return report_to_dict(result.report) if result.ok else None


def sweep_grid(ctx: Context, work: WorkDir) -> Outcome:
    scale = ctx.scale
    design = inputs.scenario_design(scale, 0, ctx.seed)
    # Per seed value: four points, three of them computed in the sweep.
    grid = inputs.sweep_grid(ctx.share(3 * scale.sweep_point_s, 2))
    base = FinderConfig(num_seeds=scale.sweep_num_seeds)
    hot = SWEEP_SETUPS - 1  # the quarter the live store has warm
    tally = Tally()

    if ctx.traced:
        def one_pass(tag: str):
            session = _sweep_setup(ctx, work, tag, design, base, grid, hot)
            try:
                return session, *_sweep(session, base, grid)
            finally:
                session.close()

        plain_session, plain, plain_s = one_pass("u")
        (session, outcome, wall_s), report = _traced_pass(lambda: one_pass("t"))
        for mine, other, own in (
            (plain, outcome, plain_session), (outcome, plain, session)
        ):
            for j, (result, peer) in enumerate(
                zip(mine.job_results, other.job_results)
            ):
                want = own.warm[j] if _quarter(j) == hot else peer
                ok = result.cached == (_quarter(j) == hot) and same_report(
                    ctx.answer(j, _result_report(result)), _result_report(want)
                )
                tally.check(ok, f"sweep point {j}")
        ctx.lines.extend(layers.layer_table(report))
        return Outcome(tally, layers.layer_metrics(
            report,
            pool_workers=SWEEP_WORKERS,
            overhead_ms=(),
            queue_wait_ms=(),
            warm_hit_ms=(),
            trace_overhead=_overhead(ctx, plain_s, wall_s),
        ), [design])

    # Every set-up warms a different quarter; the first three quarters are
    # the references of the points the measured sweep computes, the last
    # one is what it finds warm.
    refs: Dict[int, Any] = {}
    times = []
    session = None
    for quarter in range(SWEEP_SETUPS):
        if session is not None:
            session.close()
        session = _sweep_setup(ctx, work, f"s{quarter}", design, base, grid, quarter)
        times.append(session.setup_s)
        refs.update((j, _result_report(r)) for j, r in session.warm.items())
    try:
        outcome, wall_s = _sweep(session, base, grid)
        rss = peak_rss_mib(os.getpid())
    finally:
        session.close()

    for j, result in enumerate(outcome.job_results):
        ok = result.cached == (_quarter(j) == hot) and same_report(
            ctx.answer(j, _result_report(result)), refs.get(j)
        )
        tally.check(ok, f"sweep point {j}")
    computed = [r.runtime_seconds for r in outcome.job_results if not r.cached]
    ctx.lines.append(f"op_p50_ms over {len(computed)} computed points")
    return Outcome(tally, {
        "setup_s": median(times),
        "op_p50_ms": 1000.0 * median(computed),
        "ops_per_s": len(outcome.plan.points) / wall_s,
        "peak_rss_mib": rss,
    }, [design])


WORKLOADS: Dict[str, Callable[[Context, WorkDir], Outcome]] = {
    "detect-cold": detect_cold,
    "eco-edit": eco_edit,
    "sweep-grid": sweep_grid,
}
