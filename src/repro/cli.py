"""Command-line interface.

Subcommands:

* ``generate``     — synthesize a workload (planted graph, ISPD-like,
  industrial-like) and write it to disk.
* ``experiment``   — run one of the paper's table/figure harnesses.
* ``batch``        — run a manifest of detection jobs through the batch
  service (shared worker pool, persistent result cache).
* ``sweep``        — expand a parameter grid over a set of designs,
  deduplicate identical jobs, and run them through the batch service on
  ``--workers N`` seed threads (``--via-daemon`` submits them to a running
  daemon as priority-class-``sweep`` jobs instead, and refuses
  ``--workers``, ``--cache-dir`` and ``--no-cache``); ``--aggregate``
  publishes totals and per-axis statistics as JSON.
* ``flow run``     — execute a declared multi-stage flow manifest
  (detect / partition / place / congestion / soft_blocks / resynthesis)
  over one or more designs, with per-stage fingerprint caching.
* ``diff``         — structural diff of two designs; prints (and
  optionally writes) the :class:`~repro.incremental.NetlistDelta`.
* ``detect``       — run the tangled-logic finder on one Bookshelf / hgr /
  edge-list / pack design and print the report (``--out`` writes the GTL
  membership).  With the cache it reuses what it soundly can: the exact
  report, or a cached base run patched through the dirty region of the
  edit (``--base`` names a base design or fingerprint; defaults to the
  cache's head pointer of the config and the design's cell names);
  ``--no-cache`` is a plain run.  ``batch``, ``sweep`` and ``flow run``
  patch the same way, without ``--base``.
* ``cache``        — result-cache maintenance: ``stats`` (entries per
  artifact kind, and design records: packs with their bytes, references
  and edits), ``prune --keep N`` (LRU eviction of rows; it never touches a
  referenced design file) and ``merge SOURCE...``
  (fold other cache dirs in, reconciling rows by fingerprint, schema
  revision and use-count).
* ``pack``         — convert a text design file to the binary pack format
  (``.nla``), which loads zero-copy via mmap; with ``--cache-dir`` pack a
  whole manifest of designs into that cache dir's design packs, which a
  daemon serving the cache dir mmaps instead of parsing the text.
* ``serve``        — start the long-lived detection daemon: one warm
  worker pool + result store + design LRU behind a local Unix socket.
* ``submit``       — submit one detection job to a running daemon and
  stream its lifecycle events; ``--delta BASE`` ships only the edit
  against an already-known base design.
* ``status``       — query a running daemon (server stats or one job).

``--workers N`` (``batch``, ``sweep``, ``flow run``, ``detect``, ``serve``)
sizes the :class:`~repro.service.pool.WorkerPool`, the seed threads that
run the seed trials.  It is not part of any finder config: reports and cache keys are
the same for every N.

Examples::

    tangled-logic detect design.aux --seeds 100 --metric gtl_sd --no-cache
    tangled-logic generate ispd --scale 0.25 --out bench/
    tangled-logic experiment table1 --scale 0.1
    tangled-logic batch jobs.json --workers 4 --cache-dir .repro-cache
    tangled-logic sweep sweep.json --jsonl points.jsonl
    tangled-logic sweep sweep.json --workers 2 --aggregate stats.json
    tangled-logic cache merge other-host-cache/ --cache-dir .repro-cache
    tangled-logic flow run flow.json --cache-dir .repro-cache --workers 4
    tangled-logic flow run flow.json --trace trace.jsonl --profile
    tangled-logic --log-level info batch jobs.json
    tangled-logic pack jobs.json --cache-dir .repro-cache
    tangled-logic serve --socket /tmp/repro.sock --workers 4 --cache-dir .repro-cache
    tangled-logic submit design.hgr --seed 1 --priority interactive
    tangled-logic status --socket /tmp/repro.sock

Batch manifest (JSON; design paths are relative to the manifest)::

    {"defaults": {"num_seeds": 16, "seed": 1},
     "jobs": [{"design": "bench/a.hgr", "label": "a", "num_seeds": 32},
              {"design": "bench/b.aux"}]}

Sweep manifest::

    {"designs": ["bench/a.hgr", "bench/b.hgr"],
     "base": {"num_seeds": 16, "seed": 1},
     "grid": {"lambda_skip": [0, 20], "metric": ["gtl_sd", "ngtl_s"]}}

Flow manifest::

    {"designs": ["bench/a.hgr"],
     "stages": [{"stage": "detect", "num_seeds": 32, "seed": 1},
                {"stage": "partition"},
                {"stage": "place", "utilization": 0.6},
                {"stage": "congestion", "grid": [32, 32]}]}
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.finder import FinderConfig
from repro.io import load_design as _load_design


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.io.bookshelf import write_bookshelf

    if args.kind == "planted":
        from repro.generators.random_gtl import planted_gtl_graph

        netlist, truth = planted_gtl_graph(
            args.cells, args.gtl_sizes or [max(50, args.cells // 20)], seed=args.seed
        )
        print(f"planted blocks: {[len(t) for t in truth]}")
    elif args.kind == "ispd":
        from repro.generators.ispd_like import default_bigblue1_like, generate_ispd_like

        netlist, truth = generate_ispd_like(
            default_bigblue1_like(args.scale), seed=args.seed
        )
        print(f"embedded structures: {{name: size}} = "
              f"{ {k: len(v) for k, v in truth.items()} }")
    elif args.kind == "industrial":
        from repro.generators.industrial import IndustrialSpec, generate_industrial

        netlist, truth = generate_industrial(IndustrialSpec(), seed=args.seed)
        print(f"dissolved ROM blocks: {[len(t) for t in truth]}")
    else:
        raise ReproError(f"unknown workload kind {args.kind!r}")

    aux = write_bookshelf(netlist, args.out, args.kind)
    print(f"{netlist} -> {aux}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    runner = getattr(experiments, f"run_{args.which}", None)
    if runner is None:
        raise ReproError(f"unknown experiment {args.which!r}")
    kwargs = {}
    if args.scale is not None and args.which in ("table1", "table2", "fig4", "fig5"):
        kwargs["scale"] = args.scale
    if args.seeds is not None and args.which not in ("fig2", "fig3", "fig5"):
        kwargs["num_seeds"] = args.seeds
    result = runner(**kwargs)
    print(result.render())
    if args.csv:
        result.write_series_csv(args.csv)
        print(f"series written to {args.csv}")
    return 0


def _manifest_config(data, context: str):
    """Build a :class:`FinderConfig` from a manifest dict."""
    from repro.errors import ServiceError
    from repro.service.codec import config_from_dict

    if not isinstance(data, dict):
        raise ServiceError(f"{context} must be a JSON object of FinderConfig fields")
    try:
        return config_from_dict(data)
    except ReproError:
        raise
    except TypeError as error:
        raise ServiceError(f"bad {context}: {error}") from error


def _print_progress(event) -> None:
    """Per-job progress line on stderr (a runner's ``BatchProgress``)."""
    result = event.result
    status = "cached" if result.cached else ("ok" if result.ok else "FAILED")
    label = result.job.label or result.job.fingerprint[:12]
    print(
        f"[{event.done}/{event.total}] {label}: {status} "
        f"({result.runtime_seconds:.2f}s)",
        file=sys.stderr,
    )


def _make_runner(args: argparse.Namespace, store):
    from repro.service.jobs import BatchRunner

    return BatchRunner(
        workers=args.workers,
        store=store,
        progress=None if args.quiet else _print_progress,
    )


def _open_store(args: argparse.Namespace):
    from repro.service.store import ResultStore

    if args.no_cache or getattr(args, "via_daemon", False):
        return None  # --via-daemon: the daemon's store does the caching
    return ResultStore(args.cache_dir or ".repro-cache")


class _ObsSession:
    """Tracing lifecycle of one CLI command (``--trace`` / ``--profile``).

    Enables the global tracer around the command's work, wraps it in a root
    span, then renders the collected :class:`~repro.obs.report.RunReport`
    (trace-file note, profile tree) after the command's own output.
    """

    def __init__(self, args: argparse.Namespace, root: str) -> None:
        self.trace_path = getattr(args, "trace", "") or ""
        self.profile = bool(getattr(args, "profile", False))
        self.root = root
        self.report = None
        self._span = None

    @property
    def active(self) -> bool:
        return bool(self.trace_path or self.profile)

    def __enter__(self) -> "_ObsSession":
        if self.active:
            from repro.obs import trace

            trace.enable(jsonl_path=self.trace_path or None)
            self._span = trace.span(self.root)
            self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.active:
            from repro.obs import trace
            from repro.obs.report import RunReport

            self._span.__exit__(exc_type, exc, tb)
            self.report = RunReport.from_tracer()
            trace.disable()
        return False

    def emit(self) -> None:
        """Print the run-report epilogue (after the command's own output)."""
        if self.report is None:
            return
        if self.trace_path:
            print(
                f"trace: wrote {len(self.report.spans)} span(s) "
                f"to {self.trace_path}"
            )
        if self.profile:
            print(self.report.summary())


def _report_row(label, result):
    report = result.report
    if report is None:
        return [label, "-", "-", "-", "-", "error", result.error or ""]
    best = report.gtls[0] if report.gtls else None
    return [
        label,
        report.num_gtls,
        best.size if best else "-",
        f"{best.score:.4f}" if best else "-",
        f"{report.rent_exponent:.3f}",
        "hit" if result.cached else "run",
        f"{result.runtime_seconds:.2f}s",
    ]


def _resolve_design(design: str, base_dir: str) -> str:
    return design if os.path.isabs(design) else os.path.join(base_dir, design)


def _run_command(args: argparse.Namespace, root: str, execute) -> int:
    """Shared store/trace lifecycle and output epilogue of the detection verbs.

    ``execute(store)`` runs inside the ``--trace``/``--profile`` root span
    ``cli.<root>`` with the cache dir's one store (``None`` under
    ``--no-cache`` and ``--via-daemon``) and returns ``(lines, jsonl_rows,
    ok)``: the command's own output, printed before the ``cache:`` line and
    the run-report epilogue, and the rows ``--jsonl`` writes.  Exit code 0
    only when ok.
    """
    from repro.utils.jsonio import write_jsonl

    store = _open_store(args)
    obs = _ObsSession(args, f"cli.{root}")
    try:
        with obs:
            lines, jsonl_rows, ok = execute(store)
    finally:
        if store is not None:
            cache_line = store.stats.summary()
            store.close()
        elif getattr(args, "via_daemon", False):
            cache_line = "the daemon's store"
        else:
            cache_line = "cache disabled"
    for line in lines:
        print(line)
    print(f"cache: {cache_line}")
    obs.emit()
    jsonl = getattr(args, "jsonl", "")
    if jsonl:
        written = write_jsonl(jsonl, jsonl_rows)
        print(f"wrote {written} row(s) to {jsonl}")
    return 0 if ok else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.codec import report_to_dict
    from repro.service.jobs import DetectionJob, summarize_results
    from repro.utils.jsonio import read_json_file
    from repro.utils.tables import format_table

    manifest = read_json_file(args.manifest)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("jobs"), list):
        raise ServiceError('batch manifest must be {"defaults": {...}, "jobs": [...]}')
    if not manifest["jobs"]:
        raise ServiceError("batch manifest has no jobs")
    defaults = manifest.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ServiceError('batch manifest "defaults" must be a JSON object')
    base_dir = os.path.dirname(os.path.abspath(args.manifest))

    jobs = []
    # Many jobs routinely target the same design with different configs:
    # parse each file once (its content hash is memoized on the netlist).
    netlists_by_path = {}
    for index, entry in enumerate(manifest["jobs"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("design"), str):
            raise ServiceError(
                f'job #{index} must be an object with a string "design" key'
            )
        overrides = {
            k: v for k, v in entry.items() if k not in ("design", "label")
        }
        config = _manifest_config({**defaults, **overrides}, f"job #{index} config")
        design = entry["design"]
        path = _resolve_design(design, base_dir)
        if path not in netlists_by_path:
            netlists_by_path[path] = _load_design(path)
        jobs.append(
            DetectionJob(
                netlist=netlists_by_path[path], config=config,
                label=entry.get("label", design),
            )
        )

    def execute(store):
        with _make_runner(args, store) as runner:
            results = runner.run(jobs)
        headers = ["job", "gtls", "best size", "best score", "rent p", "cache", "time"]
        rows = [_report_row(r.job.label, r) for r in results]
        jsonl_rows = [
            {
                "label": r.job.label,
                "fingerprint": r.job.fingerprint,
                "cached": r.cached,
                "runtime_seconds": r.runtime_seconds,
                "error": r.error,
                "incremental_mode": r.incremental.get("mode", ""),
                "seeds_total": r.incremental.get("seeds_total", 0),
                "seeds_recomputed": r.incremental.get("seeds_recomputed", 0),
                "report": report_to_dict(r.report) if r.report else None,
            }
            for r in results
        ]
        lines = [format_table(headers, rows), summarize_results(results)]
        return lines, jsonl_rows, all(r.ok for r in results)

    return _run_command(args, "batch", execute)


def _sweep_output(args: argparse.Namespace, outcome):
    """:func:`_run_command` output of one sweep outcome."""
    from repro.service.aggregate import (
        aggregate_sweep,
        point_rows,
        write_aggregate,
    )
    from repro.service.jobs import summarize_results
    from repro.utils.tables import format_table

    headers = [
        "design", "point", "gtls", "best size", "best score", "rent p", "cache", "time",
    ]
    rows = []
    for point, result in outcome.point_results():
        overrides = ", ".join(f"{k}={v}" for k, v in point.overrides)
        row = _report_row(point.design, result)
        rows.append([row[0], overrides] + row[1:])
    lines = [
        format_table(headers, rows),
        f"{len(outcome.plan.points)} grid point(s) -> "
        f"{len(outcome.plan.jobs)} distinct job(s) "
        f"({outcome.plan.num_deduplicated} deduplicated); "
        + summarize_results(outcome.job_results),
    ]
    if args.aggregate:
        write_aggregate(args.aggregate, aggregate_sweep(outcome))
        lines.append(f"wrote aggregate stats to {args.aggregate}")
    return lines, point_rows(outcome), all(r.ok for r in outcome.job_results)


def _parse_sweep_manifest(args: argparse.Namespace):
    """Load a sweep manifest: ``(designs, base, grid, design_paths)``."""
    from repro.errors import ServiceError
    from repro.utils.jsonio import read_json_file

    manifest = read_json_file(args.manifest)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("designs"), list):
        raise ServiceError(
            'sweep manifest must be {"designs": [...], "base": {...}, "grid": {...}}'
        )
    if not isinstance(manifest.get("grid"), dict) or not manifest["grid"]:
        raise ServiceError('sweep manifest needs a non-empty "grid" object')
    base = _manifest_config(manifest.get("base", {}), "sweep base config")
    base_dir = os.path.dirname(os.path.abspath(args.manifest))

    designs = []
    design_paths = {}
    for index, design in enumerate(manifest["designs"]):
        if not isinstance(design, str):
            raise ServiceError(f'sweep manifest "designs" entry #{index} must be a string')
        path = _resolve_design(design, base_dir)
        designs.append((design, _load_design(path)))
        design_paths[design] = path
    return designs, base, manifest["grid"], design_paths


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.sweep import run_sweep

    if args.via_daemon:
        for flag, given in (
            ("--workers", args.workers != 1),
            ("--cache-dir", bool(args.cache_dir)),
            ("--no-cache", args.no_cache),
        ):
            if given:
                raise ServiceError(
                    f"--via-daemon cannot be combined with {flag}: the "
                    "daemon's pool and store run the jobs"
                )
    designs, base, grid, design_paths = _parse_sweep_manifest(args)

    def execute(store):
        if args.via_daemon:
            from repro.server.client import DaemonRunner

            runner = DaemonRunner(
                args.socket, design_paths,
                progress=None if args.quiet else _print_progress,
            )
        else:
            runner = _make_runner(args, store)
        with runner:
            outcome = run_sweep(designs, base, grid, runner)
        return _sweep_output(args, outcome)

    return _run_command(args, "sweep", execute)


def _cmd_flow_run(args: argparse.Namespace) -> int:
    from repro.flow import flow_from_manifest
    from repro.service.pool import WorkerPool
    from repro.utils.jsonio import read_json_file
    from repro.utils.tables import format_table

    data = read_json_file(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    manifest = flow_from_manifest(data, base_dir)

    def execute(store):
        headers = ["design", "stage", "kind", "cache", "time", "summary"]
        rows = []
        jsonl_rows = []
        pool = WorkerPool(args.workers) if args.workers > 1 else None
        try:
            for path in manifest.designs:
                netlist = _load_design(path)
                label = os.path.basename(path)

                def _progress(result) -> None:
                    print(
                        f"[{label}] {result.stage}: {result.cache_label} "
                        f"({result.runtime_seconds:.2f}s)",
                        file=sys.stderr,
                    )

                outcome = manifest.flow.run(
                    netlist,
                    store=store,
                    pool=pool,
                    progress=None if args.quiet else _progress,
                )
                for result in outcome.results:
                    rows.append(
                        [label, result.stage, result.kind, result.cache_label,
                         f"{result.runtime_seconds:.2f}s", result.metadata_summary()]
                    )
                    jsonl_rows.append({"design": label, **result.to_row()})
        finally:
            if pool is not None:
                pool.shutdown()
        return [format_table(headers, rows)], jsonl_rows, True

    return _run_command(args, "flow-run", execute)


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.io import PACKED_EXTENSION, pack_design, read_header

    if args.cache_dir:
        from repro.io.corpus import corpus_designs_from_manifest
        from repro.service import ResultStore, designs
        from repro.utils.jsonio import read_json_file

        sources = corpus_designs_from_manifest(
            read_json_file(args.design),
            os.path.dirname(os.path.abspath(args.design)),
        )
        packed = 0
        with ResultStore(args.cache_dir) as store:
            for source in sources:
                fingerprint, fresh = designs.pack_source(store, source)
                packed += fresh
                status = "packed" if fresh else "up-to-date"
                print(f"{status}: {source} -> "
                      f"{designs.pack_path(store, fingerprint)}")
        print(
            f"{len(sources)} design(s): {packed} packed, "
            f"{len(sources) - packed} reused; cache at {args.cache_dir}"
        )
        return 0

    out = args.out
    if not out:
        out = os.path.splitext(args.design)[0] + PACKED_EXTENSION
    written = pack_design(args.design, out)
    header = read_header(out)
    print(
        f"packed {args.design} -> {out} ({written} bytes, "
        f"{header.num_cells} cells / {header.num_nets} nets / "
        f"{header.num_pins} pins)"
    )
    print(f"fingerprint: {header.fingerprint}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import ServerConfig, ServerDaemon

    config = ServerConfig(
        socket_path=args.socket,
        cache_dir=args.cache_dir or ".repro-cache",
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        starvation_limit=args.starvation_limit,
        max_designs=args.max_designs,
    )
    daemon = ServerDaemon(config)
    obs = _ObsSession(args, "cli.serve")
    print(
        f"repro daemon: socket={config.socket_path} workers={config.workers} "
        f"cache={config.cache_dir}"
    )
    print("serving; SIGTERM/Ctrl-C drains and stops", file=sys.stderr)
    with obs:
        daemon.serve_forever()
    print("daemon stopped")
    obs.emit()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.server import Client

    config = {
        key: value
        for key, value in (
            ("num_seeds", args.seeds),
            ("metric", args.metric),
            ("min_gtl_size", args.min_size),
            ("seed", args.seed),
        )
        if value is not None
    }
    client = Client(args.socket, busy_retries=args.busy_retries)

    design = args.design
    delta_payload = None
    if args.delta:
        # Delta submit: diff locally against the base design the daemon
        # already knows, and ship only the edit — "design" becomes the
        # base path; the edited netlist itself never crosses the socket.
        from repro.incremental import diff

        delta = diff(_load_design(args.delta), _load_design(args.design))
        delta_payload = delta.to_dict()
        design = args.delta
        if not args.quiet:
            print(f"delta vs {args.delta}: {delta.summary()}", file=sys.stderr)

    def on_event(event) -> None:
        if args.quiet:
            return
        name = event["event"]
        if name == "queued":
            print(f"queued: job {event['job_id']} "
                  f"(position {event.get('position', '?')})", file=sys.stderr)
        elif name == "started":
            print(f"started after {event.get('wait_s', 0.0):.2f}s in queue",
                  file=sys.stderr)
        elif name == "progress":
            print(f"progress: {event.get('stage')} ({event.get('cache')})",
                  file=sys.stderr)

    result = client.submit(
        design,
        config=config,
        priority=args.priority,
        label=args.label or os.path.basename(args.design),
        wait=not args.no_wait,
        on_event=on_event,
        delta=delta_payload,
    )
    if result["event"] == "queued":
        print(f"job {result['job_id']} queued (poll with: "
              f"tangled-logic status --socket {args.socket} {result['job_id']})")
        return 0
    from repro.service.codec import report_from_dict

    report = report_from_dict(result["report"])
    origin = "cache" if result.get("cached") else "computed"
    print(report.summary())
    print(f"{origin} in {result.get('runtime_seconds', 0.0):.3f}s "
          f"(fingerprint {result.get('fingerprint', '')[:12]})")
    incremental = result.get("incremental")
    if incremental:
        print(f"incremental: mode={incremental.get('mode')} "
              f"seeds {incremental.get('seeds_recomputed')}/"
              f"{incremental.get('seeds_total')} re-run, "
              f"{incremental.get('dirty_cells')} dirty cell(s)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.server import Client

    client = Client(args.socket)
    if args.shutdown:
        response = client.shutdown(drain=not args.no_drain)
        print(f"shutdown requested (drain={response.get('drain')})")
        return 0
    status = client.status(args.job_id or None, group=args.group)
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0
    if args.job_id:
        job = status["job"]
        print(
            f"job {job['job_id']}: {job['state']} ({job['kind']}, "
            f"{job['priority']}, label={job['label']!r})"
        )
        print(f"  wait {job['wait_s']:.2f}s, run {job['run_s']:.2f}s, "
              f"cached={job['cached']}")
        if job.get("error"):
            print(f"  error: {job['error']}")
        return 0
    queue = status["queue"]
    store = status["store"]
    print(f"daemon pid {status['pid']}, up {status['uptime_s']:.0f}s, "
          f"{status['workers']} worker(s)")
    depths = queue.get("depths", {})
    per_class = " ".join(
        f"{name}={depths.get(name, 0)}"
        for name in ("interactive", "batch", "sweep")
    )
    print(
        f"queue: {queue['depth']}/{queue['max_depth']} queued "
        f"({per_class}), {queue['submitted']} submitted, "
        f"{queue['rejected']} rejected, {queue['cancelled']} cancelled"
    )
    print(
        f"store: {store['entries']} entries, {store['hits']} hit(s) / "
        f"{store['misses']} miss(es) ({store['hit_rate']:.0%}), "
        f"{store['puts']} put(s)"
    )
    counters = status["counters"]
    print(
        f"served: {counters['done']} done, {counters['failed']} failed, "
        f"{counters['warm_hits']} warm hit(s), "
        f"{counters['requests']} request(s)"
    )
    designs = status["designs"]
    print(
        f"designs: {designs['loaded']}/{designs['max_designs']} loaded, "
        f"{designs['hits']} hit(s), {designs['pack_loads']} pack load(s)"
    )
    if status["jobs"]:
        print(f"recent jobs{f' (group {args.group})' if args.group else ''}:")
        for job in status["jobs"][:20 if args.group else 10]:
            tag = f" [{job['group']}]" if job.get("group") else ""
            print(f"  {job['job_id']} {job['state']:9s} {job['priority']:11s} "
                  f"{job['label']}{tag}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.incremental import delta_fingerprint, diff
    from repro.service.fingerprint import fingerprint_netlist

    old = _load_design(args.old)
    new = _load_design(args.new)
    delta = diff(old, new)
    base_fp = fingerprint_netlist(old)
    print(f"base: {args.old} ({old.num_cells} cells, {old.num_nets} nets, "
          f"fingerprint {base_fp[:12]})")
    print(f"new:  {args.new} ({new.num_cells} cells, {new.num_nets} nets, "
          f"fingerprint {fingerprint_netlist(new)[:12]})")
    print(f"delta: {delta.summary()}"
          + (" (netlists identical)" if delta.is_empty else ""))
    print(f"delta fingerprint: {delta_fingerprint(base_fp, delta)[:12]}")
    if args.json:
        import json as _json

        with open(args.json, "w") as handle:
            _json.dump(delta.to_dict(), handle)
        print(f"wrote delta ({delta.num_edits} edit(s)) to {args.json}")
    return 0


def _write_membership(path: str, netlist, report) -> None:
    """Write each found GTL's header line and member cell names."""
    with open(path, "w") as handle:
        for index, gtl in enumerate(report.gtls):
            names = " ".join(netlist.cell_name(c) for c in sorted(gtl.cells))
            handle.write(f"GTL {index + 1} size={gtl.size} cut={gtl.cut} "
                         f"ngtl={gtl.ngtl_score:.4f} gtl_sd={gtl.gtl_sd_score:.4f}\n")
            handle.write(names + "\n")


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.incremental import detect_with_reuse
    from repro.service.pool import WorkerPool

    netlist = _load_design(args.design)
    config = FinderConfig(
        num_seeds=args.seeds,
        metric=args.metric,
        max_order_length=args.max_order_length,
        min_gtl_size=args.min_size,
        seed=args.seed,
    )
    base_netlist = None
    base_fingerprint = ""
    if args.base:
        if os.path.exists(args.base):
            base_netlist = _load_design(args.base)
        else:
            base_fingerprint = args.base  # a netlist fingerprint from a prior run

    def execute(store):
        # One pool for the whole command: a full run and an incremental
        # patch's dirty seeds both fan out over it.
        with WorkerPool(args.workers) as pool:
            result = detect_with_reuse(
                netlist,
                config,
                store,
                base=base_netlist,
                base_fingerprint=base_fingerprint,
                pool=pool,
            )
        lines = [result.report.summary(), result.summary()]
        if result.base_fingerprint:
            lines.append(f"base fingerprint: {result.base_fingerprint[:12]}, "
                         f"delta fingerprint: {result.delta_fingerprint[:12]}")
        if args.out:
            _write_membership(args.out, netlist, result.report)
            lines.append(f"wrote {result.report.num_gtls} GTL(s) to {args.out}")
        return lines, [], True

    return _run_command(args, "detect", execute)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.service import designs
    from repro.service.store import MergeStats, ResultStore

    with ResultStore(args.cache_dir or ".repro-cache") as store:
        if args.cache_command == "stats":
            entries = store.entries()
            total_runtime = sum(runtime for _, _, runtime in entries)
            print(f"cache dir: {store.cache_dir}")
            print(f"{len(entries)} entr(ies), "
                  f"{total_runtime:.1f}s of saved compute")
            for kind, count in store.kind_counts().items():
                print(f"  {kind}: {count}")
            census = designs.census(store)
            packs, pack_bytes = census[designs.PACK]
            print(f"designs: {packs} pack(s) ({pack_bytes / 1e6:.1f} MB), "
                  f"{census[designs.REFERENCE][0]} reference(s), "
                  f"{census[designs.EDIT][0]} edit(s)")
        elif args.cache_command == "merge":
            totals = MergeStats()
            before = len(store)
            for source in args.sources:
                stats = store.merge_from(source)
                totals = totals.combined(stats)
                print(f"{source}: {stats.summary()}")
            print(f"merged {len(args.sources)} store(s) into "
                  f"{store.cache_dir}: {totals.summary()}; "
                  f"{before} -> {len(store)} entr(ies)")
        else:
            evicted = store.evict_lru(args.keep)
            print(f"pruned {evicted} entr(ies); {len(store)} kept "
                  f"(LRU, --keep {args.keep})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.netlist.stats import netlist_stats

    netlist = _load_design(args.design)
    print(netlist_stats(netlist).render())
    if args.rent:
        from repro.finder.candidate import scan_ordering
        from repro.finder.ordering import grow_linear_ordering
        from repro.metrics.rent import estimate_rent_exponent_from_prefixes
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(args.seed)
        movable = netlist.movable_cells()
        estimates = []
        for _ in range(min(4, len(movable))):
            seed_cell = rng.choice(movable)
            ordering = grow_linear_ordering(
                netlist, seed_cell, min(5000, max(64, netlist.num_cells // 4))
            )
            estimates.append(
                estimate_rent_exponent_from_prefixes(scan_ordering(netlist, ordering))
            )
        print(
            f"\nRent exponent (ordering estimator, {len(estimates)} seeds): "
            f"{sum(estimates) / len(estimates):.3f}"
        )
    return 0


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by batch/sweep/flow-run/detect/serve."""
    sub.add_argument("--trace", default="", metavar="PATH",
                     help="write a JSONL span trace of the run here")
    sub.add_argument("--profile", action="store_true",
                     help="print a span/counter profile after the run")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="tangled-logic",
        description="Detecting tangled logic structures in VLSI netlists "
        "(DAC 2010 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="logging level (DEBUG/INFO/WARNING/ERROR; also $REPRO_LOG_LEVEL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a workload")
    gen.add_argument("kind", choices=("planted", "ispd", "industrial"))
    gen.add_argument("--cells", type=int, default=10_000)
    gen.add_argument("--gtl-sizes", type=int, nargs="*", default=None)
    gen.add_argument("--scale", type=float, default=0.25)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default="generated")
    gen.set_defaults(func=_cmd_generate)

    exp = sub.add_parser("experiment", help="run a paper table/figure harness")
    exp.add_argument(
        "which",
        choices=(
            "table1",
            "table2",
            "table3",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
        ),
    )
    exp.add_argument("--scale", type=float, default=None)
    exp.add_argument("--seeds", type=int, default=None)
    exp.add_argument("--csv", default="", help="write figure series to CSV")
    exp.set_defaults(func=_cmd_experiment)

    # Mirrors repro.server.daemon.DEFAULT_SOCKET without importing the
    # server stack just to build the parser.
    DEFAULT_SOCKET = "/tmp/repro-server.sock"

    service_parsers = {}
    for name, func, help_text in (
        ("batch", _cmd_batch, "run a manifest of detection jobs via the service"),
        ("sweep", _cmd_sweep, "run a parameter sweep with job deduplication"),
    ):
        svc = sub.add_parser(name, help=help_text)
        svc.add_argument("manifest", help="JSON manifest file")
        svc.add_argument("--workers", type=int, default=1,
                         help="seed threads per job")
        svc.add_argument("--cache-dir", default="",
                         help="result cache directory (default .repro-cache)")
        svc.add_argument("--no-cache", action="store_true",
                         help="bypass the result cache entirely")
        svc.add_argument("--jsonl", default="", help="write per-job results here")
        svc.add_argument("--quiet", action="store_true",
                         help="suppress per-job progress on stderr")
        _add_obs_args(svc)
        svc.set_defaults(func=func)
        service_parsers[name] = svc

    sweep_p = service_parsers["sweep"]
    sweep_p.add_argument("--via-daemon", action="store_true",
                         help="submit the jobs as priority-class-sweep jobs "
                         "to a running daemon (its pool and store do the "
                         "work, so --workers, --cache-dir and --no-cache "
                         "are refused) instead of running them here")
    sweep_p.add_argument("--socket", default=DEFAULT_SOCKET,
                         help="daemon socket for --via-daemon")
    sweep_p.add_argument("--aggregate", default="",
                         help="write aggregate sweep stats (totals, cache "
                         "hits, wall clock, per-axis summaries) as JSON here")

    flow = sub.add_parser("flow", help="declared multi-stage flows")
    flow_sub = flow.add_subparsers(dest="flow_command", required=True)
    flow_run = flow_sub.add_parser(
        "run", help="execute a flow manifest with per-stage caching"
    )
    flow_run.add_argument("manifest", help="JSON flow manifest file")
    flow_run.add_argument("--workers", type=int, default=1,
                          help="seed threads inside detection stages")
    flow_run.add_argument("--cache-dir", default="",
                          help="result cache directory (default .repro-cache)")
    flow_run.add_argument("--no-cache", action="store_true",
                          help="bypass the result cache entirely")
    flow_run.add_argument("--jsonl", default="", help="write per-stage results here")
    flow_run.add_argument("--quiet", action="store_true",
                          help="suppress per-stage progress on stderr")
    _add_obs_args(flow_run)
    flow_run.set_defaults(func=_cmd_flow_run)

    diff = sub.add_parser(
        "diff", help="structural diff of two designs (netlist delta)"
    )
    diff.add_argument("old", help="base design file (.aux, .hgr, .nla, ...)")
    diff.add_argument("new", help="edited design file")
    diff.add_argument("--json", default="",
                      help="write the delta (NetlistDelta JSON) here")
    diff.set_defaults(func=_cmd_diff)

    detect = sub.add_parser(
        "detect",
        help="run the finder on a design file (with the cache: reuse or "
        "patch a cached base run)",
    )
    detect.add_argument("design", help=".aux (Bookshelf), .hgr, or edge-list file")
    detect.add_argument("--base", default="",
                        help="base to patch from: a design file, or the "
                        "netlist fingerprint of a prior cached run "
                        "(default: the head pointer of this config, "
                        "cell name table and pin total)")
    detect.add_argument("--seeds", type=int, default=100, dest="seeds")
    detect.add_argument("--metric", choices=("gtl_s", "ngtl_s", "gtl_sd"),
                        default="gtl_sd")
    detect.add_argument("--max-order-length", type=int, default=0)
    detect.add_argument("--min-size", type=int, default=30)
    detect.add_argument("--workers", type=int, default=1,
                        help="seed threads (full run and patch)")
    detect.add_argument("--seed", type=int, default=0,
                        help="RNG seed (incremental reuse requires one)")
    detect.add_argument("--cache-dir", default="",
                        help="result cache directory (default .repro-cache)")
    detect.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache (forces a full run)")
    detect.add_argument("--out", default="",
                        help="write found GTL membership here")
    _add_obs_args(detect)
    detect.set_defaults(func=_cmd_detect)

    cache = sub.add_parser("cache", help="inspect, prune or merge result caches")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry counts per artifact kind and design records by kind"
    )
    cache_stats.add_argument("--cache-dir", default="",
                             help="result cache directory (default .repro-cache)")
    cache_stats.set_defaults(func=_cmd_cache)
    cache_prune = cache_sub.add_parser(
        "prune", help="evict all but the N most recently used entries"
    )
    cache_prune.add_argument("--keep", type=int, required=True,
                             help="entries to keep (LRU order)")
    cache_prune.add_argument("--cache-dir", default="",
                             help="result cache directory (default .repro-cache)")
    cache_prune.set_defaults(func=_cmd_cache)
    cache_merge = cache_sub.add_parser(
        "merge",
        help="merge other cache dirs into this one row by row: new rows "
        "copied, identical rows' usage combined, conflicts resolved by "
        "use-count then recency",
    )
    cache_merge.add_argument("sources", nargs="+",
                             help="source cache directories (read-only)")
    cache_merge.add_argument("--cache-dir", default="",
                             help="destination cache directory "
                             "(default .repro-cache)")
    cache_merge.set_defaults(func=_cmd_cache)

    pack = sub.add_parser(
        "pack", help="convert a design file to the binary pack format (.nla)"
    )
    pack.add_argument(
        "design",
        help=".aux (Bookshelf), .hgr, or edge-list file — or, with "
        "--cache-dir, a JSON manifest naming the designs to pack",
    )
    pack.add_argument(
        "--out",
        default="",
        help="output pack file (default: design path with .nla extension)",
    )
    pack.add_argument(
        "--cache-dir",
        default="",
        help="pack every design named by the manifest into this cache "
        "dir's design packs; `serve --cache-dir` on it then mmaps them "
        "instead of parsing (re-running packs only new or touched designs)",
    )
    pack.set_defaults(func=_cmd_pack)

    serve = sub.add_parser(
        "serve", help="start the long-lived detection daemon"
    )
    serve.add_argument("--socket", default=DEFAULT_SOCKET,
                       help="Unix socket to listen on")
    serve.add_argument("--workers", type=int, default=1,
                       help="seed threads in the shared pool")
    serve.add_argument("--cache-dir", default="",
                       help="result cache directory (default .repro-cache); "
                       "designs pre-packed into it by `pack --cache-dir` "
                       "load from their packs")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="queued jobs admitted before backpressure")
    serve.add_argument("--starvation-limit", type=int, default=8,
                       help="dispatches a priority class may be passed over")
    serve.add_argument("--max-designs", type=int, default=8,
                       help="designs kept loaded in the LRU")
    _add_obs_args(serve)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a detection job to a running daemon"
    )
    submit.add_argument("design", help=".aux (Bookshelf), .hgr, or edge-list file")
    submit.add_argument("--socket", default=DEFAULT_SOCKET,
                        help="daemon socket to connect to")
    submit.add_argument("--seeds", type=int, default=None, dest="seeds",
                        help="finder num_seeds")
    submit.add_argument("--metric", choices=("gtl_s", "ngtl_s", "gtl_sd"),
                        default=None)
    submit.add_argument("--min-size", type=int, default=None)
    submit.add_argument("--seed", type=int, default=None,
                        help="RNG seed (pinned seeds make the job cacheable)")
    submit.add_argument("--priority", choices=("interactive", "batch", "sweep"),
                        default="batch")
    submit.add_argument("--label", default="")
    submit.add_argument("--delta", default="", metavar="BASE",
                        help="delta submit: diff the design against this "
                        "base file and ship only the edit (the daemon "
                        "reconstructs and detects server-side)")
    submit.add_argument("--no-wait", action="store_true",
                        help="enqueue and print the job id instead of streaming")
    submit.add_argument("--busy-retries", type=int, default=3,
                        help="automatic retries after a backpressure rejection")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress lifecycle events on stderr")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="query a running daemon")
    status.add_argument("job_id", nargs="?", default="",
                        help="job id to inspect (default: server-level stats)")
    status.add_argument("--socket", default=DEFAULT_SOCKET,
                        help="daemon socket to connect to")
    status.add_argument("--json", action="store_true",
                        help="print the raw status response as JSON")
    status.add_argument("--group", default="",
                        help="only list jobs of this job group "
                        "(e.g. sweep, every sweep --via-daemon job)")
    status.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to drain and stop")
    status.add_argument("--no-drain", action="store_true",
                        help="with --shutdown: cancel the backlog instead "
                        "of draining it")
    status.set_defaults(func=_cmd_status)

    stats = sub.add_parser("stats", help="profile a design file")
    stats.add_argument("design", help=".aux (Bookshelf), .hgr, or edge-list file")
    stats.add_argument("--rent", action="store_true", help="estimate the Rent exponent")
    stats.add_argument("--seed", type=int, default=0)
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    from repro.obs import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        configure_logging(args.log_level)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
