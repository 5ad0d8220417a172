"""Worked observability example: trace one detection run end to end.

Enables the :mod:`repro.obs` tracer around a planted-GTL detection run,
writes the span stream to ``finder_trace.jsonl`` (one JSON object per
line), and prints the aggregated profile — the span tree with self vs.
cumulative time, then the kernel counters (seeds examined, absorb steps,
heap pushes: the frontier updates of the grow kernel's indexed heap, one
slot per frontier cell, which equal the scalar grower's lazy-heap pushes).

This is the library-level equivalent of the CLI flags::

    tangled-logic detect design.hgr --seeds 16 --no-cache   # no telemetry
    tangled-logic flow run flow.json --trace out.jsonl --profile

Run:  python examples/trace_finder.py [--cells N] [--seeds K]
The checked-in ``examples/finder_trace.jsonl`` was produced by the
default (small) invocation; re-running overwrites it deterministically
apart from timings and span ids.
"""

import argparse
import os

from repro import FinderConfig
from repro.finder.finder import TangledLogicFinder
from repro.generators import planted_gtl_graph
from repro.obs import RunReport, trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=2_000)
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "finder_trace.jsonl"),
    )
    args = parser.parse_args()

    netlist, _ = planted_gtl_graph(
        num_cells=args.cells, gtl_sizes=[max(50, args.cells // 10)], seed=42
    )
    config = FinderConfig(num_seeds=args.seeds, metric="gtl_sd", seed=7)

    trace.enable(jsonl_path=args.out)
    try:
        report = TangledLogicFinder(netlist, config).run()
        run_report = RunReport.from_tracer()
    finally:
        trace.disable()

    print(f"detected {report.num_gtls} GTL(s) on {netlist}")
    print(f"wrote {len(run_report.spans)} span(s) to {args.out}\n")
    print(run_report.summary())

    # The JSONL file round-trips: a later process can rebuild the profile
    # without the tracer that produced it.
    replayed = RunReport.from_jsonl(args.out)
    assert len(replayed.spans) == len(run_report.spans)


if __name__ == "__main__":
    main()
