"""Golden finder-report digests: record them, or check a run against them.

``tests/golden/reports.json`` holds one entry per (scenario, config): the
report's GTL cell-set digests and counts, with every score rounded to 12
significant digits.  A finder change that moves any GTL, count or score
fails the check on whichever backend it runs.

Only this script rewrites the file, and only when asked to::

    PYTHONPATH=src python tests/golden_reports.py record
    PYTHONPATH=src python tests/golden_reports.py check \\
        --scenario industrial53k --config default [--workers 2] [--pack]

``check`` exits 1 and prints the first differing entry when a run does not
match.  ``--workers N`` runs the seeds on an ``N``-thread
:class:`~repro.service.pool.WorkerPool`; ``--pack`` loads the design from a
binary pack file instead of using the generated netlist.  The tier-1 test
``tests/test_golden_reports.py`` checks every scenario marked ``tier1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, Optional

from repro.finder import FinderConfig
from repro.finder.finder import TangledLogicFinder
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.generators.random_gtl import planted_gtl_graph
from repro.netlist.hypergraph import Netlist

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "reports.json"
)

#: name -> (design factory, checked by the tier-1 suite)
SCENARIOS = {
    "planted4k": (lambda: planted_gtl_graph(4000, [300, 150], seed=7)[0], True),
    "industrial15k": (lambda: generate_industrial(IndustrialSpec(), seed=5)[0], True),
    "industrial53k": (
        lambda: generate_industrial(
            IndustrialSpec(
                glue_gates=30000, rom_blocks=((10, 384), (10, 384), (9, 192))
            ),
            seed=1,
        )[0],
        False,
    ),
}

#: name -> FinderConfig overrides on top of the pinned base.
CONFIGS = {
    "default": {},
    "lambda0": {"lambda_skip": 0},
    "ngtl_s": {"metric": "ngtl_s"},
    "short_order": {"max_order_length": 384},
    "refine5": {"refine_count": 5},
}

#: Every config runs on the tier-1 scenarios; the 53K design only on the default.
PLAN = [
    (scenario, config)
    for scenario, (_, tier1) in SCENARIOS.items()
    for config in (CONFIGS if tier1 else ["default"])
]

BASE = {"num_seeds": 8, "seed": 1}


def finder_config(config: str) -> FinderConfig:
    return FinderConfig(**BASE, **CONFIGS[config])


def _round(value: float) -> float:
    return float(f"{value:.12g}")


def digest_report(report) -> Dict:
    """The golden entry of one :class:`~repro.finder.result.FinderReport`."""
    return {
        "gtls": [
            {
                "cells_sha256": hashlib.sha256(
                    ",".join(map(str, sorted(gtl.cells))).encode()
                ).hexdigest(),
                "size": gtl.size,
                "cut": gtl.cut,
                "seed": gtl.seed,
                "score": _round(gtl.score),
                "ngtl_score": _round(gtl.ngtl_score),
                "gtl_sd_score": _round(gtl.gtl_sd_score),
            }
            for gtl in report.gtls
        ],
        "rent_exponent": _round(report.rent_exponent),
        "num_orderings": report.num_orderings,
        "num_candidates": report.num_candidates,
        "rent_fallback": report.rent_fallback,
    }


def run_entry(
    scenario: str,
    config: str,
    netlist: Optional[Netlist] = None,
    workers: int = 1,
    pack: bool = False,
) -> Dict:
    """Detect ``scenario`` under ``config`` and digest the report."""
    if netlist is None:
        netlist = SCENARIOS[scenario][0]()
    with tempfile.TemporaryDirectory() as directory:
        if pack:
            from repro.io import load_design
            from repro.io.binfmt import write_packed

            path = os.path.join(directory, "design.nla")
            write_packed(netlist, path)
            netlist = load_design(path)
        finder = TangledLogicFinder(netlist, finder_config(config))
        if workers > 1:
            from repro.service.pool import WorkerPool

            with WorkerPool(workers) as pool:
                return digest_report(finder.run(pool))
        return digest_report(finder.run())


def entry_key(scenario: str, config: str) -> str:
    return f"{scenario}/{config}"


def load_golden() -> Dict[str, Dict]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["entries"]


def _record() -> None:
    entries = {}
    netlists: Dict[str, Netlist] = {}
    for scenario, config in PLAN:
        if scenario not in netlists:
            netlists[scenario] = SCENARIOS[scenario][0]()
        entries[entry_key(scenario, config)] = run_entry(
            scenario, config, netlists[scenario]
        )
        print(f"recorded {entry_key(scenario, config)}")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {"base": BASE, "configs": CONFIGS, "entries": entries}, handle, indent=1
        )
        handle.write("\n")


def _check(args) -> int:
    golden = load_golden()
    failures = 0
    netlists: Dict[str, Netlist] = {}
    for scenario, config in PLAN:
        if args.scenario not in (None, scenario) or args.config not in (None, config):
            continue
        if scenario not in netlists:
            netlists[scenario] = SCENARIOS[scenario][0]()
        key = entry_key(scenario, config)
        actual = run_entry(
            scenario, config, netlists[scenario], workers=args.workers, pack=args.pack
        )
        if actual == golden[key]:
            print(f"{key}: match")
        else:
            failures += 1
            print(f"{key}: MISMATCH\n  golden: {golden[key]}\n  actual: {actual}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record", help="rewrite tests/golden/reports.json")
    check = sub.add_parser("check", help="compare runs against the golden entries")
    check.add_argument("--scenario", choices=sorted(SCENARIOS))
    check.add_argument("--config", choices=sorted(CONFIGS))
    check.add_argument("--workers", type=int, default=1)
    check.add_argument("--pack", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "record":
        _record()
        return 0
    return _check(args)


if __name__ == "__main__":
    sys.exit(main())
