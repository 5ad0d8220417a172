"""Pack-loaded and builder-made designs through the seed pool.

A design mapped from a pack file and the same design made by the builder
must produce reports bit-identical to a serial run on either kernel
backend, however many configs share one pool.
"""

from __future__ import annotations

import pytest

from repro.finder import FinderConfig, TangledLogicFinder, find_tangled_logic
from repro.generators.random_gtl import planted_gtl_graph
from repro.io.binfmt import load_packed, write_packed
from repro.netlist.backend import forced_backend
from repro.service.pool import WorkerPool

CFG = FinderConfig(num_seeds=8, seed=3)
CFG2 = FinderConfig(num_seeds=8, seed=3)


@pytest.fixture(scope="module")
def design():
    netlist, _ = planted_gtl_graph(900, [70], seed=9)
    return netlist


@pytest.fixture(scope="module")
def serial_report(design):
    return find_tangled_logic(design, CFG)


@pytest.fixture
def packed(design, tmp_path):
    path = str(tmp_path / "design.nla")
    write_packed(design, path)
    return load_packed(path)


def _same_report(a, b):
    return (
        a.gtls == b.gtls
        and a.rent_exponent == b.rent_exponent
        and a.num_orderings == b.num_orderings
        and a.num_candidates == b.num_candidates
    )


# ---------------------------------------------------------------- parity
def test_file_transport_matches_serial(packed, serial_report):
    """A design mapped from its pack file, through the pool."""
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(packed, CFG2).run(pool=pool)
        assert _same_report(report, serial_report)
        assert pool.stats.batches == CFG2.num_seeds


def test_blob_transport_matches_serial(design, serial_report):
    """A builder-made design, through the pool."""
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(report, serial_report)


def test_scalar_backend_ships_pack_files(design, packed, serial_report):
    """Both designs through the pool on the scalar backend."""
    with forced_backend("python"):
        assert _same_report(find_tangled_logic(design, CFG), serial_report)
        for netlist in (design, packed):
            with WorkerPool(2) as pool:
                report = TangledLogicFinder(netlist, CFG2).run(pool=pool)
            assert _same_report(report, serial_report)


def test_contexts_are_keyed_by_design_not_job(packed, serial_report):
    """k configs over one design run through one pool, each matching its
    serial run."""
    configs = [CFG2.with_overrides(lambda_skip=skip) for skip in (0, 5, 10, 20)]
    with WorkerPool(2) as pool:
        reports = [TangledLogicFinder(packed, c).run(pool=pool) for c in configs]
    assert _same_report(reports[-1], serial_report)  # lambda_skip=20: CFG
    for config, report in zip(configs, reports):
        assert _same_report(report, find_tangled_logic(packed, config))
