"""Finder reports stay bit-identical to the recorded golden digests.

The entries in ``tests/golden/reports.json`` are rewritten only by
``tests/golden_reports.py record``; this suite only reads them, on whichever
backend it runs (``REPRO_SCALAR_BACKEND``, with or without the compiled
kernel).
"""

import functools

import pytest

from golden_reports import PLAN, SCENARIOS, entry_key, load_golden, run_entry

TIER1 = [(scenario, config) for scenario, config in PLAN if SCENARIOS[scenario][1]]


@functools.lru_cache(maxsize=None)
def _design(scenario):
    return SCENARIOS[scenario][0]()


@functools.lru_cache(maxsize=1)
def _golden():
    return load_golden()


@pytest.mark.parametrize("scenario,config", TIER1, ids=[entry_key(*p) for p in TIER1])
def test_report_matches_golden_digest(scenario, config):
    assert run_entry(scenario, config, _design(scenario)) == _golden()[
        entry_key(scenario, config)
    ]


def test_pooled_pack_loaded_report_matches_golden_digest():
    actual = run_entry(
        "planted4k", "default", _design("planted4k"), workers=2, pack=True
    )
    assert actual == _golden()[entry_key("planted4k", "default")]


def test_golden_file_covers_the_plan():
    assert sorted(_golden()) == sorted(entry_key(*p) for p in PLAN)
