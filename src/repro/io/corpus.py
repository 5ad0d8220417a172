"""The designs a manifest names: what ``repro pack MANIFEST`` packs.

``repro pack MANIFEST --cache-dir DIR`` packs every design a batch, sweep
or flow manifest names into the cache dir's design packs
(:func:`repro.service.designs.pack_source`), so a daemon serving ``DIR``
mmaps them instead of parsing text.  This module only reads the manifest.
"""

from __future__ import annotations

import os
from typing import Any, List

from repro.errors import ParseError


def corpus_designs_from_manifest(data: Any, base_dir: str) -> List[str]:
    """Design paths named by any of the repo's manifest dialects.

    Accepts ``{"designs": [...]}`` (sweep/flow manifests), ``{"jobs":
    [{"design": ...}, ...]}`` (batch manifests) or a bare JSON array of
    paths.  Paths resolve against ``base_dir`` and duplicates collapse.
    """
    if isinstance(data, dict):
        if isinstance(data.get("designs"), list):
            raw = data["designs"]
        elif isinstance(data.get("jobs"), list):
            raw = [
                entry.get("design")
                for entry in data["jobs"]
                if isinstance(entry, dict)
            ]
        else:
            raise ParseError(
                'pack manifest must carry "designs": [...] or "jobs": '
                '[{"design": ...}, ...]'
            )
    elif isinstance(data, list):
        raw = data
    else:
        raise ParseError("pack manifest must be a JSON object or array")

    designs: List[str] = []
    seen = set()
    for index, design in enumerate(raw):
        if not isinstance(design, str):
            raise ParseError(f"pack manifest design #{index} must be a string")
        path = design if os.path.isabs(design) else os.path.join(base_dir, design)
        path = os.path.abspath(path)
        if path not in seen:
            seen.add(path)
            designs.append(path)
    if not designs:
        raise ParseError("pack manifest names no designs")
    return designs


__all__ = ["corpus_designs_from_manifest"]
