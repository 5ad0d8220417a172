"""The one job-manifest reader, behind ``repro batch``/``sweep`` and ``repro pack``.

A job manifest lists its points, ``{"defaults": {...}, "jobs": [{"design":
..., "label": ..., **overrides}, ...]}``, or builds them as a grid,
``{"designs": [...], "base": {...}, "grid": {...}}``; design paths resolve
against the manifest file's directory.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from repro.errors import ServiceError
from repro.finder.config import FinderConfig
from repro.service.sweep import ListedPoint, grid_points, point_config
from repro.utils.jsonio import read_json_file

_SHAPES = (
    'a job manifest is {"defaults": {...}, "jobs": [{"design": ...}, ...]} '
    'or {"designs": [...], "base": {...}, "grid": {...}}'
)


def _entries(data: Any) -> List[Tuple[str, str, Dict[str, Any]]]:
    """``(label, design as written, overrides)`` of every design entry."""
    if isinstance(data, dict) and "jobs" in data:
        if not isinstance(data["jobs"], list):
            raise ServiceError(_SHAPES)
        entries = []
        for index, entry in enumerate(data["jobs"]):
            if not isinstance(entry, dict) or not isinstance(entry.get("design"), str):
                raise ServiceError(
                    f'job #{index} must be an object with a string "design" key'
                )
            label = entry.get("label", entry["design"])
            if not isinstance(label, str):
                raise ServiceError(f'job #{index} "label" must be a string')
            overrides = {
                k: v for k, v in entry.items() if k not in ("design", "label")
            }
            entries.append((label, entry["design"], overrides))
    else:
        if isinstance(data, list):
            designs = data
        elif isinstance(data, dict) and isinstance(data.get("designs"), list):
            designs = data["designs"]
        elif isinstance(data, dict) and isinstance(data.get("design"), str):
            designs = [data["design"]]  # a flow manifest's single design
        else:
            raise ServiceError(
                'a manifest names its designs as "jobs": [{"design": ...}, '
                '...], "designs": [...] or "design": "...", or is a JSON '
                "array of paths"
            )
        for index, design in enumerate(designs):
            if not isinstance(design, str):
                raise ServiceError(f'"designs" entry #{index} must be a string')
        entries = [(design, design, {}) for design in designs]
    if not entries:
        raise ServiceError("manifest names no designs")
    return entries


def _resolve(base_dir: str, design: str) -> str:
    return os.path.abspath(os.path.join(base_dir, design))


def manifest_designs(data: Any, base_dir: str) -> List[str]:
    """Design paths named by a job or flow manifest, or a JSON array of
    paths, resolved against ``base_dir``; duplicates collapse."""
    return list(dict.fromkeys(
        _resolve(base_dir, design) for _, design, _ in _entries(data)
    ))


def read_manifest(
    path: str,
) -> Tuple[List[ListedPoint], FinderConfig, Dict[str, str]]:
    """Read a job manifest of either shape: ``(points, base, design_paths)``.

    ``design_paths`` maps each label to its design file; one label naming
    two designs is an error.  Every config and label is checked before any
    design is loaded, and each design file is loaded once.
    """
    from repro.io import load_design

    data = read_json_file(path)
    if not isinstance(data, dict) or ("jobs" in data) == ("grid" in data):
        raise ServiceError(_SHAPES)
    listed = "jobs" in data
    key = "defaults" if listed else "base"
    if not isinstance(data.get(key, {}), dict):
        raise ServiceError(f'manifest "{key}" must be a JSON object of FinderConfig fields')
    base = point_config(FinderConfig(), data.get(key, {}))
    base_dir = os.path.dirname(os.path.abspath(path))
    entries = [
        (label, _resolve(base_dir, design), overrides)
        for label, design, overrides in _entries(data)
    ]
    design_paths: Dict[str, str] = {}
    for label, design, _ in entries:
        if design_paths.setdefault(label, design) != design:
            raise ServiceError(
                f"label {label!r} names two designs: "
                f"{design_paths[label]} and {design}"
            )
    if listed:
        for _, _, overrides in entries:
            point_config(base, overrides)
    else:
        if not isinstance(data["grid"], dict) or not data["grid"]:
            raise ServiceError('a grid manifest needs a non-empty "grid" object')
        entries = grid_points(
            [(label, design) for label, design, _ in entries], base, data["grid"]
        )
    netlists = {
        design: load_design(design)
        for design in dict.fromkeys(design for _, design, _ in entries)
    }
    points = [(label, netlists[design], overrides) for label, design, overrides in entries]
    return points, base, design_paths


__all__ = ["manifest_designs", "read_manifest"]
