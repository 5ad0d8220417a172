"""Image output without plotting dependencies: PPM heat maps.

Writes binary PPM (P6) images — readable by any image viewer / converter —
for the two visual artifacts the paper prints:

* congestion heat maps (Figures 1 and 7): blue -> green -> yellow -> red,
  with >=100% occupancy saturating to red;
* placement maps with highlighted GTLs (Figures 4 and 6): background cells
  gray, each GTL in a distinct color.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.placement.placer import Placement
from repro.routing.congestion import CongestionMap

#: Distinct GTL highlight colors (RGB).
GTL_COLORS: Tuple[Tuple[int, int, int], ...] = (
    (220, 40, 40),
    (40, 90, 220),
    (30, 170, 60),
    (230, 160, 20),
    (160, 40, 200),
    (0, 180, 180),
    (240, 90, 160),
    (130, 130, 20),
)


def write_ppm(path: str, pixels: np.ndarray) -> None:
    """Write an ``(height, width, 3)`` uint8 array as binary PPM."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("pixels must be (height, width, 3)")
    height, width, _ = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode())
        handle.write(pixels.astype(np.uint8).tobytes())


def _heat_color(value: float) -> Tuple[int, int, int]:
    """0 -> dark blue, 0.5 -> green, 0.9 -> yellow, >=1 -> red."""
    v = max(0.0, float(value))
    if v >= 1.0:
        return (255, 30, 30)
    if v >= 0.9:
        return (255, 200, 40)
    if v >= 0.5:
        t = (v - 0.5) / 0.4
        return (int(60 + 180 * t), 200, 60)
    t = v / 0.5
    return (int(20 + 40 * t), int(40 + 160 * t), int(120 - 40 * t))


def congestion_image(cmap: CongestionMap, pixels_per_tile: int = 12) -> np.ndarray:
    """Render a congestion map as an RGB array (Figure 1/7 style)."""
    occupancy = cmap.occupancy
    nx, ny = occupancy.shape
    image = np.zeros((ny * pixels_per_tile, nx * pixels_per_tile, 3), dtype=np.uint8)
    for i in range(nx):
        for j in range(ny):
            color = _heat_color(occupancy[i, j])
            y0 = (ny - 1 - j) * pixels_per_tile
            x0 = i * pixels_per_tile
            image[y0 : y0 + pixels_per_tile, x0 : x0 + pixels_per_tile] = color
    return image


def placement_image(
    placement: Placement,
    groups: Sequence[Iterable[int]] = (),
    size: int = 512,
) -> np.ndarray:
    """Render a placement as an RGB array (Figure 4/6 style).

    Background cells paint gray; each group in ``groups`` paints in a
    distinct color from :data:`GTL_COLORS`.
    """
    die = placement.die
    image = np.full((size, size, 3), 245, dtype=np.uint8)
    scale_x = (size - 1) / die.width
    scale_y = (size - 1) / die.height

    def paint(cells: Iterable[int], color: Tuple[int, int, int]) -> None:
        for cell in cells:
            px = int(placement.x[cell] * scale_x)
            py = size - 1 - int(placement.y[cell] * scale_y)
            image[max(0, py - 1) : py + 2, max(0, px - 1) : px + 2] = color

    grouped = set()
    for group in groups:
        grouped.update(group)
    background = [
        c for c in placement.netlist.movable_cells() if c not in grouped
    ]
    paint(background, (170, 170, 170))
    for index, group in enumerate(groups):
        paint(group, GTL_COLORS[index % len(GTL_COLORS)])
    return image


def save_congestion_ppm(cmap: CongestionMap, path: str) -> None:
    """Write the congestion heat map to ``path`` (binary PPM)."""
    write_ppm(path, congestion_image(cmap))


def save_placement_ppm(
    placement: Placement, path: str, groups: Sequence[Iterable[int]] = ()
) -> None:
    """Write the placement map (with highlighted groups) to ``path``."""
    write_ppm(path, placement_image(placement, groups))
