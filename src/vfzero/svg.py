"""Static SVG phase portraits: direction glyphs, zero-block cells, and
certified boundary loops.  Write-only output with deterministic number
formatting."""

from __future__ import annotations

import math
from typing import Sequence

from .blocks import ZeroBlock
from .fields import VectorField
from .intervals import Box

_SIZE = 640
_MARGIN = 20
_GLYPH_GRID = 24  # direction glyphs per axis


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Mapper:
    def __init__(self, region: Box):
        self.x0 = float(region.x.lo)
        self.y0 = float(region.y.lo)
        self.sx = (_SIZE - 2 * _MARGIN) / float(region.x.width())
        self.sy = (_SIZE - 2 * _MARGIN) / float(region.y.width())

    def to_svg(self, x: float, y: float) -> tuple[float, float]:
        return (
            _MARGIN + (x - self.x0) * self.sx,
            _SIZE - _MARGIN - (y - self.y0) * self.sy,
        )


def phase_portrait_svg(
    field: VectorField,
    region: Box,
    blocks: Sequence[ZeroBlock] = (),
) -> str:
    m = _Mapper(region)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]

    # zero-block cells
    for blk in blocks:
        for box in blk.boxes:
            px, py = m.to_svg(float(box.x.lo), float(box.y.hi))
            w = float(box.x.width()) * m.sx
            h = float(box.y.width()) * m.sy
            parts.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(w)}" height="{_fmt(h)}" '
                f'fill="#f4a742" fill-opacity="0.55" stroke="none"/>'
            )

    # direction glyphs
    wx = float(region.x.width()) / _GLYPH_GRID
    wy = float(region.y.width()) / _GLYPH_GRID
    glyph = 0.38 * min(wx * m.sx, wy * m.sy)
    for i in range(_GLYPH_GRID):
        for j in range(_GLYPH_GRID):
            cx = float(region.x.lo) + (i + 0.5) * wx
            cy = float(region.y.lo) + (j + 0.5) * wy
            fx, fy = field.eval_float(cx, cy)
            norm = math.hypot(fx, fy)
            px, py = m.to_svg(cx, cy)
            if norm < 1e-12:
                parts.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.5" fill="#888888"/>'
                )
                continue
            ux, uy = fx / norm, fy / norm
            x1, y1 = px - glyph * ux, py + glyph * uy
            x2, y2 = px + glyph * ux, py - glyph * uy
            # short stem with a heavier head end
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#777777" stroke-width="1"/>'
            )
            parts.append(
                f'<circle cx="{_fmt(x2)}" cy="{_fmt(y2)}" r="1.4" fill="#444444"/>'
            )

    # certified boundary loops
    for blk in blocks:
        for loop in blk.boundary:
            pts = []
            for seg in loop.segments:
                px, py = m.to_svg(float(seg.x0), float(seg.y0))
                pts.append(f"{_fmt(px)},{_fmt(py)}")
            if loop.segments:
                px, py = m.to_svg(float(loop.segments[-1].x1), float(loop.segments[-1].y1))
                pts.append(f"{_fmt(px)},{_fmt(py)}")
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="#1f6fb4" stroke-width="1.6"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
