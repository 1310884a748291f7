"""Minimal deterministic SVG emission for batch figure artifacts.

Hand-rolled on purpose: output bytes depend only on the data, so figure files
hash identically across reruns with the same seed.
"""

from __future__ import annotations

import math

__all__ = ["scatter_svg", "line_svg", "forest_svg"]

_W, _H = 640, 480
_MARGIN = 60


def _scale(values, lo_pad=0.05):
    vmin, vmax = min(values), max(values)
    if vmin == vmax:
        vmin -= 1.0
        vmax += 1.0
    span = vmax - vmin
    vmin -= lo_pad * span
    vmax += lo_pad * span
    return vmin, vmax


def _x(v, vmin, vmax):
    return _MARGIN + (v - vmin) / (vmax - vmin) * (_W - 2 * _MARGIN)


def _y(v, vmin, vmax):
    return _H - _MARGIN - (v - vmin) / (vmax - vmin) * (_H - 2 * _MARGIN)


def _frame(title: str, xlabel: str, ylabel: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
    ]


def scatter_svg(path, xs, ys, title="", xlabel="", ylabel="") -> None:
    xmin, xmax = _scale(list(xs))
    ymin, ymax = _scale(list(ys))
    parts = _frame(title, xlabel, ylabel)
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_x(x, xmin, xmax):.2f}" cy="{_y(y, ymin, ymax):.2f}" r="3" '
            'fill="steelblue" fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    _write(path, parts)


def line_svg(path, xs, ys, errs=None, title="", xlabel="", ylabel="") -> None:
    xmin, xmax = _scale(list(xs))
    all_y = list(ys) + ([y + e for y, e in zip(ys, errs)] + [y - e for y, e in zip(ys, errs)] if errs else [])
    ymin, ymax = _scale(all_y)
    parts = _frame(title, xlabel, ylabel)
    if errs is not None:
        for x, y, e in zip(xs, ys, errs):
            parts.append(
                f'<line x1="{_x(x, xmin, xmax):.2f}" y1="{_y(y - e, ymin, ymax):.2f}" '
                f'x2="{_x(x, xmin, xmax):.2f}" y2="{_y(y + e, ymin, ymax):.2f}" stroke="lightsteelblue"/>'
            )
    pts = " ".join(f"{_x(x, xmin, xmax):.2f},{_y(y, ymin, ymax):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>')
    parts.append("</svg>")
    _write(path, parts)


def forest_svg(path, rows, title="") -> None:
    """rows: (label, predicted, published, ci_low, ci_high)."""
    vals = [v for row in rows for v in row[1:]] or [0.0, 1.0]
    vmin, vmax = _scale([v for v in vals if math.isfinite(v)])
    height = _MARGIN * 2 + 22 * max(1, len(rows))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}">',
        f'<rect width="{_W}" height="{height}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    if vmin < 0 < vmax:
        x0 = _x(0.0, vmin, vmax)
        parts.append(f'<line x1="{x0:.2f}" y1="{_MARGIN}" x2="{x0:.2f}" y2="{height - _MARGIN}" stroke="grey" stroke-dasharray="4"/>')
    for i, (label, pred, pub, lo, hi) in enumerate(rows):
        cy = _MARGIN + 22 * i + 11
        parts.append(f'<text x="8" y="{cy + 4}" font-size="10">{label}</text>')
        parts.append(
            f'<line x1="{_x(lo, vmin, vmax):.2f}" y1="{cy}" x2="{_x(hi, vmin, vmax):.2f}" y2="{cy}" stroke="black"/>'
        )
        parts.append(f'<circle cx="{_x(pub, vmin, vmax):.2f}" cy="{cy}" r="3" fill="black"/>')
        parts.append(f'<rect x="{_x(pred, vmin, vmax) - 3:.2f}" y="{cy - 3}" width="6" height="6" fill="crimson"/>')
    parts.append("</svg>")
    _write(path, parts)


def _write(path, parts: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts))
        f.write("\n")
