"""Deterministic SVG renderings of densities, leaf outlines and dendrograms.

Everything is emitted as plain SVG 1.1 text with no timestamps, random ids
or library fingerprints, so identical inputs always produce byte-identical
files and snapshot tests need no image comparison.

Dendrograms are drawn inside a group whose transform maps data space to
pixels; the path coordinates inside it are the raw data values, so the
vertical coordinate of every horizontal merge bar equals that merge's
height exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .density import TWO_PI, LeafOutline, StepDensity
from .hcluster import Dendrogram, _format_length as _num, leaf_order

PALETTE = (
    "#1b6ca8", "#d1495b", "#66a182", "#edae49",
    "#775bb5", "#00798c", "#c17fb8", "#3a3a3a",
)
DASHES = ("none", "7,3", "2,2", "8,3,2,3", "12,3", "4,2,1,2")

_FONT = 'font-family="sans-serif"'


def _dash(dash: str) -> str:
    return "" if dash == "none" else f' stroke-dasharray="{dash}"'


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


class SvgCanvas:
    """Collects SVG elements and writes a standalone document."""

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.elements: list[str] = []
        self.add(f'<rect x="0" y="0" width="{_num(width)}" height="{_num(height)}" fill="#ffffff"/>')

    def add(self, element: str) -> None:
        self.elements.append(element)

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dash="none") -> None:
        self.add(
            f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}"'
            f' stroke="{stroke}" stroke-width="{_num(width)}"{_dash(dash)}/>'
        )

    def shape(self, tag, xs, ys, stroke, width, fill="none", dash="none") -> None:
        """A ``<polyline>`` or ``<polygon>`` through the points (xs[i], ys[i])."""
        data = " ".join(map("{},{}".format, map(_num, xs.tolist()), map(_num, ys.tolist())))
        self.add(
            f'<{tag} points="{data}" fill="{fill}" stroke="{stroke}"'
            f' stroke-width="{_num(width)}"{_dash(dash)}/>'
        )

    def text(self, x, y, content, size=11, anchor="start", color="#000000", extra="") -> None:
        self.add(
            f'<text x="{_num(x)}" y="{_num(y)}" font-size="{_num(size)}" {_FONT}'
            f' text-anchor="{anchor}" fill="{color}"{extra}>{_esc(content)}</text>'
        )

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_num(self.width)}" height="{_num(self.height)}" '
            f'viewBox="0 0 {_num(self.width)} {_num(self.height)}">\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"

    def write(self, path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 5.0):
        if span / (mult * mag) <= target:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [k * step for k in range(first, last + 1)]


def style_for(index: int) -> tuple[str, str]:
    """Deterministic (stroke, dasharray) pair for style slot ``index``."""
    return PALETTE[index % len(PALETTE)], DASHES[(index // len(PALETTE)) % len(DASHES)]


_PI_TICKS = ((0.0, "0"), (math.pi / 2, "π/2"), (math.pi, "π"),
             (3 * math.pi / 2, "3π/2"), (TWO_PI, "2π"))


def plot_densities(densities, path, groups: dict[str, str] | None = None,
                   title: str = "") -> None:
    """Cartesian step plot of one or more circular densities.

    ``groups`` maps a density's source id to a group name; densities in the
    same group share stroke color and dash pattern.  Without groups, every
    density gets its own legend entry.
    """
    densities = list(densities)
    if not densities:
        raise ValueError("nothing to plot")
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 56.0, 16.0, 30.0, 42.0
    pw, ph = width - ml - mr, height - mt - mb
    ymax = max(float(d.heights.max()) for d in densities)
    if ymax <= 0:
        ymax = 1.0
    ymax *= 1.05

    def px(t: float) -> float:
        return ml + (t / TWO_PI) * pw

    def py(h: float) -> float:
        return mt + ph - (h / ymax) * ph

    canvas = SvgCanvas(width, height)
    # axes
    canvas.line(ml, mt + ph, ml + pw, mt + ph)
    canvas.line(ml, mt, ml, mt + ph)
    for t, label in _PI_TICKS:
        canvas.line(px(t), mt + ph, px(t), mt + ph + 4)
        canvas.text(px(t), mt + ph + 16, label, anchor="middle")
    for tick in _nice_ticks(0.0, ymax):
        canvas.line(ml - 4, py(tick), ml, py(tick))
        canvas.text(ml - 7, py(tick) + 4, f"{tick:g}", anchor="end")
    canvas.text(ml + pw / 2, height - 6, "angle (radians)", anchor="middle")
    if title:
        canvas.text(ml + pw / 2, 18, title, anchor="middle", size=13)

    key_of = (lambda d: groups.get(d.source_id, d.source_id)) if groups else (
        lambda d: d.source_id)
    style_keys: list[str] = []
    for d in densities:
        key = key_of(d)
        if key not in style_keys:
            style_keys.append(key)
    for d in densities:
        stroke, dash = style_for(style_keys.index(key_of(d)))
        # Step corners: (b[k], h[k]) and (b[k+1], h[k]) for every interval k.
        canvas.shape("polyline", px(np.repeat(d.breakpoints, 2)[1:-1]),
                     py(np.repeat(d.heights, 2)), stroke=stroke, width=1.2, dash=dash)
    # legend
    ly = mt + 6.0
    for i, key in enumerate(style_keys):
        stroke, dash = style_for(i)
        canvas.line(ml + pw - 110, ly + 4, ml + pw - 86, ly + 4,
                    stroke=stroke, width=1.6, dash=dash)
        canvas.text(ml + pw - 80, ly + 8, key, size=10)
        ly += 15.0
    canvas.write(path)


def plot_leaves(outlines, path, ncols: int | None = None) -> None:
    """Grid of closed leaf silhouettes, one equal-aspect cell per outline."""
    outlines = list(outlines)
    if not outlines:
        raise ValueError("nothing to plot")
    n = len(outlines)
    if ncols is None:
        ncols = max(1, math.ceil(math.sqrt(n)))
    nrows = math.ceil(n / ncols)
    cell, pad, title_h = 150.0, 10.0, 16.0
    width = ncols * cell
    height = nrows * (cell + title_h)
    canvas = SvgCanvas(width, height)
    for idx, outline in enumerate(outlines):
        row, col = divmod(idx, ncols)
        ox = col * cell
        oy = row * (cell + title_h) + title_h
        pts = outline.points
        cx = (float(pts[:, 0].min()) + float(pts[:, 0].max())) / 2
        cy = (float(pts[:, 1].min()) + float(pts[:, 1].max())) / 2
        span = max(float(pts[:, 0].max() - pts[:, 0].min()),
                   float(pts[:, 1].max() - pts[:, 1].min()), 1e-12)
        scale = (cell - 2 * pad) / span
        # SVG y grows downward; flip the second coordinate.
        canvas.shape("polygon", ox + cell / 2 + (pts[:, 0] - cx) * scale,
                     oy + cell / 2 - (pts[:, 1] - cy) * scale,
                     stroke="#2a6f4e", width=1.0, fill="#eaf4ee")
        canvas.text(ox + cell / 2, oy - 4, outline.id, anchor="middle", size=10)
    canvas.write(path)


def plot_dendrogram(dend: Dendrogram, path, title: str = "") -> None:
    """Rectangular dendrogram with leaves on the x axis.

    Merge bars are drawn in data coordinates inside a scaled group, so the
    ``y`` values appearing in the path data are the merge heights verbatim.
    """
    m = dend.n_leaves
    order = leaf_order(dend)
    width = max(420.0, 44.0 * m + 90.0)
    height = 420.0
    ml, mr, mt, mb = 62.0, 20.0, 28.0, 86.0
    pw, ph = width - ml - mr, height - mt - mb
    top = max(mg.height for mg in dend.merges)
    if top <= 0:
        top = 1.0
    top *= 1.05
    sx = pw / m
    sy = ph / top

    canvas = SvgCanvas(width, height)
    transform = (
        f'translate({_num(ml)},{_num(mt + ph)}) scale({_num(sx)},-{_num(sy)})'
    )
    canvas.add(f'<g transform="{transform}">')
    xpos = [0.0] * (2 * m - 1)
    for slot, leaf in enumerate(order):
        xpos[leaf] = slot + 0.5
    heights = [0.0] * m + [mg.height for mg in dend.merges]
    for i, mg in enumerate(dend.merges):
        # Sibling subtrees hold disjoint leaf slots, so their x never tie.
        (xl, yl), (xr, yr) = sorted(((xpos[mg.left], heights[mg.left]),
                                     (xpos[mg.right], heights[mg.right])))
        xpos[m + i] = (xl + xr) / 2
        canvas.add(
            f'<path d="M {_num(xl)} {_num(yl)} L {_num(xl)} {_num(mg.height)}'
            f' L {_num(xr)} {_num(mg.height)} L {_num(xr)} {_num(yr)}"'
            f' fill="none" stroke="#333333" stroke-width="1.2"'
            f' vector-effect="non-scaling-stroke"/>'
        )
    canvas.add("</g>")
    # y axis in pixel space
    canvas.line(ml, mt, ml, mt + ph)
    for tick in _nice_ticks(0.0, top):
        ypix = mt + ph - tick * sy
        canvas.line(ml - 4, ypix, ml, ypix)
        canvas.text(ml - 7, ypix + 4, f"{tick:g}", anchor="end")
    canvas.text(14, mt + ph / 2, "merge height", anchor="middle",
                extra=f' transform="rotate(-90 14 {_num(mt + ph / 2)})"')
    # leaf labels
    for slot, leaf in enumerate(order):
        lx = ml + (slot + 0.5) * sx
        ly = mt + ph + 12
        canvas.text(lx, ly, dend.labels[leaf], size=10, anchor="end",
                    extra=f' transform="rotate(-45 {_num(lx)} {_num(ly)})"')
    if title:
        canvas.text(ml + pw / 2, 18, title, anchor="middle", size=13)
    canvas.write(path)
