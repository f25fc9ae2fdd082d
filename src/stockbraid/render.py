"""ASCII and SVG drawings of braid words.

One column per strand, one band per generator, bands stacked in word
order from the top.  The strand passing in front is drawn unbroken; the
other is interrupted at the crossing point.  Output depends only on the
word, so repeated renders are byte-identical.
"""

from __future__ import annotations

from .braid import BraidWord

_COL_SPACING = 4


def _pipes_row(n: int) -> str:
    row = [" "] * (_COL_SPACING * (n - 1) + 1)
    for p in range(n):
        row[_COL_SPACING * p] = "|"
    return "".join(row)


def render_ascii(word: BraidWord) -> str:
    """Plain-text diagram, top line carrying the strand count."""
    n = word.n_strands
    lines = [f"strands: {n}", _pipes_row(n)]
    for v in word.values:
        c1 = _COL_SPACING * (abs(v) - 1)
        c2 = _COL_SPACING * abs(v)
        rows = [list(_pipes_row(n)) for _ in range(3)]
        for r in rows:
            r[c1] = " "
            r[c2] = " "
        rows[0][c1 + 1] = "\\"
        rows[0][c2 - 1] = "/"
        # the middle glyph belongs to the strand in front
        rows[1][(c1 + c2) // 2] = "/" if v > 0 else "\\"
        rows[2][c1 + 1] = "/"
        rows[2][c2 - 1] = "\\"
        lines.extend("".join(r).rstrip() for r in rows)
        lines.append(_pipes_row(n))
    return "\n".join(lines) + "\n"


_BAND_H = 40
_X_STEP = 40
_MARGIN = 20


def _svg_line(x1: int, y1: int, x2: int, y2: int) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        'stroke="black" stroke-width="2"/>'
    )


def render_svg(word: BraidWord) -> str:
    """Vector drawing equivalent to the ASCII form."""
    n = word.n_strands
    xs = [_MARGIN + _X_STEP * p for p in range(n)]
    height = _MARGIN * 2 + _BAND_H * max(len(word.values), 1)
    width = _MARGIN * 2 + _X_STEP * (n - 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" data-strands="{n}">'
    ]
    if not word.values:
        for x in xs:
            parts.append(_svg_line(x, _MARGIN, x, height - _MARGIN))
    y = _MARGIN
    for v in word.values:
        i = abs(v) - 1
        for p in range(n):
            if p not in (i, i + 1):
                parts.append(_svg_line(xs[p], y, xs[p], y + _BAND_H))
        x_left, x_right = xs[i], xs[i + 1]
        if v > 0:
            over = (x_right, x_left)
            under = (x_left, x_right)
        else:
            over = (x_left, x_right)
            under = (x_right, x_left)
        # the broken strand stops short of the midpoint on both sides
        ux0, ux1 = under
        gap0 = (ux0 + (ux1 - ux0) * 2 // 5, y + _BAND_H * 2 // 5)
        gap1 = (ux0 + (ux1 - ux0) * 3 // 5, y + _BAND_H * 3 // 5)
        parts.append(_svg_line(ux0, y, gap0[0], gap0[1]))
        parts.append(_svg_line(gap1[0], gap1[1], ux1, y + _BAND_H))
        parts.append(_svg_line(over[0], y, over[1], y + _BAND_H))
        y += _BAND_H
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
