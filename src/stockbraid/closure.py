"""Closing braids into link diagrams and counting their features.

Every diagram in this package is a braid closure, either:

* plat: adjacent strand pairs (1,2), (3,4), ... are capped at the top
  and at the bottom (needs an even strand count), or
* trace: top strand i is joined to bottom strand i around the side.

Keeping diagrams in this form makes loop counting a walk over two
involutions of the 2n strand endpoints, the strands and the closure's
arcs; no general planar-diagram machinery is needed.
"""

from __future__ import annotations

from typing import Literal

from .braid import BraidWord, _Value, permutation, writhe

Closure = Literal["plat", "trace"]


class ClosureError(ValueError):
    """Raised when a closure kind does not apply to a braid or operation."""


class ClosedBraid(_Value):
    """A braid word together with the closure kind that turns it into a link."""

    __slots__ = ("braid", "closure")

    def __init__(self, braid: BraidWord, closure: Closure) -> None:
        if not isinstance(braid, BraidWord):
            raise ClosureError(f"a closure needs a BraidWord, got {braid!r}")
        if closure not in ("plat", "trace"):
            raise ClosureError(f"unknown closure kind {closure!r}")
        if closure == "plat" and braid.n_strands % 2:
            raise ClosureError(
                "plat closure requires an even strand count (2k strands); "
                f"got {braid.n_strands}"
            )
        _Value.__init__(self, braid, closure)


class DiagramStats(_Value):
    """Counting data of a closed diagram.

    minima is the number of local minima of a plat closure (n/2); it is
    None for trace closures, where the notion is not used.
    """

    __slots__ = ("components", "minima", "crossings", "writhe")

    def __init__(self, components: int, minima: int | None, crossings: int, writhe: int) -> None:
        _Value.__init__(self, components, minima, crossings, writhe)

    def to_json(self) -> dict:
        return dict(zip(self.__slots__, self._key(self)))


def closure_arcs(k: ClosedBraid) -> list[tuple[int, int]]:
    """Endpoint pairs joined by the closure, over nodes 0..n-1 (bottom)
    and n..2n-1 (top)."""
    n = k.braid.n_strands
    if k.closure == "plat":
        caps = [(i, i + 1) for i in range(0, n, 2)]
        return caps + [(n + i, n + j) for i, j in caps]
    return [(i, n + i) for i in range(n)]


def _involution(pairs: list[tuple[int, int]], size: int) -> tuple[int, ...]:
    m = [0] * size
    for x, y in pairs:
        m[x], m[y] = y, x
    return tuple(m)


def _cycles(m: tuple[int, ...], close: tuple[int, ...]) -> int:
    """Loops formed when the matching m is closed off by the involution close."""
    seen = [False] * len(m)
    cycles = 0
    for start in range(len(m)):
        if seen[start]:
            continue
        cycles += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = m[x]
            seen[y] = True
            x = close[y]
    return cycles


def component_count(k: ClosedBraid) -> int:
    """Number of link components of the closed diagram: the loops formed
    when the strands, joining bottom point p to top point n + perm[p] - 1,
    are closed off by the closure's arcs."""
    n = k.braid.n_strands
    perm = permutation(k.braid)
    strands = _involution([(p, n + perm[p] - 1) for p in range(n)], 2 * n)
    return _cycles(strands, _involution(closure_arcs(k), 2 * n))


def diagram_stats(k: ClosedBraid) -> DiagramStats:
    return DiagramStats(
        components=component_count(k),
        minima=k.braid.n_strands // 2 if k.closure == "plat" else None,
        crossings=len(k.braid),
        writhe=writhe(k.braid),
    )
