"""Kauffman bracket, Kauffman invariant, and Jones polynomial of braid closures.

The bracket is computed two ways, cross-checked in the tests:

* ``bracket_poly_state_sum``: the literal state sum.  Every crossing is
  resolved both ways, loops of each fully smoothed diagram are counted
  by union-find, and the terms A^(#A-smoothings - #B-smoothings) *
  d^(loops-1) are summed, with d = -A^2 - A^{-2}.  Exponential in the
  crossing count; this is the reference oracle.
* one Temperley-Lieb sweep over non-crossing perfect matchings,
  polynomial time in crossings for a fixed strand count and generic over
  the coefficient ring.  Plat closures sweep the n-point module
  (dimension Catalan(n/2)) from the bottom caps and are closed by the top
  caps; trace closures sweep the 2n-point module from the identity tangle
  and are closed by joining bottom point i to top point i.
  ``bracket_poly`` runs it on packed integers, each a polynomial in A^2
  with one signed coefficient per W-bit field (Kronecker substitution),
  and closes each closure arc but the last right after the last crossing
  that touches it, so that the sweep ends in one state, decoded once; W =
  bitlength(3^c 2^(k-1)) + 1 for c crossings and k closure arcs.  It starts
  a trace word at the cyclic rotation that holds the fewest closure arcs
  open, summed over its crossings (``_cheapest_rotation``), since a trace
  closure does not change under conjugation.  ``bracket_eval`` runs the
  sweep on complex numbers at a point A = a, on the word as given, and
  closes it at the end.

Crossing-sign convention, pinned once for the whole package: the positive
generator weights its cap-cup smoothing with A and its vertical smoothing
with A^{-1}; the negative generator swaps the two weights.  Under this
convention a reducible kink appended to a plat diagram multiplies the
bracket by exactly (-A)^(+/-3) matching the generator sign, so the
writhe-corrected invariant f[K] = (-A)^(-3 Wr) <K> is kink-stable.

The Jones polynomial is derived from the bracket by inverting
<K> = (-A)^(3 Wr) V(A^4).  Quarter-unit exponents are kept as integers:
a stored exponent q means t^(q/4).  Convention "paper" reads the Jones
variable as t = A^4; "standard" substitutes t = A^{-4} instead (the two
differ by mirroring every exponent).

Under these conventions the Jones values of a braid-closure skein triple
satisfy the signed relation

    t^(1/2) V(K+) - t^(-1/2) V(K-) = (t^(1/2) - t^(-1/2)) V(K0)

which ``verify_jones_skein`` checks numerically.

All functions are pure.  The sweep's state and move tables are built
afresh for each call and dropped when it returns; nothing is cached
across calls.
"""

from __future__ import annotations

import cmath
from itertools import accumulate
from typing import Iterator, NamedTuple

from .braid import BraidWord, Generator, compose, writhe
from .closure import ClosedBraid, _cycles, _involution, closure_arcs
from .laurent import LaurentPoly

CROSSING_CAP = 24

_D_POLY = LaurentPoly({2: -1, -2: -1})


class CrossingCapExceeded(RuntimeError):
    """Raised when a braid is too large for exact polynomial evaluation."""


def _check_cap(k: ClosedBraid) -> None:
    if len(k.braid) > CROSSING_CAP:
        raise CrossingCapExceeded(
            f"{len(k.braid)} crossings exceed the exact-path cap of {CROSSING_CAP}; "
            "use bracket_eval for numeric evaluation at a point"
        )


# ---------------------------------------------------------------------------
# Path 1: literal state sum (reference oracle).

class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Join the classes of a and b; True if they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        self.parent[rb] = ra
        return False


class SmoothingState(NamedTuple):
    """One full resolution of the diagram: a choice bit per crossing
    (True = the A-weighted smoothing) and the resulting loop count."""

    choices: tuple[bool, ...]
    loops: int


def smoothing_states(k: ClosedBraid) -> Iterator[SmoothingState]:
    """Enumerate all 2^c smoothing states with their loop counts."""
    word = k.braid
    n = word.n_strands
    gens = word.generators
    c = len(gens)
    for bits in range(1 << c):
        uf = _UnionFind(n + c)
        frontier = list(range(n))
        next_node = n
        loops = 0
        choices = []
        for j, g in enumerate(gens):
            a_choice = bool((bits >> j) & 1)
            choices.append(a_choice)
            cupcap = a_choice if g.exponent > 0 else not a_choice
            if cupcap:
                i = g.index - 1
                if uf.union(frontier[i], frontier[i + 1]):
                    loops += 1
                frontier[i] = frontier[i + 1] = next_node
                next_node += 1
        if k.closure == "plat":
            for i in range(0, n, 2):
                if uf.union(i, i + 1):
                    loops += 1
            for i in range(0, n, 2):
                if uf.union(frontier[i], frontier[i + 1]):
                    loops += 1
        else:
            for i in range(n):
                if uf.union(i, frontier[i]):
                    loops += 1
        yield SmoothingState(tuple(choices), loops)


def bracket_poly_state_sum(k: ClosedBraid) -> LaurentPoly:
    """The bracket by brute enumeration of all smoothing states."""
    _check_cap(k)
    c = len(k.braid)
    max_loops = k.braid.n_strands + c + 1
    d_powers = [LaurentPoly.one()]
    for _ in range(max_loops):
        d_powers.append(d_powers[-1] * _D_POLY)
    acc: dict[int, int] = {}
    for state in smoothing_states(k):
        a_exp = 2 * sum(state.choices) - c
        for e, coeff in d_powers[state.loops - 1].items():
            e += a_exp
            total = acc.get(e, 0) + coeff
            if total:
                acc[e] = total
            else:
                del acc[e]
    return LaurentPoly(acc)


# ---------------------------------------------------------------------------
# The Temperley-Lieb sweep, shared by the exact and the numeric path.
#
# A state is a non-crossing perfect matching of the module's points, stored
# as an involution m (m[x] is the partner of x).  Each generator branches a
# state into its two smoothings; a loop closed by a cap-cup smoothing
# contributes a factor d as it appears.  A closure arc closed during the
# sweep pairs its two points for good; no later step touches them.

def _module(k: ClosedBraid) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Start matching, generator offset and closing involution of the
    module k is swept on, from the closure's arcs: plat sweeps the n top
    points from the bottom caps and closes with the top caps, the same
    involution (0 1)(2 3)...; trace sweeps bottom anchors 0..n-1 and top
    points n..2n-1 from the identity tangle."""
    n = k.braid.n_strands
    arcs = closure_arcs(k)
    if k.closure == "plat":
        caps = _involution(arcs[: n // 2], n)
        return caps, 0, caps
    identity = _involution(arcs, 2 * n)
    return identity, n, identity


def _cupcap(m: tuple[int, ...], a: int, b: int | None = None) -> tuple[int, ...]:
    """The matching left by the cap-cup smoothing at points a, a+1 of m,
    or, given b, by closing the closure arc that joins a to b.

    When a and b are already paired the cap closes a loop and m is
    returned unchanged; otherwise their partners are joined and a, b
    become a pair.
    """
    if b is None:
        b = a + 1
    if m[a] == b:
        return m
    j, kk = m[a], m[b]
    m2 = list(m)
    m2[j], m2[kk] = kk, j
    m2[a], m2[b] = b, a
    return tuple(m2)


def _closing_schedule(k: ClosedBraid, offset: int, close: tuple[int, ...]) -> list:
    """k's generators cut into runs, each followed by the closure arcs
    (x, close[x]), x < close[x], that no later crossing touches: an arc is
    closed right after the last crossing that touches either of its
    points, or before the first crossing if none does.

    The arc that would be closed last is left out.  It always closes the
    final loop, which weighs 1, and every other point is paired for good
    by then, so the sweep already ends in the one state that pairs it:
    the closing involution itself.
    """
    gens = k.braid.generators
    last = {}
    for j, g in enumerate(gens):
        a = offset + g.index - 1
        last[a] = last[a + 1] = j
    after: list[list[int]] = [[] for _ in range(len(gens) + 1)]
    for x, y in enumerate(close):
        if x < y:
            after[max(last.get(x, -1), last.get(y, -1)) + 1].append(x)
    runs = []
    start = 0
    for j, arcs in enumerate(after):
        if arcs:
            runs.append((gens[start:j], arcs))
            start = j
    runs[-1][1].pop()
    return runs


def _sweep(k: ClosedBraid, one, weight_pos, weight_neg, d, closing=None):
    """The state vector of k's braid word, with ring-generic coefficients,
    and the involution that closes it.

    weight_pos / weight_neg are (cupcap, vertical, loop) weight triples
    for the two generator signs: a cap-cup smoothing that closes a loop
    is weighted ``loop * d`` instead of ``cupcap``.  Coefficients only
    need ``*`` and ``+``.  With a ``closing`` weight pair (join, loop) the
    sweep also closes the closure arcs as ``_closing_schedule`` says, a
    closing that joins two open ends weighted ``join`` and one that closes
    a loop ``loop``, and ends in one state, the closing involution.

    States are interned: ``matchings[s]`` is the matching with id s and
    ``index`` maps it back, and ``moves[a][s]`` memoizes the id of the
    cap-cup smoothing of state s at point a, so each distinct move builds
    its tuple once however often the sweep takes it.  Closing the arc
    (a, close[a]) is memoized the same way: for plat a is even and the
    move is the cap-cup move at a, and for trace a < n, where no crossing
    acts.  A move closes a loop exactly when it maps a state to itself.
    Ids stand one-to-one for matchings, so every state vector is filled in
    the same insertion order, with the same multiplications and the same
    first-assignment-then-``+`` accumulation, as a sweep keyed by the
    matchings themselves: floating-point coefficients come out
    bit-identical, signed zeros included.
    """
    start, offset, close = _module(k)
    if closing is None:
        runs = [(k.braid.generators, ())]
    else:
        runs = _closing_schedule(k, offset, close)
        w_join, w_close = closing
    matchings = [start]
    index = {start: 0}
    moves: dict[int, dict[int, int]] = {}
    states = {0: one}
    for run, arcs in runs:
        for g in run:
            a = offset + g.index - 1
            w_cup, w_vert, w_loop = weight_pos if g.exponent > 0 else weight_neg
            move = moves.setdefault(a, {})
            nxt: dict[int, object] = {}
            for s, coeff in states.items():
                vert_coeff = coeff * w_vert
                prev = nxt.get(s)
                nxt[s] = vert_coeff if prev is None else prev + vert_coeff
                t = move.get(s)
                if t is None:
                    m2 = _cupcap(matchings[s], a)
                    t = index.get(m2)
                    if t is None:
                        t = index[m2] = len(matchings)
                        matchings.append(m2)
                    move[s] = t
                cup_coeff = coeff * w_loop * d if t == s else coeff * w_cup
                prev = nxt.get(t)
                nxt[t] = cup_coeff if prev is None else prev + cup_coeff
            states = nxt
        for a in arcs:
            b = close[a]
            move = moves.setdefault(a, {})
            nxt = {}
            for s, coeff in states.items():
                t = move.get(s)
                if t is None:
                    m2 = _cupcap(matchings[s], a, b)
                    t = index.get(m2)
                    if t is None:
                        t = index[m2] = len(matchings)
                        matchings.append(m2)
                    move[s] = t
                coeff = coeff * w_close if t == s else coeff * w_join
                prev = nxt.get(t)
                nxt[t] = coeff if prev is None else prev + coeff
            states = nxt
    return {matchings[s]: coeff for s, coeff in states.items()}, close


def _unpack(packed: int, width: int, shift: int) -> LaurentPoly:
    """The Laurent polynomial in A whose A^(2i + shift) coefficient is the
    i-th signed width-bit digit of packed, lowest digit first.  Digits are
    balanced, in [-2^(width-1), 2^(width-1)), so negative coefficients
    read back as they were packed."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    terms = {}
    while packed:
        digit = ((packed + half) & mask) - half
        if digit:
            terms[shift] = digit
        packed = (packed - digit) >> width
        shift += 2
    return LaurentPoly(terms)


def _cheapest_rotation(word: BraidWord) -> int:
    """The rotation r, 0 <= r < c, of least sum over crossings j of open_j,
    ties to the smallest: the exact sweep of word's trace closure starts
    at word.generators[r:] + word.generators[:r].  open_j counts the top
    points touched at or before crossing j and again after it, whose
    closure arcs the sweep holds open across j; the crossing of sigma_i
    touches points i - 1 and i.

    A point's touches cut the cycle of c crossings into gaps (a, b], from
    one touch a to the next, b, counted past c around the end of the word.
    A cut before crossing r in the gap shuts the point there and holds it
    open on the other c - (b - a) crossings, so r is the cut of greatest
    total shut length.  Each gap adds b - a to its cuts on a difference
    array over 2c slots, where cut r stands at slots r and r + c.
    """
    gens = word.generators
    c = len(gens)
    if c < 2:
        return 0
    last = {}
    for x, g in enumerate(gens):
        last[g.index - 1] = last[g.index] = x
    diff = [0] * (2 * c + 1)
    for x, g in enumerate(gens):
        for p in (g.index - 1, g.index):
            a = last[p]
            b = x if a < x else x + c  # a point touched once has one gap of c
            diff[a + 1] += b - a
            diff[b + 1] -= b - a
            last[p] = x
    run = list(accumulate(diff))
    shut = [x + y for x, y in zip(run[:c], run[c:])]
    return shut.index(max(shut))


def bracket_poly(k: ClosedBraid) -> LaurentPoly:
    """The Kauffman bracket of a braid closure, exact in the variable A.

    Normalized so a single circle evaluates to 1.  Raises
    CrossingCapExceeded above CROSSING_CAP crossings.  The cap bounds
    crossings only: the sweep's cost also grows with the strand count,
    which sets how many matchings a state vector can hold.
    """
    _check_cap(k)
    c = len(k.braid)
    n = k.braid.n_strands
    if k.closure == "trace":
        arcs = n
        # Every rotation has this trace closure; start at the cheapest.
        r = _cheapest_rotation(k.braid)
        if r:
            gens = k.braid.generators
            k = ClosedBraid(BraidWord(n, gens[r:] + gens[:r]), "trace")
    else:
        arcs = n // 2
    # The sweep runs on packed integers.  Each generator's weights are
    # taken times A^3 and each closing's times A^2, so every weight is a
    # non-negative power of A^2 (positive generator: cap-cup A^4, vertical
    # A^2, loop A^4 d = -(A^6 + A^2); negative: A^2, A^4 and A^2 d =
    # -(A^4 + 1); closing: join A^2, loop A^2 d = -(A^4 + 1)), and a
    # coefficient sum_i a_i A^(2i) is held as the integer sum_i a_i 2^(W i):
    # polynomial products and sums become integer ones.  Of the k closure
    # arcs the sweep closes k - 1 (the last one closes the final loop, which
    # weighs 1) and ends in one state, decoded once and shifted back by
    # A^(-3c - 2(k - 1)).
    #
    # Packed sums and products are exact integers at any width, so only the
    # digits of the final state must fit: they decode exactly while every
    # |a_i| < 2^(W-1).  Call the sum of |a_i| over all states and digits
    # the mass of a state vector; the start has mass 1.  A generator maps a
    # coefficient of mass M to a vertical term of mass M and a cap-cup term
    # of mass M, or 2M when it closes a loop, so the mass grows at most 3x
    # per crossing; a closing maps it to mass M, or 2M when it closes a
    # loop, so at most 2x per closed arc.  Every digit is then at most
    # 3^c 2^(k-1) < 2^bitlength(3^c 2^(k-1)) = 2^(W-1) for
    # W = bitlength(3^c 2^(k-1)) + 1.
    closed = arcs - 1
    width = (3 ** c << closed).bit_length() + 1
    a2, a4, a6 = 1 << width, 1 << 2 * width, 1 << 3 * width
    states, close = _sweep(
        k,
        one=1,
        weight_pos=(a4, a2, -(a6 + a2)),
        weight_neg=(a2, a4, -(a4 + 1)),
        d=1,
        closing=(a2, -(a4 + 1)),
    )
    return _unpack(states[close], width, -3 * c - 2 * closed)


def bracket_eval(k: ClosedBraid, a: complex) -> complex:
    """The bracket evaluated at A = a, polynomial time in crossings."""
    a = complex(a)
    if not cmath.isfinite(a) or a == 0:
        raise ValueError("evaluation point must be finite and nonzero")
    a_inv = 1 / a
    d = -(a * a) - (a_inv * a_inv)
    states, close = _sweep(
        k,
        one=complex(1),
        weight_pos=(a, a_inv, a),
        weight_neg=(a_inv, a, a_inv),
        d=d,
    )
    total = 0j
    for m, coeff in states.items():
        total += coeff * d ** (_cycles(m, close) - 1)
    return total


# ---------------------------------------------------------------------------
# Writhe-corrected invariants.

def writhe_corrected(
    bracket: LaurentPoly, k: ClosedBraid, convention: str = "paper"
) -> LaurentPoly:
    """f[K] = (-A)^(-3 Wr(K)) <K> from an already computed bracket of k.

    Read in quarter units of t, f[K] is the Jones polynomial under the
    "paper" convention t = A^4; "standard" (t = A^{-4}) mirrors it.  Any
    other convention is a ValueError.
    """
    if convention not in ("paper", "standard"):
        raise ValueError(f"unknown Jones convention {convention!r}")
    w = writhe(k.braid)
    f = bracket.shifted(-3 * w, -1 if w % 2 else 1)
    return f if convention == "paper" else f.mirrored()


def kauffman_invariant(k: ClosedBraid) -> LaurentPoly:
    """f[K] = (-A)^(-3 Wr(K)) <K>, with the writhe taken from the word."""
    return writhe_corrected(bracket_poly(k), k)


def jones_from_bracket(k: ClosedBraid, convention: str = "paper") -> LaurentPoly:
    """The Jones polynomial in quarter units of t (exponent q means t^(q/4)).

    convention "paper" reads t = A^4; "standard" reads t = A^{-4}, which
    mirrors every exponent.
    """
    return writhe_corrected(bracket_poly(k), k, convention)


def _writhe_corrected_value(bracket_value: complex, a: complex, w: int) -> complex:
    """(-a)^(-3 w) <K>(a): the numeric f[K], that is the Jones value with
    t^(1/4) = a, from the bracket value at A = a and the writhe w."""
    return (-complex(a)) ** (-3 * w) * bracket_value


def _fourth_root(t: complex) -> complex:
    return cmath.exp(cmath.log(t) / 4)


def jones_eval(k: ClosedBraid, t: complex) -> complex:
    """The Jones polynomial value at t, via the bracket at A = t^(1/4)
    (principal branch) under the t = A^4 convention."""
    t = complex(t)
    if not cmath.isfinite(t) or t == 0:
        raise ValueError("evaluation point must be finite and nonzero")
    a = _fourth_root(t)
    return _writhe_corrected_value(bracket_eval(k, a), a, writhe(k.braid))


def verify_jones_skein(
    w_left: BraidWord,
    i: int,
    w_right: BraidWord,
    t: complex,
    closure: str = "plat",
) -> bool:
    """Check the skein identity on the closure triple built around position i.

    K+ inserts sigma_i between the halves, K- inserts sigma_i^{-1}, and
    K0 inserts nothing; all three take the same closure.  The relation is
    the one satisfied by this package's conventions, to within 1e-9:

        t^(1/2) V(K+) - t^(-1/2) V(K-) = (t^(1/2) - t^(-1/2)) V(K0).
    """
    n = w_left.n_strands
    body = compose(w_left, w_right)
    plus = BraidWord(n, w_left.generators + (Generator(i, 1),) + w_right.generators)
    minus = BraidWord(n, w_left.generators + (Generator(i, -1),) + w_right.generators)
    close = ClosedBraid
    v_plus = jones_eval(close(plus, closure), t)
    v_minus = jones_eval(close(minus, closure), t)
    v_zero = jones_eval(close(body, closure), t)
    root = _fourth_root(t) ** 2
    residue = root * v_plus - 1 / root * v_minus - (root - 1 / root) * v_zero
    return abs(residue) < 1e-9
