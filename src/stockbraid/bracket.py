"""Kauffman bracket, Kauffman invariant, and Jones polynomial of braid closures.

The bracket is computed two ways, cross-checked in the tests:

* ``bracket_poly_state_sum``: the literal state sum.  Every crossing is
  resolved both ways, loops of each fully smoothed diagram are counted
  by union-find, and the terms A^(#A-smoothings - #B-smoothings) *
  d^(loops-1) are summed, with d = -A^2 - A^{-2}.  Exponential in the
  crossing count; this is the reference oracle.
* one Temperley-Lieb sweep over non-crossing perfect matchings,
  polynomial time in crossings for a fixed strand count and generic over
  the coefficient ring.  It runs a schedule that describes the closed
  diagram: a start matching, generator steps on named points and the
  involution that closes it.  In word order, plat closures sweep the
  n-point module (dimension Catalan(n/2)) from the bottom caps and are
  closed by the top caps; trace closures sweep the 2n-point module from
  the identity tangle and are closed by joining bottom point i to top
  point i.  In radial order, for trace closures only, the crossings are
  sorted by generator index and then word position and swept outward
  through the annulus the closed braid lives in, which holds only the
  crossings of one or two indices open at a time (``_radial_schedule``).
  ``bracket_poly`` runs it on packed integers, each a polynomial in A^2
  with one signed coefficient per W-bit field (Kronecker substitution),
  and one rule (``_closing``) closes each arc but the last right after
  the last step that touches it, so that the sweep ends in one state,
  decoded once; W = bitlength(3^c 2^k) + 1 for c crossings and the k
  closings it makes.  A trace word is swept in word order as given or in
  radial order, whichever has the smaller sum over its crossings of
  2^open, for open the edges with one end swept (``_trace_plan``).
  ``bracket_eval`` runs the sweep on complex numbers at a point A = a: a
  trace closure on the same plan, closed early, and a plat closure in
  word order, closed at the end.

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
from collections import Counter
from itertools import accumulate
from typing import Iterator, NamedTuple

from .braid import BraidWord, WordFormatError, _is_int, _Memo, compose, writhe
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
            "use bracket_eval or invariant --eval for numeric evaluation at a point"
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
    values = word.values
    c = len(values)
    for bits in range(1 << c):
        uf = _UnionFind(n + c)
        frontier = list(range(n))
        next_node = n
        loops = 0
        choices = []
        for j, v in enumerate(values):
            a_choice = bool((bits >> j) & 1)
            choices.append(a_choice)
            cupcap = a_choice if v > 0 else not a_choice
            if cupcap:
                i = abs(v) - 1
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
    # Tally the states by A-exponent (#A - #B smoothings) and loop count; a
    # tally of n adds n * A^a_exp * d^(loops - 1).
    tally = Counter((2 * sum(s.choices) - c, s.loops) for s in smoothing_states(k))
    return LaurentPoly(
        (a_exp + e, n * coeff)
        for (a_exp, loops), n in tally.items()
        for e, coeff in d_powers[loops - 1].terms.items()
    )


# ---------------------------------------------------------------------------
# The Temperley-Lieb sweep, shared by the exact and the numeric path.
#
# A state is a perfect matching of a schedule's points, stored as an
# involution m (m[x] is the partner of x): the ends of the diagram's edges
# that the steps so far join.  A generator step branches a state into its
# two smoothings; a loop closed by a cap-cup smoothing contributes a factor
# d as it appears.  A closing step joins two ends for good; no later step
# touches them.


class _Schedule:
    """A sweep's plan: the start matching, the steps, and the involution
    that closes the final states.

    A step (a, b, s) with s = +1 or -1 is a Temperley-Lieb generator on
    points a and b weighted like a crossing of sign s: its vertical
    smoothing keeps every point, its cap-cup smoothing joins the partners
    of a and b and pairs a with b.  A step (a, b, 0), which only
    ``_closing`` makes, closes the arc that joins a to b.  (A plain class:
    a NamedTuple costs the CLI's start-up about 0.2 ms to create.)
    """

    __slots__ = ("start", "steps", "close")

    def __init__(
        self, start: tuple[int, ...], steps: list[tuple[int, int, int]], close: tuple[int, ...]
    ) -> None:
        self.start = start
        self.steps = steps
        self.close = close


def _word_schedule(k: ClosedBraid) -> _Schedule:
    """k's crossings in word order on the module of the closure's arcs:
    plat sweeps the n top points from the bottom caps and closes with the
    top caps, the same involution (0 1)(2 3)...; trace sweeps bottom
    anchors 0..n-1 and top points n..2n-1 from the identity tangle.
    """
    n = k.braid.n_strands
    arcs = closure_arcs(k)
    if k.closure == "plat":
        start = close = _involution(arcs[: n // 2], n)
        offset = 0
    else:
        start = close = _involution(arcs, 2 * n)
        offset = n
    step = _Memo(lambda v: (offset + abs(v) - 1, offset + abs(v), 1 if v > 0 else -1))
    return _Schedule(start, list(map(step.__getitem__, k.braid.values)), close)


def _radial_schedule(word: BraidWord, tracks: tuple) -> _Schedule:
    """The trace closure of word, whose tracks are ``_tracks(word)``,
    swept outward through its annulus: the crossings in radial order.

    The crossing of sigma_i touches track i - 1 with its two lower legs
    and track i with its two upper legs; a generator step takes its
    lower legs in and its upper legs out, the left leg as point a and the
    right one as point b.  On each track an edge joins each touch to the
    next, cyclically in word order:

    * an edge between two lower legs is a pair of points of the start
      matching (a cup no crossing has made yet);
    * an edge between an upper leg and the lower leg of a later crossing
      keeps its point;
    * an edge between two upper legs is a pair of the closing involution;
    * an untouched track is a pair of both.

    Turned this way a crossing's vertical smoothing is its word-order
    cap-cup smoothing and the other way round, so sigma_i^s is weighted
    like sigma_i^(-s).
    """
    values = word.values
    index, touches, order, _ = tracks
    left = [0] * len(values)
    right = [0] * len(values)
    pairs: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    # Track p's lower legs belong to sigma_(p+1); the points of an upper
    # leg were named on track p - 1.
    for p, xs in enumerate(touches):
        if not xs:
            u = 2 * len(pairs)
            pairs.append((u, u + 1))
            arcs.append((u, u + 1))
        for x, y in zip(xs, xs[1:] + xs[:1]):
            if index[y] > p:
                if index[x] > p:
                    u = 2 * len(pairs)
                    pairs.append((u, u + 1))
                    right[x], left[y] = u, u + 1
                else:
                    left[y] = right[x]
            elif index[x] > p:
                right[x] = left[y]
            else:
                arcs.append((right[x], left[y]))
    size = 2 * len(pairs)
    steps = [(left[x], right[x], -1 if values[x] > 0 else 1) for x in order]
    return _Schedule(_involution(pairs, size), steps, _involution(arcs, size))


def _closing(schedule: _Schedule) -> _Schedule:
    """schedule with each arc (x, close[x]), x < close[x], of its closing
    involution closed as soon as no later step touches it: right after the
    last step that touches either of its points, or before the first step
    if none does, arcs of one slot in order of x.

    The arc that would be closed last is left out.  It always closes the
    final loop, which weighs 1, and every other point is paired for good
    by then, so the sweep already ends in the one state that pairs it: the
    closing involution itself.
    """
    steps, close = schedule.steps, schedule.close
    # after[x]: the number of steps up to the last one that touches x
    after = [0] * len(close)
    for j, (a, b, _) in enumerate(steps, 1):
        after[a] = after[b] = j
    slots = ((max(after[x], after[y]), x, y) for x, y in enumerate(close) if x < y)
    closed = list(steps)
    for j, x, y in sorted(slots, reverse=True):
        closed.insert(j, (x, y, 0))
    closed.pop()
    return _Schedule(schedule.start, closed, close)


def _cupcap(m: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The matching left by the cap-cup smoothing at points a and b of m,
    or by closing the arc that joins a to b.

    When a and b are already paired the cap closes a loop and m is
    returned unchanged; otherwise their partners are joined and a, b
    become a pair.
    """
    if m[a] == b:
        return m
    j, kk = m[a], m[b]
    m2 = list(m)
    m2[j], m2[kk] = kk, j
    m2[a], m2[b] = b, a
    return tuple(m2)


def _sweep(schedule: _Schedule, one, weight_pos, weight_neg, d, closing) -> dict:
    """The state vector left by schedule's steps, with ring-generic
    coefficients, keyed by matching.

    weight_pos / weight_neg are (cupcap, vertical, loop) weight triples
    for the two generator signs: a cap-cup smoothing that closes a loop
    is weighted ``loop * d`` instead of ``cupcap``.  Coefficients only
    need ``*`` and ``+``.  ``closing`` is the weight pair (join, loop) of
    the closing steps: a closing that joins two open ends is weighted
    ``join`` and one that closes a loop ``loop``.

    States are interned: ``matchings[s]`` is the matching with id s and
    ``index`` maps it back, giving a new matching the next id.  A state
    vector is two lists: ``order``, the ids of its states in the order
    they were first stored, and ``coeffs``, indexed by id, with None in
    the slots of the ids it does not hold.  Each step's vector has
    ``room`` slots, one for every id the step can reach, since each state
    it reads adds at most one new matching.  ``moves[a * size + b][s]``
    memoizes the id of the cap-cup smoothing (or the closing) of state s
    at points a and b of the schedule's size points, or holds None while
    that move is not built.  Before each step its move list is made, or
    grown, to the step's ``room`` slots, which hold every id the step
    reads; both state loops build a missing target with one ``index``
    lookup.  So each distinct move builds its tuple once however often
    the sweep takes it.  A move closes a loop exactly when it maps a
    state to itself.

    Ids stand one-to-one for matchings, and a state joins ``order`` when
    its slot is first filled, so every state vector holds the same states
    in the same order, with the same multiplications and the same
    first-assignment-then-``+`` accumulation, as a dict keyed by the
    matchings themselves would: floating-point coefficients come out
    bit-identical, signed zeros included.

    A cap-cup target pairs a with b, so it is a state that maps to
    itself.  A state that does not is therefore not yet in the next
    vector when its vertical term is stored, and a state that does takes
    its vertical and loop terms in one store.
    """
    matchings = [schedule.start]

    def new_id(m: tuple[int, ...]) -> int:
        matchings.append(m)
        return len(matchings) - 1

    index = _Memo(new_id)
    index[schedule.start] = 0
    moves: dict[int, list] = {}
    order = [0]
    coeffs = [one]
    size = len(schedule.start)
    for a, b, sign in schedule.steps:
        room = len(matchings) + len(order)
        move = moves.get(a * size + b)
        if move is None:
            move = moves[a * size + b] = [None] * room
        elif len(move) < room:
            move += [None] * (room - len(move))
        nxt = [None] * room
        nxt_order = []
        if sign:
            w_cup, w_vert, w_loop = weight_pos if sign > 0 else weight_neg
            for s in order:
                coeff = coeffs[s]
                t = move[s]
                if t is None:
                    t = move[s] = index[_cupcap(matchings[s], a, b)]
                if t == s:
                    prev = nxt[s]
                    if prev is None:
                        nxt_order.append(s)
                        nxt[s] = coeff * w_vert + coeff * w_loop * d
                    else:
                        nxt[s] = (prev + coeff * w_vert) + coeff * w_loop * d
                else:
                    nxt_order.append(s)
                    nxt[s] = coeff * w_vert
                    prev = nxt[t]
                    if prev is None:
                        nxt_order.append(t)
                        nxt[t] = coeff * w_cup
                    else:
                        nxt[t] = prev + coeff * w_cup
        else:
            w_join, w_close = closing
            for s in order:
                coeff = coeffs[s]
                t = move[s]
                if t is None:
                    t = move[s] = index[_cupcap(matchings[s], a, b)]
                coeff = coeff * w_close if t == s else coeff * w_join
                prev = nxt[t]
                if prev is None:
                    nxt_order.append(t)
                    nxt[t] = coeff
                else:
                    nxt[t] = prev + coeff
        order, coeffs = nxt_order, nxt
    return {matchings[s]: coeffs[s] for s in order}


def _unpack(packed: int, width: int, shift: int) -> LaurentPoly:
    """The Laurent polynomial in A whose A^(2i + shift) coefficient is the
    i-th signed width-bit digit of packed, lowest digit first.  Digits are
    balanced, in [-2^(width-1), 2^(width-1)), so negative coefficients
    read back as they were packed: a low field of 2^(width-1) or more is
    the digit minus 2^width, with a carry of 1 into the rest."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    terms = {}
    while packed:
        digit = packed & mask
        packed >>= width
        if digit >= half:
            digit -= mask + 1
            packed += 1
        if digit:
            terms[shift] = digit
        shift += 2
    return LaurentPoly(terms)


def _tracks(word: BraidWord) -> tuple[list[int], list[list[int]], list[int], list[int]]:
    """Where word's crossings sit on the tracks of its trace closure:
    (index, touches, order, rank).  Track p, 0 <= p < n, carries strand
    position p around the closed braid, and the crossing of sigma_i
    touches tracks i - 1 and i.

    index[x] is the generator index of the crossing at word position x;
    touches[p] lists the positions of the crossings that touch track p,
    in word order, and around the closed braid an edge joins each touch
    of a track to the next, the last to the first.  order lists the
    positions in radial order, which sorts the crossings by (generator
    index, word position), and rank[x] is x's place in it.
    """
    c = len(word)
    index = list(map(abs, word.values))
    touches: list[list[int]] = [[] for _ in range(word.n_strands)]
    for x, i in enumerate(index):
        touches[i - 1].append(x)
        touches[i].append(x)
    order = sorted(range(c), key=index.__getitem__)
    return index, touches, order, sorted(range(c), key=order.__getitem__)


def _trace_plan(tracks: tuple) -> bool:
    """Whether the trace closure of the word whose tracks are given is
    cheaper to sweep in radial order than in word order.

    A schedule's cost is the sum over its crossings of 2^open, where open
    counts the edges with exactly one end at a crossing swept so far.  It
    bounds the states the sweep holds after each crossing, which number at
    most Catalan(open / 2) <= 2^open.  In word order a track's two open
    edges run from its first touch up to, not including, its last.  In
    radial order the edge of a gap, from one touch of a track to the next,
    is open from the earlier of its two touches up to, not including, the
    later one.  A difference array over the crossings counts each.  Ties
    go to word order.
    """
    _, touches, _, rank = tracks
    c = len(rank)
    radial = [0] * (c + 1)
    word = [0] * (c + 1)
    for xs in touches:
        if not xs:
            continue
        word[xs[0]] += 2
        word[xs[-1]] -= 2
        a = xs[-1]
        for b in xs:
            lo, hi = rank[a], rank[b]
            if lo > hi:
                lo, hi = hi, lo
            radial[lo] += 1
            radial[hi] -= 1
            a = b
    cost = (1).__lshift__
    return sum(map(cost, accumulate(radial[:c]))) < sum(map(cost, accumulate(word[:c])))


def _schedule(k: ClosedBraid) -> _Schedule:
    """k's sweep plan, each arc closed early by ``_closing``: a plat
    closure in word order, a trace closure in word order as given or
    outward through its annulus, whichever ``_trace_plan`` estimates holds
    fewer states."""
    if k.closure == "trace" and _trace_plan(tracks := _tracks(k.braid)):
        return _closing(_radial_schedule(k.braid, tracks))
    return _closing(_word_schedule(k))


def bracket_poly(k: ClosedBraid) -> LaurentPoly:
    """The Kauffman bracket of a braid closure, exact in the variable A.

    Normalized so a single circle evaluates to 1, and swept on
    ``_schedule(k)``'s plan, which has no limit on word length.  Raises
    CrossingCapExceeded above CROSSING_CAP crossings.  The cap bounds
    crossings only: the sweep's cost also grows with the number of states
    a state vector can hold, which the strand count and the crossings'
    order set.
    """
    _check_cap(k)
    c = len(k.braid)
    schedule = _schedule(k)
    # The sweep runs on packed integers.  Each generator's weights are
    # taken times A^3 and each closing's times A^2, so every weight is a
    # non-negative power of A^2 (positive step: cap-cup A^4, vertical
    # A^2, loop A^4 d = -(A^6 + A^2); negative step: A^2, A^4 and A^2 d =
    # -(A^4 + 1); closing: join A^2, loop A^2 d = -(A^4 + 1)), and a
    # coefficient sum_i a_i A^(2i) is held as the integer sum_i a_i 2^(W i):
    # polynomial products and sums become integer ones.  The schedule makes
    # k closings, all but the one that would close the final loop, which
    # weighs 1, and ends in one state, decoded once and shifted back by
    # A^(-3c - 2k).
    #
    # Packed sums and products are exact integers at any width, so only the
    # digits of the final state must fit: they decode exactly while every
    # |a_i| < 2^(W-1).  Call the sum of |a_i| over all states and digits
    # the mass of a state vector; the start has mass 1.  A generator maps a
    # coefficient of mass M to a vertical term of mass M and a cap-cup term
    # of mass M, or 2M when it closes a loop, so the mass grows at most 3x
    # per crossing; a closing maps it to mass M, or 2M when it closes a
    # loop, so at most 2x per closing.  Every digit is then at most
    # 3^c 2^k < 2^bitlength(3^c 2^k) = 2^(W-1) for W = bitlength(3^c 2^k) + 1.
    closed = len(schedule.steps) - c
    width = (3 ** c << closed).bit_length() + 1
    a2, a4, a6 = 1 << width, 1 << 2 * width, 1 << 3 * width
    states = _sweep(
        schedule,
        one=1,
        weight_pos=(a4, a2, -(a6 + a2)),
        weight_neg=(a2, a4, -(a4 + 1)),
        d=1,
        closing=(a2, -(a4 + 1)),
    )
    return _unpack(states[schedule.close], width, -3 * c - 2 * closed)


def bracket_eval(k: ClosedBraid, a: complex) -> complex:
    """The bracket evaluated at A = a, polynomial time in crossings: a
    trace closure swept on bracket_poly's plan, a plat closure in word
    order and closed at the end.

    Raises OverflowError when the value is not finite: far from |a| = 1
    a weight, d or a coefficient overflows (d does once |a| is below
    about 1e-154 or above about 1e154), and inf - inf or inf * 0 then
    leaves a NaN.
    """
    a = complex(a)
    if not cmath.isfinite(a) or a == 0:
        raise ValueError("evaluation point must be finite and nonzero")
    a_inv = 1 / a
    d = -(a * a) - (a_inv * a_inv)
    # The one sweep closed at the end: a plat closure, which prob sweeps,
    # keeps its word order and closing at the end, so its floats keep
    # every byte.
    schedule = _word_schedule(k) if k.closure == "plat" else _schedule(k)
    states = _sweep(
        schedule,
        one=complex(1),
        weight_pos=(a, a_inv, a),
        weight_neg=(a_inv, a, a_inv),
        d=d,
        closing=(1, d),
    )
    # Each closing step has already weighed the loop it closed, if any.
    closed = len(schedule.steps) - len(k.braid)
    total = 0j
    for m, coeff in states.items():
        total += coeff * d ** (_cycles(m, schedule.close) - closed - 1)
    if not cmath.isfinite(total):
        raise OverflowError(f"the bracket is not finite at A = {a}")
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
    """f[K] = (-A)^(-3 Wr(K)) <K>, with the writhe taken from the word:
    the Jones polynomial under the "paper" convention."""
    return jones_from_bracket(k)


def jones_from_bracket(k: ClosedBraid, convention: str = "paper") -> LaurentPoly:
    """The Jones polynomial in quarter units of t (exponent q means t^(q/4)).

    convention "paper" reads t = A^4; "standard" reads t = A^{-4}, which
    mirrors every exponent.
    """
    return writhe_corrected(bracket_poly(k), k, convention)


def _writhe_corrected_value(bracket_value: complex, a: complex, w: int) -> complex:
    """(-a)^(-3 w) <K>(a): the numeric f[K], that is the Jones value with
    t^(1/4) = a, from the bracket value at A = a and the writhe w.

    At a tiny |a| the power (-a)^(3 w) underflows to 0, and its reciprocal
    is an OverflowError, as any other overflowing power is, and so is a
    product that overflows.
    """
    try:
        value = (-complex(a)) ** (-3 * w) * bracket_value
        if cmath.isfinite(value):
            return value
    except ZeroDivisionError:
        pass
    raise OverflowError(f"(-A)^(-3 Wr) overflows at A = {a} for writhe {w}")


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
    # -i is a valid value too, so an index below 1 would swap K+ and K-.
    if not (_is_int(i) and i >= 1):
        raise WordFormatError(f"generator index must be an int >= 1, got {i!r}")
    plus = BraidWord(n, w_left.values + (i,) + w_right.values)
    minus = BraidWord(n, w_left.values + (-i,) + w_right.values)
    close = ClosedBraid
    v_plus = jones_eval(close(plus, closure), t)
    v_minus = jones_eval(close(minus, closure), t)
    v_zero = jones_eval(close(body, closure), t)
    root = _fourth_root(t) ** 2
    residue = root * v_plus - 1 / root * v_minus - (root - 1 / root) * v_zero
    return abs(residue) < 1e-9
