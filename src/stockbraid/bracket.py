"""Kauffman bracket, Kauffman invariant, and Jones polynomial of braid closures.

The bracket is computed two ways, cross-checked in the tests:

* ``bracket_poly_state_sum``: the literal state sum.  Every crossing is
  resolved both ways, loops of each fully smoothed diagram are counted
  by union-find, and the terms A^(#A-smoothings - #B-smoothings) *
  d^(loops-1) are summed, with d = -A^2 - A^{-2}.  Exponential in the
  crossing count; this is the reference oracle.
* one Temperley-Lieb sweep over non-crossing perfect matchings,
  polynomial time in crossings for a fixed strand count and generic over
  the coefficient ring: ``bracket_poly`` runs it on exact Laurent
  polynomials, ``bracket_eval`` on complex numbers at a point A = a.
  Plat closures sweep the n-point module (dimension Catalan(n/2)) from
  the bottom caps and close it with the top caps; trace closures sweep
  the 2n-point module from the identity tangle and close it by joining
  bottom point i to top point i.

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

which ``verify_jones_skein`` checks numerically; the opposite sign on the
V(K-) term fails on generic triples and is kept as a negative control.

All functions are pure.  The sweep's state and move tables are built
afresh for each call and dropped when it returns; nothing is cached
across calls.
"""

from __future__ import annotations

import cmath
import os
from typing import Iterator, NamedTuple

from .braid import BraidWord, Generator, compose, writhe
from .closure import ClosedBraid, _cycles, _involution, closure_arcs
from .laurent import LaurentPoly, neg_a_power

DEFAULT_CROSSING_CAP = 24
CROSSING_CAP_ENV = "STOCKBRAID_CROSSING_CAP"

_A = LaurentPoly.monomial(1)
_A_INV = LaurentPoly.monomial(-1)
_D_POLY = LaurentPoly({2: -1, -2: -1})


class CrossingCapExceeded(RuntimeError):
    """Raised when a braid is too large for exact polynomial evaluation."""


def _crossing_cap() -> int:
    raw = os.environ.get(CROSSING_CAP_ENV)
    if not raw:
        return DEFAULT_CROSSING_CAP
    invalid = ValueError(f"{CROSSING_CAP_ENV} must be a non-negative integer, got {raw!r}")
    try:
        cap = int(raw)
    except ValueError:
        raise invalid from None
    if cap < 0:
        raise invalid
    return cap


def _check_cap(k: ClosedBraid) -> None:
    cap = _crossing_cap()
    if len(k.braid) > cap:
        raise CrossingCapExceeded(
            f"{len(k.braid)} crossings exceed the exact-path cap of {cap}; "
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
# contributes a factor d as it appears.

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


def _cupcap(m: tuple[int, ...], a: int) -> tuple[int, ...]:
    """The matching left by the cap-cup smoothing at points a, a+1 of m.

    When a and a+1 are already paired the smoothing closes a loop and m
    is returned unchanged; otherwise their partners are joined and a,
    a+1 become a pair.
    """
    b = a + 1
    if m[a] == b:
        return m
    j, kk = m[a], m[b]
    m2 = list(m)
    m2[j], m2[kk] = kk, j
    m2[a], m2[b] = b, a
    return tuple(m2)


def _sweep(k: ClosedBraid, one, weight_pos, weight_neg, d):
    """The state vector of k's braid word, with ring-generic coefficients,
    and the involution that closes it.

    weight_pos / weight_neg are (cupcap, vertical) weight pairs for the two
    generator signs; coefficients only need ``*`` and ``+``.

    States are interned: ``matchings[s]`` is the matching with id s and
    ``index`` maps it back, and ``moves[a][s]`` memoizes the id of the
    cap-cup smoothing of state s at point a, so each distinct move builds
    its tuple once however often the sweep takes it.  A move closes a loop
    exactly when it maps a state to itself.  Ids stand one-to-one for
    matchings, so every state vector is filled in the same insertion
    order, with the same multiplications and the same first-assignment-
    then-``+`` accumulation, as a sweep keyed by the matchings themselves:
    floating-point coefficients come out bit-identical, signed zeros
    included.
    """
    start, offset, close = _module(k)
    matchings = [start]
    index = {start: 0}
    moves: dict[int, dict[int, int]] = {}
    states = {0: one}
    for g in k.braid.generators:
        a = offset + g.index - 1
        w_cup, w_vert = weight_pos if g.exponent > 0 else weight_neg
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
            cup_coeff = coeff * w_cup * d if t == s else coeff * w_cup
            prev = nxt.get(t)
            nxt[t] = cup_coeff if prev is None else prev + cup_coeff
        states = nxt
    return {matchings[s]: coeff for s, coeff in states.items()}, close


def bracket_poly(k: ClosedBraid) -> LaurentPoly:
    """The Kauffman bracket of a braid closure, exact in the variable A.

    Normalized so a single circle evaluates to 1.  Raises
    CrossingCapExceeded above the configured crossing cap (default 24,
    overridable by the STOCKBRAID_CROSSING_CAP environment variable).
    """
    _check_cap(k)
    states, close = _sweep(
        k,
        one=LaurentPoly.one(),
        weight_pos=(_A, _A_INV),
        weight_neg=(_A_INV, _A),
        d=_D_POLY,
    )
    by_cycles: dict[int, LaurentPoly] = {}
    for m, coeff in states.items():
        cycles = _cycles(m, close)
        prev = by_cycles.get(cycles)
        by_cycles[cycles] = coeff if prev is None else prev + coeff
    total = LaurentPoly.zero()
    for cycles, coeff in by_cycles.items():
        total = total + coeff * _D_POLY ** (cycles - 1)
    return total


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
        weight_pos=(a, a_inv),
        weight_neg=(a_inv, a),
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
    f = neg_a_power(-3 * writhe(k.braid)) * bracket
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
    form: str = "pinned",
    tol: float = 1e-9,
) -> bool:
    """Check the skein identity on the closure triple built around position i.

    K+ inserts sigma_i between the halves, K- inserts sigma_i^{-1}, and
    K0 inserts nothing; all three take the same closure.  form "pinned"
    is the relation satisfied by this package's conventions,

        t^(1/2) V(K+) - t^(-1/2) V(K-) = (t^(1/2) - t^(-1/2)) V(K0);

    form "flipped" negates the sign of the V(K-) term and is expected to
    fail on generic triples.
    """
    if form not in ("pinned", "flipped"):
        raise ValueError(f"unknown skein form {form!r}")
    n = w_left.n_strands
    body = compose(w_left, w_right)
    plus = BraidWord(n, w_left.generators + (Generator(i, 1),) + w_right.generators)
    minus = BraidWord(n, w_left.generators + (Generator(i, -1),) + w_right.generators)
    close = ClosedBraid
    v_plus = jones_eval(close(plus, closure), t)
    v_minus = jones_eval(close(minus, closure), t)
    v_zero = jones_eval(close(body, closure), t)
    root = _fourth_root(t) ** 2
    sign = -1 if form == "pinned" else 1
    residue = root * v_plus + sign / root * v_minus - (root - 1 / root) * v_zero
    return abs(residue) < tol
