"""Braid words on n strands and their group operations.

A word is a sequence of Artin generators sigma_i^{+/-1}, stored as
(index, exponent) pairs.  Convention pinned for the whole package:
generators apply bottom to top, left to right in list order, and the
positive generator sigma_i is the overcrossing in which the strand
entering at position i+1 passes in front of the strand entering at
position i.

Words are immutable values and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass


class WordFormatError(ValueError):
    """Raised for malformed braid word text or invalid generator data."""


@dataclass(frozen=True)
class Generator:
    """A single Artin generator sigma_index^exponent.

    index is 1-based; exponent is +1 (overcrossing) or -1 (undercrossing).
    """

    index: int
    exponent: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise WordFormatError(f"generator index must be >= 1, got {self.index}")
        if self.exponent not in (1, -1):
            raise WordFormatError(f"generator exponent must be +1 or -1, got {self.exponent}")

    def inverse(self) -> "Generator":
        return Generator(self.index, -self.exponent)

    @classmethod
    def from_int(cls, value: int) -> "Generator":
        if value == 0:
            raise WordFormatError("generator 0 is not defined")
        return cls(abs(value), 1 if value > 0 else -1)

    def to_int(self) -> int:
        return self.index * self.exponent


@dataclass(frozen=True)
class BraidWord:
    """An element of the braid group B_n given as a word in the generators."""

    n_strands: int
    generators: tuple[Generator, ...] = ()

    def __post_init__(self) -> None:
        if self.n_strands < 1:
            raise WordFormatError(f"strand count must be >= 1, got {self.n_strands}")
        for g in self.generators:
            if g.index > self.n_strands - 1:
                raise WordFormatError(
                    f"generator index {g.index} out of range on {self.n_strands} strands"
                )

    @classmethod
    def from_ints(cls, n_strands: int, word: list[int] | tuple[int, ...]) -> "BraidWord":
        return cls(n_strands, tuple(Generator.from_int(v) for v in word))

    def to_ints(self) -> list[int]:
        return [g.to_int() for g in self.generators]

    def __len__(self) -> int:
        return len(self.generators)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenate two words on the same strand count, a first."""
    if a.n_strands != b.n_strands:
        raise WordFormatError(
            f"cannot compose words on {a.n_strands} and {b.n_strands} strands"
        )
    return BraidWord(a.n_strands, a.generators + b.generators)


def inverse(w: BraidWord) -> BraidWord:
    """The group inverse: generators reversed with exponents negated."""
    # Keyed by generator value (index * exponent), so each distinct
    # generator's inverse is built once and shared.
    inverses: dict[int, Generator] = {}
    gens = []
    for g in reversed(w.generators):
        value = g.index * g.exponent
        inv = inverses.get(value)
        if inv is None:
            inv = inverses[value] = g.inverse()
        gens.append(inv)
    return BraidWord(w.n_strands, tuple(gens))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent sigma_i sigma_i^{-1} pairs until none remain.

    Only equal-index inverse pairs are cancelled; braid relations are
    never applied.  The result has the same permutation and writhe.
    """
    stack: list[Generator] = []
    for g in w.generators:
        if stack and stack[-1].index == g.index and stack[-1].exponent == -g.exponent:
            stack.pop()
        else:
            stack.append(g)
    return BraidWord(w.n_strands, tuple(stack))


def permutation(w: BraidWord) -> tuple[int, ...]:
    """The map from bottom strand positions to top positions, 1-based.

    Entry p-1 holds the top position of the strand entering at bottom
    position p.  Composition order: permutation(compose(a, b)) applies
    a's permutation first, then b's.
    """
    strand_at = list(range(w.n_strands))  # strand_at[pos] = strand id (0-based)
    for g in w.generators:
        i = g.index - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    top = [0] * w.n_strands
    for pos, strand in enumerate(strand_at):
        top[strand] = pos + 1
    return tuple(top)


def writhe(w: BraidWord) -> int:
    """Positive crossings minus negative crossings: the sum of exponents."""
    return sum(g.exponent for g in w.generators)


def format_word(w: BraidWord) -> str:
    """Render as ``n: g1 g2 ...`` with signed 1-based indices."""
    body = " ".join(str(g.to_int()) for g in w.generators)
    return f"{w.n_strands}:" + (f" {body}" if body else "")


def _ascii_int(text: str) -> int:
    # int() also reads non-ASCII digits and underscores; word text takes neither.
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


def parse_word(text: str) -> BraidWord:
    """Parse the ``n: g1 g2 ...`` form produced by format_word."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise WordFormatError(f"missing ':' strand-count prefix in {text!r}")
    try:
        n = _ascii_int(head.strip())
    except ValueError:
        raise WordFormatError(f"bad strand count {head.strip()!r}") from None
    # Each distinct token is read once, and each distinct generator checked
    # and built once, then shared.
    by_token: dict[str, Generator] = {}
    by_value: dict[int, Generator] = {}
    gens = []
    for token in tail.split():
        g = by_token.get(token)
        if g is None:
            try:
                value = _ascii_int(token)
            except ValueError:
                raise WordFormatError(f"bad generator token {token!r}") from None
            g = by_value.get(value)
            if g is None:
                if value == 0:
                    raise WordFormatError("generator 0 is not defined")
                if abs(value) >= n:
                    raise WordFormatError(f"generator {value} out of range on {n} strands")
                g = by_value[value] = Generator.from_int(value)
            by_token[token] = g
        gens.append(g)
    return BraidWord(n, tuple(gens))
