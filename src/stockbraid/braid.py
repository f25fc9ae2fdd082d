"""Braid words on n strands and their group operations.

A word is a sequence of Artin generators sigma_i^{+/-1}, stored as
signed ints: e * i stands for sigma_i^e.  Convention pinned for the
whole package: generators apply bottom to top, left to right in list
order, and the positive generator sigma_i is the overcrossing in which
the strand entering at position i+1 passes in front of the strand
entering at position i.

Words are immutable values and safe to share between threads.
"""

from __future__ import annotations

from operator import attrgetter, neg
from collections.abc import Callable, Iterable


class WordFormatError(ValueError):
    """Raised for malformed braid word text or invalid generator data."""


class _Memo(dict):
    """memo[key] is compute(key), computed on the first lookup of key."""

    def __init__(self, compute: Callable) -> None:
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


# _quote(s) is json.dumps(s) for a str s: json's ASCII escaper, taken from
# its C module so that writing JSON text does not load the json package.
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in __slots__, checks its arguments in its
    own __init__ and then passes the fields, in slot order, to
    _Value.__init__, which stores each through its slot's descriptor.
    Instances compare equal and hash alike when they are of the same
    class with equal fields, print as ClassName(field=value, ...), refuse
    assignment and deletion of fields with AttributeError, and pickle and
    copy by calling __init__ again.  _unchecked builds a value from fields
    its caller already knows to be valid, without the subclass's checks.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # attrgetter of two or more names returns the field tuple; every subclass has two or more.
        cls._key = attrgetter(*cls.__slots__)
        cls.__match_args__ = cls.__slots__
        cls._stores = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *fields) -> None:
        # A length check and a plain zip: zip(..., strict=True) takes the slow call path.
        if len(fields) != len(self._stores):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self._stores)} fields, got {len(fields)}")
        for store, value in zip(self._stores, fields):
            store(self, value)

    @classmethod
    def _unchecked(cls, *fields):
        """The value of fields, in slot order, already known to be valid."""
        value = object.__new__(cls)
        _Value.__init__(value, *fields)
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._key(self)


def _is_int(value) -> bool:
    # A bool is an int too, but True would print as text parse_word refuses.
    return isinstance(value, int) and not isinstance(value, bool)


class Generator(_Value):
    """A single Artin generator sigma_index^exponent.

    index is 1-based; exponent is +1 (overcrossing) or -1 (undercrossing).
    """

    __slots__ = ("index", "exponent")

    def __init__(self, index: int, exponent: int) -> None:
        if not _is_int(index):
            raise WordFormatError(f"generator index must be an int, got {index!r}")
        if index < 1:
            raise WordFormatError(f"generator index must be >= 1, got {index}")
        if not _is_int(exponent) or exponent not in (1, -1):
            raise WordFormatError(f"generator exponent must be +1 or -1, got {exponent}")
        _Value.__init__(self, index, exponent)


def _check_strand_count(n_strands: int) -> None:
    if not _is_int(n_strands):
        raise WordFormatError(f"strand count must be an int, got {n_strands!r}")
    if n_strands < 1:
        raise WordFormatError(f"strand count must be >= 1, got {n_strands}")


class BraidWord(_Value):
    """An element of B_n, stored as the signed values format_word prints."""

    __slots__ = ("n_strands", "values")
    # The one Generator of each value, for generators.
    _GENERATORS = _Memo(lambda value: Generator(abs(value), 1 if value > 0 else -1))

    def __init__(self, n_strands: int, values: Iterable[int] = ()) -> None:
        """The word of signed generator values, read once from any
        iterable: e * i stands for sigma_i^e, the integer format_word
        prints.

        The strand count is checked first, then each distinct value once,
        on its first occurrence, so the first faulty value in word order
        is the one reported: a value that is not an int (a bool is not),
        0, or one of absolute value n_strands or more raises
        WordFormatError.  Values are told apart as dict keys are, so a 1.0
        or a True after a 1 reads as that 1, and each is stored as the
        plain int its check read.
        """
        _check_strand_count(n_strands)

        def checked(value) -> int:
            if not _is_int(value):
                raise WordFormatError(f"bad generator token {value!r}")
            if value == 0:
                raise WordFormatError("generator 0 is not defined")
            if abs(value) >= n_strands:
                raise WordFormatError(f"generator {value} out of range on {n_strands} strands")
            return int(value)

        _Value.__init__(self, n_strands, tuple(map(_Memo(checked).__getitem__, values)))

    # The constructor under its older name.
    from_ints = classmethod(lambda cls, n_strands, values: cls(n_strands, values))

    @property
    def generators(self) -> tuple[Generator, ...]:
        """The word as Generators: the same Generator for a value on every read."""
        return tuple(map(self._GENERATORS.__getitem__, self.values))

    def __len__(self) -> int:
        return len(self.values)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenate two words on the same strand count, a first."""
    if a.n_strands != b.n_strands:
        raise WordFormatError(
            f"cannot compose words on {a.n_strands} and {b.n_strands} strands"
        )
    return BraidWord._unchecked(a.n_strands, a.values + b.values)


def inverse(w: BraidWord) -> BraidWord:
    """The group inverse: generators reversed with exponents negated."""
    return BraidWord._unchecked(w.n_strands, tuple(map(neg, reversed(w.values))))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent sigma_i sigma_i^{-1} pairs until none remain.

    Only equal-index inverse pairs are cancelled; braid relations are
    never applied.  The result has the same permutation and writhe.
    """
    stack: list[int] = []
    for v in w.values:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return BraidWord._unchecked(w.n_strands, tuple(stack))


def permutation(w: BraidWord) -> tuple[int, ...]:
    """The map from bottom strand positions to top positions, 1-based.

    Entry p-1 holds the top position of the strand entering at bottom
    position p.  Composition order: permutation(compose(a, b)) applies
    a's permutation first, then b's.
    """
    strand_at = list(range(w.n_strands))  # strand_at[pos] = strand id (0-based)
    for v in w.values:
        i = abs(v) - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    top = [0] * w.n_strands
    for pos, strand in enumerate(strand_at):
        top[strand] = pos + 1
    return tuple(top)


def writhe(w: BraidWord) -> int:
    """Positive crossings minus negative crossings: the sum of exponents."""
    return len(w.values) - 2 * len([v for v in w.values if v < 0])


def format_word(w: BraidWord) -> str:
    """Render as ``n: g1 g2 ...`` with signed 1-based indices."""
    body = " ".join(map(_Memo(str).__getitem__, w.values))
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
    # Each distinct token is read once.  One that is not a number stays
    # text, which BraidWord reports as a bad token in its place in the word.
    tokens = tail.split()
    values: dict[str, int | str] = {}
    for token in set(tokens):
        try:
            values[token] = _ascii_int(token)
        except ValueError:
            values[token] = token
    return BraidWord(n, map(values.__getitem__, tokens))
