"""Sparse Laurent polynomials with exact integer coefficients.

A polynomial is a map from integer exponents to nonzero integer
coefficients.  The variable is formal: the same type carries bracket
polynomials (variable ``A``) and Jones polynomials (variable ``t^{1/4}``,
where a stored exponent q stands for t^{q/4}).
"""

from __future__ import annotations

from typing import Iterable, Mapping


class LaurentPoly:
    """An immutable Laurent polynomial over the integers.

    Zero coefficients are never stored; two polynomials are equal iff
    their term sets are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            c = acc.get(exp, 0) + coeff
            if c:
                acc[exp] = c
            else:
                acc.pop(exp, None)
        self._terms = acc

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @property
    def terms(self) -> dict[int, int]:
        """The nonzero coefficients by exponent, in increasing exponent order."""
        return dict(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # A constant polynomial equals its int, so it must hash as that int.
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly((*self._terms.items(), *other._terms.items()))

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return self.shifted(0, other)
        return LaurentPoly(
            (e1 + e2, c1 * c2)
            for e1, c1 in self._terms.items()
            for e2, c2 in other._terms.items()
        )

    __rmul__ = __mul__

    def shifted(self, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        """Multiply by the monomial coefficient * x^exponent (exponent may be negative)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = (
            {e + exponent: c * coefficient for e, c in self._terms.items()} if coefficient else {}
        )
        return out

    def mirrored(self) -> "LaurentPoly":
        """Substitute x -> x^{-1} (negate every exponent)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {-e: c for e, c in self._terms.items()}
        return out

    def evaluate(self, x: complex) -> complex:
        """Value of the polynomial at a nonzero complex point."""
        return sum((c * x ** e for e, c in self._terms.items()), complex(0))

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPoly(0)"
        parts = []
        for e, c in sorted(self._terms.items()):
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*x^{e}" if c != 1 else f"x^{e}")
        return "LaurentPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"


def poly_to_json(poly: LaurentPoly, variable: str, convention: str | None = None) -> dict:
    """Serialize to the interchange form: sorted [exponent, coefficient] pairs plus tags."""
    doc: dict = {"variable": variable}
    if convention is not None:
        doc["convention"] = convention
    doc["terms"] = [[e, c] for e, c in sorted(poly._terms.items())]
    return doc


def poly_from_json(doc: dict) -> LaurentPoly:
    return LaurentPoly((int(e), int(c)) for e, c in doc["terms"])
