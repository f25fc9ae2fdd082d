from hypothesis import given, settings
from hypothesis import strategies as st

from stockbraid.laurent import LaurentPoly, poly_from_json, poly_to_json

# Small exponents and coefficients, so that sums and products cancel often.
_TERMS = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=5)
_INTS = st.integers(-3, 3)


def _reference_sum(*term_dicts: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for terms in term_dicts:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def test_zero_coefficients_never_stored():
    p = LaurentPoly({2: 1, -2: 0})
    assert p.terms == {2: 1}
    assert LaurentPoly([(1, 3), (1, -3)]).terms == {}


def test_equality_is_term_set_equality():
    assert LaurentPoly({0: 1}) == LaurentPoly.one()
    assert LaurentPoly({0: 2}) == 2
    assert LaurentPoly() == 0
    assert LaurentPoly({1: 1}) != LaurentPoly({-1: 1})


def test_hash_agrees_with_equality():
    # A constant polynomial equals its int, so the two must hash alike.
    assert LaurentPoly({0: 2}) == 2 and hash(LaurentPoly({0: 2})) == hash(2)
    assert len({LaurentPoly({0: 2}), 2}) == 1
    assert len({LaurentPoly(), 0}) == 1 and hash(LaurentPoly()) == 0
    assert len({LaurentPoly({0: -1}), -1}) == 1
    assert len({LaurentPoly({1: 2}), LaurentPoly({1: 2}), LaurentPoly({-1: 2})}) == 2


def test_arithmetic():
    a = LaurentPoly({1: 1, -1: 1})  # A + A^-1
    square = a * a
    assert square.terms == {2: 1, 0: 2, -2: 1}
    assert (square + square * -1).terms == {}
    assert (a * 3).terms == {1: 3, -1: 3}
    assert 3 * a == a * 3
    assert a * LaurentPoly.one() == a
    assert a * LaurentPoly() == 0
    assert (a + LaurentPoly({1: -1})).terms == {-1: 1}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_TERMS, _TERMS, _INTS)
def test_ring_operations_match_a_plain_dict_reference(p_terms, q_terms, k):
    p, q = LaurentPoly(p_terms), LaurentPoly(q_terms)
    product: dict[int, int] = {}
    for e1, c1 in p_terms.items():
        for e2, c2 in q_terms.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    scaled = {e: c * k for e, c in p_terms.items()}
    expected = [
        (p + q, _reference_sum(p_terms, q_terms)),
        (p * q, _reference_sum(product)),
        (p * k, _reference_sum(scaled)),
        (k * p, _reference_sum(scaled)),
    ]
    for got, want in expected:
        assert got.terms == want  # want holds no zero coefficient, so neither may got


def test_shifted_and_mirrored():
    p = LaurentPoly({2: -1, -2: -1})
    assert p.shifted(-3).terms == {-1: -1, -5: -1}
    assert p.shifted(1, -1).terms == {3: 1, -1: 1}
    assert p.mirrored() == p
    assert LaurentPoly({3: 1}).mirrored().terms == {-3: 1}
    # shifted is multiplication by the monomial it names
    assert p.shifted(-3, -1) == p * LaurentPoly({-3: -1})
    assert LaurentPoly.one().shifted(-6) == LaurentPoly({-6: 1})
    # a zero coefficient gives the zero polynomial, with no zero term stored
    zero = LaurentPoly({1: 3}).shifted(2, 0)
    assert not zero and zero == LaurentPoly() and zero.terms == {}


def test_terms_are_in_exponent_order():
    p = LaurentPoly({4: -1, -4: -1, 0: 2})
    assert list(p.terms) == [-4, 0, 4]
    assert list((LaurentPoly({3: 1}) + LaurentPoly({-3: 1})).terms) == [-3, 3]


def test_evaluate():
    p = LaurentPoly({2: -1, -2: -1})
    assert abs(p.evaluate(1j) - 2) < 1e-12  # -(i^2) - (i^-2) = 2
    assert abs(LaurentPoly.one().evaluate(0.3 + 0.4j) - 1) < 1e-12


def test_json_round_trip():
    p = LaurentPoly({4: -1, -4: -1})
    doc = poly_to_json(p, variable="A")
    assert doc == {"variable": "A", "terms": [[-4, -1], [4, -1]]}
    assert poly_from_json(doc) == p
    tagged = poly_to_json(p, variable="t^{1/4}", convention="paper")
    assert tagged["convention"] == "paper"
