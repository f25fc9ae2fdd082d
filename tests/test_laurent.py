from stockbraid.laurent import LaurentPoly, poly_from_json, poly_to_json


def test_zero_coefficients_never_stored():
    p = LaurentPoly({2: 1, -2: 0})
    assert p.terms == {2: 1}
    assert LaurentPoly([(1, 3), (1, -3)]).terms == {}


def test_equality_is_term_set_equality():
    assert LaurentPoly({0: 1}) == LaurentPoly.one()
    assert LaurentPoly({0: 2}) == 2
    assert LaurentPoly() == 0
    assert LaurentPoly({1: 1}) != LaurentPoly({-1: 1})


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


def test_shifted_and_mirrored():
    p = LaurentPoly({2: -1, -2: -1})
    assert p.shifted(-3).terms == {-1: -1, -5: -1}
    assert p.shifted(1, -1).terms == {3: 1, -1: 1}
    assert p.mirrored() == p
    assert LaurentPoly({3: 1}).mirrored().terms == {-3: 1}
    # shifted is multiplication by the monomial it names
    assert p.shifted(-3, -1) == p * LaurentPoly({-3: -1})
    assert LaurentPoly.one().shifted(-6) == LaurentPoly({-6: 1})


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
