import copy
import pickle
import random

import pytest

from stockbraid import (
    BraidWord,
    Generator,
    WordFormatError,
    compose,
    format_word,
    free_reduce,
    inverse,
    parse_word,
    permutation,
    writhe,
)


def test_generator_validation():
    with pytest.raises(WordFormatError):
        Generator(0, 1)
    with pytest.raises(WordFormatError):
        Generator(1, 2)
    with pytest.raises(WordFormatError):
        BraidWord(2, (Generator(2, 1),))  # index must be <= n-1
    with pytest.raises(WordFormatError, match="^generator 3 out of range on 3 strands$"):
        BraidWord.from_ints(3, [1, 3])
    # A float would print as text parse_word refuses, so it is no generator.
    with pytest.raises(WordFormatError, match="^bad generator token 1.0$"):
        BraidWord.from_ints(3, [1.0, -2])
    with pytest.raises(WordFormatError, match="^bad generator token '1'$"):
        BraidWord.from_ints(3, ["1"])
    # The strand count is checked before any generator.
    with pytest.raises(WordFormatError, match="^strand count must be >= 1, got 0$"):
        parse_word("0: 1")
    with pytest.raises(WordFormatError, match="^strand count must be an int, got 3.5$"):
        BraidWord(3.5)
    with pytest.raises(WordFormatError, match="^strand count must be an int, got 3.5$"):
        BraidWord.from_ints(3.5, [1])
    with pytest.raises(WordFormatError, match="^generator 1 is not a Generator$"):
        BraidWord(3, [1])
    # Generator fields and strand counts are ints, and a bool is not one:
    # each of these would print as text parse_word refuses.
    with pytest.raises(WordFormatError, match=r"^generator index must be an int, got 1\.5$"):
        Generator(1.5, 1)
    with pytest.raises(WordFormatError, match="^generator index must be an int, got True$"):
        Generator(True, 1)
    with pytest.raises(WordFormatError, match=r"^generator exponent must be \+1 or -1, got 1\.0$"):
        Generator(1, 1.0)
    with pytest.raises(WordFormatError, match=r"^generator exponent must be \+1 or -1, got True$"):
        Generator(1, True)
    with pytest.raises(WordFormatError, match=r"^generator exponent must be \+1 or -1, got 1\.0$"):
        BraidWord(3, [Generator(1, 1.0)])
    with pytest.raises(WordFormatError, match="^strand count must be an int, got True$"):
        BraidWord(True)
    with pytest.raises(WordFormatError, match="^strand count must be an int, got False$"):
        BraidWord.from_ints(False, [])
    with pytest.raises(WordFormatError, match="^bad generator token True$"):
        BraidWord.from_ints(3, [True])


def test_compose_identity_element():
    w = parse_word("3: 1 -2")
    assert compose(BraidWord(3), w) == w
    assert compose(w, BraidWord(3)) == w


def test_compose_is_concatenation():
    left = parse_word("3: 1 2")
    right = parse_word("3: 2 1")
    assert format_word(compose(left, right)) == "3: 1 2 2 1"
    pair = compose(parse_word("2: 1"), parse_word("2: -1"))
    assert len(pair) == 2  # reduction is a separate operation


def test_compose_strand_mismatch():
    with pytest.raises(WordFormatError):
        compose(parse_word("2: 1"), parse_word("3: 1"))


def test_inverse_examples():
    assert inverse(BraidWord(4)) == BraidWord(4)
    assert format_word(inverse(parse_word("3: 1 -2"))) == "3: 2 -1"


def test_inverse_cancels_under_free_reduction(rand_word):
    rng = random.Random(2024)
    for _ in range(100):
        w = rand_word(rng)
        assert free_reduce(compose(w, inverse(w))).generators == ()


def test_free_reduce_examples():
    assert free_reduce(parse_word("2: 1 -1")).generators == ()
    assert format_word(free_reduce(parse_word("3: 1 2 -2 1"))) == "3: 1 1"


def test_free_reduce_idempotent(rand_word):
    rng = random.Random(7)
    for _ in range(100):
        w = rand_word(rng)
        once = free_reduce(w)
        assert free_reduce(once) == once


def test_free_reduce_preserves_permutation_and_writhe(rand_word):
    rng = random.Random(8)
    for _ in range(100):
        w = rand_word(rng)
        r = free_reduce(w)
        assert permutation(r) == permutation(w)
        assert writhe(r) == writhe(w)


def test_permutation_examples():
    assert permutation(BraidWord(4)) == (1, 2, 3, 4)
    assert permutation(parse_word("2: 1")) == (2, 1)
    # hand composition: sigma1 sends 1<->2, then sigma2 sends 2<->3;
    # bottom strand 1 ends at position 3, strand 2 at 1, strand 3 at 2
    assert permutation(parse_word("3: 1 2")) == (3, 1, 2)
    # exponent-insensitive
    assert permutation(parse_word("3: -1 -2")) == (3, 1, 2)


def test_permutation_composes_in_word_order(rand_word):
    rng = random.Random(9)
    for _ in range(50):
        n = rng.choice([2, 3, 4, 5])
        a, b = rand_word(rng, n=n), rand_word(rng, n=n)
        pa, pb = permutation(a), permutation(b)
        composed = tuple(pb[pa[i] - 1] for i in range(n))
        assert permutation(compose(a, b)) == composed


def test_writhe_examples():
    assert writhe(parse_word("3: 1 2 -1 2")) == 2  # 3 positive, 1 negative
    assert writhe(BraidWord(5)) == 0
    assert writhe(parse_word("3: 1 -2 1")) == 1


def test_writhe_additive(rand_word):
    rng = random.Random(10)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        a, b = rand_word(rng, n=n), rand_word(rng, n=n)
        assert writhe(compose(a, b)) == writhe(a) + writhe(b)
        assert writhe(inverse(a)) == -writhe(a)


def test_equal_generators_are_shared_within_a_word():
    w = parse_word("4: 1 -2 1 +1 -2 3")
    assert w.to_ints() == [1, -2, 1, 1, -2, 3]
    g = w.generators
    assert g[0] is g[2] is g[3] and g[1] is g[4]
    inv = inverse(w)
    assert inv.to_ints() == [-3, 2, -1, -1, 2, -1]
    assert inv.generators[1] is inv.generators[4] and inv.generators[2] is inv.generators[5]
    built = BraidWord.from_ints(4, [1, -2, 1, 1, -2, 3])
    assert built == w
    g = built.generators
    assert g[0] is g[2] is g[3] and g[1] is g[4]
    with pytest.raises(WordFormatError, match="generator 4 out of range"):
        parse_word("4: 1 1 4 1")


def test_from_ints_words_behave_like_checked_words():
    # from_ints stores the generators it has checked without a second scan;
    # the word it builds must be the value BraidWord(n, gens) builds from
    # the same generators.
    for n, ints in ((1, []), (2, []), (3, [1, -2, 1, 1]), (5, [4, -4, -1, 3, 2])):
        built = BraidWord.from_ints(n, ints)
        checked = BraidWord(n, built.generators)
        assert type(built) is BraidWord
        assert built == BraidWord(n, [Generator.from_int(v) for v in ints])
        assert built == checked and not built != checked
        assert hash(built) == hash(checked)
        assert repr(built) == repr(checked)
        assert pickle.dumps(built) == pickle.dumps(checked)
        for twin in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
            assert twin == checked and repr(twin) == repr(checked)
        assert type(built.generators) is tuple
        with pytest.raises(AttributeError):
            built.n_strands = 9


def test_checked_words_still_refuse_bad_generators():
    with pytest.raises(WordFormatError, match="^generator index 3 out of range on 3 strands$"):
        BraidWord(3, (Generator(1, 1), Generator(3, -1)))
    with pytest.raises(WordFormatError, match=r"^generator \(1, 1\) is not a Generator$"):
        BraidWord(3, [(1, 1)])
    with pytest.raises(WordFormatError, match="^generator None is not a Generator$"):
        BraidWord(3, [Generator(1, 1), None])


def test_parse_and_format():
    w = parse_word("4: 1 -2 3")
    assert w.n_strands == 4
    assert w.to_ints() == [1, -2, 3]
    assert format_word(w) == "4: 1 -2 3"
    assert parse_word("2:") == BraidWord(2)
    assert format_word(BraidWord(2)) == "2:"


@pytest.mark.parametrize(
    "bad", ["3: 5", "3: 0", "3: -3", "3 1", "x: 1", "3: one", "2: ١", "١٢: 1", "12: 1_1"]
)
def test_parse_errors(bad):
    with pytest.raises(WordFormatError):
        parse_word(bad)


def test_round_trip_random_words(rand_word):
    rng = random.Random(11)
    for _ in range(100):
        w = rand_word(rng)
        assert parse_word(format_word(w)) == w
