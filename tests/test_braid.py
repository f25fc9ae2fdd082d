import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    with pytest.raises(WordFormatError, match="^generator 2 out of range on 2 strands$"):
        BraidWord(2, (2,))  # |value| must be <= n-1
    with pytest.raises(WordFormatError, match="^generator 3 out of range on 3 strands$"):
        BraidWord(3, [1, 3])
    with pytest.raises(WordFormatError, match="^generator -3 out of range on 3 strands$"):
        BraidWord(3, [1, -3])
    with pytest.raises(WordFormatError, match="^generator 0 is not defined$"):
        BraidWord(3, [1, 0])
    # A float would print as text parse_word refuses, so it is no generator.
    with pytest.raises(WordFormatError, match="^bad generator token 1.0$"):
        BraidWord(3, [1.0, -2])
    with pytest.raises(WordFormatError, match="^bad generator token '1'$"):
        BraidWord(3, ["1"])
    # The strand count is checked before any generator.
    with pytest.raises(WordFormatError, match="^strand count must be >= 1, got 0$"):
        parse_word("0: 1")
    with pytest.raises(WordFormatError, match="^strand count must be >= 1, got 0$"):
        BraidWord(0, [5])
    with pytest.raises(WordFormatError, match="^strand count must be an int, got 3.5$"):
        BraidWord(3.5)
    with pytest.raises(WordFormatError, match="^strand count must be an int, got 3.5$"):
        BraidWord(3.5, [1.0])
    # A word takes values, not Generators.
    with pytest.raises(WordFormatError, match=r"^bad generator token Generator\(index=1, exponent=1\)$"):
        BraidWord(3, [Generator(1, 1)])
    # Generator fields, values and strand counts are ints, and a bool is
    # not one: each of these would print as text parse_word refuses.
    with pytest.raises(WordFormatError, match=r"^generator index must be an int, got 1\.5$"):
        Generator(1.5, 1)
    with pytest.raises(WordFormatError, match="^generator index must be an int, got True$"):
        Generator(True, 1)
    with pytest.raises(WordFormatError, match=r"^generator exponent must be \+1 or -1, got 1\.0$"):
        Generator(1, 1.0)
    with pytest.raises(WordFormatError, match=r"^generator exponent must be \+1 or -1, got True$"):
        Generator(1, True)
    with pytest.raises(WordFormatError, match="^strand count must be an int, got True$"):
        BraidWord(True)
    with pytest.raises(WordFormatError, match="^strand count must be an int, got False$"):
        BraidWord(False, [])
    with pytest.raises(WordFormatError, match="^bad generator token True$"):
        BraidWord(3, [True])
    with pytest.raises(WordFormatError, match="^bad generator token False$"):
        BraidWord(3, [-1, False])


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
    assert w.values == (1, -2, 1, 1, -2, 3)
    g = w.generators
    assert g[0] is g[2] is g[3] and g[1] is g[4]
    inv = inverse(w)
    assert inv.values == (-3, 2, -1, -1, 2, -1)
    assert inv.generators[1] is inv.generators[4] and inv.generators[2] is inv.generators[5]
    built = BraidWord(4, [1, -2, 1, 1, -2, 3])
    assert built == w
    g = built.generators
    assert g[0] is g[2] is g[3] and g[1] is g[4]
    with pytest.raises(WordFormatError, match="generator 4 out of range"):
        parse_word("4: 1 1 4 1")


def test_from_ints_words_behave_like_checked_words():
    # from_ints is the constructor under its older name: the word it builds
    # is the value BraidWord(n, values) builds, and pickles and copies as it.
    for n, ints in ((1, []), (2, []), (3, [1, -2, 1, 1]), (5, [4, -4, -1, 3, 2])):
        built = BraidWord.from_ints(n, ints)
        checked = BraidWord(n, ints)
        assert type(built) is BraidWord
        assert built == checked and not built != checked
        assert hash(built) == hash(checked)
        assert repr(built) == repr(checked) == f"BraidWord(n_strands={n}, values={tuple(ints)!r})"
        assert pickle.dumps(built) == pickle.dumps(checked)
        for twin in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
            assert twin == checked and repr(twin) == repr(checked)
        assert type(built.generators) is tuple
        with pytest.raises(AttributeError):
            built.n_strands = 9
    with pytest.raises(WordFormatError, match="^generator 3 out of range on 3 strands$"):
        BraidWord.from_ints(3, [1, 3])


def test_checked_words_still_refuse_bad_generators():
    # The first faulty value in word order is the one reported.
    with pytest.raises(WordFormatError, match="^generator -3 out of range on 3 strands$"):
        BraidWord(3, (1, -3, 0))
    with pytest.raises(WordFormatError, match=r"^bad generator token \(1, 1\)$"):
        BraidWord(3, [(1, 1)])
    with pytest.raises(WordFormatError, match="^bad generator token None$"):
        BraidWord(3, [1, None])


def test_parse_and_format():
    w = parse_word("4: 1 -2 3")
    assert w.n_strands == 4
    assert w.values == (1, -2, 3)
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


def test_words_store_each_value_as_the_int_its_check_read():
    # Values are told apart as dict keys are, so a 1.0 or a True after a 1
    # reads as that 1 and is stored as it: the word holds ints only.
    mixed = BraidWord(3, [1, 1.0, True, -2])
    plain = BraidWord(3, [1, 1, 1, -2])
    assert format_word(mixed) == "3: 1 1 1 -2"
    assert [type(v) for v in mixed.values] == [int] * 4
    assert mixed == plain and hash(mixed) == hash(plain)


def _reference_permutation(n, values):
    strand_at = list(range(n))
    for v in values:
        i = abs(v) - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    top = [0] * n
    for pos, strand in enumerate(strand_at):
        top[strand] = pos + 1
    return tuple(top)


def _reference_free_reduce(values):
    stack = []
    for v in values:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return stack


@st.composite
def _word_values(draw):
    """A strand count of 1-12 and two lists of 0-60 signed values on it."""
    n = draw(st.integers(1, 12))
    if n == 1:
        return n, [], []
    value = st.builds(int.__mul__, st.integers(1, n - 1), st.sampled_from([1, -1]))
    return n, draw(st.lists(value, max_size=60)), draw(st.lists(value, max_size=60))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_word_values())
@example((1, [], []))
@example((2, [1, -1, 1], [-1]))
@example((12, [11, -11, -1, 1, 5], [-5, 11]))
def test_words_of_values_match_reference_operations(drawn):
    n, ints, more = drawn
    w = BraidWord(n, ints)
    assert w == BraidWord(n, iter(ints))
    for twin in (
        pickle.loads(pickle.dumps(w, protocol=0)),
        pickle.loads(pickle.dumps(w, protocol=5)),
        copy.copy(w),
        copy.deepcopy(w),
    ):
        assert type(twin) is BraidWord
        assert twin == w and hash(twin) == hash(w)
    assert w.generators == tuple(Generator(abs(v), 1 if v > 0 else -1) for v in ints)
    assert all(a is b for a, b in zip(w.generators, w.generators))
    assert list(w.values) == ints
    assert len(w) == len(ints)
    assert format_word(w) == f"{n}:" + "".join(f" {v}" for v in ints)
    assert parse_word(format_word(w)) == w
    assert writhe(w) == sum(1 if v > 0 else -1 for v in ints)
    assert permutation(w) == _reference_permutation(n, ints)
    assert inverse(w) == BraidWord(n, [-v for v in reversed(ints)])
    assert compose(w, BraidWord(n, more)) == BraidWord(n, ints + more)
    assert free_reduce(w) == BraidWord(n, _reference_free_reduce(ints))
