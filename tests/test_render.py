import hashlib
import random

from stockbraid import BraidWord, free_reduce, parse_word, render_ascii, render_svg


def test_single_positive_crossing_ascii():
    text = render_ascii(parse_word("2: 1"))
    lines = text.splitlines()
    assert lines[0] == "strands: 2"
    assert lines[1] == "|   |"
    # over-strand continuous through the middle, drawn as '/'
    assert lines[3].strip() == "/"
    assert "\\" in lines[2] and "/" in lines[2]


def test_single_negative_crossing_ascii():
    text = render_ascii(parse_word("2: -1"))
    assert text.splitlines()[3].strip() == "\\"


def test_identity_word_draws_parallel_lines():
    text = render_ascii(parse_word("4:"))
    lines = text.splitlines()
    assert lines == ["strands: 4", "|   |   |   |"]


def test_render_is_word_level_not_invariant_level():
    w = parse_word("2: 1 -1")
    reduced = free_reduce(w)
    doc_w, doc_r = render_ascii(w), render_ascii(reduced)
    assert doc_w != doc_r
    assert doc_w.splitlines()[0] == doc_r.splitlines()[0]  # same strand header


def test_ascii_deterministic():
    w = parse_word("4: 1 -2 3 -1")
    assert render_ascii(w) == render_ascii(w)


def test_svg_structure():
    doc = render_svg(parse_word("3: 1 -2"))
    assert doc.startswith("<svg")
    assert 'data-strands="3"' in doc
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<line") > 4
    assert render_svg(parse_word("3: 1 -2")) == doc


def test_svg_identity_word():
    doc = render_svg(BraidWord(4))
    assert doc.count("<line") == 4


def _seeded_words(count=100, seed=20240):
    """count words on 1-10 strands with 0-30 crossings each."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        c = rng.randint(0, 30) if n > 1 else 0
        yield BraidWord(n, [rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(c)])


def test_drawings_of_seeded_words_are_pinned():
    ascii_digest, svg_digest = hashlib.sha256(), hashlib.sha256()
    for word in _seeded_words():
        ascii_digest.update(render_ascii(word).encode())
        svg_digest.update(render_svg(word).encode())
    assert ascii_digest.hexdigest() == "3f91a1f9201d9f14df2b3485ab193f0c157729021559074f1fca0aad9a7a783d"
    assert svg_digest.hexdigest() == "4e4c4f970000f0fe9b2f0aeb6929add2de0af8a687222950a40caac39dee3f0d"
