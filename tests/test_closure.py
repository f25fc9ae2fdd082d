import random

import pytest

from stockbraid import (
    BraidWord,
    ClosedBraid,
    ClosureError,
    component_count,
    diagram_stats,
    free_reduce,
    parse_word,
    permutation,
)


def test_plat_requires_even_strands():
    with pytest.raises(ClosureError, match="2k"):
        ClosedBraid(parse_word("3: 1"), "plat")


def test_a_closure_of_a_value_that_is_not_a_word_is_refused():
    with pytest.raises(ClosureError) as err:
        ClosedBraid("3: 1", "plat")
    assert str(err.value) == "a closure needs a BraidWord, got '3: 1'"


def test_an_unknown_closure_kind_is_refused():
    with pytest.raises(ClosureError) as err:
        ClosedBraid(BraidWord(2), "spiral")
    assert str(err.value) == "unknown closure kind 'spiral'"


def test_component_count_examples():
    assert component_count(ClosedBraid(BraidWord(4), "plat")) == 2  # caps meet caps
    assert component_count(ClosedBraid(BraidWord(5), "trace")) == 5
    assert component_count(ClosedBraid(parse_word("2: 1"), "trace")) == 1  # unknot
    # trefoil: (1 2)^3 = (1 2) has a single cycle under trace pairing
    assert component_count(ClosedBraid(parse_word("2: 1 1 1"), "trace")) == 1
    assert component_count(ClosedBraid(parse_word("2: 1"), "plat")) == 1  # kinked unknot


def test_diagram_stats_minima():
    assert diagram_stats(ClosedBraid(BraidWord(4), "plat")).minima == 2
    assert diagram_stats(ClosedBraid(BraidWord(2), "plat")).minima == 1
    assert diagram_stats(ClosedBraid(BraidWord(8), "plat")).minima == 4
    assert diagram_stats(ClosedBraid(BraidWord(3), "trace")).minima is None


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start in seen:
            continue
        cycles += 1
        p = start
        while p not in seen:
            seen.add(p)
            p = perm[p] - 1
    return cycles


def _components_by_union_find(word: BraidWord, closure: str) -> int:
    """Independent route: union-find over 2n endpoints with closure arcs."""
    n = word.n_strands
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    perm = permutation(word)
    for p in range(n):
        union(p, n + perm[p] - 1)  # strand arc
    if closure == "trace":
        for p in range(n):
            union(p, n + p)  # side arc
    else:
        for p in range(0, n, 2):
            union(p, p + 1)  # bottom cap
            union(n + p, n + p + 1)  # top cap
    return len({find(x) for x in range(2 * n)})


def test_trace_components_cross_checked_against_union_find(rand_word):
    rng = random.Random(21)
    for _ in range(100):
        w = rand_word(rng)
        k = ClosedBraid(w, "trace")
        assert component_count(k) == _cycle_count(permutation(w))
        assert component_count(k) == _components_by_union_find(w, "trace")
        if w.n_strands % 2 == 0:
            assert component_count(ClosedBraid(w, "plat")) == _components_by_union_find(w, "plat")


def test_component_count_bounds_fuzz(rand_word):
    rng = random.Random(22)
    for _ in range(100):
        w = rand_word(rng)
        assert 1 <= component_count(ClosedBraid(w, "trace")) <= w.n_strands
        if w.n_strands % 2 == 0:
            assert 1 <= component_count(ClosedBraid(w, "plat")) <= w.n_strands


def test_component_count_invariant_under_free_reduce(rand_word):
    rng = random.Random(23)
    for _ in range(100):
        w = rand_word(rng)
        assert component_count(ClosedBraid(w, "trace")) == component_count(
            ClosedBraid(free_reduce(w), "trace")
        )
        if w.n_strands % 2 == 0:
            assert component_count(ClosedBraid(w, "plat")) == component_count(
                ClosedBraid(free_reduce(w), "plat")
            )


def test_diagram_stats():
    k = ClosedBraid(parse_word("4: 1 -2 3"), "plat")
    stats = diagram_stats(k)
    assert stats.crossings == 3
    assert stats.minima == 2
    assert stats.writhe == 1
    assert stats.to_json() == {
        "components": stats.components,
        "minima": 2,
        "crossings": 3,
        "writhe": 1,
    }
    trace_stats = diagram_stats(ClosedBraid(parse_word("3: 1"), "trace"))
    assert trace_stats.minima is None
