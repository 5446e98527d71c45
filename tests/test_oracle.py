import math
from functools import partial

import pytest

from dowling import oracle
from dowling.oracle import count_all_partitions, count_partitions

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570)
# OEIS A000262: sets of lists, i.e. partitions weighted by the product of
# their block sizes' factorials.
SETS_OF_LISTS = (1, 1, 3, 13, 73, 501, 4051, 37633, 394353, 4596553, 58941091, 824073141)


def _growth_strings(total):
    """Every restricted growth string of length `total`, listed naively."""
    strings = [[]]
    for _ in range(total):
        strings = [s + [label] for s in strings for label in range(max(s, default=-1) + 2)]
    return strings


def _reference_census(total):
    """The census recomputed from scratch for each growth string."""
    plain, weighted = {}, {}
    for labels in _growth_strings(total):
        blocks = max(labels, default=-1) + 1
        sep = next((i for i, label in enumerate(labels) if label != i), total)
        weight = math.prod(math.factorial(labels.count(b)) for b in range(blocks))
        plain[blocks, sep] = plain.get((blocks, sep), 0) + 1
        weighted[blocks, sep] = weighted.get((blocks, sep), 0) + weight
    return plain, weighted


def test_stirling_style_counts():
    assert count_partitions(4, 2) == 7
    assert count_partitions(0, 0) == 1
    assert count_partitions(5, 5) == 1
    assert count_partitions(5, 0) == 0
    assert count_partitions(5, 6) == 0


def test_ordered_block_counts():
    assert count_partitions(3, 1, ordered=True) == 6
    assert count_partitions(4, 2, ordered=True) == 36
    assert count_partitions(6, 6, ordered=True) == 1


def test_distinguished_elements_must_be_separated():
    assert count_partitions(4, 3, 2, ordered=True) == 10
    # Partitions of {1,2,3} into 2 blocks keeping 1 and 2 apart:
    # {1,3}{2}, {1}{2,3} -- the pair {1,2}{3} is excluded.
    assert count_partitions(3, 2, 2) == 2


def test_count_all_partitions():
    assert count_all_partitions(3, 2) == 3
    assert count_all_partitions(1) == 1
    assert count_all_partitions(0) == 1
    assert count_all_partitions(6) == 203


def test_bell_column_against_direct_listing():
    # Brute check of the brute checker: partitions of a 3-set.
    assert count_all_partitions(3) == 5
    assert count_all_partitions(3, 0, ordered=True) == 1 * 6 + 3 * 2 + 1  # 13


def test_census_matches_a_from_scratch_enumeration():
    for total in range(9):
        assert oracle._census(total) == _reference_census(total), total


def test_census_sums_are_bell_and_sets_of_lists():
    for total in range(12):
        plain, weighted = oracle._census(total)
        assert sum(plain.values()) == BELL[total]
        assert sum(weighted.values()) == SETS_OF_LISTS[total]
        assert count_all_partitions(total, 0, ordered=True) == SETS_OF_LISTS[total]


def test_one_enumeration_per_distinct_total(monkeypatch):
    # perfbench/tracer.py counts `oracle.partitions_enumerated` by wrapping
    # `_iter_partition_stats`; `_census` must reach it through the module
    # global, once per total.
    seen = []
    enumerate_partitions = oracle._iter_partition_stats

    def counted(total):
        seen.append(total)
        return enumerate_partitions(total)

    monkeypatch.setattr(oracle, "_iter_partition_stats", counted)
    oracle._census.cache_clear()
    try:
        for total in (3, 5, 3, 0, 5, 7):
            count_all_partitions(total)
            count_partitions(total, 2)
    finally:
        oracle._census.cache_clear()
    assert seen == [3, 5, 0, 7]


# Both queries read the census through one checked lookup, so each refuses a
# bad argument with the same message; `count_partitions` is asked for 2 blocks
# unless the case sets them.
_QUERIES = {"count_partitions": partial(count_partitions, blocks=2), "count_all_partitions": count_all_partitions}
_BAD_ARGUMENTS = (
    ("negative total", {"total": -1}, "total=-1 must be nonnegative"),
    ("negative distinguished", {"total": 4, "distinguished": -2}, "distinguished=-2 must lie in 0..total=4"),
    ("distinguished past total", {"total": 4, "distinguished": 5}, "distinguished=5 must lie in 0..total=4"),
    ("past the size guard", {"total": 13}, "total=13 exceeds the size guard (12)"),
    ("negative blocks", {"total": 4, "blocks": -1}, "blocks=-1 must be nonnegative"),
)


@pytest.mark.parametrize(
    "query, arguments, message",
    [
        pytest.param(query, arguments, message, id=f"{case}-{query}")
        for case, arguments, message in _BAD_ARGUMENTS
        for query in _QUERIES
        if query == "count_partitions" or "blocks" not in arguments
    ],
)
def test_bad_arguments_are_refused(query, arguments, message):
    with pytest.raises(ValueError) as error:
        _QUERIES[query](**arguments)
    assert str(error.value) == message


def test_r_families_past_the_verify_clamp():
    # `verify --identity oracle` stops the r-families at row 9 and leaves out
    # r = 0; these are the rows the guard still allows beyond that.
    from dowling import families

    for r, top in ((0, 11), (1, 10)):
        rs2, rl = families.triangle("r-stirling2", {"r": r}, top), families.triangle("r-lah", {"r": r}, top)
        for n in range(10 if r else 0, top + 1):
            for k in range(n + 1):
                assert rs2.value(n, k) == count_partitions(n + r, k + r, r)
                assert rl.value(n, k) == count_partitions(n + r, k + r, r, ordered=True)
            assert families.row_sum("r-stirling2", {"r": r}, n) == count_all_partitions(n + r, r)
