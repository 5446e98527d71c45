import pytest

from dowling.oracle import PartitionSpec, count_all_partitions, count_partitions


def test_stirling_style_counts():
    assert count_partitions(PartitionSpec(4, 2)) == 7
    assert count_partitions(PartitionSpec(0, 0)) == 1
    assert count_partitions(PartitionSpec(5, 5)) == 1
    assert count_partitions(PartitionSpec(5, 0)) == 0
    assert count_partitions(PartitionSpec(5, 6)) == 0


def test_ordered_block_counts():
    assert count_partitions(PartitionSpec(3, 1, ordered_blocks=True)) == 6
    assert count_partitions(PartitionSpec(4, 2, ordered_blocks=True)) == 36
    assert count_partitions(PartitionSpec(6, 6, ordered_blocks=True)) == 1


def test_distinguished_elements_must_be_separated():
    assert count_partitions(PartitionSpec(4, 3, 2, ordered_blocks=True)) == 10
    # Partitions of {1,2,3} into 2 blocks keeping 1 and 2 apart:
    # {1,3}{2}, {1}{2,3} -- the pair {1,2}{3} is excluded.
    assert count_partitions(PartitionSpec(3, 2, 2)) == 2


def test_count_all_partitions():
    assert count_all_partitions(3, 2) == 3
    assert count_all_partitions(1) == 1
    assert count_all_partitions(0) == 1
    assert count_all_partitions(6) == 203


def test_bell_column_against_direct_listing():
    # Brute check of the brute checker: partitions of a 3-set.
    assert count_all_partitions(3) == 5
    assert count_all_partitions(3, 0, ordered=True) == 1 * 6 + 3 * 2 + 1  # 13


def test_size_guard():
    with pytest.raises(ValueError):
        count_partitions(PartitionSpec(13, 2))
    with pytest.raises(ValueError):
        count_all_partitions(13)


def test_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(3, 1, 4)
    with pytest.raises(ValueError):
        PartitionSpec(-1, 0)


def test_r_families_past_the_verify_clamp():
    # `verify --identity oracle` stops the r-families at row 9 and leaves out
    # r = 0; these are the rows the guard still allows beyond that.
    from dowling.rnumbers import r_bell, r_lah, r_stirling2

    for r, top in ((0, 11), (1, 10)):
        rs2, rl = r_stirling2(top, r), r_lah(top, r)
        for n in range(10 if r else 0, top + 1):
            for k in range(n + 1):
                assert rs2.value(n, k) == count_partitions(PartitionSpec(n + r, k + r, r))
                assert rl.value(n, k) == count_partitions(
                    PartitionSpec(n + r, k + r, r, ordered_blocks=True)
                )
            assert r_bell(n, r) == count_all_partitions(n + r, r)
