"""Brute-force set-partition counting: ground truth for the number families.

One plain recursive walk visits every partition of {1..total} as its
canonical restricted growth string (each element takes an earlier element's
label or the next fresh one); each partition has exactly one such string, so
the walk is exhaustive and duplicate-free.  It carries each partition's
statistics incrementally and tallies them at the leaf: nothing is derived by
recurrence or closed form.  A hard size guard keeps it at desk scale.

Both queries take plain arguments and read the cached census of a total
through one checked lookup, `_tallies`.
"""

from __future__ import annotations

from functools import lru_cache

SIZE_GUARD = 12


def _iter_partition_stats(total: int):
    """Enumerate the partitions of {1..total} and return their (plain,
    weighted) tallies, dicts keyed by (block_count, separated_prefix).

    `separated_prefix` is the largest p with elements 1..p in pairwise
    distinct blocks; it grows only while each new label is fresh and equals
    its index.  `weighted` sums the product of the block sizes' factorials
    (the ways to order every block linearly), which joining a block of size
    s multiplies by s + 1.  The last element's labels are tallied in a loop.
    """
    if total == 0:
        return {(0, 0): 1}, {(0, 0): 1}
    plain, weighted = {}, {}
    sizes = [0] * total

    def walk(i, used, sep, weight):
        if i == total - 1:
            key = (used + 1, sep + (sep == i))
            plain[key] = plain.get(key, 0) + 1
            weighted[key] = weighted.get(key, 0) + weight
            if used:
                key = (used, sep)
                count, tally = plain.get(key, 0), weighted.get(key, 0)
                for label in range(used):
                    count += 1
                    tally += weight * (sizes[label] + 1)
                plain[key], weighted[key] = count, tally
            return
        for label in range(used):
            size = sizes[label]
            sizes[label] = size + 1
            walk(i + 1, used, sep, weight * (size + 1))
            sizes[label] = size
        sizes[used] = 1
        walk(i + 1, used + 1, sep + (sep == i), weight)
        sizes[used] = 0

    walk(0, 0, 0, 1)
    return plain, weighted


@lru_cache(maxsize=None)
def _census(total: int):
    """The (plain, weighted) tallies of `_iter_partition_stats(total)`,
    cached so that repeated queries share one enumeration sweep."""
    return _iter_partition_stats(total)


def _tallies(total: int, distinguished: int, ordered: bool, blocks: int = 0):
    """The (block_count, count) pairs of the census of `total` whose first
    `distinguished` elements lie in distinct blocks, plain or `ordered`;
    every argument is checked first."""
    if total < 0:
        raise ValueError(f"total={total} must be nonnegative")
    if not 0 <= distinguished <= total:
        raise ValueError(f"distinguished={distinguished} must lie in 0..total={total}")
    if blocks < 0:
        raise ValueError(f"blocks={blocks} must be nonnegative")
    if total > SIZE_GUARD:
        raise ValueError(f"total={total} exceeds the size guard ({SIZE_GUARD})")
    plain, weighted = _census(total)
    table = weighted if ordered else plain
    return ((count_blocks, count) for (count_blocks, sep), count in table.items() if sep >= distinguished)


def count_partitions(total: int, blocks: int, distinguished: int = 0, ordered: bool = False) -> int:
    """Count the partitions of {1..total} into `blocks` nonempty blocks with
    the first `distinguished` elements pairwise separated, by exhaustive
    enumeration; `ordered` counts each block as a linearly ordered list."""
    tallies = _tallies(total, distinguished, ordered, blocks)
    return sum(count for count_blocks, count in tallies if count_blocks == blocks)


def count_all_partitions(total: int, distinguished: int = 0, ordered: bool = False) -> int:
    """Count partitions into any number of blocks (same constraints)."""
    return sum(count for _, count in _tallies(total, distinguished, ordered))
