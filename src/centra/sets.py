"""Element-id subsets of a fixed finite universe, stored as int bitmasks.

Set algebra on these is the workhorse of every centralizer computation:
a centralizer of a set is one big-int AND per Z*-class the set meets, so
Python's arbitrary-precision integers act as dense bit vectors.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


_LOOP_BITS = 32  # above this many set bits, numpy unpacks a mask faster than the bit loop


def ids_from_mask(mask: int) -> tuple[int, ...]:
    """Set bits of ``mask`` as ascending indices: one bit at a time for up to
    ``_LOOP_BITS`` of them, else by unpacking the mask's bytes with numpy."""
    if mask.bit_count() > _LOOP_BITS:
        raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
        return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class ElemSet:
    """Canonical ascending set of element ids below a fixed universe order."""

    __slots__ = ("universe_order", "mask")

    def __init__(self, universe_order: int, mask: int = 0):
        if universe_order <= 0:
            raise ValueError(f"universe order must be positive, got {universe_order}")
        if mask < 0 or mask >> universe_order:
            raise ValueError("mask has bits outside the universe")
        self.universe_order = universe_order
        self.mask = mask

    @classmethod
    def from_ids(cls, universe_order: int, ids: Iterable[int]) -> "ElemSet":
        """The set of ``ids``, an iterable of integers (numpy ones included)
        read once.  The range is checked once: one ``max`` before any shift,
        so a huge id allocates nothing, and the shift refuses a negative id.
        Only a bad id, or ids that are not Python ints (numpy scalars in a
        list), take the id-by-id path, which names the first bad id."""
        ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
        mask = 0
        try:
            if ids and max(ids) >= universe_order:
                mask = -1
            else:
                for i in ids:
                    mask |= 1 << i
        except (TypeError, ValueError, OverflowError):
            mask = -1
        if type(mask) is not int or mask < 0:
            mask = 0
            for i in map(int, ids):
                if not 0 <= i < universe_order:
                    raise ValueError(f"element id {i} out of range for universe of order {universe_order}")
                mask |= 1 << i
        return cls(universe_order, mask)

    @property
    def members(self) -> tuple[int, ...]:
        return ids_from_mask(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(ids_from_mask(self.mask))

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe_order and (self.mask >> i) & 1 == 1

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_universe(self, other: "ElemSet") -> None:
        if self.universe_order != other.universe_order:
            raise ValueError(
                f"sets live in different universes ({self.universe_order} vs {other.universe_order})"
            )

    def __and__(self, other: "ElemSet") -> "ElemSet":
        self._check_universe(other)
        return ElemSet(self.universe_order, self.mask & other.mask)

    def __or__(self, other: "ElemSet") -> "ElemSet":
        self._check_universe(other)
        return ElemSet(self.universe_order, self.mask | other.mask)

    def __sub__(self, other: "ElemSet") -> "ElemSet":
        self._check_universe(other)
        return ElemSet(self.universe_order, self.mask & ~other.mask)

    def issubset(self, other: "ElemSet") -> bool:
        self._check_universe(other)
        return self.mask & ~other.mask == 0

    def __le__(self, other: "ElemSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "ElemSet") -> bool:
        return self.issubset(other) and self.mask != other.mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElemSet):
            return NotImplemented
        return self.universe_order == other.universe_order and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.universe_order, self.mask))

    def __repr__(self) -> str:
        ids = self.members
        shown = ",".join(map(str, ids[:16]))
        if len(ids) > 16:
            shown += f",... ({len(ids)} total)"
        return f"{type(self).__name__}({self.universe_order}, {{{shown}}})"


class Subgroup(ElemSet):
    """Subset that is additionally a subgroup of its ambient group.

    Construction sites guarantee closure; ``groups.is_subgroup`` re-checks
    the invariant wherever a test wants it verified independently.
    """

    __slots__ = ()
