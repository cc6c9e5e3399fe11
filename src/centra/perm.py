"""Permutations on 0-based points, with 1-based cycle-notation parsing."""

from __future__ import annotations

import re
from typing import Iterable, Sequence


class CycleNotationError(ValueError):
    """Raised when cycle-notation text cannot be parsed."""


_CYCLE_RE = re.compile(r"\((\d+(?:,\d+)*)\)")


class Permutation:
    """Bijection on {0, ..., degree-1}, stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"images {images!r} are not a bijection on 0..{len(images) - 1}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(x) = p(q(x)): apply q first.
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        im = self.images
        return Permutation(im[q] for q in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def cycle_string(self) -> str:
        """Cycle notation over 1-based points; the identity is ``()``."""
        return cycle_strings([self.images], self.degree)[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def cycle_strings(perms: Iterable[Sequence[int]], degree: int) -> list[str]:
    """Cycle notation over 1-based points of each bijection in ``perms`` (image
    sequences of length ``degree``, trusted rather than re-checked).  Each cycle
    starts at its least point, cycles go in order of those points, and the
    identity is ``()``."""
    names = [str(p + 1) for p in range(degree)]
    out = []
    for images in perms:
        seen = bytearray(degree)
        parts = []
        for start, x in enumerate(images):
            if x == start or seen[start]:
                continue
            cyc = [names[start]]
            while x != start:
                seen[x] = 1
                cyc.append(names[x])
                x = images[x]
            parts.append("(" + ",".join(cyc) + ")")
        out.append("".join(parts) or "()")
    return out


def parse_cycle_notation(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles over 1-based points.

    ``"()"`` denotes the identity; points absent from all cycles are fixed.
    Raises :class:`CycleNotationError` for malformed syntax, out-of-range
    points, or a point repeated across cycles.
    """
    if degree <= 0:
        raise ValueError(f"degree must be positive, got {degree}")
    if text == "()":
        return Permutation.identity(degree)
    if not text:
        raise CycleNotationError("empty cycle notation (use '()' for the identity)")
    images = list(range(degree))
    seen: set[int] = set()
    pos = 0
    while pos < len(text):
        m = _CYCLE_RE.match(text, pos)
        if m is None:
            raise CycleNotationError(f"malformed cycle notation {text!r} at position {pos}")
        points = [int(tok) for tok in m.group(1).split(",")]
        for p in points:
            if not 1 <= p <= degree:
                raise CycleNotationError(f"point {p} out of range for degree {degree}")
            if p in seen:
                raise CycleNotationError(f"point {p} repeated across cycles in {text!r}")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
        pos = m.end()
    return Permutation(images)
