"""Exact modular arithmetic and the diagonal-vector encoding.

A party's data is conceptually a diagonal matrix, but a diagonal matrix is
fully described by its diagonal: products of diagonal matrices multiply
entrywise, and the trace of such a product is the sum of the entrywise
products. So everything here is a fixed-length vector over Z_modulus.

The default modulus is 2**64 (native wrap-around). A small prime modulus
is supported so statistical tests can exercise the full ring.

Reduction rule. Each `Ring` picks its reduction once, as a pair
`(op, k)` with `op(x, k) == x % modulus` for every Python int x. For a
power-of-two modulus it is `(operator.and_, modulus - 1)`; otherwise it
is `(int.__mod__, modulus)`, which, unlike `operator.mod`, raises
`TypeError` on a float or a numpy int, as the mask does. The mask is
exact because a Python int behaves as an infinite two's-complement bit
string: `x & (2**b - 1)` keeps the low b bits, which is the unique residue
in [0, 2**b), negative x included. Masking touches only the low digits of
x, where `%` by 2**64 runs long division, and both ops are C functions
that `map` calls directly.

A `ModVector`'s entries are always a non-empty tuple of Python ints in
[0, modulus). The public constructor establishes that by checking once:
`operator.index` returns an exact int itself (and an exact-int copy of a
bool or numpy int), so entries already in range stay the caller's own
objects, and the tuple is reduced only when its `min` or `max` falls
outside [0, modulus). The private `ModVector._reduced(entries, ring)`
trusts its caller: it stores the tuple as given, with no copy, no
reduction and no length check. Its callers pass a tuple reduced by
construction: a kernel's result, or, in `ProtocolEngine.start`, an
instance's mask, a slice of one uniform draw below the modulus, wrapped
once for the collapse of the instance's children. Entries are immutable,
so such a tuple can be shared between vectors and message payloads. The
private kernels `_add` and `_trace` take entry sequences of one length,
checked by their caller; the engine keeps every vector as an entry tuple.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

from .errors import InputShapeError

DEFAULT_MODULUS = 1 << 64


@dataclass(frozen=True)
class Ring:
    """The ring Z_modulus all protocol arithmetic lives in."""

    modulus: int = DEFAULT_MODULUS
    _reduction: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.modulus
        if not isinstance(m, int):
            raise TypeError(f"modulus must be an int, not {type(m).__name__}")
        if m < 2:
            raise ValueError("modulus must be at least 2")
        pair = (operator.and_, m - 1) if m & (m - 1) == 0 else (int.__mod__, m)
        object.__setattr__(self, "_reduction", pair)

    def reduce(self, x: int) -> int:
        return x % self.modulus


class ModVector:
    """Fixed-length vector of ring elements (a diagonal matrix's diagonal)."""

    __slots__ = ("entries", "ring")

    def __init__(self, entries: Iterable[int], ring: Ring):
        entries = tuple(map(operator.index, entries))
        if not entries:
            raise InputShapeError("vectors must have length >= 1")
        if min(entries) < 0 or max(entries) >= ring.modulus:
            op, k = ring._reduction
            entries = tuple(map(op, entries, repeat(k)))
        self.entries = entries
        self.ring = ring

    @classmethod
    def _reduced(cls, entries: tuple, ring: Ring) -> "ModVector":
        """A vector over `entries` as given; see the module docstring."""
        v = cls.__new__(cls)
        v.entries = entries
        v.ring = ring
        return v

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"ModVector({list(self.entries)}, mod={self.ring.modulus})"

    def _check(self, other: "ModVector") -> None:
        if len(self.entries) != len(other.entries):
            raise InputShapeError(
                f"length mismatch: {len(self.entries)} vs {len(other.entries)}"
            )

    def add(self, other: "ModVector") -> "ModVector":
        self._check(other)
        ring = self.ring
        return ModVector._reduced(_add(self.entries, other.entries, ring), ring)

    def hadamard(self, other: "ModVector") -> "ModVector":
        """Entrywise product (the product of two diagonal matrices)."""
        self._check(other)
        op, k = self.ring._reduction
        return ModVector._reduced(
            tuple(map(op, map(operator.mul, self.entries, other.entries), repeat(k))),
            self.ring,
        )


def product_trace(vectors: Sequence[Sequence[int]], ring: Ring) -> int:
    """Trace of the product of the diagonal matrices encoded by `vectors`,
    int entry tuples or `ModVector`s of one length.

    Equals the n-way inner product sum_j prod_i vectors[i][j] mod modulus.
    """
    if not vectors:
        raise InputShapeError("product_trace needs at least one vector")
    length = len(vectors[0])
    for v in vectors[1:]:
        if len(v) != length:
            raise InputShapeError("length mismatch in product_trace")
    if type(t := _trace(vectors[0], vectors[1:], ring)) is not int:
        raise TypeError("product_trace needs integer entries")
    return t


def _add(a: tuple, b: tuple, ring: Ring) -> tuple:
    """Entrywise sum of two entry tuples of one length, reduced."""
    op, k = ring._reduction
    return tuple(map(op, map(operator.add, a, b), repeat(k)))


def _trace(first: Iterable[int], rest: Iterable[Iterable[int]], ring: Ring) -> int:
    """sum_j first[j] * prod(r[j] for r in rest) mod modulus. Each entry's
    product is a left fold of C-level `map`s, so no per-entry tuple is
    built; the exact sum is reduced once at the end."""
    products = first
    for entries in rest:
        products = map(operator.mul, products, entries)
    return sum(products) % ring.modulus
