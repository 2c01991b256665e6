"""Trusted-initializer material: masks, shares, output masks, seedable RNG.

The generator here is a seeded Mersenne Twister, NOT a cryptographically
secure RNG. This package is a protocol simulator: determinism and replay
matter, cryptographic strength does not. Do not reuse this module for
production secret sharing.
"""

from __future__ import annotations

import itertools
import random
import struct

from .errors import InstanceShapeError
from .ring import DEFAULT_MODULUS, Ring, product_trace


class Rng:
    """Deterministic seeded randomness: same seed, same stream.

    Draw rule. Over Z_2**64 a vector of length L is one
    `getrandbits(64 * L)` split into L little-endian 64-bit words, so entry
    j is bits [64 j, 64 j + 64) of the draw. Over any other modulus every
    entry is one `randrange(modulus)`, whose rejection sampling is what
    makes a draw below a modulus that is not a power of two exactly
    uniform. Either way `vector(a + b)` equals `vector(a)` followed by
    `vector(b)`, and leaves the same stream state: `getrandbits` consumes
    whole 32-bit outputs, low word first.
    """

    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def vector(self, ring: Ring, length: int) -> tuple:
        """A tuple of `length` uniform draws below the modulus."""
        if length < 1:
            raise InstanceShapeError("vector length must be >= 1")
        if ring.modulus == DEFAULT_MODULUS:
            raw = self._r.getrandbits(64 * length).to_bytes(8 * length, "little")
            return struct.unpack(f"<{length}Q", raw)
        return tuple(map(self._r.randrange, itertools.repeat(ring.modulus, length)))


def generate_share_bundles(
    n: int, length: int, ring: Ring, rng: Rng
) -> tuple[list[tuple], list[int], int]:
    """All the randomness of an n-position instance, as
    `(masks, shares, output_mask)`: n uniform mask entry tuples, n scalar
    shares that additively split the trace of the product of all masks,
    and position 1's uniform output mask. One draw of n * length + n
    entries gives the masks, the first n - 1 shares and the output mask;
    the last share completes the sum.
    """
    if n < 2:
        raise InstanceShapeError("share generation needs at least 2 positions")
    if length < 1:
        raise InstanceShapeError("vector length must be >= 1")
    block = rng.vector(ring, n * length + n)
    masks = [block[i : i + length] for i in range(0, n * length, length)]
    shares = list(block[n * length : -1])
    shares.append(ring.reduce(product_trace(masks, ring) - sum(shares)))
    return masks, shares, block[-1]
