import itertools
import random

import pytest

from npscalar import (
    InstanceShapeError,
    Ring,
    Rng,
    generate_share_bundles,
    product_trace,
)
from npscalar.analysis import uniformity_pvalue

R64 = Ring()
R7 = Ring(7)
# masked, divided, and divided just past the masked one
MODULI = (1 << 64, 251, (1 << 64) + 1)


class TestShareBundles:
    def test_complement_share_identity_mod_7(self):
        # masks (3,) and (5,): trace 15 = 1 mod 7; share 4 forces complement 4
        trace = product_trace([(3,), (5,)], R7)
        assert trace == 1
        assert R7.reduce(trace - 4) == 4

    def test_share_sum_matches_mask_trace(self):
        for modulus in MODULI:
            ring = Ring(modulus)
            for n, length, seed in [(2, 1, 0), (3, 4, 1), (5, 2, 2), (8, 16, 3)]:
                masks, shares, _ = generate_share_bundles(n, length, ring, Rng(seed))
                assert len(masks) == len(shares) == n
                assert product_trace(masks, ring) == sum(shares) % modulus

    def test_masks_and_shares_are_one_draw_of_reduced_ints(self):
        """The masks, the first n - 1 shares and the output mask are one
        draw of n * L + n entries."""
        for modulus in MODULI:
            ring = Ring(modulus)
            for n, length, seed in [(2, 1, 0), (3, 4, 1), (6, 16, 2)]:
                rng = Rng(seed)
                masks, shares, output_mask = generate_share_bundles(
                    n, length, ring, rng
                )
                for mask in masks:
                    assert len(mask) == length
                    assert all(type(x) is int and 0 <= x < modulus for x in mask)
                assert all(type(x) is int and 0 <= x < modulus for x in shares)
                assert type(output_mask) is int and 0 <= output_mask < modulus
                other = Rng(seed)
                drawn = other.vector(ring, n * length + n)
                assert (
                    *itertools.chain.from_iterable(masks), *shares[:-1], output_mask
                ) == drawn
                assert rng.vector(ring, 3) == other.vector(ring, 3)

    def test_share_sum_identity_random_grid(self):
        r = random.Random(2024)
        for _ in range(200):
            n = r.randint(2, 8)
            length = r.randint(1, 16)
            ring = r.choice([R64, R7, Ring(251)])
            masks, shares, _ = generate_share_bundles(
                n, length, ring, Rng(r.randrange(2**32))
            )
            assert sum(shares) % ring.modulus == product_trace(masks, ring)

    def test_seed_replay_is_identical(self):
        a = generate_share_bundles(4, 3, R64, Rng(77))
        b = generate_share_bundles(4, 3, R64, Rng(77))
        assert a == b

    def test_bundles_are_immutable(self):
        masks, shares, output_mask = generate_share_bundles(3, 2, R64, Rng(0))
        assert [type(mask) for mask in masks] == [tuple] * 3
        assert [type(share) for share in shares] == [int] * 3
        assert type(output_mask) is int

    def test_rejects_tiny_instances(self):
        with pytest.raises(InstanceShapeError):
            generate_share_bundles(1, 1, R64, Rng(0))
        for ring in (R64, R7):
            with pytest.raises(InstanceShapeError, match="vector length must be >= 1"):
                generate_share_bundles(2, 0, ring, Rng(0))


def test_rng_streams_are_reproducible():
    a, b = Rng(123), Rng(123)
    for ring, length in [(R64, 1), (R64, 10), (R7, 5)]:
        assert a.vector(ring, length) == b.vector(ring, length)


def test_rng_has_one_draw_method():
    assert [name for name in vars(Rng) if not name.startswith("_")] == ["vector"]


class CountingRandom(random.Random):
    """A Mersenne Twister that records the size of every getrandbits call."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


def counting_rng(seed):
    rng = Rng(seed)
    rng._r = CountingRandom(seed)
    return rng


class TestDrawRule:
    @pytest.mark.parametrize("seed,length", [(0, 1), (7, 5), (123, 64)])
    def test_r64_vector_is_one_draw_split_little_endian(self, seed, length):
        rng = counting_rng(seed)
        got = rng.vector(R64, length)
        word = random.Random(seed).getrandbits(64 * length)
        assert got == tuple(
            (word >> (64 * j)) & (R64.modulus - 1) for j in range(length)
        )
        assert rng._r.calls == [64 * length]

    def test_other_moduli_keep_the_randrange_stream(self):
        assert Rng(5).vector(R7, 12) == (4, 2, 5, 2, 6, 5, 6, 5, 5, 4, 0, 6)
        r = random.Random(9)
        assert Rng(9).vector(Ring(251), 8) == tuple(
            r.randrange(251) for _ in range(8)
        )

    @pytest.mark.parametrize("modulus", [1 << 64, 251])
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 5), (4, 1), (3, 7), (64, 65)])
    def test_draws_split_anywhere_keep_the_stream(self, modulus, a, b):
        """`vector(a + b)` equals `vector(a)` followed by `vector(b)`, and
        leaves the stream where the two draws leave it."""
        ring = Ring(modulus)
        whole, split = Rng(a * 100 + b), Rng(a * 100 + b)
        first = split.vector(ring, a)
        assert whole.vector(ring, a + b) == first + split.vector(ring, b)
        assert whole.vector(ring, 9) == split.vector(ring, 9)

    def test_r64_low_and_high_bytes_are_uniform(self):
        draws = Rng(2024).vector(R64, 20_000)
        for byte in ([d & 0xFF for d in draws], [d >> 56 for d in draws]):
            assert uniformity_pvalue(byte, 256) > 1e-3


class TestBatchedMaskDraw:
    """An instance's m masks are the first m * L entries of its one draw,
    the same entries as m successive vectors of length L."""

    @pytest.mark.parametrize("m", [2, 6])
    @pytest.mark.parametrize("length", [1, 16, 2048])
    @pytest.mark.parametrize("modulus", [1 << 64, 1 << 16, 251])
    def test_one_draw_equals_successive_draws(self, modulus, length, m):
        ring = Ring(modulus)
        seed = modulus % 1000 + length + m
        batched, single = Rng(seed), Rng(seed)
        block = batched.vector(ring, m * length)
        masks = [single.vector(ring, length) for _ in range(m)]
        assert block == tuple(itertools.chain.from_iterable(masks))
        assert batched.vector(ring, 1) == single.vector(ring, 1)
        assert generate_share_bundles(m, length, ring, Rng(seed))[0] == masks
