import operator
import random
from fractions import Fraction
from functools import reduce

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npscalar import InputShapeError, ModVector, Ring, product_trace

R64 = Ring()
R7 = Ring(7)


def vec(entries, ring=R64):
    return ModVector(entries, ring)


class TestProductTrace:
    def test_binary_vectors(self):
        assert product_trace([vec([1, 0, 1]), vec([1, 1, 0])], R64) == 1

    def test_three_vectors(self):
        vs = [vec([1, 2]), vec([3, 4]), vec([5, 6])]
        assert product_trace(vs, R64) == 63  # 1*3*5 + 2*4*6

    def test_zero_vector_annihilates(self):
        vs = [vec([0, 0, 0]), vec([5, 6, 7]), vec([1, 2, 3])]
        assert product_trace(vs, R64) == 0

    def test_all_ones_gives_length(self):
        for n in (2, 3, 5):
            vs = [vec([1] * 4)] * n
            assert product_trace(vs, R64) == 4

    def test_length_mismatch(self):
        with pytest.raises(InputShapeError):
            product_trace([vec([1, 2]), vec([1, 2, 3])], R64)
        with pytest.raises(InputShapeError):
            product_trace([(1, 2), (1, 2, 3)], R64)

    @pytest.mark.parametrize(
        "entry",
        [1.5, Fraction(3, 2), Fraction(4, 2), numpy.int64(2)],
        ids=["float", "fraction", "whole-fraction", "numpy-int64"],
    )
    @pytest.mark.parametrize("where", [0, 1])
    def test_non_int_entry_is_type_error(self, entry, where):
        """A float, `Fraction` or numpy entry, in the first vector or a
        later one, is a TypeError, as a float is in `ModVector`."""
        vectors = [(1, 2), (3, 4)]
        vectors[where] = (entry, 2)
        with pytest.raises(TypeError, match="product_trace needs integer entries"):
            product_trace(vectors, R7)


class TestVectorAddSub:
    def test_add_zero(self):
        assert vec([2, 3]).add(vec([0, 0])).entries == (2, 3)

    def test_add_wraps_modulus(self):
        assert ModVector([5], R7).add(ModVector([3], R7)).entries == (1,)

    def test_add_length_mismatch(self):
        with pytest.raises(InputShapeError):
            vec([1]).add(vec([1, 2]))


elements = st.integers(min_value=0, max_value=(1 << 64) - 1)


@st.composite
def triples(draw, length=3):
    return [
        ModVector([draw(elements) for _ in range(length)], R64) for _ in range(3)
    ]


class TestRingProperties:
    @settings(max_examples=50)
    @given(vs=triples())
    def test_trace_multilinear(self, vs):
        a, b, c = vs
        lhs = product_trace([a.add(b), c], R64)
        rhs = R64.reduce(product_trace([a, c], R64) + product_trace([b, c], R64))
        assert lhs == rhs

    @settings(max_examples=50)
    @given(vs=triples())
    def test_trace_permutation_invariant(self, vs):
        a, b, c = vs
        assert product_trace([a, b, c], R64) == product_trace([c, a, b], R64)
        assert product_trace([a, b, c], R64) == product_trace([b, a, c], R64)


# Powers of two reduce by masking, the others by `%`; (1 << 64) + 1 is just
# above 2^64, where reducing a product needs long division.
MODULI = (2, 7, 1 << 16, (1 << 61) - 1, 1 << 64, (1 << 64) + 1)


def reference_trace(rows, m):
    """sum_j prod_i rows[i][j] mod m, reducing after every product."""
    return sum(reduce(lambda p, x: p * x % m, column, 1) for column in zip(*rows)) % m


@st.composite
def vector_sets(draw, min_count=1, max_count=7):
    """A ring from MODULI and min_count..max_count equal-length vectors of
    length 1..64, entries already reduced."""
    ring = Ring(draw(st.sampled_from(MODULI)))
    length = draw(st.integers(min_value=1, max_value=64))
    count = draw(st.integers(min_value=min_count, max_value=max_count))
    entry = st.integers(min_value=0, max_value=ring.modulus - 1)
    rows = [
        draw(st.lists(entry, min_size=length, max_size=length)) for _ in range(count)
    ]
    return ring, rows


class TestKernelsMatchPerEntryReference:
    @pytest.mark.parametrize(
        "method,op",
        [("add", operator.add), ("hadamard", operator.mul)],
    )
    @given(case=vector_sets(min_count=2, max_count=2))
    def test_binary_ops(self, method, op, case):
        ring, (a, b) = case
        got = getattr(ModVector(a, ring), method)(ModVector(b, ring))
        assert got.entries == tuple(op(x, y) % ring.modulus for x, y in zip(a, b))
        assert all(type(e) is int for e in got.entries)
        assert got.ring == ring

    @given(case=vector_sets())
    def test_product_trace(self, case):
        ring, rows = case
        got = product_trace([ModVector(r, ring) for r in rows], ring)
        assert got == reference_trace(rows, ring.modulus)
        assert type(got) is int
        # entry tuples trace the same as the ModVectors over them
        assert product_trace([tuple(r) for r in rows], ring) == got

    @given(
        modulus=st.sampled_from(MODULI),
        xs=st.lists(
            st.one_of(
                st.integers(min_value=-(1 << 130), max_value=1 << 130),
                st.booleans(),
                st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1).map(numpy.int64),
            ),
            min_size=1,
        ),
    )
    def test_constructor_reduces_any_int(self, modulus, xs):
        """Negative, out-of-range, bool and numpy entries, alone or mixed
        with in-range ones, give exact reduced ints."""
        got = ModVector(xs, Ring(modulus)).entries
        assert got == tuple(int(x) % modulus for x in xs)
        assert all(type(e) is int for e in got)


class TestLongVectors:
    """One L=2048 case per kernel, with a masked and a divided modulus."""

    @pytest.fixture(params=[1 << 64, (1 << 61) - 1], ids=["2^64", "2^61-1"])
    def case(self, request):
        ring = Ring(request.param)
        rnd = random.Random(request.param)
        # entries of every size up to 2^66, negatives included, so the
        # constructor's reduction is exercised too
        rows = [[rnd.randrange(-(1 << 66), 1 << 66) for _ in range(2048)] for _ in range(4)]
        return ring, rows

    @pytest.mark.parametrize("method,op", [("add", operator.add), ("hadamard", operator.mul)])
    def test_binary_ops(self, case, method, op):
        ring, (a, b, *_) = case
        m = ring.modulus
        got = getattr(ModVector(a, ring), method)(ModVector(b, ring)).entries
        assert got == tuple(op(x, y) % m for x, y in zip(a, b))
        assert all(type(e) is int for e in got)

    def test_constructor(self, case):
        ring, (a, *_) = case
        got = ModVector(a, ring).entries
        assert got == tuple(x % ring.modulus for x in a)
        assert all(type(e) is int for e in got)

    def test_product_trace(self, case):
        ring, rows = case
        got = product_trace([ModVector(r, ring) for r in rows], ring)
        assert got == reference_trace(rows, ring.modulus)
        assert type(got) is int


def test_product_trace_rejects_empty_input():
    with pytest.raises(InputShapeError):
        product_trace([], R64)


@pytest.mark.parametrize("ring", [R64, R7])
def test_constructor_rejects_empty_vector(ring):
    with pytest.raises(InputShapeError, match="^vectors must have length >= 1$"):
        ModVector([], ring)


def test_constructor_rejects_non_integers():
    with pytest.raises(TypeError):
        ModVector([1.5], R7)


def test_entries_reduced_on_construction():
    assert ModVector([9, 15], R7).entries == (2, 1)


def test_booleans_reduce_to_exact_ints():
    for m in (2, 7, 1 << 16):
        # in range, so kept, and mixed with entries that need reducing
        for xs, want in [([True, False], (1, 0)), ([True, m, False, -1], (1, 0, 0, m - 1))]:
            entries = ModVector(xs, Ring(m)).entries
            assert entries == want
            assert all(type(e) is int for e in entries)


@pytest.mark.parametrize(
    "modulus", [1 << 64, 7, (1 << 61) - 1], ids=["2^64", "7", "2^61-1"]
)
def test_in_range_entries_are_the_callers_ints(modulus):
    """Exact ints already in [0, modulus) are checked, not rebuilt: the
    vector holds the caller's own objects. (At 7 every entry is one of
    CPython's cached small ints, so that case holds for any rebuild too.)"""
    v = [modulus - 1, modulus // 3, 0, 1]
    entries = ModVector(v, Ring(modulus)).entries
    assert all(entries[j] is v[j] for j in range(len(v)))


def test_modulus_lower_bound():
    with pytest.raises(ValueError):
        Ring(1)
