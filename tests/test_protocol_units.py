import itertools

import pytest

from npscalar import (
    InstanceShapeError,
    ModVector,
    PartyId,
    Policy,
    Ring,
    TtpAssignmentError,
    aggregate_final,
    assign_ttp,
    chain_init,
    chain_step,
    enumerate_sub_instances,
)

R64 = Ring()


def vec(entries):
    return ModVector(entries, R64)


class TestChainInit:
    def test_worked_example(self):
        # trace(8*11*2) + 2*10 - 5
        assert chain_init((2,), [(8,), (11,)], 10, 5, R64) == 191

    def test_zero_masks_leave_trace_minus_output_mask(self):
        data = [(1, 2), (3, 4), (5, 6)]
        got = chain_init(data[0], data[1:], 0, 9, R64)
        assert got == R64.reduce(63 - 9)

    def test_zero_vector_zero_shares(self):
        assert chain_init((0,), [(4,), (5,)], 0, 0, R64) == 0


class TestChainStep:
    def test_worked_example(self):
        # 191 - trace(3*11*5) + 2*20
        assert chain_step(191, (5,), [(3,), (11,)], 20, R64) == 66

    def test_zero_mask_zero_share_is_identity(self):
        assert chain_step(123, (0, 0), [(7, 8), (1, 2)], 0, R64) == 123

    def test_zero_mask_chain_collapses(self):
        # all masks zero: the chain carries trace(data) - output mask through
        data = [(1, 2), (3, 4), (5, 6)]
        zero = (0, 0)
        u = chain_init(data[0], data[1:], 0, 9, R64)
        for i in (2, 3):
            u = chain_step(u, zero, [data[x - 1] for x in (1, 2, 3) if x != i], 0, R64)
        assert u == R64.reduce(63 - 9)


class TestEnumerateSubInstances:
    def test_two_positions_have_none(self):
        assert enumerate_sub_instances(2) == ()

    def test_three_positions_are_singletons(self):
        assert enumerate_sub_instances(3) == (
            ((1,), (2, 3), 1),
            ((2,), (1, 3), 1),
            ((3,), (1, 2), 1),
        )

    def test_four_positions(self):
        plan = enumerate_sub_instances(4)
        assert len(plan) == 10
        by_size = {}
        for kept, dropped, coefficient in plan:
            assert sorted(kept + dropped) == [1, 2, 3, 4]
            assert list(kept) == sorted(kept) and list(dropped) == sorted(dropped)
            by_size.setdefault(len(kept), set()).add(coefficient)
        assert by_size == {1: {2}, 2: {1}}

    @pytest.mark.parametrize("n,count", [(2, 0), (3, 3), (4, 10), (5, 25), (6, 56)])
    def test_counts(self, n, count):
        assert len(enumerate_sub_instances(n)) == count == 2**n - n - 2

    def test_rejects_singleton(self):
        with pytest.raises(InstanceShapeError):
            enumerate_sub_instances(1)

    def test_one_shared_plan_per_size(self):
        assert enumerate_sub_instances(5) is enumerate_sub_instances(5)


class TestAssignTtp:
    POOL = [PartyId.data(i) for i in (1, 2, 3)] + [PartyId.ttp("main")]

    def test_secure_rotates_to_uninvolved(self):
        got = assign_ttp(
            [PartyId.data(1), PartyId.ttp("main")],
            Policy.SECURE,
            PartyId.ttp("main"),
            self.POOL,
        )
        assert got == PartyId.data(2)

    def test_flawed_keeps_parent_ttp(self):
        got = assign_ttp(
            [PartyId.data(1), PartyId.ttp("main")],
            Policy.FLAWED,
            PartyId.ttp("main"),
            self.POOL,
        )
        assert got == PartyId.ttp("main")

    def test_secure_lowest_index_rule(self):
        pool = [PartyId.data(i) for i in (1, 2, 3, 4)] + [PartyId.ttp("main")]
        got = assign_ttp(
            [PartyId.data(2), PartyId.data(3), PartyId.ttp("main")],
            Policy.SECURE,
            PartyId.ttp("main"),
            pool,
        )
        assert got == PartyId.data(1)

    def test_secure_ignores_pool_order(self):
        """The choice is the lowest id by index, not by string ("p10" <
        "p2"), whatever order the pool comes in."""
        pool = [PartyId.data(i) for i in (1, 2, 10)]
        pool += [PartyId.ttp("a"), PartyId.ttp("main")]
        got = {
            assign_ttp(
                [PartyId.data(1), PartyId.ttp("main")],
                Policy.SECURE,
                PartyId.ttp("main"),
                order,
            )
            for order in itertools.permutations(pool)
        }
        assert got == {PartyId.data(2)}

    def test_secure_exhausted_pool(self):
        with pytest.raises(TtpAssignmentError):
            assign_ttp(self.POOL, Policy.SECURE, PartyId.ttp("main"), self.POOL)


class TestAggregateFinal:
    def test_zero_mask_degeneracy(self):
        sub_results = [(1, 0)] * 3
        assert aggregate_final(R64.reduce(63 - 9), sub_results, 9, R64) == 63

    def test_coefficients_scale_sub_results(self):
        sub_results = [(2, 5), (1, 7)]
        assert aggregate_final(100, sub_results, 3, R64) == 100 + 10 + 7 + 3


class TestTwoPositionChain:
    """A two-position instance runs chain_init -> chain_step ->
    aggregate_final with no sub-results."""

    def test_worked_example(self):
        a, b = vec([2]), vec([3])
        mask_a, mask_b = vec([5]), vec([7])
        share_a = 11
        share_b = R64.reduce(35 - share_a)  # trace(5*7) = 35
        assert share_b == 24
        output_mask = 4
        masked_a = a.add(mask_a)
        assert masked_a.entries == (7,)
        masked_b = b.add(mask_b)
        assert masked_b.entries == (10,)
        # trace(10*2) + 11 - 4
        first = chain_init(a.entries, [masked_b.entries], share_a, output_mask, R64)
        assert first == 27
        # 27 - trace(7*7) + 24
        last = chain_step(first, mask_b.entries, [masked_a.entries], share_b, R64)
        assert last == 2
        assert aggregate_final(last, [], output_mask, R64) == 6

    def test_zero_vector(self):
        a, b = vec([0, 0, 0]), vec([9, 8, 7])
        mask_a, mask_b = vec([1, 2, 3]), vec([4, 5, 6])
        trace = 1 * 4 + 2 * 5 + 3 * 6
        share_a, share_b = 13, R64.reduce(trace - 13)
        first = chain_init(a.entries, [b.add(mask_b).entries], share_a, 99, R64)
        last = chain_step(first, mask_b.entries, [a.add(mask_a).entries], share_b, R64)
        assert aggregate_final(last, [], 99, R64) == 0
