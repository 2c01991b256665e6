import random

import pytest

from npscalar import (
    InstanceShapeError,
    ModVector,
    Ring,
    chain_init,
    chain_residual_coefficients,
    chain_step,
    masked_product_coefficients,
    mixed_term,
    plaintext_oracle,
    product_trace,
)
from npscalar.analysis import evaluate_coefficients

R64 = Ring()


def random_instance(n, length, seed):
    r = random.Random(seed)
    data = [
        ModVector([r.randrange(R64.modulus) for _ in range(length)], R64)
        for _ in range(n)
    ]
    masks = [
        ModVector([r.randrange(R64.modulus) for _ in range(length)], R64)
        for _ in range(n)
    ]
    return data, masks


class TestResidualCoefficients:
    def test_three_positions_hand_checked(self):
        coeffs = chain_residual_coefficients(3)
        assert coeffs[frozenset({1, 2, 3})] == 1
        for t in ({1}, {2}, {3}):
            assert coeffs[frozenset(t)] == -1
        for t in ({1, 2}, {1, 3}, {2, 3}):
            assert coeffs[frozenset(t)] == 0
        assert coeffs[frozenset()] == 0

    def test_four_positions(self):
        coeffs = chain_residual_coefficients(4)
        by_size = {}
        for k, v in coeffs.items():
            by_size.setdefault(len(k), set()).add(v)
        assert by_size == {0: {0}, 1: {-2}, 2: {-1}, 3: {0}, 4: {1}}

    @pytest.mark.parametrize("n", range(3, 8))
    def test_general_pattern(self, n):
        coeffs = chain_residual_coefficients(n)
        for kept, c in coeffs.items():
            t = len(kept)
            if t == n:
                assert c == 1
            elif t in (0, n - 1):
                assert c == 0
            else:
                assert c == -(n - 1 - t)

    def test_range_check(self):
        with pytest.raises(InstanceShapeError):
            chain_residual_coefficients(9)


class TestDecompositionIdentity:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_masked_product_equals_sum_of_mixed_terms(self, n):
        coeffs = masked_product_coefficients(n)
        assert all(c == 1 for c in coeffs.values())
        assert len(coeffs) == 2**n
        data, masks = random_instance(n, 3, seed=n)
        masked = [d.add(r) for d, r in zip(data, masks)]
        direct = product_trace(masked, R64)
        assert evaluate_coefficients(coeffs, data, masks, R64) == direct


class TestChainAgainstSymbolicOracle:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_residual_identity_numeric(self, n):
        # run the chain arithmetic by hand and compare the residual with
        # the symbolic coefficients evaluated on the same vectors
        data, masks = random_instance(n, 2, seed=100 + n)
        masked = [d.add(r) for d, r in zip(data, masks)]
        trace_masks = product_trace(masks, R64)
        r = random.Random(999 + n)
        shares = [r.randrange(R64.modulus) for _ in range(n - 1)]
        shares.append(R64.reduce(trace_masks - sum(shares)))
        output_mask = r.randrange(R64.modulus)

        entries = [v.entries for v in masked]
        u = chain_init(data[0].entries, entries[1:], shares[0], output_mask, R64)
        for i in range(2, n + 1):
            others = [entries[x - 1] for x in range(1, n + 1) if x != i]
            u = chain_step(u, masks[i - 1].entries, others, shares[i - 1], R64)

        coeffs = chain_residual_coefficients(n)
        expected = evaluate_coefficients(coeffs, data, masks, R64)
        assert R64.reduce(u + output_mask) == expected

        # equivalently: the residual is minus the weighted mixed terms
        plain = plaintext_oracle([d.entries for d in data], R64)
        residual = R64.reduce(u + output_mask - plain)
        weighted = 0
        for kept, c in coeffs.items():
            if 1 <= len(kept) <= n - 2:
                assert c == -(n - 1 - len(kept))
                weighted += (n - 1 - len(kept)) * mixed_term(kept, data, masks, R64)
        assert residual == R64.reduce(-weighted)

    def test_all_random_class_cancels(self):
        for n in range(2, 7):
            assert chain_residual_coefficients(n)[frozenset()] == 0
