"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. The heavy run grid (criterion 1) is computed
once and shared with the transcript-invariant and census criteria.
"""

import random

import pytest

from npscalar import (
    ModVector,
    PartyId,
    Policy,
    Ring,
    count_instances,
    chain_residual_coefficients,
    forced_guess_inputs,
    masked_product_coefficients,
    plaintext_oracle,
    product_trace,
    reconstruct_inputs,
    run_protocol,
    scan_mask_safety,
    scan_ttp_rotation,
)
from npscalar.analysis import evaluate_coefficients, masked_samples, uniformity_pvalue

R64 = Ring()

GRID_N = (2, 3, 4, 5, 6)
GRID_L = (1, 2, 8, 16)
SEEDS = {2: 100, 3: 100, 4: 100, 5: 100, 6: 10}  # n=6 capped: 5687 instances/run


def _vectors(n, length, seed):
    r = random.Random(seed * 1_000_003 + n * 101 + length)
    return [tuple(r.randrange(1 << 64) for _ in range(length)) for _ in range(n)]


def _report(criterion, ok, detail):
    # Captured with the test's report; tests/conftest.py prints every
    # ACCEPTANCE line in the terminal summary (with -s it appears inline).
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def grid():
    """Criterion-1 run grid; also collects the data for criteria 4 and 5."""
    oracle_mismatches = []
    rotation_violations = []
    safety_violations = []
    census_mismatches = []
    runs = 0
    for n in GRID_N:
        census = count_instances(n)
        for length in GRID_L:
            for policy in Policy:
                for seed in range(SEEDS[n]):
                    vectors = _vectors(n, length, seed)
                    run = run_protocol(vectors, seed=seed, policy=policy)
                    runs += 1
                    if run.result != plaintext_oracle(vectors, R64):
                        oracle_mismatches.append((n, length, policy.value, seed))
                    if run.instance_count != census.total_instances:
                        census_mismatches.append((n, length, policy.value, seed))
                    if policy is Policy.SECURE:
                        rotation_violations += scan_ttp_rotation(run.transcript)
                        safety_violations += scan_mask_safety(run.transcript)
    return {
        "runs": runs,
        "oracle_mismatches": oracle_mismatches,
        "rotation_violations": rotation_violations,
        "safety_violations": safety_violations,
        "census_mismatches": census_mismatches,
    }


def test_criterion_1_oracle_equivalence(grid):
    ok = not grid["oracle_mismatches"]
    _report(
        "criterion-1 oracle equivalence",
        ok,
        f"{grid['runs']} runs, {len(grid['oracle_mismatches'])} mismatches",
    )
    assert ok, grid["oracle_mismatches"][:5]


def test_criterion_2_decomposition_identity():
    bad = []
    for n in range(3, 8):
        coeffs = chain_residual_coefficients(n)
        for kept, c in coeffs.items():
            t = len(kept)
            expected = 1 if t == n else 0 if t in (0, n - 1) else -(n - 1 - t)
            if c != expected:
                bad.append((n, sorted(kept), c))
        full = masked_product_coefficients(n)
        if any(c != 1 for c in full.values()) or len(full) != 2**n:
            bad.append((n, "decomposition"))
        # numeric cross-check of the decomposition on random vectors
        r = random.Random(n)
        data = [ModVector([r.randrange(1 << 64) for _ in range(3)], R64) for _ in range(n)]
        masks = [ModVector([r.randrange(1 << 64) for _ in range(3)], R64) for _ in range(n)]
        masked = [d.add(m) for d, m in zip(data, masks)]
        if evaluate_coefficients(full, data, masks, R64) != product_trace(masked, R64):
            bad.append((n, "decomposition-numeric"))
    _report("criterion-2 decomposition identity", not bad, "n in 3..7, exact")
    assert not bad, bad


def test_criterion_3_attack_dichotomy():
    failures = []
    for n in (3, 4):
        for seed in range(50):
            vectors = _vectors(n, 2, seed + 5000)
            flawed = run_protocol(vectors, seed=seed, policy=Policy.FLAWED)
            recovered = reconstruct_inputs(flawed.view_of(flawed.ttp))
            for i, truth in enumerate(vectors, start=1):
                if recovered.get(PartyId.data(i)) != truth:
                    failures.append(("flawed", n, seed, i))
            secure = run_protocol(vectors, seed=seed, policy=Policy.SECURE)
            view = secure.view_of(secure.ttp)
            if reconstruct_inputs(view):
                failures.append(("secure-nonempty", n, seed))
            guesses = forced_guess_inputs(view)
            if not guesses or any(
                g == vectors[p.index - 1] for p, g in guesses.items()
            ):
                failures.append(("secure-guess", n, seed))
    _report(
        "criterion-3 attack dichotomy",
        not failures,
        "n in {3,4}, 50 seeds each, flawed exact / secure empty",
    )
    assert not failures, failures[:5]


def test_criterion_4_ttp_rotation_invariant(grid):
    ok = not grid["rotation_violations"] and not grid["safety_violations"]
    _report(
        "criterion-4 rotation and mask-recipient safety",
        ok,
        f"{len(grid['rotation_violations'])} rotation / "
        f"{len(grid['safety_violations'])} mask-safety violations over all "
        "secure runs",
    )
    assert ok


def test_criterion_5_complexity_claim(grid):
    expected = {3: (3, 4), 4: (10, 29), 5: (25, 336), 6: (56, 5687)}
    bad = []
    for n, (direct, total) in expected.items():
        census = count_instances(n)
        if (census.direct_children, census.total_instances) != (direct, total):
            bad.append((n, census))
    table = [count_instances(n).total_instances for n in range(2, 11)]
    growing = all(b > 2 * a for a, b in zip(table[1:], table[2:]))
    ok = not bad and not grid["census_mismatches"] and growing
    _report(
        "criterion-5 complexity census",
        ok,
        f"totals {table} for n=2..10; live runs matched census",
    )
    assert ok, (bad, grid["census_mismatches"][:5])


def test_criterion_6_base_case_identity():
    mismatches = 0
    for seed in range(1000):
        r = random.Random(seed + 9_000_000)
        a = tuple(r.randrange(1 << 64) for _ in range(3))
        b = tuple(r.randrange(1 << 64) for _ in range(3))
        run = run_protocol([a, b], seed=seed)
        if run.result != plaintext_oracle([a, b], R64):
            mismatches += 1
    _report(
        "criterion-6 two-party base case", mismatches == 0, "1000 instances, exact"
    )
    assert mismatches == 0


def test_criterion_7_determinism_and_seed_independence():
    failures = []
    for c in range(20):
        vectors = _vectors(3, 2, c + 7_000)
        first = run_protocol(vectors, seed=c)
        replay = run_protocol(vectors, seed=c)
        if first.transcript.export_jsonl() != replay.transcript.export_jsonl():
            failures.append(("transcript", c))
        other_seed = run_protocol(vectors, seed=c + 1)
        if other_seed.result != first.result:
            failures.append(("result", c))
    _report(
        "criterion-7 determinism and seed-independence", not failures, "20 configs"
    )
    assert not failures, failures


def test_criterion_8_mask_uniformity():
    samples = masked_samples(value=17, count=10_000, modulus=251, seed=4242)
    p = uniformity_pvalue(samples, 251)
    ok = p >= 0.001
    _report("criterion-8 mask uniformity", ok, f"chi-square p={p:.4f} >= 0.001")
    assert ok
