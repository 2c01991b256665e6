import random

import pytest

from npscalar import (
    Message,
    MessageKind,
    PartyId,
    Policy,
    Ring,
    Transcript,
    View,
    count_instances,
    forced_guess_inputs,
    knowledge_closure,
    reconstruct_inputs,
    run_protocol,
    scan_mask_freshness,
    scan_mask_safety,
    scan_ttp_rotation,
)

TTP = PartyId.ttp("ttp")
HOLDER, OTHER = PartyId.data(1), PartyId.data(2)


def _share(seq, recipient, mask_id=0, mask=()):
    return Message(
        seq,
        TTP,
        recipient,
        0,
        MessageKind.SHARE_DISTRIBUTION,
        {"mask": mask},
        {"mask_id": mask_id},
    )


def _masked(seq, recipient, mask_id=0, subject=None, values=()):
    return Message(
        seq,
        HOLDER,
        recipient,
        0,
        MessageKind.MASKED_MATRIX,
        {"values": values},
        {"mask_id": mask_id, "subject": subject},
    )


def random_vectors(n, length, seed):
    r = random.Random(seed)
    return [tuple(r.randrange(1 << 64) for _ in range(length)) for _ in range(n)]


class TestReconstruction:
    @pytest.mark.parametrize("n", [3, 4])
    def test_flawed_recovers_every_party(self, n):
        vectors = random_vectors(n, 2, seed=n * 7)
        run = run_protocol(vectors, seed=5, policy=Policy.FLAWED)
        recovered = reconstruct_inputs(run.view_of(run.ttp))
        for i, truth in enumerate(vectors, start=1):
            assert recovered[PartyId.data(i)] == truth

    @pytest.mark.parametrize("n", [3, 4])
    def test_secure_recovers_nothing(self, n):
        vectors = random_vectors(n, 2, seed=n * 11)
        run = run_protocol(vectors, seed=5, policy=Policy.SECURE)
        assert reconstruct_inputs(run.view_of(run.ttp)) == {}

    def test_two_party_top_level_map_empty(self):
        run = run_protocol([(1, 2), (3, 4)], seed=0, policy=Policy.FLAWED)
        assert reconstruct_inputs(run.view_of(run.ttp)) == {}

    def test_forced_guess_misses(self):
        vectors = random_vectors(3, 2, seed=77)
        run = run_protocol(vectors, seed=1, policy=Policy.SECURE)
        guesses = forced_guess_inputs(run.view_of(run.ttp))
        assert guesses  # the stale-mask guess exists for every data party
        for party, guess in guesses.items():
            assert guess != vectors[party.index - 1]

    @pytest.mark.parametrize("mask_id,held", [(1, True), (9, False)])
    def test_forced_guess_skips_a_vector_whose_mask_is_held(self, mask_id, held):
        """The TTP gave HOLDER mask 1. A masked input of HOLDER blinded by
        mask 1 is the exact attack's, so the guess leaves it out; one
        blinded by a mask the TTP never held is guessed with mask 1."""
        masked = _masked(
            1, TTP, mask_id, {"kind": "input", "party": str(HOLDER)}, (15, 16)
        )
        view = View(
            ring=Ring(),
            sent_messages=[_share(0, HOLDER, 1, (5, 6))],
            received_messages=[masked],
        )
        exact = {HOLDER: (10, 10)}
        assert forced_guess_inputs(view) == ({} if held else exact)
        assert reconstruct_inputs(view) == (exact if held else {})


class TestOfflineAudit:
    """The attack needs only an exported transcript: a party's view is the
    messages it sent and received."""

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [3, 4])
    def test_reconstruction_from_export(self, n, policy):
        vectors = random_vectors(n, 2, seed=n * 13)
        run = run_protocol(vectors, seed=6, policy=policy)
        imported = Transcript.from_jsonl(run.transcript.export_jsonl())
        sent, received = imported.messages_of(run.ttp)
        offline = View(run.ring, sent_messages=sent, received_messages=received)
        recovered = reconstruct_inputs(offline)
        assert recovered == reconstruct_inputs(run.view_of(run.ttp))
        assert len(recovered) == (n if policy is Policy.FLAWED else 0)

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_view_audits_the_same_offline(self, n, policy):
        """Each party's closure and reconstruction read the same from the
        live run and from its exported transcript, whose payloads come
        back as lists, not tuples. Own inputs are not in a transcript, so
        the offline view takes them from the party."""
        vectors = random_vectors(n, 2, seed=n * 13)
        run = run_protocol(vectors, seed=6, policy=policy)
        imported = Transcript.from_jsonl(run.transcript.export_jsonl())
        assert all(
            type(m.payload["mask"]) is list
            for m in imported
            if m.kind is MessageKind.SHARE_DISTRIBUTION
        )
        for party in (*run.data_parties, run.ttp):
            live = run.view_of(party)
            sent, received = imported.messages_of(party)
            offline = View(run.ring, live.own_inputs, sent, received)
            assert knowledge_closure(offline) == knowledge_closure(live)
            assert reconstruct_inputs(offline) == reconstruct_inputs(live)


class TestKnowledgeClosure:
    def test_secure_ttp_knows_masks_not_inputs(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=2, policy=Policy.SECURE)
        atoms = knowledge_closure(run.view_of(run.ttp))
        top_ids = [
            m.meta["mask_id"]
            for m in run.transcript
            if m.instance_id == 0 and m.kind is MessageKind.SHARE_DISTRIBUTION
        ]
        assert len(top_ids) == 3
        assert all(f"mask:{i}" in atoms for i in top_ids)
        assert not any(a.startswith("input:") for a in atoms)

    def test_flawed_ttp_learns_inputs(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=2, policy=Policy.FLAWED)
        atoms = knowledge_closure(run.view_of(run.ttp))
        assert {"input:p1", "input:p2", "input:p3"} <= atoms

    @pytest.mark.parametrize("policy", list(Policy))
    def test_data_parties_never_learn_other_inputs(self, policy):
        for seed in range(100):
            run = run_protocol(random_vectors(3, 1, seed), seed=seed, policy=policy)
            for party in run.data_parties:
                atoms = knowledge_closure(run.view_of(party))
                inputs = {a for a in atoms if a.startswith("input:")}
                assert inputs == {f"input:{party}"}


    @pytest.mark.parametrize(
        "factors,derived", [((1, 2), True), ((1, 4), False)], ids=["known", "missing"]
    )
    def test_collapsed_product_needs_every_factor_mask(self, factors, derived):
        """The TTP knows masks 1-3 and receives a collapsed product of
        `factors` blinded by mask 3: the product is derived only when every
        factor mask is known."""
        masked = _masked(3, TTP, 3, {"kind": "prod", "masks": factors})
        view = View(
            ring=Ring(),
            sent_messages=[_share(seq, HOLDER, seq + 1) for seq in range(3)],
            received_messages=[masked],
        )
        atoms = knowledge_closure(view)
        assert atoms >= {"mask:1", "mask:2", "mask:3"}
        product = "prod:" + ",".join(map(str, factors))
        assert (product in atoms) == derived
        assert {a for a in atoms if a.startswith("prod:")} <= {product}


class TestTranscriptScans:
    def test_secure_scans_clean(self):
        for n in (3, 4, 5):
            run = run_protocol(random_vectors(n, 2, n), seed=n, policy=Policy.SECURE)
            assert scan_ttp_rotation(run.transcript) == []
            assert scan_mask_safety(run.transcript) == []

    def test_flawed_scans_flag_violations(self):
        run = run_protocol(random_vectors(3, 2, 1), seed=1, policy=Policy.FLAWED)
        assert len(scan_ttp_rotation(run.transcript)) == 3  # one per child
        assert scan_mask_safety(run.transcript) != []

    # In the two tests below OTHER receives a copy of mask 0, HOLDER (the
    # last recipient) holds it, and delivery order differs from seq order.

    def test_mask_safety_flags_mask_known_earlier_in_delivery(self):
        transcript = Transcript([
            _share(9, OTHER), _share(1, HOLDER), _masked(5, OTHER)
        ])
        assert scan_mask_safety(transcript) == [
            f"seq 5: mask 0 reached knowing party {OTHER}"
        ]

    def test_mask_safety_ignores_mask_learned_later_in_delivery(self):
        transcript = Transcript([
            _masked(9, OTHER), _share(2, OTHER), _share(3, HOLDER)
        ])
        assert scan_mask_safety(transcript) == []

    def test_mask_freshness_flags_a_repeated_id(self):
        transcript = Transcript([
            _share(0, HOLDER), _share(1, OTHER, mask_id=1), _share(2, OTHER)
        ])
        assert scan_mask_freshness(transcript) == ["mask 0 distributed twice"]


class TestCensus:
    @pytest.mark.parametrize(
        "n,direct,total",
        [(2, 0, 1), (3, 3, 4), (4, 10, 29), (5, 25, 336), (6, 56, 5687)],
    )
    def test_reference_values(self, n, direct, total):
        census = count_instances(n)
        assert census.direct_children == direct
        assert census.total_instances == total

    def test_direct_children_formula(self):
        for n in range(3, 12):
            assert count_instances(n).direct_children == 2**n - n - 2

    def test_per_depth_sums_to_total(self):
        for n in range(2, 9):
            census = count_instances(n)
            assert sum(census.per_depth) == census.total_instances

    @pytest.mark.parametrize(
        "n,messages,per_depth",
        [
            (7, 1_156_036, (1, 119, 2464, 18200, 54810, 56700)),
            (8, 35_372_536, (1, 246, 8862, 113820, 651560, 1685880, 1587600)),
        ],
    )
    def test_past_the_executed_sizes(self, n, messages, per_depth):
        """No run checks the census past n = 6, so its message count and
        instances per depth are pinned."""
        census = count_instances(n)
        assert census.messages == messages
        assert census.per_depth == per_depth

    def test_exponential_growth(self):
        totals = [count_instances(n).total_instances for n in range(3, 11)]
        ratios = [b / a for a, b in zip(totals, totals[1:])]
        assert all(r > 5 for r in ratios)
