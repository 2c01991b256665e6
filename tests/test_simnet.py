import pytest

from npscalar import (
    MessageKind,
    Network,
    PartyId,
    Policy,
    Ring,
    RoutingError,
    run_protocol,
    scan_mask_freshness,
)

ALICE = PartyId.data(1)
BOB = PartyId.data(2)


def make_net():
    net = Network()
    net.register(ALICE)
    net.register(BOB)
    return net


class TestBus:
    def test_send_then_deliver_round_trips(self):
        net = make_net()
        sent = net.send(ALICE, BOB, 0, MessageKind.CHAIN_VALUE, {"value": 1})
        got = net.deliver_next()
        assert got is sent
        assert net.deliver_next() is None

    def test_fifo_per_channel(self):
        net = make_net()
        net.send(ALICE, BOB, 0, MessageKind.CHAIN_VALUE, {"value": 1})
        net.send(ALICE, BOB, 0, MessageKind.CHAIN_VALUE, {"value": 2})
        assert [net.deliver_next().payload["value"] for _ in range(2)] == [1, 2]

    def test_unknown_recipient(self):
        net = make_net()
        with pytest.raises(RoutingError):
            net.send(ALICE, PartyId.data(9), 0, MessageKind.CHAIN_VALUE, {})

    def test_unknown_view(self):
        net = make_net()
        with pytest.raises(RoutingError):
            net.view_of(PartyId.ttp("nobody"), Ring())


class TestTranscript:
    def test_replay_is_byte_identical(self):
        vectors = [(4, 9), (2, 7), (5, 5)]
        a = run_protocol(vectors, seed=13).transcript.export_jsonl()
        b = run_protocol(vectors, seed=13).transcript.export_jsonl()
        assert a == b

    def test_different_seed_changes_transcript(self):
        vectors = [(4, 9), (2, 7), (5, 5)]
        a = run_protocol(vectors, seed=13).transcript.export_jsonl()
        b = run_protocol(vectors, seed=14).transcript.export_jsonl()
        assert a != b

    def test_every_message_delivered_once(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=1)
        seqs = [m.seq for m in run.transcript]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert run.net.deliver_next() is None

    def test_mask_freshness(self):
        run = run_protocol([[1, 0, 1]] * 5, seed=3)
        assert scan_mask_freshness(run.transcript) == []


class TestViews:
    def test_ttp_receives_nothing_at_top_level(self):
        # 2 parties: no sub-instances, so the TTP only ever sends
        run = run_protocol([(1, 2), (3, 4)], seed=0)
        view = run.view_of(run.ttp)
        assert view.received_messages == []

    def test_data_party_sees_other_broadcasts(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=2)
        view = run.view_of(PartyId.data(2))
        top_masked = [
            m
            for m in view.received_messages
            if m.kind is MessageKind.MASKED_MATRIX and m.instance_id == 0
        ]
        assert sorted(m.payload["from_pos"] for m in top_masked) == [1, 3]

    def test_views_partition_transcript(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=2)
        received, sent = [], []
        for party in (*run.data_parties, run.ttp):
            received += [m.seq for m in run.view_of(party).received_messages]
            sent += [m.seq for m in run.view_of(party).sent_messages]
        assert sorted(received) == sorted(sent) == [m.seq for m in run.transcript]

    @pytest.mark.parametrize("policy", list(Policy))
    def test_sent_shares_are_the_bundles_generated(self, policy):
        run = run_protocol([(1, 2), (3, 4), (5, 6), (7, 8)], seed=3, policy=policy)
        for party in (*run.data_parties, run.ttp):
            sent = [
                m.meta["mask_id"]
                for m in run.view_of(party).sent_messages
                if m.kind is MessageKind.SHARE_DISTRIBUTION
            ]
            generated = [
                b.mask_id
                for inst in run.engine.instances.values()
                if inst.ttp == party
                for b in inst.ttp_bundles
            ]
            assert sorted(sent) == sorted(generated)
