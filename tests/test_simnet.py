import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npscalar import (
    Message,
    MessageKind,
    Network,
    PartyId,
    Policy,
    Ring,
    RoutingError,
    Transcript,
    run_protocol,
    scan_mask_freshness,
)
from npscalar import simnet

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

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_import_round_trips(self, n, policy):
        vectors = [(i, 2 * i + 1) for i in range(1, n + 1)]
        text = run_protocol(vectors, seed=n, policy=policy).transcript.export_jsonl()
        assert Transcript.from_jsonl(text).export_jsonl() == text


def _stdlib_export(transcript):
    """The reference the export's single encoder must reproduce."""
    return "\n".join(
        json.dumps(m.record(), sort_keys=True, separators=(",", ":"))
        for m in transcript
    )


def _hand_built(*payloads, metas=None, sender=ALICE):
    metas = metas or [{}] * len(payloads)
    return Transcript(
        Message(seq, sender, BOB, seq, MessageKind.CHAIN_VALUE, payload, meta)
        for seq, (payload, meta) in enumerate(zip(payloads, metas))
    )


class _Int(int):
    """An int whose text is not its digits; `json` writes it as an int."""

    def __repr__(self):
        return "_Int"

    __str__ = __repr__


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),
    st.floats(),
    st.text(),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
_parties = st.one_of(
    st.integers(min_value=1, max_value=12).map(PartyId.data),
    st.text(max_size=4).map(PartyId.ttp),
)


@st.composite
def _messages(draw):
    """A message whose fields are any JSON-able values: str keys, big
    ints, non-ASCII text, tuples and lists."""
    payload = draw(st.dictionaries(st.text(max_size=4), _json_values, max_size=3))
    meta = draw(st.dictionaries(st.text(max_size=4), _json_values, max_size=2))
    seq, instance = draw(_scalars), draw(_scalars)
    kind = draw(st.sampled_from(list(MessageKind)))
    return Message(seq, draw(_parties), draw(_parties), instance, kind, payload, meta)


class TestExportEncoder:
    """`export_jsonl` is `json.dumps` per record, bytes and errors alike."""

    def test_non_ascii_ttp_label(self):
        transcript = _hand_built(
            {"value": 1}, {"value": 2}, sender=PartyId.ttp('caf\u00e9 "q"')
        )
        text = transcript.export_jsonl()
        assert text == _stdlib_export(transcript)
        assert '"from":"ttp:caf\\u00e9 \\"q\\""' in text

    def test_nested_shared_and_empty_meta(self):
        shared = {"b": [1, {"z": 2, "a": (3, 4)}], "a": {}}
        transcript = _hand_built(
            {"v": 1}, {"v": 2}, {"v": 3}, metas=[shared, shared, {}]
        )
        assert transcript.export_jsonl() == _stdlib_export(transcript)

    def test_tuple_and_list_payloads(self):
        values = (1 << 63, 0, 7)
        transcript = _hand_built(
            {"values": values}, {"values": list(values)}, {"mask": values, "k": []}
        )
        assert transcript.export_jsonl() == _stdlib_export(transcript)

    def test_unserialisable_value_raises_same_error(self):
        transcript = _hand_built({"v": 1}, {"v": {1, 2}})
        with pytest.raises(TypeError) as expected:
            _stdlib_export(transcript)
        with pytest.raises(TypeError) as got:
            transcript.export_jsonl()
        assert str(got.value) == str(expected.value)

    def test_self_reference_raises_circular(self):
        payload = {"v": 1}
        payload["self"] = payload
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            _hand_built({"v": 0}, payload).export_jsonl()

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
    def test_messages_sharing_a_meta_object(self, c_encoder, monkeypatch):
        """A meta object is encoded once per export; every message that
        carries it, and an equal copy, still exports the reference bytes."""
        if not c_encoder:
            monkeypatch.setattr(simnet, "c_make_encoder", None)
        one = {"mask_id": 3, "subject": {"kind": "prod", "masks": (0, 2)}}
        other = {"mask_id": 4, "subject": {"kind": "input", "party": "p1"}}
        transcript = _hand_built(
            *({"v": v} for v in range(5)), metas=[one, other, one, dict(one), one]
        )
        assert transcript.export_jsonl() == _stdlib_export(transcript)

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
    @pytest.mark.parametrize("bad", ["unserialisable", "circular"])
    def test_shared_bad_meta_raises_same_error(self, bad, c_encoder, monkeypatch):
        if not c_encoder:
            monkeypatch.setattr(simnet, "c_make_encoder", None)
        meta = {"v": {1, 2}} if bad == "unserialisable" else {}
        if bad == "circular":
            meta["self"] = meta
        transcript = _hand_built({"v": 1}, {"v": 2}, metas=[meta, meta])
        with pytest.raises((TypeError, ValueError)) as expected:
            _stdlib_export(transcript)
        with pytest.raises(type(expected.value)) as got:
            transcript.export_jsonl()
        assert str(got.value) == str(expected.value)

    def test_fallback_without_c_encoder(self, monkeypatch):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=4)
        fast = run.transcript.export_jsonl()
        monkeypatch.setattr(simnet, "c_make_encoder", None)
        assert run.transcript.export_jsonl() == fast == _stdlib_export(run.transcript)

    @pytest.mark.parametrize("field", ["seq", "instance_id"])
    @pytest.mark.parametrize(
        "value",
        [True, 1.5, float("nan"), "7", None, _Int(7)],
        ids=["bool", "float", "nan", "str", "none", "int-subclass"],
    )
    def test_envelope_number_that_is_not_an_int(self, field, value, monkeypatch):
        """Only an exact `int` is written as int text; any other `seq` or
        `instance` is encoded as `json.dumps` would encode it, with or
        without the C encoder."""
        transcript = _hand_built({"v": 1}, {"v": 2})
        setattr(list(transcript)[1], field, value)
        expected = _stdlib_export(transcript)
        assert transcript.export_jsonl() == expected
        monkeypatch.setattr(simnet, "c_make_encoder", None)
        assert transcript.export_jsonl() == expected

    def test_unserialisable_seq_raises_same_error(self):
        transcript = _hand_built({"v": 1})
        transcript[0].seq = object()
        with pytest.raises(TypeError) as expected:
            _stdlib_export(transcript)
        with pytest.raises(TypeError) as got:
            transcript.export_jsonl()
        assert str(got.value) == str(expected.value)

    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(_messages(), min_size=1, max_size=4))
    def test_random_records_match_stdlib(self, messages):
        transcript = Transcript(messages)
        assert transcript.export_jsonl() == _stdlib_export(transcript)

    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(_messages(), min_size=1, max_size=4))
    def test_import_then_export_is_identity(self, messages):
        """Reading an exported text back and exporting it again gives the
        same text: every party id is read back as the id that wrote it."""
        transcript = Transcript(messages)
        text = transcript.export_jsonl()
        assert Transcript.from_jsonl(text).export_jsonl() == text


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

    def test_view_sees_later_messages(self):
        net = make_net()
        net.send(ALICE, BOB, 0, MessageKind.CHAIN_VALUE, {"value": 1})
        net.deliver_next()
        assert len(net.view_of(BOB, Ring()).received_messages) == 1
        net.send(ALICE, BOB, 0, MessageKind.CHAIN_VALUE, {"value": 2})
        net.deliver_next()
        net.transcript.append(
            Message(9, BOB, ALICE, 0, MessageKind.CHAIN_VALUE, {"value": 3}, {})
        )
        bob = net.view_of(BOB, Ring())
        assert [m.payload["value"] for m in bob.received_messages] == [1, 2]
        assert [m.payload["value"] for m in bob.sent_messages] == [3]

    def test_equal_party_gets_same_view(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=2)
        parsed = PartyId.from_str("p2")
        assert parsed is not PartyId.data(2)
        a, b = run.view_of(parsed), run.view_of(PartyId.data(2))
        assert a.sent_messages == b.sent_messages
        assert a.received_messages == b.received_messages
        assert a.received_messages and a.sent_messages

    def test_view_lists_are_copies(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=2)
        first = run.view_of(PartyId.data(2))
        expected = (list(first.sent_messages), list(first.received_messages))
        first.sent_messages.clear()
        first.received_messages.append(first.received_messages[0])
        again = run.view_of(PartyId.data(2))
        assert (again.sent_messages, again.received_messages) == expected

    def test_unknown_party_after_run(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=2)
        run.view_of(run.ttp)
        with pytest.raises(RoutingError):
            run.view_of(PartyId.data(9))

    @pytest.mark.parametrize("policy", list(Policy))
    def test_sent_shares_are_the_bundles_generated(self, policy):
        """The mask ids a party's view shows it sent as shares are those
        the positions of the instances it generates for broadcast under."""
        run = run_protocol([(1, 2), (3, 4), (5, 6), (7, 8)], seed=3, policy=policy)
        ttp_of = {}  # instance id -> sender of its shares
        broadcast = {}  # (instance id, position) -> mask id in its broadcasts
        for m in run.transcript:
            if m.kind is MessageKind.SHARE_DISTRIBUTION:
                ttp_of[m.instance_id] = m.sender
            elif m.kind is MessageKind.MASKED_MATRIX:
                key = (m.instance_id, m.payload["from_pos"])
                broadcast[key] = m.meta["mask_id"]
        visited = 0
        for party in (*run.data_parties, run.ttp):
            sent = [
                m.meta["mask_id"]
                for m in run.view_of(party).sent_messages
                if m.kind is MessageKind.SHARE_DISTRIBUTION
            ]
            generated = [
                mask_id
                for (instance_id, _), mask_id in broadcast.items()
                if ttp_of[instance_id] == party
            ]
            assert sorted(sent) == sorted(generated)
            visited += len(generated)
        shares = sum(m.kind is MessageKind.SHARE_DISTRIBUTION for m in run.transcript)
        assert visited == len(broadcast) == shares
