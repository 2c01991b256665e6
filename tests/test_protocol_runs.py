import hashlib
import itertools
import json
import random
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy
import pytest

import npscalar.protocol
from npscalar import (
    InputShapeError,
    InstanceShapeError,
    MessageKind,
    ModVector,
    Network,
    PartyId,
    Policy,
    ProtocolStateError,
    Ring,
    Rng,
    TtpAssignmentError,
    count_instances,
    enumerate_sub_instances,
    mixed_term,
    plaintext_oracle,
    reconstruct_inputs,
    run_protocol,
    scan_mask_freshness,
    scan_mask_safety,
    scan_ttp_rotation,
)

R64 = Ring()


def random_vectors(n, length, seed, modulus=1 << 64):
    r = random.Random(seed)
    return [[r.randrange(modulus) for _ in range(length)] for _ in range(n)]


class TestEndToEnd:
    def test_two_parties_use_base_case(self):
        run = run_protocol([(1, 0, 1), (1, 1, 0)], seed=3)
        assert run.result == 1
        assert run.instance_count == 1

    def test_three_parties_all_ones(self):
        run = run_protocol([[1] * 5] * 3, seed=0)
        assert run.result == 5

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_oracle(self, n, policy):
        for seed in range(20):
            vectors = random_vectors(n, 3, seed * 31 + n)
            run = run_protocol(vectors, seed=seed, policy=policy)
            assert run.result == plaintext_oracle(vectors, R64)

    def test_binary_intersection_count(self):
        # 0/1 vectors: the scalar product counts coordinates set in all five
        vectors = random_vectors(5, 8, seed=42, modulus=2)
        expected = sum(
            1 for j in range(8) if all(v[j] == 1 for v in vectors)
        )
        run = run_protocol(vectors, seed=9)
        assert run.result == expected == plaintext_oracle(vectors, R64)

    def test_seed_independence_of_result(self):
        vectors = [(1, 2), (3, 4), (5, 6)]
        results = {run_protocol(vectors, seed=s).result for s in range(10)}
        assert results == {63}

    def test_small_prime_modulus(self):
        vectors = [(200, 13), (250, 99), (7, 121)]
        run = run_protocol(vectors, modulus=251, seed=4)
        assert run.result == plaintext_oracle(vectors, Ring(251))

    @pytest.mark.parametrize("modulus", [1 << 64, (1 << 61) - 1], ids=["2^64", "2^61-1"])
    def test_inputs_in_range_are_the_callers_ints(self, modulus):
        """A party's recorded input holds the caller's own int objects: the
        engine checks entries already in the ring and does not rebuild them."""
        vectors = random_vectors(3, 4, seed=5, modulus=modulus)
        run = run_protocol(vectors, modulus=modulus, seed=1)
        for party, vec in zip(run.data_parties, vectors):
            (record,) = run.view_of(party).own_inputs
            assert all(e is x for e, x in zip(record["values"], vec, strict=True))


def _sizes(run):
    """Instance id -> number of positions: one share distribution each."""
    return Counter(
        m.instance_id
        for m in run.transcript
        if m.kind is MessageKind.SHARE_DISTRIBUTION
    )


def _sub_results(run):
    """(parent id, payload) of every sub-result, in transcript order."""
    return [
        (m.instance_id, m.payload)
        for m in run.transcript
        if m.kind is MessageKind.SUB_RESULT
    ]


def _kept(run):
    """Child id -> the parent positions it keeps: its entry in its parent's
    plan, counted from the smallest child id that parent received."""
    reports = sorted((p["child"], parent) for parent, p in _sub_results(run))
    first = {}
    for child, parent in reports:
        first.setdefault(parent, child)
    sizes = _sizes(run)
    return {
        child: enumerate_sub_instances(sizes[parent])[child - first[parent]][0]
        for child, parent in reports
    }


class TestCompletionAndStructure:
    def test_all_instances_done_and_depth_bounded(self):
        for n in (2, 3, 4, 5):
            run = run_protocol(random_vectors(n, 2, n), seed=n)
            # every sub-instance that got shares reported to its parent
            children = [p["child"] for _, p in _sub_results(run)]
            assert sorted(children) == sorted(set(_sizes(run)) - {0})
            assert len(children) == count_instances(n).total_instances - 1
            finals = [
                m.payload["to_pos"]
                for m in run.transcript
                if m.kind is MessageKind.FINAL_RESULT and m.instance_id == 0
            ]
            assert sorted(finals) == list(range(1, n + 1))
            assert len(run.per_depth_counts()) - 1 <= max(n - 2, 0)

    def test_executed_counts_match_census(self):
        for n in (2, 3, 4, 5):
            for policy in Policy:
                run = run_protocol(random_vectors(n, 2, n), seed=1, policy=policy)
                census = count_instances(n)
                assert run.instance_count == census.total_instances
                assert run.message_count == census.messages
                assert run.per_depth_counts() == list(census.per_depth)

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_message_kinds_match_instances(self, n, policy):
        run = run_protocol(random_vectors(n, 2, n), seed=1, policy=policy)
        sizes = list(_sizes(run).values())
        assert len(sizes) == count_instances(n).total_instances
        assert Counter(msg.kind for msg in run.transcript) == Counter(
            {
                MessageKind.SHARE_DISTRIBUTION: sum(sizes),
                MessageKind.MASKED_MATRIX: sum(m * (m - 1) for m in sizes),
                MessageKind.CHAIN_VALUE: sum(sizes),
                MessageKind.SUB_RESULT: len(sizes) - 1,
                MessageKind.FINAL_RESULT: n,
            }
        )

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mask_ids_are_numbered_by_the_engine(self, n, policy):
        """Share distributions name masks 0, 1, ... in transcript order,
        each instance's consecutively by position. Every product subject
        names ascending ids; a child's collapsed position, its last, names
        masks its parent distributed (a kept position keeps its subject)."""
        for seed in range(3):
            run = run_protocol(random_vectors(n, 2, seed), seed=seed, policy=policy)
            shares = [
                m for m in run.transcript if m.kind is MessageKind.SHARE_DISTRIBUTION
            ]
            assert [m.meta["mask_id"] for m in shares] == list(range(len(shares)))
            ids = {}  # instance id -> to_pos -> mask id
            for m in shares:
                ids.setdefault(m.instance_id, {})[m.payload["to_pos"]] = m.meta[
                    "mask_id"
                ]
            for by_pos in ids.values():
                m, first = len(by_pos), by_pos[1]
                assert [by_pos[j] for j in range(1, m + 1)] == list(
                    range(first, first + m)
                )
            parent_of = {p["child"]: parent for parent, p in _sub_results(run)}
            products = 0
            for msg in run.transcript:
                if msg.kind is not MessageKind.MASKED_MATRIX:
                    continue
                subject = msg.meta["subject"]
                if subject["kind"] != "prod":
                    continue
                masks = subject["masks"]
                assert list(masks) == sorted(set(masks))
                iid = msg.instance_id
                if msg.payload["from_pos"] == len(ids[iid]):
                    assert set(masks) <= set(ids[parent_of[iid]].values())
                    products += 1
            assert (products > 0) == (n > 2)
            assert scan_mask_freshness(run.transcript) == []

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_meta_record_per_mask(self, n, policy):
        """A share distribution's meta is `{"mask_id", "subject"}`, and it
        is the very object every broadcast of its position carries."""
        run = run_protocol(random_vectors(n, 2, n), seed=n, policy=policy)
        metas = {}  # (instance id, position) -> the share's meta
        for m in run.transcript:
            if m.kind is MessageKind.SHARE_DISTRIBUTION:
                assert set(m.meta) == {"mask_id", "subject"}
                metas[m.instance_id, m.payload["to_pos"]] = m.meta
        sent = Counter()
        for m in run.transcript:
            if m.kind is MessageKind.MASKED_MATRIX:
                key = (m.instance_id, m.payload["from_pos"])
                assert m.meta is metas[key]
                sent[key] += 1
        sizes = _sizes(run)
        assert sent == {key: sizes[key[0]] - 1 for key in metas}

    @pytest.mark.parametrize("modulus", [1 << 64, 251])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_draw_per_instance(self, n, modulus, monkeypatch):
        """An instance draws all its randomness, m * (L + 1) entries, in one
        `Rng` call when it starts."""
        draws = []

        class CountingRng(Rng):
            def vector(self, ring, length):
                draws.append(length)
                return super().vector(ring, length)

        monkeypatch.setattr(npscalar.protocol, "Rng", CountingRng)
        run = run_protocol(random_vectors(n, 3, n, modulus), seed=n, modulus=modulus)
        assert len(draws) == run.instance_count
        assert sorted(draws) == sorted(m * 4 for m in _sizes(run).values())

    def test_children_strictly_smaller(self):
        run = run_protocol(random_vectors(5, 2, 0), seed=0)
        sizes = _sizes(run)
        kept = _kept(run)
        reports = _sub_results(run)
        for parent, payload in reports:
            assert payload["child"] > parent
            assert sizes[payload["child"]] == len(kept[payload["child"]]) + 1
            assert sizes[payload["child"]] < sizes[parent]
        assert len(reports) == count_instances(5).total_instances - 1

    def test_sub_instance_output_is_mixed_term(self):
        vectors = random_vectors(4, 3, seed=8)
        run = run_protocol(vectors, seed=8)
        data = [ModVector(v, R64) for v in vectors]
        shares = sorted(
            (m.payload["to_pos"], m.payload["mask"])
            for m in run.transcript
            if m.instance_id == 0 and m.kind is MessageKind.SHARE_DISTRIBUTION
        )
        masks = [ModVector(mask, R64) for _, mask in shares]
        kept = _kept(run)
        reports = [p for parent, p in _sub_results(run) if parent == 0]
        for payload in reports:
            expected = mixed_term(kept[payload["child"]], data, masks, R64)
            assert payload["value"] == expected
        assert len(reports) == 2**4 - 4 - 2

    def test_singleton_children_are_two_party(self):
        run = run_protocol(random_vectors(3, 2, 5), seed=5)
        children = [p["child"] for parent, p in _sub_results(run) if parent == 0]
        assert len(children) == 3
        sizes = _sizes(run)
        assert all(sizes[c] == 2 for c in children)
        # each pairs one data party with the parent TTP holding the mask product
        for c in children:
            owners = dict(
                (m.payload["to_pos"], m.recipient)
                for m in run.transcript
                if m.instance_id == c and m.kind is MessageKind.SHARE_DISTRIBUTION
            )
            assert owners[2] == run.ttp
            assert owners[1] in run.data_parties

    def test_payload_keys_match_the_readme_table(self):
        """Every kind's payload carries exactly the keys, in the order, of
        the README's transcript table."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = re.search(r"^\| kind .*?\n\n", readme, re.M | re.S).group(0)
        table = {
            kind: re.findall(r"`(\w+)`", payload)
            for kind, payload in re.findall(
                r"^\| `(\w+)` +\|[^|]*\|([^|]*)\|", rows, re.M
            )
        }
        run = run_protocol(random_vectors(4, 2, 5), seed=5)
        keys = {}
        for msg in run.transcript:
            keys.setdefault(msg.kind.value, set()).add(tuple(msg.payload))
        assert keys == {kind: {tuple(names)} for kind, names in table.items()}
        assert keys[MessageKind.SUB_RESULT.value] == {("to_pos", "child", "value")}


class TestValidation:
    def test_rejects_single_party(self):
        with pytest.raises(InstanceShapeError):
            run_protocol([(1, 2)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputShapeError):
            run_protocol([(1, 2), (1, 2, 3)])

    def test_secure_ttp_never_joins_its_instance(self, monkeypatch):
        """A SECURE sub-instance whose TTP also holds one of its positions
        is refused when its generator is assigned, before it starts."""
        monkeypatch.setattr(
            npscalar.protocol, "assign_ttp", lambda owners, *_: owners[0]
        )
        message = "^p1 cannot generate shares for an instance it joins$"
        with pytest.raises(TtpAssignmentError, match=message):
            run_protocol([(1, 2), (3, 4), (5, 6)], seed=7)

    def test_transcript_ends_with_final_results(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=7)
        tail = run.transcript[-3:]
        assert all(m.kind is MessageKind.FINAL_RESULT for m in tail)
        assert {str(m.recipient) for m in tail} == {"p1", "p2", "p3"}


class DuplicatingNetwork(Network):
    """Delivers the first message that `pick` selects twice in a row."""

    def __init__(self, pick):
        super().__init__()
        self.pick = pick
        self.duplicated = None
        self._again = None

    def deliver_next(self):
        if self._again is not None:
            msg, self._again = self._again, None
            self.transcript.append(msg)
            return msg
        msg = super().deliver_next()
        if msg is not None and self.duplicated is None and self.pick(msg):
            self.duplicated = self._again = msg
        return msg


def _of_kind(kind):
    return lambda msg: msg.kind is kind


def _chain_to(closing):
    return lambda msg: (
        msg.kind is MessageKind.CHAIN_VALUE and (msg.payload["to_pos"] == 1) == closing
    )


def _top(pick):
    return lambda msg: msg.instance_id == 0 and pick(msg)


def _sub(pick):
    return lambda msg: msg.instance_id != 0 and pick(msg)


def _named(msg):
    """How an error names `msg`: its instance, kind and receiving position."""
    position = msg.payload["to_pos"]
    return f"instance {msg.instance_id}: {msg.kind.value} at position {position}:"


class TestDuplicateRejection:
    @pytest.mark.parametrize(
        "pick,problem",
        [
            (_of_kind(MessageKind.SHARE_DISTRIBUTION), lambda p: "duplicate"),
            (
                _of_kind(MessageKind.MASKED_MATRIX),
                lambda p: f"duplicate from position {p['from_pos']}",
            ),
            (_chain_to(closing=False), lambda p: "duplicate"),
            (_chain_to(closing=True), lambda p: "duplicate"),
            (
                _of_kind(MessageKind.SUB_RESULT),
                lambda p: f"duplicate from child {p['child']}",
            ),
            (_of_kind(MessageKind.FINAL_RESULT), lambda p: "duplicate"),
        ],
        ids=[
            "ShareDistribution",
            "MaskedMatrixBroadcast",
            "ChainValue-step",
            "ChainValue-closing",
            "SubResult",
            "FinalResult",
        ],
    )
    def test_duplicate_raises_and_names_it(self, pick, problem, monkeypatch):
        nets = []

        def network():
            nets.append(DuplicatingNetwork(pick))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(random_vectors(3, 2, 11), seed=11)
        msg = nets[0].duplicated
        assert str(err.value) == f"{_named(msg)} {problem(msg.payload)}"

    def test_masked_duplicate_after_step(self, monkeypatch):
        """A masked vector that arrives again after its receiving position
        took its chain step, and so freed the masked vectors it held, is
        still rejected as a duplicate of the sending position."""
        nets = []

        def network():
            nets.append(DuplicatingNetwork(_sub(lambda msg: (
                msg.kind is MessageKind.MASKED_MATRIX and msg.payload["to_pos"] == 1
            ))))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(random_vectors(3, 2, 11), seed=11)
        msg = nets[0].duplicated
        # every child at n = 3 has two positions, so the original was the
        # last masked vector position 1 needed: its chain value went out
        # before the copy arrived
        stepped = [
            m for m in nets[0]._pending
            if m.kind is MessageKind.CHAIN_VALUE
            and m.instance_id == msg.instance_id
            and m.payload["from_pos"] == 1
        ]
        assert len(stepped) == 1
        assert str(err.value) == (
            f"instance {msg.instance_id}: MaskedMatrixBroadcast at position 1: "
            "duplicate from position 2"
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_duplicate_raises_and_names_it(self, seed, monkeypatch):
        """Any one message delivered twice is rejected by name: as a
        duplicate, or as for no such instance once the original completed
        a sub-instance, which then reported and was released."""
        n = 3 + seed % 3
        order = random.Random(seed)
        duplicate_at = order.randrange(count_instances(n).messages)
        heads = itertools.count()
        nets = []

        def network():
            nets.append(DuplicatingNetwork(lambda msg: next(heads) == duplicate_at))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(
                random_vectors(n, 2, seed), seed=seed, policy=list(Policy)[seed % 2]
            )
        msg = nets[0].duplicated
        assert msg is not None
        named = _named(msg)
        assert str(err.value).startswith(f"{named} ")
        problem = str(err.value)[len(named) + 1:]
        assert problem.startswith("duplicate") or problem == "no such instance"


class PeakNetwork(Network):
    """Records the most messages ever pending at once."""

    def __init__(self):
        super().__init__()
        self.peak = 0

    def send(self, *args, **kwargs):
        msg = super().send(*args, **kwargs)
        self.peak = max(self.peak, len(self._pending))
        return msg


def _record_engines(monkeypatch, keep):
    """Have `run_protocol` build engines of a subclass that records each
    one: itself if `keep`, else a weak reference to it."""
    engines = []

    class RecordingEngine(npscalar.protocol.ProtocolEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self if keep else weakref.ref(self))

    monkeypatch.setattr(npscalar.protocol, "ProtocolEngine", RecordingEngine)
    return engines


class TestBoundedSchedule:
    """Sub-instances start one sibling group at a time, the newest group
    first, once the bus is idle; each leaves the engine once it reports."""

    def test_pending_queue_stays_small(self, monkeypatch):
        # starting every instance before the first delivery queues 18,112
        # messages at n = 6; the bounded schedule queues 642
        nets = []

        def network():
            nets.append(PeakNetwork())
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        vectors = random_vectors(6, 1, 6)
        run = run_protocol(vectors, seed=6)
        assert run.result == plaintext_oracle(vectors, R64)
        assert run.message_count == count_instances(6).messages
        assert 0 < nets[0].peak <= 1000

    def test_only_the_top_instance_is_retained(self, monkeypatch):
        engines = _record_engines(monkeypatch, keep=True)
        for n in (2, 3, 4, 5):
            run = run_protocol(random_vectors(n, 2, n), seed=n)
            engine = engines.pop()
            assert list(engine.instances) == [0]
            assert engine.instances[0].result == run.result

    def test_run_retains_no_engine(self, monkeypatch):
        """The result carries the census it reports, so the engine, its
        instance table, TTP memo and RNG are freed once the run returns."""
        engines = _record_engines(monkeypatch, keep=False)
        run = run_protocol(random_vectors(4, 2, 4), seed=4)
        assert run.per_depth_counts() == [1, 10, 18]
        assert len(engines) == 1
        assert engines[0]() is None

    def test_duplicate_to_released_sub_instance(self, monkeypatch):
        """Every child at n = 3 has two positions and no children, so its
        closing chain value completes it: it reports and is released
        before the copy arrives."""
        nets = []

        def network():
            nets.append(DuplicatingNetwork(_sub(_chain_to(closing=True))))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(random_vectors(3, 2, 11), seed=11)
        msg = nets[0].duplicated
        assert msg.instance_id != 0
        assert str(err.value) == f"{_named(msg)} no such instance"


class DroppingNetwork(Network):
    """Never delivers the first message that `pick` selects."""

    def __init__(self, pick):
        super().__init__()
        self.pick = pick
        self.dropped = None

    def deliver_next(self):
        if self._pending and self.dropped is None and self.pick(self._pending[0]):
            self.dropped = self._pending.popleft()
        return super().deliver_next()


class SilencingNetwork(Network):
    """Never delivers any message that `pick` selects."""

    def __init__(self, pick):
        super().__init__()
        self.pick = pick

    def deliver_next(self):
        while self._pending and self.pick(self._pending[0]):
            self._pending.popleft()
        return super().deliver_next()


class TestDropRejection:
    """A dropped message leaves the run unfinished; the error names the
    instance that lost it, even when that is a sub-instance, and the kind
    and receiving position of the missing message."""

    @pytest.mark.parametrize(
        "pick,problem",
        [
            (_sub(_of_kind(MessageKind.SHARE_DISTRIBUTION)), lambda p: "missing"),
            (
                _sub(_of_kind(MessageKind.MASKED_MATRIX)),
                lambda p: f"missing from position {p['from_pos']}",
            ),
            (_sub(_chain_to(closing=False)), lambda p: "missing"),
            (_sub(_chain_to(closing=True)), lambda p: "missing"),
            (
                _sub(_of_kind(MessageKind.SUB_RESULT)),
                lambda p: f"missing from child {p['child']}",
            ),
            (_top(_of_kind(MessageKind.FINAL_RESULT)), lambda p: "missing"),
        ],
        ids=[
            "sub-ShareDistribution",
            "sub-MaskedMatrixBroadcast",
            "sub-ChainValue-step",
            "sub-ChainValue-closing",
            "sub-SubResult",
            "top-FinalResult",
        ],
    )
    def test_drop_raises_and_names_instance(self, pick, problem, monkeypatch):
        msg, error = self._check(monkeypatch, pick, random_vectors(4, 2, 13), seed=13)
        assert error == f"{_named(msg)} {problem(msg.payload)}"

    @pytest.mark.parametrize(
        "children,first", [(range(1, 11), 1), (range(5, 11), 5)], ids=["all", "pairs"]
    )
    def test_first_missing_sub_result_in_plan_order(self, children, first, monkeypatch):
        """With several sub-results of the top instance lost, the error
        names the first missing child in plan order. At n = 4 the top's
        children are ids 1-4 (keeping one position) and 5-10 (keeping two)."""

        def lost(msg):
            return (
                msg.kind is MessageKind.SUB_RESULT
                and msg.instance_id == 0
                and msg.payload["child"] in children
            )

        monkeypatch.setattr(
            npscalar.protocol, "Network", lambda: SilencingNetwork(lost)
        )
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(random_vectors(4, 2, 13), seed=13)
        assert str(err.value) == (
            f"instance 0: SubResult at position 1: missing from child {first}"
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_drop_raises_and_names_it(self, seed, monkeypatch):
        n = 3 + seed % 3
        order = random.Random(seed)
        drop_at = order.randrange(count_instances(n).messages)
        heads = itertools.count()
        self._check(
            monkeypatch,
            lambda msg: next(heads) == drop_at,
            random_vectors(n, 2, seed),
            seed=seed,
            policy=list(Policy)[seed % 2],
        )

    def _check(self, monkeypatch, pick, vectors, **options):
        nets = []

        def network():
            nets.append(DroppingNetwork(pick))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(vectors, **options)
        msg = nets[0].dropped
        assert msg is not None
        assert str(err.value).startswith(_named(msg))
        return msg, str(err.value)


class ShufflingNetwork(Network):
    """Delivers a seeded-random pending message instead of the oldest: any
    such order is a legal schedule, since a message is pending only once
    the step that sends it has run."""

    def __init__(self, seed):
        super().__init__()
        self._order = random.Random(seed)

    def deliver_next(self):
        if self._pending:
            self._pending.rotate(-self._order.randrange(len(self._pending)))
        return super().deliver_next()


class TestShuffledDelivery:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_any_order_gives_the_fifo_outcome(self, n, policy, seed, monkeypatch):
        monkeypatch.setattr(
            npscalar.protocol, "Network", lambda: ShufflingNetwork(seed)
        )
        vectors = random_vectors(n, 2, seed * 17 + n)
        run = run_protocol(vectors, seed=seed, policy=policy)
        census = count_instances(n)
        assert isinstance(run.net, ShufflingNetwork)
        assert run.result == plaintext_oracle(vectors, R64)
        assert run.instance_count == census.total_instances
        assert run.message_count == census.messages
        if policy is Policy.SECURE:
            assert scan_ttp_rotation(run.transcript) == []
            assert scan_mask_safety(run.transcript) == []
            assert scan_mask_freshness(run.transcript) == []
        elif n >= 3:
            recovered = reconstruct_inputs(run.view_of(run.ttp))
            for i, truth in enumerate(vectors, start=1):
                assert recovered[PartyId.data(i)] == tuple(truth)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_any_order_delivers_the_fifo_contents(self, n, policy, seed, monkeypatch):
        """Every draw happens when an instance starts, so a shuffled run
        delivers the FIFO run's messages; only seq and order differ."""

        def contents(run):
            return sorted(
                json.dumps(
                    [m.instance_id, m.kind.value, str(m.sender), str(m.recipient),
                     m.payload, m.meta],
                    sort_keys=True,
                )
                for m in run.transcript
            )

        vectors = random_vectors(n, 2, seed * 17 + n)
        fifo = run_protocol(vectors, seed=seed, policy=policy)
        monkeypatch.setattr(
            npscalar.protocol, "Network", lambda: ShufflingNetwork(seed)
        )
        shuffled = run_protocol(vectors, seed=seed, policy=policy)
        assert isinstance(shuffled.net, ShufflingNetwork)
        assert contents(shuffled) == contents(fifo)


class TestReadinessOrder:
    """A position takes its chain step once, after every message that
    enables it: its share distribution, the m-1 masked vectors sent to it
    and, past position 1, the incoming chain value."""

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_one_chain_value_after_its_enablers(self, n, policy):
        run = run_protocol(random_vectors(n, 2, n), seed=n, policy=policy)
        enablers = {}  # (instance, position) -> seqs of the messages it awaits
        chain_sent = {}  # (instance, position) -> seqs of its chain values
        for msg in run.transcript:
            to = (msg.instance_id, msg.payload["to_pos"])
            if msg.kind is MessageKind.CHAIN_VALUE:
                sender = (msg.instance_id, msg.payload["from_pos"])
                chain_sent.setdefault(sender, []).append(msg.seq)
                if to[1] == 1:  # the closing value follows position 1's step
                    continue
            if msg.kind in (
                MessageKind.SHARE_DISTRIBUTION,
                MessageKind.MASKED_MATRIX,
                MessageKind.CHAIN_VALUE,
            ):
                enablers.setdefault(to, []).append(msg.seq)
        sizes = _sizes(run)
        assert len(enablers) == sum(sizes.values())
        assert chain_sent.keys() == enablers.keys()
        for (iid, j), seqs in enablers.items():
            assert len(seqs) == sizes[iid] + (j > 1)
            assert len(chain_sent[iid, j]) == 1
            assert chain_sent[iid, j][0] > max(seqs)

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lost_masked_vector_stalls_its_position(self, n, policy, monkeypatch):
        """Everything else reaches the position, so it must still wait."""
        nets = []

        def network():
            nets.append(DroppingNetwork(_top(_of_kind(MessageKind.MASKED_MATRIX))))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(random_vectors(n, 2, n), seed=n, policy=policy)
        msg = nets[0].dropped
        assert str(err.value) == (
            f"{_named(msg)} missing from position {msg.payload['from_pos']}"
        )


class MisroutingNetwork(Network):
    """Rewrites one field of the first delivered message that `pick`
    selects to `value(msg)`: its sender, its recipient, its instance id,
    its kind, its whole payload or a payload field."""

    def __init__(self, pick, field, value):
        super().__init__()
        self.pick = pick
        self.field = field
        self.value = value
        self.misrouted = None

    def deliver_next(self):
        msg = super().deliver_next()
        if msg is not None and self.misrouted is None and self.pick(msg):
            if self.field in ("sender", "recipient", "instance_id", "kind", "payload"):
                setattr(msg, self.field, self.value(msg))
            else:
                msg.payload = {**msg.payload, self.field: self.value(msg)}
            self.misrouted = msg
        return msg


# kind -> every payload field its handler reads
PAYLOAD_FIELDS = {
    MessageKind.SHARE_DISTRIBUTION: ("to_pos", "mask", "share"),
    MessageKind.MASKED_MATRIX: ("from_pos", "to_pos", "values"),
    MessageKind.CHAIN_VALUE: ("from_pos", "to_pos", "value"),
    MessageKind.SUB_RESULT: ("to_pos", "child", "value"),
    MessageKind.FINAL_RESULT: ("to_pos", "value"),
}

MISROUTES = {
    "ShareDistribution": (_of_kind(MessageKind.SHARE_DISTRIBUTION), "to_pos"),
    "MaskedMatrixBroadcast-to": (_of_kind(MessageKind.MASKED_MATRIX), "to_pos"),
    "ChainValue-step": (_chain_to(closing=False), "to_pos"),
    "ChainValue-closing": (_chain_to(closing=True), "to_pos"),
    "SubResult": (_of_kind(MessageKind.SUB_RESULT), "to_pos"),
    "FinalResult": (_of_kind(MessageKind.FINAL_RESULT), "to_pos"),
}


class TestMisrouteRejection:
    """A message whose position lies outside the (three-position) top
    instance is rejected by name, before any position is indexed; so is one
    delivered to, or sent by, a party other than the one the position
    names. Position p of the top instance is owned by data party p."""

    N = 3

    def _run(self, monkeypatch, pick, field, value, n=N):
        nets = []

        def network():
            nets.append(MisroutingNetwork(_top(pick), field, value))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(random_vectors(n, 2, 11), seed=11)
        assert nets[0].misrouted is not None
        return nets[0].misrouted, str(err.value)

    @pytest.mark.parametrize("bad", [0, N + 1])
    @pytest.mark.parametrize("case", list(MISROUTES))
    def test_out_of_range(self, case, bad, monkeypatch):
        pick, field = MISROUTES[case]
        msg, error = self._run(monkeypatch, pick, field, lambda msg: bad)
        problem = (
            "sub-results go to position 1"
            if msg.kind is MessageKind.SUB_RESULT
            else f"no such position (1..{self.N})"
        )
        assert error == (
            f"instance 0: {msg.kind.value} at position {bad}: {problem}"
        )

    @pytest.mark.parametrize(
        "child,problem",
        [
            (0, "unexpected child 0"),
            (11, "unexpected child 11"),
            (10**6, f"unexpected child {10**6}"),
            (True, "child True is not an integer"),
            (1.0, "child 1.0 is not an integer"),
            ("x", "child x is not an integer"),
        ],
        ids=["itself", "grandchild", "unknown", "bool", "float", "str"],
    )
    def test_unexpected_sub_result(self, child, problem, monkeypatch):
        """A sub-result that names no pending child of the instance: the
        instance itself, a grandchild (at n = 4 the top's children are ids
        1-10, and child 5's first child is 11), an id no instance has, or
        a child that is not exactly an int (True == 1 and 1.0 == 1)."""
        _, error = self._run(
            monkeypatch,
            _of_kind(MessageKind.SUB_RESULT),
            "child",
            lambda msg: child,
            n=4,
        )
        assert error == f"instance 0: SubResult at position 1: {problem}"

    def test_sub_result_renamed_to_running_child(self, monkeypatch):
        """At n = 4 the top's child 1 keeps position 1 and child 5 keeps
        positions 1 and 2, so p1 sends both reports. Child 1's report
        renamed to child 5 arrives while child 5 still runs, and is itself
        rejected; the run never reaches child 5's honest report."""
        nets = []

        def network():
            nets.append(MisroutingNetwork(
                _top(lambda msg: msg.kind is MessageKind.SUB_RESULT
                     and msg.payload["child"] == 1),
                "child",
                lambda msg: 5,
            ))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(random_vectors(4, 2, 11), seed=11)
        tampered = nets[0].misrouted
        assert tampered is not None and tampered.sender == PartyId.data(1)
        assert list(nets[0].transcript)[-1] is tampered
        assert str(err.value) == (
            "instance 0: SubResult at position 1: child 5 has not reported"
        )

    @pytest.mark.parametrize("bad", [0, N + 1, "to_pos"])
    def test_masked_broadcast_from_bad_sender(self, bad, monkeypatch):
        def value(msg):
            return msg.payload["to_pos"] if bad == "to_pos" else bad

        msg, error = self._run(
            monkeypatch, _of_kind(MessageKind.MASKED_MATRIX), "from_pos", value
        )
        assert error == (
            f"instance 0: MaskedMatrixBroadcast at position {msg.payload['to_pos']}: "
            f"from position {msg.payload['from_pos']}, not another position"
        )

    @pytest.mark.parametrize(
        "closing,bad,expected",
        [
            (False, 2, "at position 2: from position 2, expected 1"),
            (False, 0, "at position 2: from position 0, expected 1"),
            (True, 1, "at position 1: from position 1, expected 3"),
            (True, 2, "at position 1: from position 2, expected 3"),
        ],
        ids=["step-self", "step-0", "closing-self", "closing-2"],
    )
    def test_chain_value_from_wrong_position(self, closing, bad, expected, monkeypatch):
        """Position j takes its chain value from position j - 1 only, and
        position 1 its closing value from position m."""
        _, error = self._run(
            monkeypatch, _chain_to(closing), "from_pos", lambda msg: bad
        )
        assert error == f"instance 0: ChainValue {expected}"

    @pytest.mark.parametrize(
        "pick,field,value,expected",
        [
            (
                _of_kind(MessageKind.SHARE_DISTRIBUTION),
                "share",
                lambda msg: msg.payload["share"] + 0.5,
                "ShareDistribution at position 1: share {share} is not an integer",
            ),
            (
                _of_kind(MessageKind.SHARE_DISTRIBUTION),
                "to_pos",
                lambda msg: "x",
                "ShareDistribution at position x: no such position (1..3)",
            ),
            (
                _of_kind(MessageKind.SHARE_DISTRIBUTION),
                "to_pos",
                lambda msg: 1.0,
                "ShareDistribution at position 1.0: no such position (1..3)",
            ),
            (
                _of_kind(MessageKind.SHARE_DISTRIBUTION),
                "to_pos",
                lambda msg: True,
                "ShareDistribution at position True: no such position (1..3)",
            ),
            (
                _of_kind(MessageKind.MASKED_MATRIX),
                "to_pos",
                lambda msg: 2.0,
                "MaskedMatrixBroadcast at position 2.0: no such position (1..3)",
            ),
            (
                _of_kind(MessageKind.MASKED_MATRIX),
                "from_pos",
                lambda msg: 1.0,
                "MaskedMatrixBroadcast at position 2: "
                "from position 1.0, not another position",
            ),
            (
                _chain_to(closing=False),
                "from_pos",
                lambda msg: 1.0,
                "ChainValue at position 2: from position 1.0, expected 1",
            ),
            (
                _chain_to(closing=False),
                "from_pos",
                lambda msg: True,
                "ChainValue at position 2: from position True, expected 1",
            ),
            (
                _chain_to(closing=False),
                "value",
                lambda msg: msg.payload["value"] + 0.5,
                "ChainValue at position 2: value {value} is not an integer",
            ),
            (
                _chain_to(closing=True),
                "value",
                lambda msg: msg.payload["value"] + 0.5,
                "ChainValue at position 1: value {value} is not an integer",
            ),
            (
                _of_kind(MessageKind.SUB_RESULT),
                "value",
                lambda msg: msg.payload["value"] + 0.5,
                "SubResult at position 1: value {value} is not an integer",
            ),
            (
                _of_kind(MessageKind.FINAL_RESULT),
                "to_pos",
                lambda msg: True,
                "FinalResult at position True: no such position (1..3)",
            ),
            (
                _of_kind(MessageKind.FINAL_RESULT),
                "value",
                lambda msg: msg.payload["value"] + 0.5,
                "FinalResult at position 1: value {value} is not an integer",
            ),
            (
                _of_kind(MessageKind.FINAL_RESULT),
                "value",
                lambda msg: "x",
                "FinalResult at position 1: value x is not an integer",
            ),
        ],
        ids=[
            "ShareDistribution-share-float",
            "ShareDistribution-to-str",
            "ShareDistribution-to-float",
            "ShareDistribution-to-bool",
            "MaskedMatrixBroadcast-to-float",
            "MaskedMatrixBroadcast-from-float",
            "ChainValue-from-float",
            "ChainValue-from-bool",
            "ChainValue-step-value-float",
            "ChainValue-closing-value-float",
            "SubResult-value-float",
            "FinalResult-to-bool",
            "FinalResult-value-float",
            "FinalResult-value-str",
        ],
    )
    def test_not_an_int(self, pick, field, value, expected, monkeypatch):
        """A position or scalar that equals an int but is not one (1.0,
        True), or is no number at all, is rejected by name: it is never
        used as an index or folded into the result."""
        msg, error = self._run(monkeypatch, pick, field, value)
        assert type(msg.payload[field]) is not int
        assert error == f"instance 0: {expected.format(**msg.payload)}"

    def test_wrong_final_result(self, monkeypatch):
        """A final result must carry the result position 1 published."""
        nets = []

        def network():
            nets.append(MisroutingNetwork(
                _top(_of_kind(MessageKind.FINAL_RESULT)), "value", lambda msg: 64
            ))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol([(1, 2), (3, 4), (5, 6)], seed=7)
        assert str(err.value) == (
            "instance 0: FinalResult at position 1: value 64, expected 63"
        )

    @pytest.mark.parametrize("case", list(MISROUTES))
    def test_wrong_recipient(self, case, monkeypatch):
        pick, field = MISROUTES[case]

        def other_party(msg):
            return PartyId.data(msg.payload[field] % self.N + 1)

        msg, error = self._run(monkeypatch, pick, "recipient", other_party)
        expected = f"p{msg.payload[field]}"
        assert error == f"{_named(msg)} recipient {msg.recipient}, expected {expected}"

    @pytest.mark.parametrize("case", list(MISROUTES))
    def test_wrong_sender(self, case, monkeypatch):
        pick, _ = MISROUTES[case]
        senders = []

        def other_party(msg):
            # the TTP sends only shares in the top instance, and a share
            # never goes to the TTP
            senders.append(msg.sender)
            return msg.recipient if msg.sender.is_ttp else PartyId.ttp("ttp")

        msg, error = self._run(monkeypatch, pick, "sender", other_party)
        expected = senders[0]
        assert error == f"{_named(msg)} sender {msg.sender}, expected {expected}"


    @pytest.mark.parametrize("case", list(MISROUTES))
    def test_unknown_instance(self, case, monkeypatch):
        """An instance id that names no instance, or cannot (a list is
        unhashable), is rejected by name; with a payload that is not a
        dict, the position is None."""
        pick, _ = MISROUTES[case]
        for bad in (10**6, [0]):
            msg, error = self._run(monkeypatch, pick, "instance_id", lambda msg: bad)
            assert error == f"{_named(msg)} no such instance"

        def unknown_without_payload(msg):
            msg.instance_id = 999
            return None

        msg, error = self._run(monkeypatch, pick, "payload", unknown_without_payload)
        assert error == (
            f"instance 999: {msg.kind.value} at position None: no such instance"
        )

    @pytest.mark.parametrize("kind", ["bogus", [1]], ids=["str", "unhashable"])
    def test_no_such_kind(self, kind, monkeypatch):
        """A kind that is not a `MessageKind` is rejected by its repr."""
        pick = _of_kind(MessageKind.SHARE_DISTRIBUTION)
        msg, error = self._run(monkeypatch, pick, "kind", lambda msg: kind)
        assert error == (
            f"instance 0: {kind!r} at position {msg.payload['to_pos']}: no such kind"
        )

    @pytest.mark.parametrize(
        "kind,field",
        [(kind, field) for kind, fields in PAYLOAD_FIELDS.items() for field in fields],
        ids=[
            f"{kind.value}-{field}"
            for kind, fields in PAYLOAD_FIELDS.items()
            for field in fields
        ],
    )
    def test_missing_payload_field(self, kind, field, monkeypatch):
        """A payload that lacks a field its handler reads is rejected by
        the field's name; with no `to_pos`, the position is None."""
        keys = []

        def without(msg):
            keys.append(set(msg.payload))
            return {k: v for k, v in msg.payload.items() if k != field}

        msg, error = self._run(monkeypatch, _of_kind(kind), "payload", without)
        assert keys == [set(PAYLOAD_FIELDS[kind])]
        position = msg.payload.get("to_pos")
        assert error == (
            f"instance 0: {kind.value} at position {position}: payload has no {field}"
        )

    @pytest.mark.parametrize(
        "kind,field,problem",
        [
            (MessageKind.SHARE_DISTRIBUTION, "mask", "1 mask entries, expected 2"),
            (
                MessageKind.MASKED_MATRIX,
                "values",
                "1 values from position {from_pos}, expected 2",
            ),
        ],
        ids=["ShareDistribution", "MaskedMatrixBroadcast"],
    )
    def test_truncated_vector(self, kind, field, problem, monkeypatch):
        """A vector payload shorter than the receiving position's vector is
        rejected on arrival, not when the chain multiplies it."""
        msg, error = self._run(
            monkeypatch, _of_kind(kind), field, lambda msg: msg.payload[field][:1]
        )
        assert error == f"{_named(msg)} {problem.format(**msg.payload)}"

    @pytest.mark.parametrize(
        "payload",
        [lambda msg: None, lambda msg: list(msg.payload.values())],
        ids=["None", "list"],
    )
    @pytest.mark.parametrize("kind", list(PAYLOAD_FIELDS), ids=lambda k: k.value)
    def test_payload_not_a_dict(self, kind, payload, monkeypatch):
        """A payload that is not a dict names no position."""
        _, error = self._run(monkeypatch, _of_kind(kind), "payload", payload)
        assert error == (
            f"instance 0: {kind.value} at position None: payload is not a dict"
        )

    @pytest.mark.parametrize(
        "value,name",
        [
            (lambda v: dict(enumerate(v)), "dict"),
            (lambda v: None, "NoneType"),
            (lambda v: 5, "int"),
        ],
        ids=["dict", "None", "int"],
    )
    @pytest.mark.parametrize(
        "kind,field,problem",
        [
            (MessageKind.SHARE_DISTRIBUTION, "mask", "mask is a {name}"),
            (
                MessageKind.MASKED_MATRIX,
                "values",
                "values from position {from_pos} are a {name}",
            ),
        ],
        ids=["ShareDistribution", "MaskedMatrixBroadcast"],
    )
    def test_vector_not_a_tuple(self, kind, field, problem, value, name, monkeypatch):
        """A vector payload must be a tuple: a dict of the right length
        would otherwise be masked by its keys and yield a wrong result."""
        msg, error = self._run(
            monkeypatch, _of_kind(kind), field, lambda msg: value(msg.payload[field])
        )
        problem = problem.format(name=name, **msg.payload)
        assert error == f"{_named(msg)} {problem}, not a tuple"


def _top_to(kind, to_pos):
    return _top(lambda msg: msg.kind is kind and msg.payload["to_pos"] == to_pos)


# case -> (kind, to_pos, field, first entry -> new first entry,
# {modulus: expected problem}); `{entry}` is the new first entry
NON_INT_ENTRIES = {
    "mask-float": (
        MessageKind.SHARE_DISTRIBUTION, 1, "mask", lambda x: 1.5,
        {
            1 << 64: "ShareDistribution at position 1: mask entry 1.5",
            251: "ShareDistribution at position 1: mask entry 1.5",
        },
    ),
    "mask-str": (
        MessageKind.SHARE_DISTRIBUTION, 1, "mask", lambda x: "x",
        {
            1 << 64: "ShareDistribution at position 1: mask entry x",
            251: "ShareDistribution at position 1: mask entry x",
        },
    ),
    "mask-numpy": (
        # `and_` by 2**64 - 1 overflows numpy's int64; `int.__mod__` refuses it
        MessageKind.SHARE_DISTRIBUTION, 2, "mask", lambda x: numpy.int64(5),
        {
            1 << 64: "ShareDistribution at position 2: mask entry 5",
            251: "ShareDistribution at position 2: mask entry 5",
        },
    ),
    "values-float": (
        MessageKind.MASKED_MATRIX, 2, "values", lambda x: x + 0.5,
        {
            1 << 64: "MaskedMatrixBroadcast at position 2: values entry {entry} "
            "from position 1",
            251: "MaskedMatrixBroadcast at position 2: values entry {entry} "
            "from position 1",
        },
    ),
    "values-float-closing": (
        MessageKind.MASKED_MATRIX, 1, "values", lambda x: x + 0.5,
        {
            1 << 64: "MaskedMatrixBroadcast at position 1: values entry {entry} "
            "from position 2",
            251: "MaskedMatrixBroadcast at position 1: values entry {entry} "
            "from position 2",
        },
    ),
    "values-str": (
        # at 2**64, `int * str` repeats the str past memory in the chain's fold
        MessageKind.MASKED_MATRIX, 2, "values", lambda x: "x",
        {
            1 << 64: "MaskedMatrixBroadcast at position 2: values entry x "
            "from position 1",
            251: "MaskedMatrixBroadcast at position 2: values entry x "
            "from position 1",
        },
    ),
}


class TestNonIntegerEntries:
    """A vector entry that is not exactly an int is rejected by the message
    that carried it to the position whose step it breaks: a mask entry when
    the masked vector is formed, a received one when the chain step's value
    is not an int or its kernel raises. n=3, seed 7."""

    @pytest.mark.parametrize(
        "case,modulus",
        [(c, q) for c, spec in NON_INT_ENTRIES.items() for q in spec[-1]],
        ids=[
            f"{c}-{'2**64' if q == 1 << 64 else q}"
            for c, spec in NON_INT_ENTRIES.items()
            for q in spec[-1]
        ],
    )
    def test_non_int_entry_names_its_message(self, case, modulus, monkeypatch):
        kind, to_pos, field, rewrite, expected = NON_INT_ENTRIES[case]

        def value(msg):
            first, *rest = msg.payload[field]
            return (rewrite(first), *rest)

        nets = []

        def network():
            nets.append(MisroutingNetwork(_top_to(kind, to_pos), field, value))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol([(1, 2), (3, 4), (5, 6)], seed=7, modulus=modulus)
        entry = nets[0].misrouted.payload[field][0]
        problem = expected[modulus].format(entry=entry)
        assert str(err.value) == f"instance 0: {problem} is not an integer"

    @pytest.mark.parametrize(
        "boom",
        [
            MemoryError("kernel"),
            TypeError("kernel"),
            OverflowError("kernel"),
            # no payload field the message lacks, so not the message's fault
            KeyError(7),
            KeyError("to_pos"),
            KeyError("unknown"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize(
        "kernel", ["_add", "_trace", "aggregate_final", "_integer"]
    )
    def test_kernel_error_on_int_entries_propagates(self, kernel, boom, monkeypatch):
        """When every entry is an int, the scan finds nothing to blame, and
        the kernel's own exception is raised unchanged. `aggregate_final`
        first raises on a leaf's closing chain value, at a position whose
        masked vectors are already freed; `_integer` on the first share's
        scalar, at a position that has no mask yet."""

        def failing(*args):
            raise boom

        monkeypatch.setattr(npscalar.protocol, kernel, failing)
        with pytest.raises(type(boom)) as err:
            run_protocol([(1, 2), (3, 4), (5, 6)], seed=7)
        assert err.value is boom


class TestTamperedShare:
    """A position computes from the share distribution it received. A
    share altered in transit therefore moves the result by (m - 1) times
    the change, as every position adds (m - 1) times its share to the
    chain."""

    @pytest.mark.parametrize("delta", [5, R64.modulus - 1])
    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_result_moves_by_the_tampered_share(self, position, delta, monkeypatch):
        def pick(msg):
            return (
                msg.kind is MessageKind.SHARE_DISTRIBUTION
                and msg.payload["to_pos"] == position
            )

        def tampered(msg):
            return R64.reduce(msg.payload["share"] + delta)

        nets = []

        def network():
            nets.append(MisroutingNetwork(_top(pick), "share", tampered))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        vectors = [(1, 2), (3, 4), (5, 6)]
        run = run_protocol(vectors, seed=7)
        assert nets[0].misrouted is not None
        assert plaintext_oracle(vectors, R64) == 63
        assert run.result == R64.reduce(63 + 2 * delta)


class TestGoldenTranscripts:
    """sha256 of export_jsonl(); a new digest here is a transcript change
    and must be deliberate."""

    @pytest.mark.parametrize(
        "n,length,seed,policy,digest",
        [
            (2, 3, 1, Policy.SECURE,
             "61db33ed831a1f51e6c5262ddef4958986da82da5f976a4a3fc2e80ef877fb5c"),
            (3, 2, 7, Policy.FLAWED,
             "5ecb1cb91a748b819a1a1ee39c7e1444f96256a711099afe1dec53e69e8dff9d"),
            (4, 4, 3, Policy.SECURE,
             "8a6fde301d5419020c71c55da0971027321dbcfa53e7c92ec76f06b74c70d95c"),
        ],
        # the digest stays out of the test id, so a re-pin keeps the name
        ids=["2-3-1-Policy.SECURE", "3-2-7-Policy.FLAWED", "4-4-3-Policy.SECURE"],
    )
    def test_transcript_hash(self, n, length, seed, policy, digest):
        run = run_protocol(random_vectors(n, length, seed), seed=seed, policy=policy)
        exported = run.transcript.export_jsonl().encode()
        assert hashlib.sha256(exported).hexdigest() == digest

    def test_transcript_hash_mod_251(self):
        """Below a modulus that is not a power of two every entry is one
        `randrange` draw; n=4, L=3, seed 5, FLAWED."""
        vectors = random_vectors(4, 3, 5, 251)
        run = run_protocol(vectors, seed=5, policy=Policy.FLAWED, modulus=251)
        exported = run.transcript.export_jsonl().encode()
        assert hashlib.sha256(exported).hexdigest() == (
            "5b1dd5aacd400f36da5eea2790ac2833c1a9f8bcf356ac9725b784fb7a25307a"
        )
