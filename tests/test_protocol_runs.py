import hashlib
import random
from collections import Counter

import pytest

import npscalar.protocol
from npscalar import (
    InputShapeError,
    InstanceShapeError,
    Lifecycle,
    MessageKind,
    Network,
    Policy,
    ProtocolStateError,
    Ring,
    count_instances,
    mixed_term,
    plaintext_oracle,
    run_protocol,
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


class TestLifecycleAndStructure:
    def test_all_instances_done_and_depth_bounded(self):
        for n in (2, 3, 4, 5):
            run = run_protocol(random_vectors(n, 2, n), seed=n)
            states = {i.state for i in run.engine.instances.values()}
            assert states == {Lifecycle.DONE}
            assert run.max_depth <= max(n - 2, 0)

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
        sizes = [inst.n for inst in run.engine.instances.values()]
        assert Counter(msg.kind for msg in run.transcript) == Counter(
            {
                MessageKind.SHARE_DISTRIBUTION: sum(sizes),
                MessageKind.MASKED_MATRIX: sum(m * (m - 1) for m in sizes),
                MessageKind.CHAIN_VALUE: sum(sizes),
                MessageKind.SUB_RESULT: len(sizes) - 1,
                MessageKind.FINAL_RESULT: n,
            }
        )

    def test_children_strictly_smaller(self):
        run = run_protocol(random_vectors(5, 2, 0), seed=0)
        insts = run.engine.instances
        for inst in insts.values():
            if inst.parent_id is not None:
                assert inst.n < insts[inst.parent_id].n

    def test_sub_instance_output_is_mixed_term(self):
        vectors = random_vectors(4, 3, seed=8)
        run = run_protocol(vectors, seed=8)
        top = run.engine.instances[0]
        data = [p.vector for p in top.positions]
        masks = [b.mask for b in top.ttp_bundles]
        for child in run.engine.instances.values():
            if child.parent_id == 0:
                expected = mixed_term(child.spec.kept, data, masks, R64)
                assert child.result == expected

    def test_singleton_children_are_two_party(self):
        run = run_protocol(random_vectors(3, 2, 5), seed=5)
        children = [
            i for i in run.engine.instances.values() if i.parent_id == 0
        ]
        assert len(children) == 3
        assert all(c.n == 2 for c in children)
        # each pairs one data party with the parent TTP holding the mask product
        for c in children:
            owners = c.participants
            assert owners[1] == run.ttp
            assert owners[0] in run.data_parties


class TestValidation:
    def test_rejects_single_party(self):
        with pytest.raises(InstanceShapeError):
            run_protocol([(1, 2)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputShapeError):
            run_protocol([(1, 2), (1, 2, 3)])

    def test_transcript_ends_with_final_results(self):
        run = run_protocol([(1, 2), (3, 4), (5, 6)], seed=7)
        tail = list(run.transcript)[-3:]
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


class TestDuplicateRejection:
    @pytest.mark.parametrize(
        "pick",
        [
            _of_kind(MessageKind.SHARE_DISTRIBUTION),
            _of_kind(MessageKind.MASKED_MATRIX),
            _chain_to(closing=False),
            _chain_to(closing=True),
            _of_kind(MessageKind.SUB_RESULT),
            _of_kind(MessageKind.FINAL_RESULT),
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
    def test_duplicate_raises_and_names_it(self, pick, monkeypatch):
        nets = []

        def network():
            nets.append(DuplicatingNetwork(pick))
            return nets[-1]

        monkeypatch.setattr(npscalar.protocol, "Network", network)
        with pytest.raises(ProtocolStateError) as err:
            run_protocol(random_vectors(3, 2, 11), seed=11)
        msg = nets[0].duplicated
        position = msg.payload.get("to_pos", msg.payload.get("position"))
        assert str(err.value).startswith(
            f"instance {msg.instance_id}: {msg.kind.value} at position {position}:"
        )


class TestGoldenTranscripts:
    """sha256 of export_jsonl(); a new digest here is a transcript change
    and must be deliberate."""

    @pytest.mark.parametrize(
        "n,length,seed,policy,digest",
        [
            (2, 3, 1, Policy.SECURE,
             "c504cffa82d27e81f1110c5c78bd26a6b422c855e95c606df72611fb1470534e"),
            (3, 2, 7, Policy.FLAWED,
             "3e7be54918b53583b82b0932b622571114363e9ee3f8437855bb6aff59766ec9"),
            (4, 4, 3, Policy.SECURE,
             "13119a3d9a3fcefe37b1f0a9ea56cf61d8cd14a0d94c99b32d1b6b0f13fa1423"),
        ],
    )
    def test_transcript_hash(self, n, length, seed, policy, digest):
        run = run_protocol(random_vectors(n, length, seed), seed=seed, policy=policy)
        exported = run.transcript.export_jsonl().encode()
        assert hashlib.sha256(exported).hexdigest() == digest
