"""Protocol state machines for the masked n-party scalar product.

An instance consists of m ordered *positions*. Each position holds one
vector: either a party's plaintext data or the collapsed product of the
masks a sub-instance replaces. Every instance, m >= 2, runs one flow:

  1. the instance's TTP distributes fresh correlated randomness
     (mask vector + additive scalar share) to every position;
  2. every position broadcasts its masked vector to the other positions
     (the TTP receives no protocol traffic: commodity-server discipline);
  3. position 1 folds the output mask, drawn when the instance starts,
     into the first chain value, which walks positions 2..m and back to 1;
  4. each proper subset of positions that keeps 1..m-2 vectors as data
     spawns a sub-instance computing the corresponding mixed term, with
     the remaining positions' masks collapsed into a single vector held
     by this instance's TTP (a two-position instance has none);
  5. position 1 combines the final chain value, the coefficient-weighted
     sub-results and the output mask into the published result.

TTP assignment policy:
  SECURE  - each instance's randomness comes from the lowest-ordered party
            not participating in that instance;
  FLAWED  - sub-instances reuse the parent's TTP even when it participates,
            which is exactly the configuration the attack harness breaks.

Under FLAWED a party can own several positions of one instance (and even
be the instance's TTP); the machinery is written per-position so the
message flow, and therefore the instance census, is identical under both
policies.

Readiness is per position, not per instance: there is no instance-wide
phase. A position broadcasts once its share distribution arrives. `start`
sets its count of what its chain step awaits: the share distribution, the
m-1 other masked vectors and, past position 1, the previous chain value.
A handler counts a message down once its checks admit it, so a duplicate
never counts; the message that reaches 0 takes the one step. Position 1
aggregates once the closing chain value and every sub-result are in.
Messages of different positions or stages may therefore arrive in any
order the causal chain allows.

Instances run depth first over sibling groups. `start` sends an
instance's shares and spawns its children in plan order, and they wait as
one group; the parent records each child's report by the child's id. The
run delivers until the bus is idle, then starts every member of the newest
waiting group, and ends once the bus is idle and no group waits. Siblings
start together, so their messages stay batched by kind in the FIFO. Every
child is causally enabled when its parent starts, so this is a legal
schedule: results, message counts per kind and instances per depth are
those of starting every instance at once; transcript order and RNG draw
order are not. Every draw happens in `start`, so the values drawn depend on
the start order, not on delivery order: any legal delivery order sends the
same messages, and only their seqs and order move. A sub-instance leaves
`engine.instances` once it sends its sub-result, so only unfinished
instances and unstarted groups are live, and a message for a released
instance is rejected as one for no such instance.

Every message follows one contract. Its payload names the position it goes
to as `to_pos`, and a masked vector or chain value, whose sending position
varies, names that position as `from_pos`; the sender of every other kind
is fixed by the kind (the TTP, a child's position 1, or position 1). Every
handler starts with one route check: `to_pos` is an int position of the
instance, owned by the recipient, and the sender is the party the protocol
expects. A sub-result names its child by instance id only: a parent's
children have consecutive ids in plan order, so the id gives the child's
kept positions and coefficient. The chain is one ring: position j takes
exactly one chain value, from the position before it (m before 1), and
position 1's is the closing value. A final result carries the published
one. A repeated message is rejected as a duplicate, one that never came as
missing, and a payload that is not a dict, a `mask` or `values` that is
not a tuple, a payload field that is missing, or a position or scalar
that is not exactly an int (`True == 1` and `1.0 == 1`), by name. Vector
entries are not scanned as they arrive. `dispatch` is the one boundary
for a handler's error: when masking a vector or a chain step raises, or a
chain value is not exactly an int, it scans the receiving position's mask
and received vectors, and names the share distribution or masked vector
that carried the first entry that is not an int; if no message is at
fault, the handler's own error propagates.

A position computes with the mask and share its share distribution
carried. `start` builds one meta record per mask, its id and the subject
it masks; the share distribution carries it, and the position forwards
that same object with each of its broadcasts, so the engine reads no meta
field. The TTP's masks live only while `start` spawns the instance's
children: each child's collapsed mask product, the TTP's own knowledge, is
built then, before the child starts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Optional, Sequence

from .errors import (
    InputShapeError,
    InstanceShapeError,
    ProtocolStateError,
    TtpAssignmentError,
)
from .parties import PartyId
from .ring import ModVector, Ring, _add, _trace
from .shares import Rng, generate_share_bundles
from .simnet import MessageKind, Network, View


class Policy(Enum):
    SECURE = "secure"
    FLAWED = "flawed"


# Members used per message; a `MessageKind.X` lookup costs ~0.1 µs on 3.11.
_SHARE = MessageKind.SHARE_DISTRIBUTION
_MASKED = MessageKind.MASKED_MATRIX
_CHAIN = MessageKind.CHAIN_VALUE
_SUB = MessageKind.SUB_RESULT
_FINAL = MessageKind.FINAL_RESULT
_FIELDS = frozenset(("to_pos", "from_pos", "mask", "share", "values", "value", "child"))


@functools.cache
def enumerate_sub_instances(n: int) -> tuple:
    """All sub-instances of an n-position instance, in deterministic order,
    as (kept, dropped, coefficient): the parent positions that stay
    plaintext and those whose masks collapse, each in order, and the
    multiplicity the result carries in the parent's aggregation.

    Subsets of size 1..n-2 are kept as data; a kept subset of size t has
    coefficient n-1-t. There are exactly 2**n - n - 2 of them. The plan is
    built once per size and shared by every instance of that size.
    """
    if n < 2:
        raise InstanceShapeError("instances need at least 2 positions")
    return tuple(
        (kept, tuple(j for j in range(1, n + 1) if j not in kept), n - 1 - t)
        for t in range(1, n - 1)
        for kept in itertools.combinations(range(1, n + 1), t)
    )


def assign_ttp(
    participants: Sequence[PartyId],
    policy: Policy,
    parent_ttp: PartyId,
    pool: Sequence[PartyId],
) -> PartyId:
    """Pick the share generator for a sub-instance.

    SECURE rotates to the lowest-ordered pool member not participating;
    FLAWED always keeps the parent's TTP, participant or not.
    """
    if policy is Policy.FLAWED:
        return parent_ttp
    involved = set(participants)
    for party in sorted(pool):
        if party not in involved:
            return party
    raise TtpAssignmentError("no eligible trusted third party")


def chain_init(
    own_vector: tuple,
    masked_others: Collection[tuple],
    own_share: int,
    output_mask: int,
    ring: Ring,
) -> int:
    """First chain value: trace of (all other masked vectors times own
    plaintext), plus (m-1) times the own share, minus the output mask.
    Vectors are entry tuples of one length, reduced."""
    if not masked_others:
        raise ProtocolStateError("chain start requires every other masked vector")
    t = _trace(own_vector, masked_others, ring)
    return ring.reduce(t + len(masked_others) * own_share - output_mask)


def chain_step(
    prev: int,
    own_mask: tuple,
    masked_others: Collection[tuple],
    own_share: int,
    ring: Ring,
) -> int:
    """Next chain value: subtract the trace of (all other masked vectors
    times the own mask), add (m-1) times the own share. Vectors are entry
    tuples of one length, reduced."""
    if not masked_others:
        raise ProtocolStateError("chain step requires every other masked vector")
    t = _trace(own_mask, masked_others, ring)
    return ring.reduce(prev - t + len(masked_others) * own_share)


def aggregate_final(
    chain_last: int,
    sub_results: Iterable[tuple[int, int]],
    output_mask: int,
    ring: Ring,
) -> int:
    """Combine the last chain value, the (coefficient, value) sub-results
    and the output mask into the scalar product."""
    total = chain_last
    for coefficient, value in sub_results:
        total += coefficient * value
    return ring.reduce(total + output_mask)


# ---------------------------------------------------------------------------
# runtime state


class _Position:
    __slots__ = (
        "owner",
        "vector",
        "subject",
        "mask",
        "share",
        "masked",
        "chain_prev",
        "output_mask",
        "waiting",
    )

    def __init__(self, owner: PartyId, vector: tuple, subject: dict):
        self.owner = owner
        self.vector = vector
        # what the vector is, as its transcript record; shared, never mutated:
        # {"kind": "input", "party": ...} or {"kind": "prod", "masks": (ascending ids)}
        self.subject = subject
        # from the share distribution; the mask's entries are None until it
        # arrives
        self.mask: Optional[tuple] = None
        self.share: Optional[int] = None
        # from_pos -> masked vector's entries; None once the chain value is
        # sent, as every other masked vector has arrived by then
        self.masked: Optional[dict[int, tuple]] = {}
        # the chain value from the position before; position 1's is the
        # closing value
        self.chain_prev: Optional[int] = None
        self.output_mask: Optional[int] = None
        # messages still to come before the chain step; `start` sets it
        self.waiting = 0


# the empty set shared by every instance that publishes no result, and the
# empty range of every instance that spawns no children; never mutated
_EMPTY: frozenset = frozenset()
_NO_CHILDREN = range(0)


class ProtocolInstance:
    __slots__ = (
        "instance_id",
        "parent_id",
        "positions",
        "m",
        "length",
        "ttp",
        "depth",
        "children",
        "sub_results",
        "result",
        "final_delivered",
    )

    def __init__(self, instance_id, positions, ttp, parent_id=None, depth=0):
        self.instance_id = instance_id
        self.positions: list[_Position] = positions
        # the instance's size and vector length, for every message's checks
        self.m = len(positions)
        self.length = len(positions[0].vector)
        self.ttp = ttp
        self.parent_id = parent_id
        self.depth = depth
        # the children's instance ids, consecutive and in plan order, which
        # `start` sets for a parent, and child id -> (coefficient, value) of
        # each that reported
        self.children: range = _NO_CHILDREN
        self.sub_results: dict[int, tuple[int, int]] = {}
        self.result: Optional[int] = None
        # positions that got the published result; only the top instance
        # publishes, so the others keep one shared empty set
        self.final_delivered: frozenset[int] = _EMPTY


def _rejected(instance_id: int, kind: MessageKind, position, problem: str):
    """The error for a message the instance's state does not admit, or one
    it never got; it names the instance, the message kind and the
    receiving position."""
    return ProtocolStateError(
        f"instance {instance_id}: {kind.value} at position {position}: {problem}"
    )


def _receiver(inst: ProtocolInstance, msg) -> int:
    """The position `msg` goes to, once its `to_pos` is exactly an int
    position of the instance and the recipient owns that position."""
    j = msg.payload["to_pos"]
    if type(j) is not int or not 1 <= j <= inst.m:
        problem = f"no such position (1..{inst.m})"
        raise _rejected(inst.instance_id, msg.kind, j, problem)
    expected = inst.positions[j - 1].owner
    if msg.recipient != expected:
        problem = f"recipient {msg.recipient}, expected {expected}"
        raise _rejected(inst.instance_id, msg.kind, j, problem)
    return j


def _check_sender(inst: ProtocolInstance, msg, expected: PartyId) -> None:
    """Reject a message that `_receiver` admitted but that a party other
    than `expected` sent."""
    if msg.sender != expected:
        problem = f"sender {msg.sender}, expected {expected}"
        raise _rejected(inst.instance_id, msg.kind, msg.payload["to_pos"], problem)


def _integer(inst: ProtocolInstance, msg, field: str) -> int:
    """The scalar payload `field` of an admitted message, once it is exactly
    an int."""
    x = msg.payload[field]
    if type(x) is not int:
        problem = f"{field} {x} is not an integer"
        raise _rejected(inst.instance_id, msg.kind, msg.payload["to_pos"], problem)
    return x


def _at_fault(inst: ProtocolInstance, msg, exc: Exception):
    """The error naming the delivered message behind `exc`, which its
    handler raised: a payload that is not a dict; a payload field a handler
    reads (`_FIELDS`) that the payload lacks; else the first vector entry of
    the receiving position that is not exactly an int, in its mask, then in
    the masked vectors it received, in position order. Every kernel runs for
    the message's own position, which `_receiver` has admitted, and its own
    vector and every scalar are exact ints, so a step that went wrong on its
    inputs always finds one. None if the engine is at fault."""
    if type(msg.payload) is not dict:
        return _rejected(inst.instance_id, msg.kind, None, "payload is not a dict")
    field = exc.args[0] if isinstance(exc, KeyError) and exc.args else None
    to_pos = msg.payload.get("to_pos")
    if field in _FIELDS and field not in msg.payload:
        return _rejected(inst.instance_id, msg.kind, to_pos, f"payload has no {field}")
    pos = inst.positions[to_pos - 1]
    for x in pos.mask or ():
        if type(x) is not int:
            problem = f"mask entry {x} is not an integer"
            return _rejected(inst.instance_id, _SHARE, to_pos, problem)
    for i, values in sorted((pos.masked or {}).items()):
        for x in values:
            if type(x) is not int:
                problem = f"values entry {x} from position {i} is not an integer"
                return _rejected(inst.instance_id, _MASKED, to_pos, problem)


class ProtocolEngine:
    """Drives every instance of one run over a shared network."""

    def __init__(self, ring: Ring, rng: Rng, policy: Policy, net: Network, pool):
        self.ring = ring
        self.rng = rng
        self.policy = policy
        self.net = net
        self.pool = list(pool)
        # instances spawned and not yet reported; a sub-instance leaves once
        # it sends its sub-result, so the top instance is the last one left
        self.instances: dict[int, ProtocolInstance] = {}
        # instances spawned per depth, released ones included
        self.per_depth: list[int] = []
        # sibling groups spawned and not yet started, newest last
        self.unstarted: list[list[ProtocolInstance]] = []
        self._ids = itertools.count()
        # the first of the next instance's m consecutive mask ids
        self.next_mask_id = 0
        # participants -> TTP; the last participant is the parent's TTP,
        # and the policy and the pool are fixed for the run, so it is exact
        self._ttps: dict[tuple, PartyId] = {}

    # -- construction ------------------------------------------------------

    def new_instance(self, positions, ttp, parent_id=None, depth=0):
        inst = ProtocolInstance(next(self._ids), positions, ttp, parent_id, depth)
        self.instances[inst.instance_id] = inst
        if depth < len(self.per_depth):
            self.per_depth[depth] += 1
        else:
            self.per_depth.append(1)
        return inst

    def start(self, inst: ProtocolInstance) -> None:
        """Draw all the instance's randomness, send its shares and spawn its
        children in plan order. The children's collapsed mask products are
        built here, so the masks die with this call; the children
        themselves start later, as one sibling group."""
        m, ttp = inst.m, inst.ttp
        for pos in inst.positions:
            # share, m-1 masked vectors and the previous chain value
            pos.waiting = m + 1
        inst.positions[0].waiting = m  # position 1 opens the chain
        masks, shares, inst.positions[0].output_mask = generate_share_bundles(
            m, inst.length, self.ring, self.rng
        )
        first = self.next_mask_id
        self.next_mask_id = first + m
        # one int per id, shared by the meta record and every subject
        ids = list(range(first, first + m))
        send, iid = self.net.send, inst.instance_id
        for i, pos in enumerate(inst.positions, start=1):
            # mask i's one meta record: the share and all m-1 broadcasts of
            # position i carry this object
            send(
                ttp,
                pos.owner,
                iid,
                _SHARE,
                {"to_pos": i, "mask": masks[i - 1], "share": shares[i - 1]},
                {"mask_id": ids[i - 1], "subject": pos.subject},
            )
        plan = enumerate_sub_instances(m)
        if plan:
            # the TTP's collapse multiplies ModVectors; a leaf needs none
            masks = [ModVector._reduced(mask, self.ring) for mask in masks]
            children = [
                self.spawn_sub_instance(inst, masks, ids, kept, dropped)
                for kept, dropped, _ in plan
            ]
            first = children[0].instance_id
            inst.children = range(first, first + len(children))
            self.unstarted.append(children)

    def spawn_sub_instance(
        self,
        parent: ProtocolInstance,
        masks: Sequence[ModVector],
        ids: Sequence[int],
        kept: tuple[int, ...],
        dropped: tuple[int, ...],
    ) -> ProtocolInstance:
        """Build the child instance for one entry of the parent's
        sub-instance plan; `masks` are the ones the parent's TTP
        generated and `ids` their mask ids, both in position order.

        Kept positions carry their vectors over unchanged; the remaining
        positions' masks collapse into one product vector held by the
        parent's TTP (the only party that knows all of them).
        """
        parent_positions = parent.positions
        positions = []
        for i in kept:
            pos = parent_positions[i - 1]
            positions.append(_Position(pos.owner, pos.vector, pos.subject))
        collapsed = masks[dropped[0] - 1]
        for j in dropped[1:]:
            collapsed = collapsed.hadamard(masks[j - 1])
        # `dropped` and the ids ascend, so the subject's ids do too
        subject = {"kind": "prod", "masks": tuple(ids[j - 1] for j in dropped)}
        positions.append(_Position(parent.ttp, collapsed.entries, subject))
        owners = tuple(p.owner for p in positions)
        ttp = self._ttps.get(owners)
        if ttp is None:
            ttp = assign_ttp(owners, self.policy, parent.ttp, self.pool)
            if self.policy is Policy.SECURE and ttp in owners:
                raise TtpAssignmentError(
                    f"{ttp} cannot generate shares for an instance it joins"
                )
            self._ttps[owners] = ttp
        return self.new_instance(
            positions, ttp, parent_id=parent.instance_id, depth=parent.depth + 1
        )

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, msg) -> None:
        try:
            inst = self.instances[msg.instance_id]
        except KeyError:
            raise _rejected(
                msg.instance_id, msg.kind, msg.payload.get("to_pos"), "no such instance"
            ) from None
        try:
            self._HANDLERS[msg.kind](self, inst, msg)
        except (KeyError, TypeError, OverflowError, MemoryError) as exc:
            # the engine's one boundary for a handler's error; a kernel fed
            # a non-int entry can raise any of these (`int * str` can
            # exhaust memory)
            raise _at_fault(inst, msg, exc) or exc from None

    def _on_share(self, inst: ProtocolInstance, msg) -> None:
        i = _receiver(inst, msg)
        _check_sender(inst, msg, inst.ttp)
        pos = inst.positions[i - 1]
        if pos.mask is not None:
            raise _rejected(inst.instance_id, msg.kind, i, "duplicate")
        mask = msg.payload["mask"]
        if type(mask) is not tuple:
            problem = f"mask is a {type(mask).__name__}, not a tuple"
            raise _rejected(inst.instance_id, msg.kind, i, problem)
        if len(mask) != inst.length:
            problem = f"{len(mask)} mask entries, expected {inst.length}"
            raise _rejected(inst.instance_id, msg.kind, i, problem)
        pos.share = _integer(inst, msg, "share")
        pos.mask = mask
        self._send_masked(inst, i, pos, msg.meta)
        pos.waiting -= 1
        if not pos.waiting:
            self._chain(inst, i, pos)

    def _send_masked(
        self, inst: ProtocolInstance, i: int, pos: _Position, meta: dict
    ) -> None:
        """Broadcast position i's masked vector to every other position, with
        the meta record its share distribution carried; all recipients share
        one immutable entries tuple and that one record."""
        values = _add(pos.vector, pos.mask, self.ring)
        send, owner, iid = self.net.send, pos.owner, inst.instance_id
        for j, other in enumerate(inst.positions, start=1):
            if j != i:
                send(
                    owner,
                    other.owner,
                    iid,
                    _MASKED,
                    {"from_pos": i, "to_pos": j, "values": values},
                    meta,
                )

    def _on_masked(self, inst: ProtocolInstance, msg) -> None:
        j = _receiver(inst, msg)
        i = msg.payload["from_pos"]
        if type(i) is not int or i == j or not 1 <= i <= inst.m:
            problem = f"from position {i}, not another position"
            raise _rejected(inst.instance_id, msg.kind, j, problem)
        _check_sender(inst, msg, inst.positions[i - 1].owner)
        pos = inst.positions[j - 1]
        masked = pos.masked
        if masked is None or i in masked:
            problem = f"duplicate from position {i}"
            raise _rejected(inst.instance_id, msg.kind, j, problem)
        values = msg.payload["values"]
        if type(values) is not tuple:
            name = type(values).__name__
            problem = f"values from position {i} are a {name}, not a tuple"
            raise _rejected(inst.instance_id, msg.kind, j, problem)
        if len(values) != inst.length:
            problem = f"{len(values)} values from position {i}, expected {inst.length}"
            raise _rejected(inst.instance_id, msg.kind, j, problem)
        masked[i] = values
        pos.waiting -= 1
        if not pos.waiting:
            self._chain(inst, j, pos)

    # -- chain -------------------------------------------------------------

    def _chain(self, inst: ProtocolInstance, i: int, pos: _Position) -> None:
        """Position i's chain step, taken once it waits for nothing more.
        Position 1 opens the chain with the output mask `start` drew. The
        masked vectors are freed once the step is sent."""
        ring, masked = self.ring, pos.masked.values()
        if i == 1:
            value = chain_init(pos.vector, masked, pos.share, pos.output_mask, ring)
        else:
            value = chain_step(pos.chain_prev, pos.mask, masked, pos.share, ring)
        # every scalar is an int by now, so only a vector entry can make the
        # value something else; `dispatch` names it
        if type(value) is not int:
            raise TypeError(f"chain value {value!r} is not an integer")
        pos.masked = None
        nxt = i % inst.m + 1
        self.net.send(
            pos.owner,
            inst.positions[nxt - 1].owner,
            inst.instance_id,
            _CHAIN,
            {"from_pos": i, "to_pos": nxt, "value": value},
        )

    def _on_chain(self, inst: ProtocolInstance, msg) -> None:
        j = _receiver(inst, msg)
        before = (j - 2) % inst.m + 1  # m before 1
        _check_sender(inst, msg, inst.positions[before - 1].owner)
        i = msg.payload["from_pos"]
        if type(i) is not int or i != before:
            problem = f"from position {i}, expected {before}"
            raise _rejected(inst.instance_id, msg.kind, j, problem)
        pos = inst.positions[j - 1]
        if pos.chain_prev is not None:
            raise _rejected(inst.instance_id, msg.kind, j, "duplicate")
        pos.chain_prev = _integer(inst, msg, "value")
        if j == 1:
            self._maybe_finalize(inst)
            return
        pos.waiting -= 1
        if not pos.waiting:
            self._chain(inst, j, pos)

    # -- aggregation -------------------------------------------------------

    def _on_sub_result(self, inst: ProtocolInstance, msg) -> None:
        to_pos = msg.payload["to_pos"]
        if to_pos != 1:
            problem = "sub-results go to position 1"
            raise _rejected(inst.instance_id, msg.kind, to_pos, problem)
        _receiver(inst, msg)
        child = _integer(inst, msg, "child")
        if child not in inst.children:
            problem = f"unexpected child {child}"
            raise _rejected(inst.instance_id, msg.kind, 1, problem)
        if child in inst.sub_results:
            problem = f"duplicate from child {child}"
            raise _rejected(inst.instance_id, msg.kind, 1, problem)
        plan = enumerate_sub_instances(inst.m)
        kept, _, coefficient = plan[child - inst.children.start]
        # the child's position 1 is the first position it keeps
        _check_sender(inst, msg, inst.positions[kept[0] - 1].owner)
        if child in self.instances:
            # `_publish` releases a child before it sends its report
            raise _rejected(
                inst.instance_id, msg.kind, 1, f"child {child} has not reported"
            )
        inst.sub_results[child] = (coefficient, _integer(inst, msg, "value"))
        self._maybe_finalize(inst)

    def _maybe_finalize(self, inst: ProtocolInstance) -> None:
        first = inst.positions[0]
        if first.chain_prev is None or len(inst.sub_results) < len(inst.children):
            return
        inst.result = aggregate_final(
            first.chain_prev, inst.sub_results.values(), first.output_mask, self.ring
        )
        self._publish(inst)

    def _on_final(self, inst: ProtocolInstance, msg) -> None:
        j = _receiver(inst, msg)
        _check_sender(inst, msg, inst.positions[0].owner)
        if j in inst.final_delivered:
            raise _rejected(inst.instance_id, msg.kind, j, "duplicate")
        value = _integer(inst, msg, "value")
        if value != inst.result:
            problem = f"value {value}, expected {inst.result}"
            raise _rejected(inst.instance_id, msg.kind, j, problem)
        inst.final_delivered |= {j}

    # kind -> handler, for `dispatch`
    _HANDLERS = {
        _SHARE: _on_share,
        _MASKED: _on_masked,
        _CHAIN: _on_chain,
        _SUB: _on_sub_result,
        _FINAL: _on_final,
    }

    def _publish(self, inst: ProtocolInstance) -> None:
        first_owner = inst.positions[0].owner
        if inst.parent_id is None:
            for j, pos in enumerate(inst.positions, start=1):
                self.net.send(
                    first_owner,
                    pos.owner,
                    inst.instance_id,
                    _FINAL,
                    {"to_pos": j, "value": inst.result},
                )
        else:
            del self.instances[inst.instance_id]
            parent = self.instances[inst.parent_id]
            self.net.send(
                first_owner,
                parent.positions[0].owner,
                parent.instance_id,
                _SUB,
                {"to_pos": 1, "child": inst.instance_id, "value": inst.result},
            )


# ---------------------------------------------------------------------------
# run driver


@dataclass
class RunResult:
    """Everything a completed run exposes to analysis and reporting."""

    result: int
    ring: Ring
    policy: Policy
    data_parties: tuple[PartyId, ...]
    ttp: PartyId
    net: Network
    # instances spawned per depth, the top instance at depth 0
    per_depth: tuple[int, ...]

    @property
    def transcript(self):
        return self.net.transcript

    @property
    def instance_count(self) -> int:
        return sum(self.per_depth)

    @property
    def message_count(self) -> int:
        return len(self.net.transcript)

    def per_depth_counts(self) -> list[int]:
        return list(self.per_depth)

    def view_of(self, party: PartyId) -> View:
        return self.net.view_of(party, self.ring)


def _stalled(inst: ProtocolInstance) -> ProtocolStateError:
    """The error for an instance that ended without a result. It names the
    earliest piece that never arrived, in this order: a share distribution,
    a masked vector, a chain value in ring order (positions 2..m, then the
    closing value at 1), a sub-result."""
    iid = inst.instance_id
    for i, pos in enumerate(inst.positions, start=1):
        if pos.mask is None:
            return _rejected(iid, _SHARE, i, "missing")
    for j, pos in enumerate(inst.positions, start=1):
        if pos.masked is None:  # stepped, so it held every masked vector
            continue
        for i in range(1, inst.m + 1):
            if i != j and i not in pos.masked:
                problem = f"missing from position {i}"
                return _rejected(iid, _MASKED, j, problem)
    for j in (*range(2, inst.m + 1), 1):
        if inst.positions[j - 1].chain_prev is None:
            return _rejected(iid, _CHAIN, j, "missing")
    missing = next(c for c in inst.children if c not in inst.sub_results)
    problem = f"missing from child {missing}"
    return _rejected(iid, _SUB, 1, problem)


def run_protocol(
    vectors: Sequence[Sequence[int]],
    *,
    modulus: int = None,
    seed: int = 0,
    policy: Policy = Policy.SECURE,
) -> RunResult:
    """Execute one full run over the given plaintext vectors.

    Returns the published scalar product together with the transcript,
    per-party views and all instance metadata.
    """
    if len(vectors) < 2:
        raise InstanceShapeError("a run needs at least 2 data parties")
    ring = Ring(modulus) if modulus is not None else Ring()
    length = len(vectors[0])
    if length < 1:
        raise InstanceShapeError("vectors must have length >= 1")
    for v in vectors[1:]:
        if len(v) != length:
            raise InputShapeError("all parties' vectors must share one length")

    data_parties = tuple(PartyId.data(i) for i in range(1, len(vectors) + 1))
    ttp = PartyId.ttp("ttp")
    net = Network()
    for party in (*data_parties, ttp):
        net.register(party)
    engine = ProtocolEngine(ring, Rng(seed), policy, net, [*data_parties, ttp])

    positions = []
    for party, vec in zip(data_parties, vectors):
        entries = ModVector(vec, ring).entries
        name = str(party)
        positions.append(_Position(party, entries, {"kind": "input", "party": name}))
        net.record_local(party, {"kind": "input", "party": name, "values": entries})
    top = engine.new_instance(positions, ttp)
    engine.start(top)

    # depth first over sibling groups: drain the bus, then start the newest
    # group still waiting
    unstarted = engine.unstarted
    while True:
        while (msg := net.deliver_next()) is not None:
            engine.dispatch(msg)
        if not unstarted:
            break
        for child in unstarted.pop():
            engine.start(child)

    # every instance has started, and besides the top instance only the
    # unfinished ones remain; a child's id exceeds its parent's, so the
    # newest of them is the one that lost a message
    for inst in reversed(engine.instances.values()):
        if inst.result is None:
            raise _stalled(inst)
    for j in range(1, top.m + 1):
        if j not in top.final_delivered:
            raise _rejected(top.instance_id, _FINAL, j, "missing")
    return RunResult(
        result=top.result,
        ring=ring,
        policy=policy,
        data_parties=data_parties,
        ttp=ttp,
        net=net,
        per_depth=tuple(engine.per_depth),
    )
