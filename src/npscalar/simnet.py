"""Deterministic in-process message bus with a total-order transcript.

One global sequence number orders all traffic; delivery pops the lowest
sequence number still pending, which trivially preserves per-channel FIFO.
Every delivered message is appended to an append-only transcript, and each
party's view (its own inputs plus the messages it sent and received) can be
projected out after the run.

The `meta` sidecar on a message carries mask/share identifiers so that
invariants can be checked without parsing payload semantics. Adversary
arithmetic must only use values that actually appear in a party's view;
meta exists for the analysis harness. The engine reads no meta field: a
position forwards its share's meta record, as the same object, as the
meta of each of its masked broadcasts.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional

from .errors import RoutingError
from .parties import PartyId
from .ring import Ring


class MessageKind(Enum):
    SHARE_DISTRIBUTION = "ShareDistribution"
    MASKED_MATRIX = "MaskedMatrixBroadcast"
    CHAIN_VALUE = "ChainValue"
    SUB_RESULT = "SubResult"
    FINAL_RESULT = "FinalResult"

    # Members are singletons compared by identity, so the identity hash is
    # exact; Enum's own runs Python code on every dispatch-table lookup.
    __hash__ = object.__hash__


class Message:
    __slots__ = ("seq", "sender", "recipient", "instance_id", "kind", "payload", "meta")

    def __init__(self, seq, sender, recipient, instance_id, kind, payload, meta):
        self.seq = seq
        self.sender = sender
        self.recipient = recipient
        self.instance_id = instance_id
        self.kind = kind
        self.payload = payload
        self.meta = meta

    def record(self) -> dict:
        return {
            "seq": self.seq,
            "from": str(self.sender),
            "to": str(self.recipient),
            "instance": self.instance_id,
            "kind": self.kind.value,
            "payload": self.payload,
            "meta": self.meta,
        }

    def __repr__(self) -> str:
        return f"Message(seq={self.seq}, {self.sender}->{self.recipient}, {self.kind.value})"


# One exported record: `Message.record()`'s keys in `sort_keys` order, each
# filled with its value's JSON text.
_LINE = '{"from":%s,"instance":%s,"kind":%s,"meta":%s,"payload":%s,"seq":%s,"to":%s}'


class _Memo(dict):
    """`memo[key]` is `make(key)`, computed on the first lookup only."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class Transcript(list):
    """Totally ordered log of every delivered message: a `list` of
    `Message`s that the network and `from_jsonl` only append to, as the
    per-party index assumes."""

    def __init__(self, messages=()):
        super().__init__(messages)
        # party -> messages it sent / received, covering the first
        # `_indexed` messages; caught up by `messages_of`, not by `append`
        self._sent: defaultdict[PartyId, list] = defaultdict(list)
        self._received: defaultdict[PartyId, list] = defaultdict(list)
        self._indexed = 0

    def messages_of(self, party: PartyId) -> tuple[list, list]:
        """Copies of the messages `party` sent and received, in transcript
        order. The per-party index is extended on demand, so a run that takes
        no view never builds it and `append` stays one list append."""
        if self._indexed != len(self):
            sent, received = self._sent, self._received
            for m in self[self._indexed:]:
                sent[m.sender].append(m)
                received[m.recipient].append(m)
            self._indexed = len(self)
        return list(self._sent.get(party, ())), list(self._received.get(party, ()))

    def export_jsonl(self) -> str:
        """Line-delimited records, bit-exact across replays with one seed.

        Each line equals `json.dumps(m.record(), sort_keys=True,
        separators=(",", ":"))`, which stays the reference. No record dict
        is built: `_LINE` is the record's envelope with its keys already in
        sorted order. The party names and kinds are encoded once per export,
        and so is each meta object, keyed by identity: messages that carry
        one meta object share its text, and equal but distinct metas (an
        imported transcript's) are each encoded. `seq` and `instance` are
        written as int text when their type is exactly `int`, and every
        other field value goes through one encoder with the settings `dumps`
        would use: the C encoder where `_json` is present, else
        `JSONEncoder.encode`. Its `markers` dict is fresh per export, so the
        circular-reference check stays, and `default` raises the same
        `TypeError`."""
        dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
        if c_make_encoder is None:
            encode = dumps.encode
        else:
            c_encode = c_make_encoder(
                {}, dumps.default, encode_basestring_ascii, dumps.indent,
                dumps.key_separator, dumps.item_separator, dumps.sort_keys,
                dumps.skipkeys, dumps.allow_nan,
            )

            def encode(value):
                return "".join(c_encode(value, 0))

        names = _Memo(lambda party: encode(str(party)))
        kinds = _Memo(lambda kind: encode(kind.value))
        # id(meta) -> its text; the transcript keeps every meta alive while
        # this runs, so no id is reused
        metas = {}
        return "\n".join([
            _LINE % (
                names[m.sender],
                i if type(i := m.instance_id) is int else encode(i),
                kinds[m.kind],
                metas[k] if (k := id(m.meta)) in metas
                else metas.setdefault(k, encode(m.meta)),
                encode(m.payload),
                s if type(s := m.seq) is int else encode(s),
                names[m.recipient],
            )
            for m in self
        ])

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """The transcript an `export_jsonl()` text records, for auditing
        without re-running. Tuples come back as lists, which the analysis
        reads the same way, so the text exports unchanged."""
        return cls(
            Message(
                rec["seq"],
                PartyId.from_str(rec["from"]),
                PartyId.from_str(rec["to"]),
                rec["instance"],
                MessageKind(rec["kind"]),
                rec["payload"],
                rec["meta"],
            )
            for rec in map(json.loads, text.splitlines())
        )


@dataclass
class View:
    """Everything one party legitimately sees during a run: its own inputs
    and the delivered messages it sent or received, nothing else."""

    ring: Ring
    own_inputs: list = field(default_factory=list)
    sent_messages: list = field(default_factory=list)
    received_messages: list = field(default_factory=list)


# The meta of every message sent without one; shared, never mutated.
_NO_META: dict = {}


class Network:
    """Single-owner bus: send enqueues, deliver_next pops in seq order."""

    def __init__(self):
        self._seq = 0
        self._pending: deque[Message] = deque()
        self.transcript = Transcript()
        self._local: dict[PartyId, list] = {}  # registered party -> input records

    def register(self, party: PartyId) -> None:
        self._local.setdefault(party, [])

    def send(
        self,
        sender: PartyId,
        recipient: PartyId,
        instance_id: int,
        kind: MessageKind,
        payload: dict,
        meta: Optional[dict] = None,
    ) -> Message:
        if recipient not in self._local:
            raise RoutingError(f"unknown recipient {recipient}")
        if sender not in self._local:
            raise RoutingError(f"unknown sender {sender}")
        if meta is None:
            meta = _NO_META
        msg = Message(self._seq, sender, recipient, instance_id, kind, payload, meta)
        self._seq += 1
        self._pending.append(msg)
        return msg

    def deliver_next(self) -> Optional[Message]:
        if not self._pending:
            return None
        msg = self._pending.popleft()
        self.transcript.append(msg)
        return msg

    def record_local(self, party: PartyId, record: dict) -> None:
        if party not in self._local:
            raise RoutingError(f"unknown party {party}")
        self._local[party].append(record)

    def view_of(self, party: PartyId, ring: Ring) -> View:
        if party not in self._local:
            raise RoutingError(f"unknown party {party}")
        sent, received = self.transcript.messages_of(party)
        return View(
            ring=ring,
            own_inputs=list(self._local[party]),
            sent_messages=sent,
            received_messages=received,
        )
