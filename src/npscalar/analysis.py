"""Oracles and adversarial analysis.

Four independent lenses on the protocol:

  * a plaintext oracle that recomputes the scalar product with no protocol
    machinery at all;
  * a symbolic expansion over monomial classes (each position contributes
    either its data vector or its mask) validating the chain algebra;
  * a syntactic knowledge closure plus the semi-honest TTP reconstruction
    attack it enables under the FLAWED policy;
  * an instance census capturing the exponential sub-protocol growth.

The knowledge closure is deliberately id-based, not information-theoretic:
it decides exactly the mask-reuse attack class, nothing more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Sequence

from .errors import InputShapeError, InstanceShapeError
from .parties import PartyId
from .ring import ModVector, Ring, product_trace
from .shares import Rng
from .simnet import MessageKind, Transcript, View

# The two kinds the readers test every message against. On CPython 3.11,
# whose `EnumType` defines `__getattr__`, each `MessageKind.X` lookup takes
# about 0.1 µs, more than the rest of a reader's test of one message.
_SHARE = MessageKind.SHARE_DISTRIBUTION
_MASKED = MessageKind.MASKED_MATRIX

# ---------------------------------------------------------------------------
# plaintext oracle


def plaintext_oracle(vectors: Sequence[Sequence[int]], ring: Ring) -> int:
    """Direct sum-of-products computation; shares nothing with the engine."""
    if not vectors:
        raise InputShapeError("oracle needs at least one vector")
    length = len(vectors[0])
    for v in vectors[1:]:
        if len(v) != length:
            raise InputShapeError("length mismatch in oracle input")
    total = 0
    for j in range(length):
        term = 1
        for v in vectors:
            term *= v[j]
        total += term
    return total % ring.modulus


# ---------------------------------------------------------------------------
# symbolic expansion oracle


def _phi_expansion(n: int, plain: frozenset, randoms: frozenset) -> dict:
    """Expand the trace of a product where `plain` positions contribute
    data, `randoms` contribute masks, and the rest contribute data+mask.

    Returns {frozenset of data positions: coefficient}."""
    masked = [i for i in range(1, n + 1) if i not in plain and i not in randoms]
    out: dict[frozenset, int] = {}
    for r in range(len(masked) + 1):
        for choice in itertools.combinations(masked, r):
            key = frozenset(plain) | frozenset(choice)
            out[key] = out.get(key, 0) + 1
    return out


def masked_product_coefficients(n: int) -> dict:
    """Class coefficients of the all-masked product trace: 1 on every
    subset, i.e. the decomposition into all mixed terms."""
    if not 2 <= n <= 8:
        raise InstanceShapeError("symbolic expansion supports 2..8 positions")
    return _phi_expansion(n, frozenset(), frozenset())


def chain_residual_coefficients(n: int) -> dict:
    """Class coefficients of (last chain value + output mask), after
    substituting the share-sum identity.

    Expected: +1 on the full-data class, 0 on the all-random class and on
    classes of size n-1, and -(n-1-t) on classes of size t in [1, n-2].
    """
    if not 2 <= n <= 8:
        raise InstanceShapeError("symbolic expansion supports 2..8 positions")
    coeff: dict[frozenset, int] = {}

    def accumulate(terms: dict, sign: int) -> None:
        for key, c in terms.items():
            coeff[key] = coeff.get(key, 0) + sign * c

    # first chain value: position 1 plaintext, everyone else masked
    accumulate(_phi_expansion(n, frozenset({1}), frozenset()), +1)
    # each later step subtracts (others masked) x (own mask)
    for i in range(2, n + 1):
        accumulate(_phi_expansion(n, frozenset(), frozenset({i})), -1)
    # every position adds (n-1) times its share, and the shares sum to the
    # all-random mixed term
    empty = frozenset()
    coeff[empty] = coeff.get(empty, 0) + (n - 1)
    # the output mask subtracted in the first step cancels the one re-added
    return {
        frozenset(s): coeff.get(frozenset(s), 0)
        for r in range(n + 1)
        for s in itertools.combinations(range(1, n + 1), r)
    }


def mixed_term(
    kept, data: Sequence[ModVector], masks: Sequence[ModVector], ring: Ring
) -> int:
    """Trace of the product taking data at `kept` positions, masks elsewhere."""
    n = len(data)
    vectors = [data[i - 1] if i in kept else masks[i - 1] for i in range(1, n + 1)]
    return product_trace(vectors, ring)


def evaluate_coefficients(
    coeffs: dict, data: Sequence[ModVector], masks: Sequence[ModVector], ring: Ring
) -> int:
    """Numeric value of a class-coefficient map on concrete vectors."""
    total = 0
    for kept, c in coeffs.items():
        total += c * mixed_term(kept, data, masks, ring)
    return ring.reduce(total)


# ---------------------------------------------------------------------------
# knowledge closure and the reconstruction attack


def _input_atom(party: str) -> str:
    return f"input:{party}"


def _known_mask_values(view: View) -> dict:
    """Mask values present in the view: sent by the party or received, each
    as its payload holds it (a tuple, or a list once read back from an
    export); the readers only zip it or test its id."""
    return {
        msg.meta["mask_id"]: msg.payload["mask"]
        for msg in (*view.sent_messages, *view.received_messages)
        if msg.kind is _SHARE
    }


def knowledge_closure(view: View) -> set[str]:
    """Fixpoint of the syntactic derivation rule over one party's view: the
    set of atoms the party holds or can derive.

    Seed atoms: own inputs and the masks of every share distribution the
    party sent or received. A masked vector reveals its subject iff the
    blinding mask's id is already in the set; a collapsed product is
    derivable iff every factor mask is known.
    """
    atoms = {_input_atom(rec["party"]) for rec in view.own_inputs}
    # mask ids, not atoms: derivation never adds a mask, so this set is
    # final before the first masked vector is read
    masks = set(_known_mask_values(view))
    for msg in view.received_messages:
        if msg.kind is not _MASKED:
            continue
        if msg.meta["mask_id"] not in masks:
            continue
        subject = msg.meta["subject"]
        if subject["kind"] == "input":
            atoms.add(_input_atom(subject["party"]))
        elif masks.issuperset(subject["masks"]):
            atoms.add("prod:" + ",".join(map(str, sorted(subject["masks"]))))
    atoms.update(map("mask:{}".format, masks))
    return atoms


def _unmask_inputs(view: View, mask_for) -> dict:
    """Every received masked input vector minus the mask `mask_for(meta)`
    picks for it from the message's meta, keyed by the input's party. A
    vector for which it returns None is skipped; a later vector of the
    same party replaces an earlier one."""
    modulus = view.ring.modulus
    unmasked: dict[PartyId, tuple] = {}
    for msg in view.received_messages:
        if msg.kind is not _MASKED:
            continue
        subject = msg.meta["subject"]
        if subject["kind"] != "input":
            continue
        mask = mask_for(msg.meta)
        if mask is None:
            continue
        unmasked[PartyId.from_str(subject["party"])] = tuple(
            (v - m) % modulus for v, m in zip(msg.payload["values"], mask)
        )
    return unmasked


def reconstruct_inputs(view: View) -> dict:
    """The semi-honest reconstruction attack run from one party's view.

    For every received masked vector whose blinding mask the party holds,
    subtract the mask; parties whose data is never exposed that way are
    absent from the returned map. Under the SECURE policy a TTP's map is
    empty; under FLAWED it recovers every data party's vector exactly.
    """
    masks = _known_mask_values(view)
    return _unmask_inputs(view, lambda meta: masks.get(meta["mask_id"]))


def forced_guess_inputs(view: View) -> dict:
    """What the attack yields if the adversary wrongly assumes sub-instance
    masks are the ones it already holds for the same party.

    For each received masked input vector with an unknown mask, subtract
    the first mask (lowest seq) the viewer sent that party in some other
    instance. The guesses mismatch the true data except with vanishing
    probability.
    """
    by_holder: dict[str, tuple] = {}
    for msg in sorted(view.sent_messages, key=attrgetter("seq")):
        if msg.kind is _SHARE:
            by_holder.setdefault(str(msg.recipient), tuple(msg.payload["mask"]))
    known = _known_mask_values(view)

    def stale(meta):
        if meta["mask_id"] in known:
            return None
        return by_holder.get(meta["subject"]["party"])

    return _unmask_inputs(view, stale)


# ---------------------------------------------------------------------------
# transcript invariant scans


def scan_ttp_rotation(transcript: Transcript) -> list[str]:
    """Violations of the rotation rule: a share generator that also holds
    a position in the instance it generated for."""
    recipients: dict[int, set] = {}
    generators: dict[int, PartyId] = {}
    for msg in transcript:
        if msg.kind is _SHARE:
            recipients.setdefault(msg.instance_id, set()).add(msg.recipient)
            generators[msg.instance_id] = msg.sender
    return [
        f"instance {iid}: generator {generators[iid]} is a participant"
        for iid, parts in sorted(recipients.items())
        if generators[iid] in parts
    ]


def scan_mask_safety(transcript: Transcript) -> list[str]:
    """Violations of mask-recipient safety: a message referencing mask m
    delivered to a party that already knows m and is not m's holder.

    "Already" means earlier in the transcript, which is delivery order; a
    message's `seq` is its send order, and the two differ under any
    schedule other than global FIFO."""
    holder: dict[int, PartyId] = {}
    generator: dict[int, PartyId] = {}
    received_at: dict[tuple, int] = {}
    for at, msg in enumerate(transcript):
        if msg.kind is _SHARE:
            mid = msg.meta["mask_id"]
            holder[mid] = msg.recipient
            generator[mid] = msg.sender
            received_at[(msg.recipient, mid)] = at

    def knows(party: PartyId, mid: int, before: int) -> bool:
        if generator.get(mid) == party:
            return True
        at = received_at.get((party, mid))
        return at is not None and at < before

    violations = []
    for at, msg in enumerate(transcript):
        if msg.kind is not _MASKED:
            continue
        mid = msg.meta["mask_id"]
        if msg.recipient != holder.get(mid) and knows(msg.recipient, mid, at):
            violations.append(
                f"seq {msg.seq}: mask {mid} reached knowing party {msg.recipient}"
            )
    return violations


def scan_mask_freshness(transcript: Transcript) -> list[str]:
    """Mask ids appearing in more than one share distribution."""
    seen: set[int] = set()
    repeats = []
    for msg in transcript:
        if msg.kind is _SHARE:
            mid = msg.meta["mask_id"]
            if mid in seen:
                repeats.append(f"mask {mid} distributed twice")
            seen.add(mid)
    return repeats


# ---------------------------------------------------------------------------
# instance census


@dataclass(frozen=True)
class InstanceCensus:
    n: int
    direct_children: int
    total_instances: int
    messages: int
    per_depth: tuple


@lru_cache(maxsize=None)
def _levels(m: int) -> tuple:
    """The instances of an m-position run, one {size: count} map per depth:
    an s-position instance spawns comb(s, t) children of t + 1 positions
    for each t in 1..s-2."""
    levels = [{m: 1}]
    while True:
        below: dict[int, int] = {}
        for s, c in levels[-1].items():
            for t in range(1, s - 1):
                below[t + 1] = below.get(t + 1, 0) + math.comb(s, t) * c
        if not below:
            return tuple(levels)
        levels.append(below)


def count_instances(n: int) -> InstanceCensus:
    """Closed-form census of one run: counts by enumeration, no arithmetic."""
    if n < 2:
        raise InstanceShapeError("census needs at least 2 parties")
    levels = _levels(n)
    per_depth = tuple(sum(level.values()) for level in levels)
    total = sum(per_depth)
    # an s-position instance sends s shares, s(s-1) masked vectors and s
    # chain values; every child reports once and the top publishes n finals
    own = sum(c * s * (s + 1) for level in levels for s, c in level.items())
    return InstanceCensus(
        n=n,
        direct_children=(1 << n) - n - 2,
        total_instances=total,
        messages=own + (total - 1) + n,
        per_depth=per_depth,
    )


# ---------------------------------------------------------------------------
# mask uniformity


def masked_samples(value: int, count: int, modulus: int, seed: int) -> list[int]:
    """`count` maskings of one fixed value under fresh masks drawn by the
    engine's draw rule."""
    rng, ring = Rng(seed), Ring(modulus)
    return [(value + mask) % modulus for mask in rng.vector(ring, count)]


def uniformity_pvalue(samples: Sequence[int], modulus: int) -> float:
    """Chi-square p-value against the uniform distribution on Z_modulus."""
    from scipy import stats

    counts = [0] * modulus
    for s in samples:
        counts[s] += 1
    return float(stats.chisquare(counts).pvalue)
