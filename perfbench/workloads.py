"""The benchmark's workloads: input generation, the timed op and its gate.

Every workload is a closed loop with one client: one op starts only after
the previous one returned. The engine sees only the generated inputs, that
is full-range vectors in [0, 2**64) and a protocol seed per op.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Distinct input sets per run; op i uses set i % POOL_SIZE.
POOL_SIZE = 16


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    length: int
    policies: tuple
    # Layers that run only because the op reads the transcript back.
    reader_layers: tuple = ()


# A layer listed here must record calls on every workload; a zero means a
# wrapper no longer reaches the code it was meant to time.
ENGINE_LAYERS = (
    "ring.product_trace",
    "ring.modvector",
    "ring.vector_ops",
    "shares.bundles",
    "shares.rng",
    "simnet.send",
    "simnet.deliver",
    "simnet.record_local",
    "protocol.run",
    "protocol.start",
    "protocol.spawn",
    "protocol.dispatch",
    "protocol.chain",
    "analysis.oracle",
)

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep", 6, 16, ("secure",)),
        Workload("wide", 4, 2048, ("secure",)),
        Workload(
            "audit",
            5,
            4,
            ("flawed", "secure"),
            reader_layers=(
                "simnet.view_of",
                "simnet.export",
                "analysis.reconstruct",
                "analysis.closure",
                "analysis.forced_guess",
                "analysis.scans",
            ),
        ),
    )
}


def make_inputs(workload: Workload, seed: int) -> list:
    """POOL_SIZE (vectors, protocol seed) pairs; one seed, one pool."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [
        (
            [
                [rng.getrandbits(64) for _ in range(workload.length)]
                for _ in range(workload.n)
            ],
            rng.getrandbits(32),
        )
        for _ in range(POOL_SIZE)
    ]


@dataclass
class OpOutput:
    runs: list
    ttp_recovered: dict | None = None
    scan_findings: list | None = None


def run_op(npscalar, workload: Workload, vectors, seed: int) -> OpOutput:
    """One op. Module attributes are looked up at call time so that the
    tracer's wrappers, when installed, are the ones called."""
    protocol, analysis = npscalar.protocol, npscalar.analysis
    runs = [
        protocol.run_protocol(vectors, seed=seed, policy=protocol.Policy(p))
        for p in workload.policies
    ]
    if not workload.reader_layers:
        return OpOutput(runs)
    recovered, ttp_views = {}, {}
    for run in runs:
        for party in (*run.data_parties, run.ttp):
            view = run.view_of(party)
            claimed = analysis.reconstruct_inputs(view)
            analysis.knowledge_closure(view)
            if party == run.ttp:
                recovered[run.policy.value] = claimed
                ttp_views[run.policy.value] = view
    analysis.forced_guess_inputs(ttp_views["secure"])
    secure = runs[workload.policies.index("secure")].transcript
    findings = (
        analysis.scan_ttp_rotation(secure)
        + analysis.scan_mask_safety(secure)
        + analysis.scan_mask_freshness(secure)
    )
    for run in runs:
        run.transcript.export_jsonl()
    return OpOutput(runs, recovered, findings)


def check_op(npscalar, workload: Workload, vectors, out: OpOutput) -> list:
    """Problems with one op's outputs; an empty list means it passed."""
    analysis = npscalar.analysis
    census = analysis.count_instances(workload.n)
    problems = []
    for run in out.runs:
        tag = run.policy.value
        if run.result != analysis.plaintext_oracle(vectors, run.ring):
            problems.append(f"{tag}: result differs from the plaintext oracle")
        if run.instance_count != census.total_instances:
            problems.append(f"{tag}: {run.instance_count} instances, census says "
                            f"{census.total_instances}")
        if run.message_count != census.messages:
            problems.append(f"{tag}: {run.message_count} messages, census says "
                            f"{census.messages}")
        if tuple(run.per_depth_counts()) != census.per_depth:
            problems.append(f"{tag}: instances per depth differ from the census")
    if workload.reader_layers:
        expected = {
            npscalar.PartyId.data(i): tuple(v) for i, v in enumerate(vectors, start=1)
        }
        if out.ttp_recovered["flawed"] != expected:
            problems.append("flawed TTP did not recover every vector exactly")
        if out.ttp_recovered["secure"]:
            problems.append("secure TTP recovered an input")
        if out.scan_findings:
            problems.append(f"secure scans found {out.scan_findings[:3]}")
    return problems


def message_count(out: OpOutput) -> int:
    return sum(run.message_count for run in out.runs)
