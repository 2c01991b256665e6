"""Simulator and analysis harness for the masked n-party scalar product
protocol: exact ring arithmetic, trusted-initializer shares, deterministic
message-passing engine with recursive sub-instances, oracles, a
semi-honest reconstruction attack, and an instance census.
"""

from .analysis import (
    InstanceCensus,
    chain_residual_coefficients,
    count_instances,
    forced_guess_inputs,
    knowledge_closure,
    masked_product_coefficients,
    mixed_term,
    plaintext_oracle,
    reconstruct_inputs,
    scan_mask_freshness,
    scan_mask_safety,
    scan_ttp_rotation,
)
from .config import RunConfig, parse_config, parse_modulus
from .errors import (
    ConfigError,
    InputShapeError,
    InstanceShapeError,
    ProtocolStateError,
    RoutingError,
    ScalarProtocolError,
    TtpAssignmentError,
)
from .parties import PartyId
from .protocol import (
    Policy,
    RunResult,
    aggregate_final,
    assign_ttp,
    chain_init,
    chain_step,
    enumerate_sub_instances,
    run_protocol,
)
from .ring import DEFAULT_MODULUS, ModVector, Ring, product_trace
from .shares import Rng, generate_share_bundles
from .simnet import Message, MessageKind, Network, Transcript, View

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_MODULUS",
    "InputShapeError",
    "InstanceCensus",
    "InstanceShapeError",
    "Message",
    "MessageKind",
    "ModVector",
    "Network",
    "PartyId",
    "Policy",
    "ProtocolStateError",
    "Ring",
    "Rng",
    "RoutingError",
    "RunConfig",
    "RunResult",
    "ScalarProtocolError",
    "Transcript",
    "TtpAssignmentError",
    "View",
    "aggregate_final",
    "assign_ttp",
    "chain_init",
    "chain_residual_coefficients",
    "chain_step",
    "count_instances",
    "enumerate_sub_instances",
    "forced_guess_inputs",
    "generate_share_bundles",
    "knowledge_closure",
    "masked_product_coefficients",
    "mixed_term",
    "parse_config",
    "parse_modulus",
    "plaintext_oracle",
    "product_trace",
    "reconstruct_inputs",
    "run_protocol",
    "scan_mask_freshness",
    "scan_mask_safety",
    "scan_ttp_rotation",
]
