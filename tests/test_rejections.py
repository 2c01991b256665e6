"""Each check on outside input raises its own class with its own message:
one row per rejection branch, with the call, the exception class and the
message."""

import pytest

from npscalar import (
    ConfigError,
    InputShapeError,
    InstanceShapeError,
    MessageKind,
    Network,
    PartyId,
    ProtocolStateError,
    Ring,
    Rng,
    RoutingError,
    chain_init,
    chain_step,
    count_instances,
    masked_product_coefficients,
    parse_config,
    parse_modulus,
    plaintext_oracle,
    run_protocol,
)

R64 = Ring()
KNOWN, STRANGER = PartyId.data(1), PartyId.data(2)


def _network():
    net = Network()
    net.register(KNOWN)
    return net


NEEDS_PARTIES = "config needs a 'parties' mapping of name -> vector"

# The message of each: the whole of it, as `str(exception)` gives it.
REJECTIONS = {
    "config-not-a-mapping": (
        lambda: parse_config("- 1\n- 2\n"),
        ConfigError,
        "config must be a mapping",
    ),
    "config-empty-document": (
        lambda: parse_config(""),
        ConfigError,
        "config must be a mapping",
    ),
    "config-parties-missing": (
        lambda: parse_config("seed: 1\n"),
        ConfigError,
        NEEDS_PARTIES,
    ),
    "config-parties-empty": (
        lambda: parse_config("parties: {}\n"),
        ConfigError,
        NEEDS_PARTIES,
    ),
    "config-vector-empty": (
        lambda: parse_config("parties:\n  a: []\n  b: [1]\n"),
        ConfigError,
        "party 'a' needs a nonempty vector",
    ),
    "config-vector-not-a-list": (
        lambda: parse_config("parties:\n  a: [1]\n  b: 5\n"),
        ConfigError,
        "party 'b' needs a nonempty vector",
    ),
    "modulus-float": (
        lambda: parse_modulus(2.5),
        ConfigError,
        "cannot parse modulus 2.5",
    ),
    "run-zero-length": (
        lambda: run_protocol([(), ()]),
        InstanceShapeError,
        "vectors must have length >= 1",
    ),
    "send-unknown-sender": (
        lambda: _network().send(STRANGER, KNOWN, 0, MessageKind.CHAIN_VALUE, {}),
        RoutingError,
        "unknown sender p2",
    ),
    "record-local-unknown-party": (
        lambda: _network().record_local(STRANGER, {"kind": "input"}),
        RoutingError,
        "unknown party p2",
    ),
    "chain-init-alone": (
        lambda: chain_init((1,), [], 0, 0, R64),
        ProtocolStateError,
        "chain start requires every other masked vector",
    ),
    "chain-step-alone": (
        lambda: chain_step(0, (1,), [], 0, R64),
        ProtocolStateError,
        "chain step requires every other masked vector",
    ),
    "party-index-zero": (
        lambda: PartyId.data(0),
        ValueError,
        "data party indices start at 1",
    ),
    "oracle-no-vectors": (
        lambda: plaintext_oracle([], R64),
        InputShapeError,
        "oracle needs at least one vector",
    ),
    "oracle-unequal-lengths": (
        lambda: plaintext_oracle([(1, 2), (3,)], R64),
        InputShapeError,
        "length mismatch in oracle input",
    ),
    "census-one-party": (
        lambda: count_instances(1),
        InstanceShapeError,
        "census needs at least 2 parties",
    ),
    "symbolic-nine-positions": (
        lambda: masked_product_coefficients(9),
        InstanceShapeError,
        "symbolic expansion supports 2..8 positions",
    ),
    "rng-empty-vector": (
        lambda: Rng(0).vector(R64, 0),
        InstanceShapeError,
        "vector length must be >= 1",
    ),
}


@pytest.mark.parametrize("call,error,message", REJECTIONS.values(), ids=REJECTIONS)
def test_rejection(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text,start",
    [
        ("parties: [1, 2", "malformed config: while parsing a flow sequence\n"),
        (
            f"seed: {'9' * 5000}\n",
            "malformed config: an integer literal has more than 4300 digits",
        ),
        ("seed: 2024-13-45\n", "malformed config: month must be in 1..12"),
    ],
    ids=["malformed-yaml", "int-too-long", "bad-date"],
)
def test_unreadable_config(text, start):
    """PyYAML's own text follows the prefix; an int literal past CPython's
    digit limit, or an impossible date, is a ConfigError too, not a bare
    ValueError."""
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    assert type(caught.value) is ConfigError
    assert str(caught.value).startswith(start)
