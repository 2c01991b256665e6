"""Run configuration: a small YAML document with named party vectors.

Example::

    modulus: 2^64
    seed: 7
    policy: secure
    parties:
      alice: [1, 2]
      bob: [3, 4]
      claire: [5, 6]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .errors import ConfigError, InputShapeError, InstanceShapeError
from .protocol import Policy
from .ring import DEFAULT_MODULUS, ModVector, Ring


# The largest modulus, in bits. Every modulus and every result then prints
# within CPython's 4,300-digit limit on int-to-text conversion.
MAX_MODULUS_BITS = 4096
_TOO_LARGE = f"modulus must have at most {MAX_MODULUS_BITS} bits"


def _unparsable(spec) -> ConfigError:
    """The parse error, echoing at most 40 characters of the spec."""
    text = repr(spec)
    if len(text) > 40:
        text = f"{text[:40]}... ({len(text)} characters)"
    return ConfigError(f"cannot parse modulus {text}")


def parse_modulus(spec) -> int:
    """Accept an int, or strings like "2^64", "2**64" or "251", from 2 up
    to MAX_MODULUS_BITS bits. A power's base must be at least 2, and a
    power too large to be a modulus is rejected before it is computed."""
    if isinstance(spec, str):
        base, power, exp = spec.strip().replace("^", "**").partition("**")
        try:
            value, exp = int(base), int(exp) if power else 1
        except ValueError as exc:
            raise _unparsable(spec) from exc
        if power:
            if value < 2 or exp < 1:
                raise ConfigError("a modulus power needs base >= 2 and exponent >= 1")
            # the base's power has more than exp * value.bit_length() / 2
            # bits, so one that fails this test is too large
            if exp * value.bit_length() > 2 * MAX_MODULUS_BITS:
                raise ConfigError(_TOO_LARGE)
            value **= exp
    elif isinstance(spec, int):
        value = spec
    else:
        raise _unparsable(spec)
    if value < 2:
        raise ConfigError("modulus must be at least 2")
    if value.bit_length() > MAX_MODULUS_BITS:
        raise ConfigError(_TOO_LARGE)
    return value


@dataclass
class RunConfig:
    # [(name, tuple of entries)], as written; `vectors` reduces them by
    # `modulus`, which the command line may still override
    parties: list = field(default_factory=list)
    modulus: int = DEFAULT_MODULUS
    seed: int = 0
    policy: Policy = Policy.SECURE

    @property
    def names(self) -> list:
        return [name for name, _ in self.parties]

    @property
    def vectors(self) -> list:
        ring = Ring(self.modulus)
        return [ModVector(vec, ring).entries for _, vec in self.parties]


def parse_config(text: str) -> RunConfig:
    """Validate and normalize a YAML run configuration."""
    import yaml

    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        problem = str(exc)
        # PyYAML passes on a constructor's ValueError; int()'s, past CPython's
        # digit limit, advises a call that a config file cannot make
        if problem.startswith("Exceeds the limit"):
            limit = sys.get_int_max_str_digits()
            problem = f"an integer literal has more than {limit} digits"
        raise ConfigError(f"malformed config: {problem}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")

    known = {"modulus", "seed", "policy", "parties"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    modulus = parse_modulus(raw.get("modulus", DEFAULT_MODULUS))

    policy_raw = str(raw.get("policy", "secure")).lower()
    try:
        policy = Policy(policy_raw)
    except ValueError as exc:
        raise ConfigError(f"unknown policy {policy_raw!r}") from exc

    parties_raw = raw.get("parties")
    if not isinstance(parties_raw, dict) or not parties_raw:
        raise ConfigError("config needs a 'parties' mapping of name -> vector")
    if len(parties_raw) < 2:
        raise InstanceShapeError("at least 2 parties are required")

    parties = []
    length = None
    for name, vec in parties_raw.items():
        if not isinstance(vec, (list, tuple)) or not vec:
            raise ConfigError(f"party {name!r} needs a nonempty vector")
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in vec):
            raise ConfigError(f"party {name!r} has a non-integer entry")
        entries = tuple(vec)
        if length is None:
            length = len(entries)
        elif len(entries) != length:
            raise InputShapeError(
                f"party {name!r} has length {len(entries)}, expected {length}"
            )
        parties.append((str(name), entries))

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")

    return RunConfig(parties=parties, modulus=modulus, seed=seed, policy=policy)
