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

from dataclasses import dataclass, field

from .errors import ConfigError, InputShapeError, InstanceShapeError
from .protocol import Policy
from .ring import DEFAULT_MODULUS


def parse_modulus(spec) -> int:
    """Accept an int, or strings like "2^64", "2**64" or "251"."""
    if isinstance(spec, int):
        value = spec
    elif isinstance(spec, str):
        text = spec.strip().replace("^", "**")
        try:
            if "**" in text:
                base, exp = text.split("**")
                value = int(base) ** int(exp)
            else:
                value = int(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse modulus {spec!r}") from exc
    else:
        raise ConfigError(f"cannot parse modulus {spec!r}")
    if value < 2:
        raise ConfigError("modulus must be at least 2")
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
        return [tuple(e % self.modulus for e in vec) for _, vec in self.parties]


def parse_config(text: str) -> RunConfig:
    """Validate and normalize a YAML run configuration."""
    import yaml

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
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

    return RunConfig(
        parties=parties,
        modulus=modulus,
        seed=seed,
        policy=policy,
    )
