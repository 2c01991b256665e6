"""Party identifiers and their global ordering.

Two kinds of parties exist: data parties (indexed from 1) and trusted
third parties (labelled). Data parties order before TTPs; this total order
is what makes TTP rotation deterministic and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RoutingError


@dataclass(frozen=True)
class PartyId:
    kind: str  # "data" or "ttp"
    index: int = 0
    label: str = ""

    # Every send, routing check and view hashes or compares parties, and
    # every exported record names two, so the fields' tuple, its hash and
    # the string are computed once. The hash depends on the process's string
    # hashing, so a pickle carries only the fields and the constructor
    # recomputes it.
    def __post_init__(self):
        key = (self.kind, self.index, self.label)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        text = f"p{self.index}" if self.kind == "data" else f"ttp:{self.label}"
        object.__setattr__(self, "_str", text)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __reduce__(self):
        return (self.__class__, self._key)

    @classmethod
    def data(cls, index: int) -> "PartyId":
        if index < 1:
            raise ValueError("data party indices start at 1")
        return cls(kind="data", index=index)

    @classmethod
    def ttp(cls, label: str) -> "PartyId":
        return cls(kind="ttp", label=label)

    @property
    def is_ttp(self) -> bool:
        return self.kind == "ttp"

    @property
    def sort_key(self):
        return (0, self.index, "") if self.kind == "data" else (1, 0, self.label)

    def __lt__(self, other: "PartyId") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return self._str

    @classmethod
    def from_str(cls, text: str) -> "PartyId":
        if text.startswith("ttp:"):
            return cls.ttp(text[4:])
        if text.startswith("p") and text[1:].isdigit():
            return cls.data(int(text[1:]))
        raise RoutingError(f"not a party id: {text!r}")
