"""Party identifiers and their global ordering.

Two kinds of parties exist: data parties (indexed from 1) and trusted
third parties (labelled). An id is the value (kind, index, label) and
orders as that tuple: "data" sorts before "ttp", so data parties come
first by index, then TTPs by label. This total order is what makes TTP
rotation deterministic and replayable.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import RoutingError


class PartyId(NamedTuple):
    kind: str  # "data" or "ttp"
    index: int = 0
    label: str = ""

    @classmethod
    def data(cls, index: int) -> "PartyId":
        if index < 1:
            raise ValueError("data party indices start at 1")
        return cls("data", index)

    @classmethod
    def ttp(cls, label: str) -> "PartyId":
        return cls("ttp", 0, label)

    @property
    def is_ttp(self) -> bool:
        return self.kind == "ttp"

    # Every exported record names its sender and recipient, and the attack
    # keys masks by recipient string, so each id value has one string.
    @functools.cache
    def __str__(self) -> str:
        return f"p{self.index}" if self.kind == "data" else f"ttp:{self.label}"

    @classmethod
    def from_str(cls, text: str) -> "PartyId":
        """The id whose `str()` is `text`; any other text, such as "p01",
        "p0" or non-ASCII digits, names no party."""
        if text.startswith("ttp:"):
            return cls.ttp(text[4:])
        if text.startswith("p") and text[1:].isdecimal():
            party = cls("data", int(text[1:]))
            if party.index >= 1 and str(party) == text:
                return party
        raise RoutingError(f"not a party id: {text!r}")
