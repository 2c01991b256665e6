import os
import pickle
import subprocess
import sys

import pytest

from npscalar import PartyId, RoutingError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(code: str, hash_seed: int, stdin: bytes = b"") -> bytes:
    """Run `code` in a fresh interpreter with the given string-hash seed."""
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestHash:
    def test_constructors_hash_equally(self):
        for made in (
            [PartyId.data(3), PartyId.from_str("p3"), PartyId("data", 3),
             PartyId.data(1)._replace(index=3)],
            [PartyId.ttp("ttp"), PartyId.from_str("ttp:ttp"),
             PartyId.ttp("other")._replace(label="ttp")],
        ):
            assert len({hash(p) for p in made}) == 1
            assert all(p == made[0] for p in made)
            assert {made[0]: 1}[made[-1]] == 1

    def test_distinct_ids_differ(self):
        """Ids order as (kind, index, label): data parties by index, so p2
        comes before p10 as string order would not have it, then TTPs by
        label."""
        ids = [
            PartyId.data(1),
            PartyId.data(2),
            PartyId.data(10),
            PartyId.ttp("a"),
            PartyId.ttp("ttp"),
            PartyId.ttp("x"),
        ]
        assert len(set(ids)) == 6
        assert PartyId.data(1) != PartyId.ttp("p1")
        assert PartyId.data(1) != "p1"
        assert sorted(reversed(ids)) == ids

    def test_str_survives_rebuilds(self):
        for party, text in ((PartyId.data(3), "p3"), (PartyId.ttp("ttp"), "ttp:ttp")):
            other = PartyId.data(7) if party.kind == "data" else PartyId.ttp("x")
            rebuilt = (
                pickle.loads(pickle.dumps(party)),
                other._replace(index=party.index, label=party.label),
                PartyId.from_str(text),
            )
            assert str(party) == text
            assert [str(p) for p in rebuilt] == [text] * 3

    def test_pickle_across_hash_seeds(self):
        """An id pickled in a process with one string-hash seed equals a
        fresh id and is a working dict key in a process with another; a hash
        carried in the pickle would be the first process's."""
        dumped = _python(
            "import pickle, sys\n"
            "from npscalar import PartyId\n"
            "sys.stdout.buffer.write(pickle.dumps("
            "[PartyId.ttp('ttp'), PartyId.data(2)]))\n",
            hash_seed=1,
        )
        out = _python(
            "import pickle, sys\n"
            "from npscalar import PartyId\n"
            "ttp, p2 = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = {PartyId.ttp('ttp'): 'ttp', PartyId.data(2): 'p2'}\n"
            "print(ttp == PartyId.ttp('ttp'), fresh.get(ttp), fresh.get(p2),"
            " ttp in set(fresh))\n",
            hash_seed=2,
            stdin=dumped,
        )
        assert out.split() == [b"True", b"ttp", b"p2", b"True"]


class TestFromStr:
    @pytest.mark.parametrize(
        "text",
        ["p01", "p\u0661", "p0", "p\u00b2", "p", "p-1", "p 1"],
        ids=["leading-zero", "arabic-indic-digit", "zero", "superscript", "bare",
             "negative", "space"],
    )
    def test_rejects_text_that_str_never_writes(self, text):
        """Only the string an id's `str()` writes parses, so an imported
        transcript can neither rename a party nor fail with a bare
        ValueError."""
        with pytest.raises(RoutingError, match="^not a party id: "):
            PartyId.from_str(text)

    def test_round_trips_what_str_writes(self):
        for party in (PartyId.data(1), PartyId.data(10), PartyId.ttp(""),
                      PartyId.ttp("p01"), PartyId.ttp("caf\u00e9")):
            assert PartyId.from_str(str(party)) == party
