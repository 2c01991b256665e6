"""Sub-protocol growth: census table plus timed executions up to n=6,
each checked against the oracle and the census.

Every n-position instance spawns 2**n - n - 2 children, and children
recurse, so the total instance count explodes; the protocol is meant for
settings with few parties.

Run with:  python3 demos/complexity_demo.py
"""

import random
import time

from npscalar import count_instances, plaintext_oracle, run_protocol, Ring

print(f"{'n':>3} {'children':>9} {'instances':>11} {'messages':>9} {'executed ms':>12}")
for n in range(2, 11):
    census = count_instances(n)
    row = (
        f"{n:>3} {census.direct_children:>9} {census.total_instances:>11}"
        f" {census.messages:>9}"
    )
    if n <= 6:
        r = random.Random(n)
        vectors = [[r.randrange(2) for _ in range(4)] for _ in range(n)]
        start = time.perf_counter()
        run = run_protocol(vectors, seed=n)
        ms = (time.perf_counter() - start) * 1000
        assert run.result == plaintext_oracle(vectors, Ring())
        assert run.instance_count == census.total_instances
        assert run.message_count == census.messages
        assert run.per_depth_counts() == list(census.per_depth)
        row += f" {ms:>12.1f}"
    else:
        row += f" {'(census only)':>12}"
    print(row)
