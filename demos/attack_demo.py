"""The semi-honest TTP attack, side by side under both policies.

Under FLAWED the parent's TTP also generates the sub-instance masks, so
every masked vector it receives is blinded with a mask it already holds:
subtraction recovers each party's data exactly. Under SECURE a rotating,
uninvolved party generates fresh sub-instance masks and the same attack
yields nothing; forcing the stale-mask guess anyway produces garbage.

Run with:  python3 demos/attack_demo.py
"""

from npscalar import (
    Policy,
    forced_guess_inputs,
    knowledge_closure,
    reconstruct_inputs,
    run_protocol,
)

vectors = [(31, 17), (8, 90), (55, 4)]
print("secret inputs:", vectors)

for policy in (Policy.FLAWED, Policy.SECURE):
    run = run_protocol(vectors, seed=3, policy=policy)
    view = run.view_of(run.ttp)
    recovered = reconstruct_inputs(view)
    print(f"\n--- policy: {policy.value} ---")
    if recovered:
        for party in sorted(recovered):
            truth = vectors[party.index - 1]
            print(
                f"TTP recovered {party}: {recovered[party]}"
                f"  exact={recovered[party] == truth}"
            )
    else:
        print("TTP recovered nothing.")
    atoms = knowledge_closure(view)
    learned = sorted(a for a in atoms if a.startswith("input:"))
    print("inputs in the TTP's knowledge closure:", learned or "none")
    if policy is Policy.SECURE:
        for party, guess in sorted(forced_guess_inputs(view).items()):
            truth = vectors[party.index - 1]
            print(f"stale-mask guess for {party}: {guess}  exact={guess == truth}")
