"""Theorem 1/4 live: after-the-fact removal defeats subquadratic BA.

The strongly adaptive adversary watches the wire; whenever anyone stages a
message that would reach the victim, it corrupts the sender *in that
round* and erases the victim's copy — the corrupted sender keeps following
the protocol towards everyone else and withholds what it sends next from
the victim.  Because the subquadratic protocol has
only O(λ²) speakers, the whole network is silenced towards the victim with
a corruption budget far below f: the victim times out on a default output
while everyone else agrees on the sender's bit.

The identical attack against the quadratic protocol dies: every node
speaks, the budget runs out, the victim hears the tail of the traffic.

Usage::

    python examples/after_the_fact_removal.py
"""

from repro.adversaries import IsolationAdversary
from repro.harness import run_instance
from repro.protocols import (
    build_broadcast_from_ba,
    build_quadratic_ba,
    build_subquadratic_ba,
)
from repro.types import AdversaryModel, SecurityParameters


def main() -> None:
    params = SecurityParameters(lam=20, epsilon=0.1)
    victim = 5

    n, f = 900, 400
    print(f"subquadratic BB: n={n}, f={f}, sender input 1, victim node {victim}")
    instance = build_broadcast_from_ba(
        build_subquadratic_ba, n=n, f=f, sender_input=1,
        params=params, max_iterations=12)
    adversary = IsolationAdversary(victim=victim)
    result = run_instance(instance, f, adversary,
                          model=AdversaryModel.STRONGLY_ADAPTIVE, seed=1)
    others = sorted({result.outputs[i] for i in result.forever_honest
                     if i != victim})
    print(f"  corruptions spent:   {result.corruptions_used}  (budget {f})")
    print(f"  removed copies:      {adversary.removed_copies}"
          "  (after the fact; later copies are withheld)")
    print(f"  victim output:       {result.outputs[victim]}")
    print(f"  everyone else:       {others}")
    print(f"  consistency broken:  {not result.consistent()}\n")

    n, f = 41, 19
    print(f"quadratic BB: n={n}, f={f} — same attack")
    instance = build_broadcast_from_ba(
        build_quadratic_ba, n=n, f=f, sender_input=1, max_iterations=12)
    adversary = IsolationAdversary(victim=victim)
    result = run_instance(instance, f, adversary,
                          model=AdversaryModel.STRONGLY_ADAPTIVE, seed=1)
    print(f"  corruptions spent:   {result.corruptions_used}  (budget {f})")
    print(f"  budget exhausted:    {adversary.budget_exhausted}")
    print(f"  consistency broken:  {not result.consistent()}")
    print()
    print("This is Theorem 1: Ω(f²) communication is the price of")
    print("surviving after-the-fact removal.")


if __name__ == "__main__":
    main()
