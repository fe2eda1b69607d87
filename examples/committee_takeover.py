"""The attack that motivates the paper (Section 1).

A CRS-elected committee gives sublinear communication against a *static*
adversary — and collapses instantly against an *adaptive* one, which
corrupts the publicly-known committee and splits the network.  The same
corruption budget achieves nothing against the paper's protocol, whose
committees are secret until they speak and bit-specific when they do.

Usage::

    python examples/committee_takeover.py
"""

from repro.adversaries import AdaptiveSpeakerAdversary, CommitteeTakeoverAdversary
from repro.harness import run_instance
from repro.protocols import build_static_committee, build_subquadratic_ba
from repro.types import SecurityParameters


def main() -> None:
    n, f, seed = 120, 40, 3
    params = SecurityParameters(lam=24, epsilon=0.1)

    print(f"n={n}, adaptive corruption budget f={f}, unanimous input 1\n")

    instance = build_static_committee(n, f, [1] * n, seed=seed)
    committee = instance.authenticator.committee
    adversary = CommitteeTakeoverAdversary(instance)
    result = run_instance(instance, f, adversary, seed=seed)
    print(f"static committee (public, size {len(committee)}):")
    print(f"  corruptions spent: {result.corruptions_used}")
    print(f"  consistent:        {result.consistent()}   <-- broken")
    outputs = sorted(set(result.honest_outputs))
    print(f"  honest outputs:    {outputs}\n")

    instance = build_subquadratic_ba(n, f, [1] * n, seed=seed, params=params)
    adversary = AdaptiveSpeakerAdversary(instance)
    result = run_instance(instance, f, adversary, seed=seed)
    print("subquadratic BA (secret, bit-specific committees), attacked by")
    print("corrupting every observed speaker and equivocating:")
    print(f"  corruptions spent: {result.corruptions_used}")
    print(f"  consistent:        {result.consistent()}   <-- survives")
    print(f"  valid:             {result.agreement_valid()}")
    print()
    print("Corrupting a node after it voted for b gains nothing: its")
    print("eligibility for 1-b is a fresh, independent lottery (Sec. 3.2).")


if __name__ == "__main__":
    main()
