"""Deterministic randomness derivation.

Every random choice in a simulation must be reproducible from a single
experiment seed.  :func:`derive_rng` derives independent, labelled
``random.Random`` streams from the master seed so that, e.g., node 7's
protocol coins, the adversary's choices, and ``Fmine``'s Bernoulli coins
never share or perturb each other's streams.
"""

from __future__ import annotations

import random
from typing import Union

Seed = Union[int, str]

#: Joins the master seed and the label reprs of a derived seed.
SEPARATOR = "\x1f"


def derive_seed(seed: Seed, *labels: object) -> str:
    """A string seed combining the master seed and a label path."""
    parts = [str(seed)] + [repr(label) for label in labels]
    return SEPARATOR.join(parts)


def derive_rng(seed: Seed, *labels: object) -> random.Random:
    """An independent ``random.Random`` stream for the given label path."""
    return random.Random(derive_seed(seed, *labels))
