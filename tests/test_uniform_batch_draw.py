"""``draw_uniform_batch`` against the per-draw ``randint`` it replaces.

A lossless conditioned window takes its latency draws as one batch of
generator words (``repro.sim.conditions.draw_uniform_batch``).  That
rests on CPython's word layout: ``getrandbits(32 * m)`` is the next
``m`` 32-bit outputs, the first in the lowest bits, and
``getrandbits(b <= 32)`` is one output's top ``b`` bits.  This file pins
the premise on the interpreter it runs on: for every spread that fits a
byte, the batch must return exactly what ``min(randint(low, hi), cap)``
returns called as many times, and leave the generator where those calls
leave it.
"""

import random

import pytest

from repro.sim.conditions import draw_uniform_batch

COUNTS = (0, 1, 97, 10_000)


def _low_caps(width):
    """(low, cap) pairs: no clamp, hi above the cap, a high floor whose
    hi passes 255, and everything clamped to 1."""
    return ((1, 255), (2, max(2, width // 2)), (200, 255), (1, 1))


def _reference(seed, count, low, width, cap):
    rng = random.Random(seed)
    draws = [min(rng.randint(low, low + width - 1), cap)
             for _ in range(count)]
    return draws, rng.getstate()


@pytest.mark.parametrize("low_cap", range(4))
@pytest.mark.parametrize("count", COUNTS)
def test_batch_is_the_randint_stream(count, low_cap):
    for width in range(1, 256):
        low, cap = _low_caps(width)[low_cap]
        seed = repr((width, low, cap, count))
        want, state = _reference(seed, count, low, width, cap)
        rng = random.Random(seed)
        got = draw_uniform_batch(rng.getrandbits, count, low, width, cap)
        assert list(got) == want, seed
        assert rng.getstate() == state, seed


def test_batch_calls_once_per_rejection_round():
    """``wan``'s spread (1..4, three bits) rejects half the words: 9 312
    draws (an n = 97 window of multicasts) take one call per rejection
    round, each asking for every draw still missing, until fewer than 8
    are; single draws finish."""
    words = []
    rng = random.Random(7)

    def getrandbits(bits):
        words.append(bits // 32)  # 0 for a single draw
        return rng.getrandbits(bits)

    count = 97 * 96
    draws = draw_uniform_batch(getrandbits, count, 1, 4, 4)
    assert list(draws) == _reference(7, count, 1, 4, 4)[0]
    rounds = [asked for asked in words if asked]
    assert rounds[0] == count and min(rounds) >= 8
    assert rounds == sorted(rounds, reverse=True)
    assert words[:len(rounds)] == rounds
    assert len(rounds) <= 2 * count.bit_length()
