"""Perf smoke guards: verification and absorption work must stay bounded
as n grows.

Counts calls — ``authenticator.check`` invocations, per-message handler
steps — not wall time, so CI hardware variance cannot flake it.  Before the content-addressed
verification caches, the n = 96 quadratic-BA run below performed ~921k
checks; with them it performs a few hundred.  The budget is deliberately
generous (50 per node) so legitimate protocol changes don't trip it, while
any regression to per-copy re-verification (which is Θ(n² · threshold))
overshoots it by orders of magnitude.
"""

from repro.harness.profiling import (
    profile_check_calls,
    profile_handler_calls,
)
from repro.protocols.quadratic_ba import build_quadratic_ba


def test_quadratic_ba_n96_check_call_budget():
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    profile = profile_check_calls(instance, f, seed=1)

    # The run must still be a correct agreement...
    assert profile.result.consistent()
    assert profile.result.all_decided()
    # ...within the call budget (measured: 385 at n=96, seed 1).
    budget = 50 * n
    assert profile.check_calls <= budget, (
        f"authenticator.check called {profile.check_calls} times, "
        f"budget {budget}: verification memoization has regressed")


def test_quadratic_ba_n96_handler_call_budget():
    """A benign run is all plain multicasts, so every round is absorbed
    from one shared digest: one step per *message* (≈ n per round), not
    one per delivery (≈ n² per round).  Measured: 385 steps over 7 rounds
    at n = 96; the per-message fold takes 36 575."""
    n, f = 96, 47
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    profile = profile_handler_calls(instance, f, seed=1)

    assert profile.result.consistent()
    assert profile.result.all_decided()
    budget = 3 * n * profile.result.rounds_executed
    assert profile.handler_calls <= budget, (
        f"{profile.handler_calls} per-message handler steps, budget "
        f"{budget}: rounds are being folded delivery by delivery instead "
        f"of absorbed from the shared round digest")


def test_post_gst_window_draws_bits_and_pushes_rounds(monkeypatch):
    """The conditioned scheduler's per-copy cost on a plain post-GST
    multicast window is a ``getrandbits`` draw and a list append: it
    never climbs ``random.Random.randint``'s wrapper stack, and the heap
    holds *due rounds* — one push per distinct round the window's copies
    come due in, however many copies there are."""
    import heapq
    import random

    from repro.sim import conditions as conditions_module
    from repro.sim.conditions import NETWORKS, ConditionedNetwork

    calls = {"randint": 0, "heappush": 0}

    def counting_randint(self, low, high):
        calls["randint"] += 1
        return self.randrange(low, high + 1)

    def counting_heappush(heap, item):
        calls["heappush"] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(random.Random, "randint", counting_randint)
    monkeypatch.setattr(conditions_module, "heappush", counting_heappush)

    n, senders = 64, 10
    network = ConditionedNetwork(n, NETWORKS["wan"], seed=1)
    network.advance_to(0, {})
    for sender in range(senders):
        network.stage(sender, None, "vote", 0, honest_sender=True)
    network.advance_to(1, {node: [] for node in range(n)})

    pending = network.pending_copies()
    due_rounds = {copy.due_round for copy in pending}
    copies = network.stats.events_processed
    assert copies == senders * (n - 1)
    assert len(pending) + network.stats.delivered_copies == copies
    assert calls["randint"] == 0
    assert calls["heappush"] <= len(due_rounds | {1}) <= NETWORKS["wan"].delta
