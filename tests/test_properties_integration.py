"""Property-based integration tests: the paper's security predicates hold
across randomized executions, inputs, and adversaries.

These are the repository's strongest checks: hypothesis drives seeds,
input vectors, and adversary choices through full protocol executions and
asserts consistency/validity every time.  Parameters are chosen inside the
regimes where the concrete-λ failure bounds are tiny (see
``repro.analysis.parameters``), so a single counterexample is a bug, not
statistical noise — except for the subquadratic family at λ = 30,
ε = 0.1, where ε²λ = 0.3 gives the Chernoff bound no force: there the
property is conditioned on the paper's good-committee event (see
``_captured_topics``).  Examples are derandomized: what tier-1 checks is
a function of the commit, not of a local ``.hypothesis/`` directory.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.adversaries import (
    AdaptiveSpeakerAdversary,
    CrashAdversary,
    StaticEquivocationAdversary,
)
from repro.harness import run_instance
from repro.protocols import (
    build_broadcast_from_ba,
    build_dolev_strong,
    build_phase_king,
    build_quadratic_ba,
    build_subquadratic_ba,
)
from repro.protocols.aba import schedule
from repro.types import SecurityParameters

PARAMS = SecurityParameters(lam=30, epsilon=0.1)

_slow = settings(max_examples=12, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def quadratic_world(draw):
    n = draw(st.integers(min_value=5, max_value=13))
    f = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    inputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    seed = draw(st.integers(0, 10**6))
    adversary_kind = draw(st.sampled_from(["none", "crash", "equivocate"]))
    return n, f, inputs, seed, adversary_kind


def _make_adversary(kind, instance):
    if kind == "crash":
        return CrashAdversary()
    if kind == "equivocate":
        return StaticEquivocationAdversary(instance)
    if kind == "speaker":
        return AdaptiveSpeakerAdversary(instance)
    return None


class TestQuadraticBaProperties:
    @given(quadratic_world())
    @_slow
    def test_consistency_and_validity(self, world):
        n, f, inputs, seed, adversary_kind = world
        instance = build_quadratic_ba(n, f, inputs, seed=seed,
                                      max_iterations=25)
        adversary = _make_adversary(adversary_kind, instance)
        result = run_instance(instance, f, adversary, seed=seed)
        assert result.consistent(), (
            f"consistency broken: n={n} f={f} inputs={inputs} seed={seed} "
            f"adversary={adversary_kind}")
        assert result.agreement_valid(), (
            f"validity broken: n={n} f={f} inputs={inputs} seed={seed} "
            f"adversary={adversary_kind}")


@st.composite
def subquadratic_world(draw):
    n = draw(st.sampled_from([120, 180, 240]))
    fraction = draw(st.sampled_from([0.0, 0.1, 0.2, 0.3]))
    unanimous = draw(st.booleans())
    bit = draw(st.integers(0, 1))
    if unanimous:
        inputs = [bit] * n
    else:
        inputs = [(i + bit) % 2 for i in range(n)]
    seed = draw(st.integers(0, 10**6))
    adversary_kind = draw(st.sampled_from(["none", "crash", "equivocate",
                                           "speaker"]))
    return n, int(fraction * n), inputs, seed, adversary_kind


def _captured_topics(instance, result):
    """The ``Vote``/``Commit`` topics on which the corrupt nodes hold a
    quorum of tickets by themselves.

    Consistency and validity are proved on the good-committee event —
    fewer than ``threshold`` corrupt tickets per topic (Lemma 11) — whose
    complement has probability ``exp(-Ω(ε²λ))``.  At the λ these tests can
    afford that is not small: a captured committee certifies whatever bit
    the adversary likes.
    """
    fmine = instance.authenticator.source.fmine
    threshold = instance.config.threshold
    last_iteration = schedule(max(result.rounds_executed - 1, 0))[0]
    return [
        (kind, iteration, bit)
        for kind in ("Vote", "Commit")
        for iteration in range(1, last_iteration + 1)
        for bit in (0, 1)
        if sum(fmine.verify(node, (kind, iteration, bit))
               for node in result.corrupt_set) >= threshold]


#: Unanimous inputs of 1 under ``equivocate``: the corrupt nodes hold 17
#: resp. 15 tickets on one ``Vote`` topic for bit 0 against a threshold
#: of 15, and the honest nodes agree on 0.
CAPTURED_WORLDS = [
    (180, 54, [1] * 180, 135, "equivocate"),
    (240, 72, [1] * 240, 140, "equivocate"),
]


class TestSubquadraticBaProperties:
    @given(subquadratic_world())
    @example(CAPTURED_WORLDS[0])
    @example(CAPTURED_WORLDS[1])
    @_slow
    def test_consistency_and_validity(self, world):
        n, f, inputs, seed, adversary_kind = world
        instance = build_subquadratic_ba(n, f, inputs, seed=seed,
                                         params=PARAMS)
        adversary = _make_adversary(adversary_kind, instance)
        result = run_instance(instance, f, adversary, seed=seed)
        where = f"n={n} f={f} seed={seed} adversary={adversary_kind}"
        captured = _captured_topics(instance, result)
        if captured:
            # Off the good-committee event the theorem is silent; what
            # must still hold is that every bit the honest nodes output
            # against validity is one a captured committee voted for.
            if not (result.consistent() and result.agreement_valid()):
                forced = {bit for kind, _, bit in captured if kind == "Vote"}
                outputs = set(result.honest_outputs)
                assert outputs - set(inputs) <= forced, (
                    f"violation not explained by {captured}: {where}")
            return
        assert result.consistent(), f"consistency broken: {where}"
        assert result.agreement_valid(), f"validity broken: {where}"

    @pytest.mark.parametrize("world", CAPTURED_WORLDS,
                             ids=lambda world: f"n{world[0]}-seed{world[3]}")
    def test_captured_committee_examples_take_the_capture_branch(self, world):
        n, f, inputs, seed, adversary_kind = world
        instance = build_subquadratic_ba(n, f, inputs, seed=seed,
                                         params=PARAMS)
        result = run_instance(instance, f,
                              _make_adversary(adversary_kind, instance),
                              seed=seed)
        assert any(kind == "Vote" and bit == 0
                   for kind, _, bit in _captured_topics(instance, result))
        assert result.consistent() and not result.agreement_valid()

    @given(subquadratic_world())
    @_slow
    def test_multicast_complexity_per_iteration_is_lambda(self, world):
        """The Lemma 15 structure: O(λ) multicasts per iteration,
        independent of n — the per-iteration bound is what makes the
        total O(λ²) for expected O(1)=O(λ) iterations."""
        n, f, inputs, seed, adversary_kind = world
        instance = build_subquadratic_ba(n, f, inputs, seed=seed,
                                         params=PARAMS)
        adversary = _make_adversary(adversary_kind, instance)
        result = run_instance(instance, f, adversary, seed=seed)
        iterations = max(1, (result.rounds_executed + 1) // 4 + 1)
        per_iteration_budget = 4 * PARAMS.lam  # 3 committees + slack
        budget = per_iteration_budget * (iterations + 1)
        assert result.metrics.multicast_complexity_messages < budget
        # And sublinearity in n holds whenever n dominates λ·iterations.
        if n > budget:
            assert result.metrics.multicast_complexity_messages < n


class TestPhaseKingProperties:
    @given(st.integers(0, 10**6), st.integers(0, 1), st.booleans())
    @_slow
    def test_validity_and_consistency(self, seed, bit, crash):
        n, f = 10, 3
        inputs = [bit] * n
        instance = build_phase_king(n, f, inputs, seed=seed, epochs=8)
        adversary = CrashAdversary() if crash else None
        result = run_instance(instance, f, adversary, seed=seed)
        assert result.consistent()
        assert set(result.honest_outputs) == {bit}


class TestBroadcastProperties:
    @given(st.integers(0, 10**6), st.integers(0, 1))
    @_slow
    def test_dolev_strong_validity(self, seed, bit):
        n, f = 9, 3
        instance = build_dolev_strong(n, f, bit, seed=seed)
        result = run_instance(instance, f, CrashAdversary(), seed=seed)
        assert result.broadcast_valid(0, bit)
        assert result.consistent()

    @given(st.integers(0, 10**6), st.integers(0, 1))
    @_slow
    def test_bb_from_ba_validity(self, seed, bit):
        n, f = 120, 30
        instance = build_broadcast_from_ba(
            build_subquadratic_ba, n=n, f=f, sender_input=bit, params=PARAMS)
        result = run_instance(instance, f, seed=seed)
        assert result.broadcast_valid(0, bit)
        assert result.consistent()
