"""Scale smoke guard: one large-n trial must stay tractable.

The scaling-curve work (batched delivery, compiled size accounting,
shared-payload validation, the shared round digest) exists so that
trials at n ≈ 1000+ are routine.  This guard runs a single n = 768
quadratic-BA trial — large enough that any regression to O(n²) eager
delivery, per-call recursive sizing, per-copy re-verification, or
per-delivery absorption blows the budgets — under two independent
budgets:

- an **authenticator-call budget** (hardware-independent, like
  tests/test_perf_smoke.py): verification work must stay O(n·rounds),
  not Θ(n²·threshold);
- a **wall-clock budget** chosen ~6x above the measured time (~0.5s on
  the bench machine; ~1.3s when every node still wrapped every vote of
  its certificate itself, ~3s when every round was still folded
  delivery by delivery), loose enough for slow CI hardware but far
  below the pre-optimization cost of the same trial (~1 minute).

The tier-1 suite runs it, so a hot-path regression fails by name.
"""

from repro.harness.profiling import profile_phase_budget
from repro.protocols.quadratic_ba import build_quadratic_ba

WALL_BUDGET_SECONDS = 3.0


def test_quadratic_ba_n768_scale_budget():
    n, f = 768, 383
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=1)
    profile = profile_phase_budget(instance, f, seed=1)

    # The trial must still be a correct agreement...
    assert profile.result.consistent()
    assert profile.result.all_decided()
    # ...within the verification budget (measured: 3073 calls at n=768)...
    budget = 50 * n
    assert profile.check_calls <= budget, (
        f"authenticator.check called {profile.check_calls} times, "
        f"budget {budget}: verification memoization has regressed")
    # ...and within the wall budget (measured: ~0.5s on the bench machine).
    phases = ("deliver", "scheduler", "protocol", "verify", "sizing", "other")
    assert profile.wall_seconds <= WALL_BUDGET_SECONDS, (
        f"n={n} trial took {profile.wall_seconds:.1f}s "
        f"(budget {WALL_BUDGET_SECONDS}s); phase budget: " + ", ".join(
            f"{phase} {getattr(profile, phase + '_seconds'):.3f}s"
            for phase in phases))
