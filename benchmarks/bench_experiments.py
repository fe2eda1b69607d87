"""E1–E12 at full scale: one runner, the paper's claims asserted on rows.

``CLAIMS`` maps each experiment to a check of the run ``repro
experiment EN`` prints: the experiment at its own defaults, so the
claims hold at exactly the CLI's scale.  A check reads the sweep's
artifact rows
(``ExperimentResult.rows`` — what ``SweepResult.rows()`` exports) and,
for the few numbers no row carries, the printed tables' own cells
(``lines``: one ``{column: value}`` dict per table line, values as
given, not as rendered).  Run one with::

    PYTHONPATH=src python -m pytest -o python_files='bench_*.py' \\
        -o python_functions='bench_*' benchmarks/bench_experiments.py -k E3
"""

import pytest

from repro.harness.experiments import ALL_EXPERIMENTS


def lines(table):
    return [dict(zip(table.columns, row)) for row in table.rows]


def scenario(rows, name):
    return [row for row in rows if row["scenario"] == name]


def one(rows, name):
    row, = scenario(rows, name)
    return row


def check_e1(rows, tables):
    """Theorem 1/4: any BA protocol spending fewer than (εf/2)² messages
    is breakable by an after-the-fact-removal adversary.  The
    subquadratic BB is violated in every trial, spending a corruption
    budget proportional to its speaker count (≪ f); the quadratic BB
    exhausts the adversary's budget and survives."""
    subq, quad = one(rows, "subquadratic"), one(rows, "quadratic")
    assert subq["violation_rate"] == 1.0
    assert subq["mean_corruptions"] < subq["f"] / 2
    assert subq["budget_exhausted_rate"] == 0.0
    assert quad["violation_rate"] == 0.0
    assert quad["budget_exhausted_rate"] == 1.0
    # The proof's events hold live: E[z] under the Markov budget and
    # Pr[X ∩ Y] above 1 - 2ε.
    census = one(rows, "census")
    assert census["mean_z"] < census["markov_budget"]
    assert census["event_xy_rate"] >= census["theorem_bound"]


def check_e2(rows, tables):
    """Section 2: a deterministic broadcast sending fewer than (f/2)²
    messages is broken by the A/A' adversary pair; message-rich
    protocols leave no starved victim."""
    naive, strong = one(rows, "naive"), one(rows, "dolev-strong")
    assert naive["messages_into_v"] < naive["message_budget"]
    assert naive["attack_feasible"] and naive["consistency_violated"]
    assert strong["messages_into_v"] > strong["message_budget"]
    assert not strong["attack_feasible"]


def check_e3(rows, tables):
    """Theorem 2/17: the subquadratic protocol multicasts O(λ²) messages
    whatever n is, while the quadratic warmup's multicast count grows
    linearly in n (quadratically in pairwise messages)."""
    subq, quad = ({row["n"]: row["mean_multicasts"]
                   for row in scenario(rows, name)}
                  for name in ("subquadratic", "quadratic"))
    # Flat for the subquadratic protocol: 16x more nodes, < 2x multicasts.
    assert subq[max(subq)] < 2 * subq[min(subq)] + 10
    # Linear for the quadratic protocol: 8x more nodes, > 4x multicasts.
    assert quad[max(quad)] > 4 * quad[min(quad)]
    # Crossover: subquadratic beats quadratic once n exceeds ~2λ.
    assert subq[512] < quad[128]


def check_e4(rows, tables):
    """Corollary 16: the iterated BA terminates in expected O(1)
    iterations (per-iteration success ≥ 1/2e, Lemma 12) at every network
    size; the phase-king family runs a fixed R = ω(log κ) epochs."""
    subq = {row["n"]: row for row in scenario(rows, "subquadratic")}
    # Constant across n: the largest network is not slower than 3x the
    # smallest (both are O(1) iterations; noise allowed).
    assert subq[400]["mean_rounds"] < 3 * subq[100]["mean_rounds"] + 10
    # Everyone decides.
    assert all(row["termination_rate"] == 1.0 for row in subq.values())
    # Phase-king runs its full fixed schedule (2R + 1 rounds), every trial.
    assert one(rows, "phase-king")["mean_rounds"] == 25.0
    assert tables[0][-1]["p90 rounds"] == 25.0


def check_e5(rows, tables):
    """Theorem 17: consistency and validity hold for f < (1/2 − ε)n with
    failure probability exp(−Ω(ε²λ)).  At a concrete λ the guarantee is
    perfect well inside the envelope and degrades predictably (per the
    Lemma 11 binomial tails in the last column) as f/n approaches 1/2."""
    cells = {row["f_fraction"]: row for row in rows}
    # Inside the envelope: perfect score.
    for fraction in (0.1, 0.2):
        assert cells[fraction]["consistency_rate"] == 1.0
        assert cells[fraction]["validity_rate"] == 1.0
        assert cells[fraction]["termination_rate"] == 1.0
    # Consistency is the harder predicate and holds across the sweep.
    for fraction in (0.3, 0.4):
        assert cells[fraction]["consistency_rate"] >= 0.8
    # The analytical failure envelope is monotone in f.
    predictions = [line["per-topic failure (pred.)"] for line in tables[0]]
    assert predictions == sorted(predictions)


def check_e6(rows, tables):
    """Remark 3.3: with round-specific eligibility an adversary can
    reuse an honest ACKer's ticket for the opposite bit in the same
    round, destroying consistency — unless memory erasure is assumed.
    Bit-specific eligibility needs no erasure at all."""
    assert one(rows, "round-no-erasure")["consistency_rate"] <= 0.2
    assert one(rows, "round-erasure")["consistency_rate"] == 1.0
    assert one(rows, "bit-specific")["consistency_rate"] == 1.0


def check_e7(rows, tables):
    """Theorem 3: without any setup, the Q --- 1 --- Q' hypothetical
    experiment forces a contradiction on any sublinear-multicast
    protocol using only C = #(Q' speakers) adaptive corruptions; a PKI
    breaks the experiment."""
    shared, pki = one(rows, "shared-ro"), one(rows, "pki")
    assert shared["contradiction"]
    assert shared["bridge_rejections"] == 0
    assert tables[0][0]["Q outputs"] == [0]
    assert tables[0][0]["Q' outputs"] == [1]
    assert not pki["contradiction"]
    assert pki["bridge_rejections"] > 0


def check_e8(rows, tables):
    """Lemmas 10–12: committees concentrate around λ; the probability of
    a corrupt λ/2-quorum and of an honest λ/2-shortfall follow the
    binomial tails the Chernoff bounds dominate; a unique honest
    proposer appears with probability > 1/2e per iteration."""
    census, = rows
    lam = census["lam"]
    assert abs(census["mean_committee_size"] - lam) < 0.15 * lam
    # Measured rates track the exact predictions within Monte-Carlo noise.
    for line in tables[0][1:4]:
        assert abs(line["measured"] - line["predicted"]) < 0.08, line
    assert tables[0][1]["measured"] == census["corrupt_quorum_rate"]
    # Lemma 12's bound.
    assert tables[0][3]["predicted"] > 1 / (2 * 2.7182818284)


def check_e9(rows, tables):
    """Section 1: the C.2 protocol is the only construction combining
    near-optimal resilience, expected O(1) rounds, sublinear multicast
    complexity, and adaptive security from PKI-only assumptions."""
    subq = one(rows, "subquadratic")
    # Sublinear vs linear speakers at n = 150.
    assert subq["mean_multicasts"] < one(
        rows, "quadratic")["mean_multicasts"] / 2
    # Expected O(1) rounds vs Dolev-Strong's f+1 rounds.
    assert subq["mean_rounds"] < one(rows, "dolev-strong")["mean_rounds"]
    # The phase-king compile is also sublinear but pays ω(log κ) rounds.
    assert one(rows, "phase-king-subq")["mean_rounds"] > subq["mean_rounds"]


def check_e10(rows, tables):
    """Theorem 17: every message — certificates included — carries at
    most O(λ) authenticated entries of O(log κ + log n) bits."""
    fmine = {(row["n"], row["lam"]): row["max_message_bits"]
             for row in scenario(rows, "fmine")}
    # Linear in λ: λ 20 -> 40 at n=128 gives ~2x (allow 1.5-3x).
    assert 1.4 < fmine[128, 40] / fmine[128, 20] < 3.2
    # Nearly flat in n: n 128 -> 512 at λ=20 within 30%.
    assert fmine[512, 20] / fmine[128, 20] < 1.3
    # Real crypto mode stays in the same ballpark (χ factor).
    assert one(rows, "vrf")["max_message_bits"] < 20 * fmine[128, 20]


def check_e11(rows, tables):
    """Appendices D/E: replacing Fmine by the PRF + commitment + NIZK
    construction preserves consistency, validity and termination:
    identical protocol code in both worlds, attacked identically."""
    fmine, vrf = ({row["mode"]: row for row in rows}[mode]
                  for mode in ("fmine", "vrf"))
    for predicate in ("consistency_rate", "validity_rate",
                      "termination_rate"):
        assert fmine[predicate] == 1.0
        assert vrf[predicate] == 1.0
    # Same complexity shape (coins differ, so allow 2x slack).
    assert 0.5 < vrf["mean_multicasts"] / fmine["mean_multicasts"] < 2.0


def check_e12(rows, tables):
    """Ablations of the C.2 design choices: (a) leader difficulty 1/2n,
    (b) the p=1 collapse onto the quadratic warmup, (c) the two-sided
    λ/2 quorum-threshold envelope.  E12 runs no sweep: tables only."""
    _, (compiled, warmup), (low, mid, high) = tables
    # (b) p = 1 recovers warmup behaviour: consistent, and the multicast
    # count lands in the warmup's linear regime (not the λ² regime).
    assert compiled["consistency"]
    assert compiled["multicasts"] > 0.5 * warmup["multicasts"]
    # (c) the threshold envelope is two-sided and monotone.
    corrupt, short = "P[corrupt quorum]", "P[honest shortfall]"
    assert low[corrupt] > mid[corrupt] > high[corrupt]
    assert low[short] < mid[short] < high[short]
    # The paper's choice keeps BOTH failure modes small simultaneously.
    assert max(mid[corrupt], mid[short]) < min(low[corrupt], high[short])


CLAIMS = {
    "E1": check_e1,
    "E2": check_e2,
    "E3": check_e3,
    "E4": check_e4,
    "E5": check_e5,
    "E6": check_e6,
    "E7": check_e7,
    "E8": check_e8,
    "E9": check_e9,
    "E10": check_e10,
    "E11": check_e11,
    "E12": check_e12,
}


@pytest.mark.parametrize("name", list(CLAIMS))
def bench_experiment(run_experiment, name):
    result = run_experiment(ALL_EXPERIMENTS[name])
    CLAIMS[name](result.rows, [lines(table) for table in result.tables])
