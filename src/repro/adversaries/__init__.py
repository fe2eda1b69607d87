"""Attack strategies.

Every lower bound and every security claim in the paper corresponds to an
executable adversary here.  Each overrides only the hooks it uses, and
every static corrupt set is :class:`CrashAdversary`'s ``victims``:

- :mod:`repro.adversaries.crash` — corrupt-and-silence (liveness floor).
- :mod:`repro.adversaries.menu` — not an attack but the vocabulary: what
  a corrupt node can say per quorum family; the next two are policies on it.
- :mod:`repro.adversaries.static_byzantine` — static equivocation: the
  crash victims vote/ACK both bits every round (the Lemma 11 stress test).
- :mod:`repro.adversaries.view_split` — the same menu, unicast: bit ``b``
  only to the honest nodes of parity ``b`` (divergent certificate views).
- :mod:`repro.adversaries.adaptive_speaker` — corrupts nodes the moment
  they are observed multicasting (the "corrupt whoever speaks" strategy
  that bit-specific eligibility is designed to survive).
- :mod:`repro.adversaries.adaptive_committee` — corrupts the publicly
  announced CRS committee and splits its output (breaks the Section 1
  static-committee construction).
- :mod:`repro.adversaries.equivocation` — the Remark-3.3 attack on
  round-specific eligibility: corrupt an ACKer, reuse its round ticket to
  ACK the opposite bit in the same round.
- :mod:`repro.adversaries.strongly_adaptive` — the Theorem 4 adversary:
  after-the-fact removal used to isolate a victim from all traffic while
  the corrupted senders keep behaving honestly towards everyone else.
- :mod:`repro.adversaries.leader_killer` — corrupts each announced oracle
  leader before it proposes (round-complexity degradation, not safety).
- :mod:`repro.adversaries.network_scheduler` — the partial-synchrony
  scheduler: delays honest traffic to the Δ deadline (maximal reordering
  at zero corruption cost; only exists under network conditions).
- :mod:`repro.adversaries.actual_faults` — the adaptive-BA dial: crash
  exactly ``k <= f`` nodes (the first ``k``, i.e. the upcoming
  collectors/leaders), so measured words track the *actual* fault count.
- :mod:`repro.adversaries.sandbox` — runs corrupted nodes' own logic
  through filters; the Dolev–Reischuk and isolation adversaries use it.
"""

from repro.adversaries.sandbox import SandboxRunner
from repro.adversaries.crash import CrashAdversary
from repro.adversaries.static_byzantine import StaticEquivocationAdversary
from repro.adversaries.adaptive_speaker import AdaptiveSpeakerAdversary
from repro.adversaries.adaptive_committee import CommitteeTakeoverAdversary
from repro.adversaries.equivocation import AckEquivocationAdversary
from repro.adversaries.strongly_adaptive import IsolationAdversary
from repro.adversaries.leader_killer import LeaderKillerAdversary
from repro.adversaries.network_scheduler import DelayAdversary
from repro.adversaries.view_split import ViewSplitAdversary
from repro.adversaries.actual_faults import ActualFaultsAdversary

__all__ = [
    "SandboxRunner",
    "ActualFaultsAdversary",
    "CrashAdversary",
    "StaticEquivocationAdversary",
    "AdaptiveSpeakerAdversary",
    "CommitteeTakeoverAdversary",
    "AckEquivocationAdversary",
    "IsolationAdversary",
    "LeaderKillerAdversary",
    "DelayAdversary",
    "ViewSplitAdversary",
]
