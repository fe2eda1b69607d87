"""Cryptographic substrate for the Appendix D real-world compiler.

This package implements, from scratch in pure Python, every primitive the
paper's real-world instantiation (Appendix D) relies on:

- :mod:`repro.crypto.groups` — Schnorr (prime-order subgroup) arithmetic
  with hash-to-group, over any safe-prime group; the library ships small
  test parameters (the tests also build the 2048-bit MODP group).
- :mod:`repro.crypto.schnorr` — Schnorr signatures (Fiat–Shamir).
- :mod:`repro.crypto.commitment` — perfectly-binding ElGamal commitments
  (the binding flavour Appendix D.2 requires).
- :mod:`repro.crypto.dleq` — the two-witness "committed-key VRF" sigma
  proof, Fiat–Shamir compiled.
- :mod:`repro.crypto.vrf` — the adaptively-structured VRF of Appendix D:
  public key = perfectly-binding commitment to the key of the DDH PRF
  ``H1(m)^k``, evaluation proof = NIZK that the evaluation matches the
  committed key.
- :mod:`repro.crypto.forward_secure` — forward-secure signatures (Merkle
  tree over per-epoch keys) used by the memory-erasure baseline
  (Chen–Micali "ephemeral keys", footnote 5).
- :mod:`repro.crypto.registry` — an ideal signature/PKI registry for fast
  large-scale simulation, enforcing unforgeability by construction.
"""
