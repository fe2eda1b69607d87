"""Cryptographic substrate: the ideal PKI and the Appendix D VRF.

This package implements, from scratch in pure Python, the VRF primitives
the paper's real-world eligibility (Appendix D) relies on, and the ideal
signature PKI every signed protocol runs on:

- :mod:`repro.crypto.groups` — Schnorr (prime-order subgroup) arithmetic
  with hash-to-group, over any safe-prime group; the library ships small
  test parameters (the tests also build the 2048-bit MODP group).
- :mod:`repro.crypto.commitment` — perfectly-binding ElGamal commitments
  (the binding flavour Appendix D.2 requires).
- :mod:`repro.crypto.dleq` — the two-witness "committed-key VRF" sigma
  proof, Fiat–Shamir compiled.
- :mod:`repro.crypto.vrf` — the adaptively-structured VRF of Appendix D:
  public key = perfectly-binding commitment to the key of the DDH PRF
  ``H1(m)^k``, evaluation proof = NIZK that the evaluation matches the
  committed key.
- :mod:`repro.crypto.hashing` — domain-separated hashing over canonical
  bytes.
- :mod:`repro.crypto.registry` — the ideal signature/PKI registry for
  fast large-scale simulation, enforcing unforgeability by construction.
  It is the only signature scheme: no protocol runs on real signatures.
"""
