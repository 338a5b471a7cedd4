"""Deterministic seed derivation for nested randomness.

A splitmix64 finalizer hashes (master seed, index path) into independent
64-bit stream seeds, so per-specimen, per-fold, and per-tree generators are
reproducible and independent of scheduling or iteration order.
`sha256_hex` takes every parameter digest of the leakage audits.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    value = (value + _GOLDEN) & _MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


def derive_seed(master: int, *path: int) -> int:
    """Mix a master seed with an index path into a new 64-bit seed."""
    state = _splitmix64(master & _MASK)
    for index in path:
        state = _splitmix64(state ^ _splitmix64(index & _MASK))
    return state


def make_rng(master: int, *path: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(master, *path)))


def sha256_hex(*parts) -> str:
    """SHA-256 of `parts` in order: bytes as given, arrays as C-order bytes."""
    # hashlib loads OpenSSL's libcrypto (about 4 MB); only digests need it
    import hashlib
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()
