"""Deterministic random-stream helpers.

All randomness in the package flows through counter-based Philox4x64-10
generators (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011) keyed by numpy's ``SeedSequence`` of a user seed plus an integer
path.  Streams for different paths are independent, so the order in which
entities are generated (students, folds, predictions) can never change the
output.

``substream`` returns numpy's Generator for a path.  ``synth`` draws its
cohorts from it and is the only command that imports ``numpy.random``:
``mix_seed`` and ``uniforms`` compute the same SeedSequence hash and Philox
stream in plain Python, bit for bit, so the random baseline draws without
that import.
"""
from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence: a 4-word pool of uint32 hashes of the entropy words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# Philox4x64-10: round multipliers and the key's Weyl increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the (seed, *path) substream."""
    words = [int(seed) & _MASK64] + [int(p) & _MASK64 for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def mix_seed(seed: int, index: int) -> int:
    """Derive a well-mixed 64-bit child seed from (seed, index).

    Equal to ``SeedSequence([seed, index]).generate_state(1, np.uint64)[0]``
    with both values taken modulo 2**64.
    """
    return _state64(_pool(seed, index), 1)[0]


def uniforms(seed: int, *path: int, count: int) -> list[float]:
    """The first ``count`` doubles in [0, 1) of the (seed, *path) substream.

    Equal bit for bit to ``substream(seed, *path).random(count)``.
    """
    key = _state64(_pool(seed, *path), 2)
    # numpy's 256-bit counter starts at 0 and is incremented before each
    # 4-word block, so block b is counter (b, 0, 0, 0).
    blocks = (_philox((b, 0, 0, 0), key) for b in range(1, (count + 3) // 4 + 1))
    return [(x >> 11) * 2.0 ** -53 for block in blocks for x in block][:count]


def _pool(*values: int) -> list[int]:
    """The SeedSequence pool of ``values``, each taken modulo 2**64."""
    entropy = []
    for value in values:
        value = int(value) & _MASK64
        entropy.append(value & _MASK32)     # 0 is one word
        value >>= 32
        while value:
            entropy.append(value & _MASK32)
            value >>= 32
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state64(pool: list[int], n: int) -> list[int]:
    """SeedSequence ``generate_state(n, np.uint64)`` of ``pool``."""
    const, words = _INIT_B, []
    for i in range(2 * n):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    return [words[i] | words[i + 1] << 32 for i in range(0, 2 * n, 2)]


def _philox(ctr: tuple[int, int, int, int], key: list[int]) -> tuple[int, int, int, int]:
    """The Philox4x64-10 block of counter ``ctr`` under ``key``."""
    (x0, x1, x2, x3), (k0, k1) = ctr, key
    for _ in range(_PHILOX_ROUNDS):
        p0, p1 = _PHILOX_M[0] * x0, _PHILOX_M[1] * x2
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0, p1 & _MASK64,
                          (p0 >> 64) ^ x3 ^ k1, p0 & _MASK64)
        k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
    return x0, x1, x2, x3
