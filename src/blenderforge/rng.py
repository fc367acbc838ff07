"""Counter-based randomness: every stream derives from a tuple of integers
(a seed and a disc or salt index), so a stream's draws do not depend on
which other streams ran or in what order.

`philox_rng` builds one such stream as a numpy Generator.  `philox_doubles`
evaluates the first two draws of many streams at once, with numpy array
arithmetic only: Philox is a counter-based function meant to be evaluated in
bulk (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK = (1 << 63) - 1
_M32 = 0xFFFFFFFF

# SeedSequence's hash constants (numpy.random.bit_generator, pool size 4)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64 round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def philox_rng(*entropy: int) -> np.random.Generator:
    """Philox generator keyed by the given integers."""
    ss = np.random.SeedSequence(entropy=[int(e) & _MASK for e in entropy])
    return np.random.Generator(np.random.Philox(ss))


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of a word; returns it and the next constant."""
    value = value ^ np.uint32(const)
    const = (const * mult) & _M32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m*x, from products of 32-bit halves."""
    m0, m1 = np.uint64(m & _M32), np.uint64(m >> 32)
    lo32, sh = np.uint64(_M32), np.uint64(32)
    x0, x1 = x & lo32, x >> sh
    p00, p01, p10, p11 = x0 * m0, x0 * m1, x1 * m0, x1 * m1
    carry = ((p00 >> sh) + (p01 & lo32) + (p10 & lo32)) >> sh
    return p11 + (p01 >> sh) + (p10 >> sh) + carry, x * np.uint64(m)


def philox_doubles(seed: int, indices: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """The first two `next_double` draws of `philox_rng(seed, i)` for every i
    of `indices`, as two float arrays.

    `philox_rng(seed, i)` seeds Philox4x64-10 with the SeedSequence of the
    words [seed & MASK, i & MASK]: each value splits into one 32-bit word,
    or two above 2^32, and the words are zero-padded to the pool of four.
    The pool is hash-mixed, `generate_state(2, uint64)` gives the key, and
    the first two outputs of the block at counter 1 are the first two draws,
    each (u >> 11) * 2^-53.  So `low + (high - low) * u` is bit for bit
    what `uniform(low, high)` draws.
    """
    idx = np.array([int(i) & _MASK for i in indices], dtype=np.uint64)
    idx_lo = (idx & np.uint64(_M32)).astype(np.uint32)
    idx_hi = (idx >> np.uint64(32)).astype(np.uint32)
    seed = seed & _MASK
    seed_words = [seed & _M32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full_like(idx_lo, w) for w in seed_words] + [idx_lo, idx_hi]
    entropy += [np.zeros_like(idx_lo)] * (4 - len(entropy))

    const = _INIT_A
    pool = []
    for word in entropy:
        mixed, const = _hashmix(word, const, _MULT_A)
        pool.append(mixed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], mixed)

    const = _INIT_B
    state = []
    for word in pool:  # generate_state(2, uint64): four words, low word first
        value, const = _hashmix(word, const, _MULT_B)
        state.append(value.astype(np.uint64))
    sh = np.uint64(32)
    key0, key1 = state[0] | (state[1] << sh), state[2] | (state[3] << sh)

    zero = np.zeros_like(idx)
    c0, c1, c2, c3 = np.ones_like(idx), zero, zero, zero
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0, key1 = key0 + np.uint64(_PHILOX_W[0]), key1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    scale = 1.0 / 9007199254740992.0
    return ((c0 >> np.uint64(11)).astype(np.float64) * scale,
            (c1 >> np.uint64(11)).astype(np.float64) * scale)
