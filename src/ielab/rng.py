"""Named, counter-based random streams.

Every stochastic operation draws from a stream addressed by
(master seed, stream name). Streams are Philox generators keyed by a
hash of the pair, so any subset of streams can be re-derived in any
order and still produce bit-identical output. Standard names used by
the game loop:

    "truth"                 draw of the true model from the prior
    "phase:{l}:kstar"       hallucination-episode position in phase l
    "phase:{l}:hal-model"   hallucinated-model draw
    "phase:{l}:hal-rewards" hallucinated reward draws
    "episode:{k}:traj"      trajectory rollout of episode k

A rollout consumes ``episode:{k}:traj`` as exactly 2H uniforms: the
initial state, then per stage its reward and, below stage H, its
transition. ``uniforms(seed, name, n)`` returns those draws directly,
bit for bit equal to ``stream(seed, name).random(n)``, by evaluating
Philox4x64-10 on the stream's key in Python ints; Philox is
counter-based, so block b of a stream is a pure function of (key, b)
and no numpy Generator needs to be built for a short read.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
# Philox4x64 multipliers, and the round keys' offsets from the key
# (rounds r = 0..9 add r times the Weyl constants)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_ROUND_KEY_OFFSETS = tuple(
    (r * 0x9E3779B97F4A7C15, r * 0xBB67AE8584CAA73B) for r in range(10)
)
_DOUBLE_SCALE = 2.0**-53


def _key(master_seed: int, name: str) -> int:
    """The 128-bit Philox key of a named stream."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:16], "little")


def stream(master_seed: int, name: str) -> np.random.Generator:
    """Derive the named stream for a master seed."""
    return np.random.Generator(np.random.Philox(key=_key(master_seed, name)))


def uniforms(master_seed: int, name: str, n: int) -> list[float]:
    """``stream(master_seed, name).random(n)`` as a list, bit for bit.

    numpy's Philox starts at counter 0 and increments it before each
    4-word block, and a double is the top 53 bits of one word.
    """
    key = _key(master_seed, name)
    k0, k1 = key & _MASK64, key >> 64
    m0, m1, mask, scale = _PHILOX_M0, _PHILOX_M1, _MASK64, _DOUBLE_SCALE
    out: list[float] = []
    for block in range(1, (n + 3) // 4 + 1):
        c0, c1, c2, c3 = block, 0, 0, 0
        for d0, d1 in _ROUND_KEY_OFFSETS:
            p0 = m0 * c0
            p1 = m1 * c2
            c0 = ((p1 >> 64) ^ c1 ^ (k0 + d0)) & mask
            c1 = p1 & mask
            c2 = ((p0 >> 64) ^ c3 ^ (k1 + d1)) & mask
            c3 = p0 & mask
        out += ((c0 >> 11) * scale, (c1 >> 11) * scale, (c2 >> 11) * scale, (c3 >> 11) * scale)
    del out[n:]
    return out


def sample_index(probs, rng: np.random.Generator) -> int:
    """Sample an index from a probability vector (floats or Fractions).

    Uses a single uniform draw against cumulative sums so the stream
    consumption is one value per call regardless of the outcome. The float
    sum can end just below 1, so a draw past it falls back to the last
    index with positive mass; a zero-mass index is never returned.
    """
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += float(p)
        if u < acc:
            return i
    return max(i for i, p in enumerate(probs) if p > 0)
