"""Counter-addressed random streams.

Every stochastic operation draws from a stream addressed by
(master seed, family, index). A family's key is the first 16 bytes of
SHA-256(f"{seed}:{family}"); address (family, index) is the Philox4x64-10
stream of that key whose counter starts at (0, index, 0, 0), so its
blocks have counters (1, index, 0, 0), (2, index, 0, 0), ... (Salmon et
al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11). Any subset
of addresses can be read in any order and still produce bit-identical
output. The families of the game loop, and how each address is read:

    ("truth", 0)            draw of the true model from the prior: one uniform
    ("kstar", l)            hallucination-episode position in phase l:
                            Lemire rejection below n_phase
    ("hal-model", l)        hallucinated-model draw: one uniform
    ("hal-rewards", l)      hallucinated reward draws: numpy, one uniform
                            per explored ledger occurrence; none at all
                            when every explored occurrence's law under the
                            hallucinated atom is a point mass
    ("traj", k)             trajectory rollout of episode k: 2H uniforms;
                            none for an honest full-log episode when the
                            true model is deterministic, whose one
                            trajectory no uniform moves

``stream(seed, family, index)`` is the numpy Generator at an address;
index 0 is the stream numpy's Philox builds from the key alone.
A rollout consumes ("traj", k) as exactly 2H uniforms: the initial
state, then per stage its reward and, below stage H, its transition.
Philox is counter-based, so each block is a pure function of (key,
counter), and the readers evaluate it directly, with no numpy Generator:
``uniform_rows(keys, indices, n)`` is the (len(indices), n) float64
array whose row i is bit for bit ``generator(keys[i],
indices[i]).random(n)``, and ``integer_rows(keys, indices, n)`` the list
of ``generator(keys[i], indices[i]).integers(0, n)``. Each evaluates
every row's blocks as one uint64 array operation, with one key per row
or one key for all, so a lockstep batch reads a family's addresses for
many phases of its seeds in one call and a full-log phase all its
episodes' draws. ``integer_rows`` reads numpy's own draw for a row whose
first block rejects every word, and for n outside [1, 2**32).

A uniform becomes an index of a probability vector by one inverse-CDF
rule: the first index whose left-to-right float cumulative sum exceeds
u, falling back to the last positive-mass index when u lies past the
sums. ``index_from_uniform`` applies it to a vector at hand;
``cumulative_row`` builds the rows that samplers precompute once (a
model's rollout rows, the prior's reward rows), on which the index is
the count of entries <= u.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

FAMILIES = ("truth", "kstar", "hal-model", "hal-rewards", "traj")

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# Philox4x64 multipliers, and the round keys' offsets from the key
# (rounds r = 0..9 add r times the Weyl constants, modulo 2**64)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_ROUND_KEY_OFFSETS = tuple((np.uint64(r * 0x9E3779B97F4A7C15 & _MASK64),
                            np.uint64(r * 0xBB67AE8584CAA73B & _MASK64)) for r in range(10))
_DOUBLE_SCALE = 2.0**-53


def family_key(master_seed: int, family: str) -> int:
    """The 128-bit Philox key of a family: the first 16 bytes of
    SHA-256(f"{master_seed}:{family}"), little-endian."""
    return int.from_bytes(hashlib.sha256(f"{master_seed}:{family}".encode()).digest()[:16],
                          "little")


def generator(key: int, index: int) -> np.random.Generator:
    """The numpy Generator at counter address (key, index): Philox with
    counter (0, index, 0, 0). Key and counter are given as uint64 word
    arrays, which numpy takes as they are; from Python ints it converts
    them word by word in Python."""
    return np.random.Generator(np.random.Philox(
        key=np.array([key & _MASK64, key >> 64], dtype=np.uint64),
        counter=np.array([0, index, 0, 0], dtype=np.uint64)))


def stream(master_seed: int, family: str, index: int = 0) -> np.random.Generator:
    """The Generator at address (family, index) of a master seed."""
    return generator(family_key(master_seed, family), index)


def _mulhi(m: int, c: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products m * c, for a 64-bit
    constant m and uint64 words c, from 32-bit limbs (numpy has no
    64x64->128-bit multiply)."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    lo32, shift = np.uint64(_MASK32), np.uint64(32)
    c_lo, c_hi = c & lo32, c >> shift
    ll, lh, hl = m_lo * c_lo, m_lo * c_hi, m_hi * c_lo
    # the carry out of the middle 32-bit column
    mid = (ll >> shift) + (lh & lo32) + (hl & lo32)
    return m_hi * c_hi + (lh >> shift) + (hl >> shift) + (mid >> shift)


def _row_blocks(keys, indices, n_blocks: int) -> np.ndarray:
    """The (len(indices), 4 * n_blocks) uint64 words of each row's first
    ``n_blocks`` Philox4x64-10 blocks, in stream order, at address
    (keys[i], indices[i]); one int ``keys`` is every row's key.

    All rows are evaluated at once in uint64 arithmetic, where sums wrap
    modulo 2**64: numpy's Philox increments the counter's first word
    before each block, so a row's blocks have counters (1, index, 0, 0),
    (2, index, 0, 0), ... A single key is a (1, 1) column that broadcasts
    over the rows.
    """
    keys = [keys] if isinstance(keys, int) else keys
    k0 = np.array([k & _MASK64 for k in keys], dtype=np.uint64).reshape(-1, 1)
    k1 = np.array([k >> 64 for k in keys], dtype=np.uint64).reshape(-1, 1)
    rows = np.asarray(indices, dtype=np.uint64).reshape(-1, 1)
    shape = (len(rows), n_blocks)
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), shape)
    c1 = np.broadcast_to(rows, shape)
    c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for d0, d1 in _ROUND_KEY_OFFSETS:
        c0, c1, c2, c3 = (
            _mulhi(_PHILOX_M1, c2) ^ c1 ^ (k0 + d0),
            c2 * np.uint64(_PHILOX_M1),
            _mulhi(_PHILOX_M0, c0) ^ c3 ^ (k1 + d1),
            c0 * np.uint64(_PHILOX_M0),
        )
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(shape[0], 4 * n_blocks)


def uniform_rows(keys, indices, n: int) -> np.ndarray:
    """The (len(indices), n) float64 array whose row i equals
    ``generator(keys[i], indices[i]).random(n)`` bit for bit; one int
    ``keys`` is every row's key.

    A double is the top 53 bits of one word.
    """
    words = _row_blocks(keys, indices, (n + 3) // 4)[:, :n]
    return (words >> np.uint64(11)) * _DOUBLE_SCALE


def integer_rows(keys, indices, n: int) -> list[int]:
    """Per row i, ``int(generator(keys[i], indices[i]).integers(0, n))``
    bit for bit; one int ``keys`` is every row's key.

    Below 2**32 numpy draws by Lemire's multiply-shift rejection on 32-bit
    words (Lemire, ACM TOMACS 2019): a word w is accepted when the low half
    of w * n is at least 2**32 mod n, and the draw is the high half. Philox
    hands out each 64-bit word low half first, then high half, so the
    rejection runs on the eight halves of every row's first block at once
    (at n = 1 the threshold is 0 and every high half 0). A row whose eight
    halves are all rejected, and every row when n lies outside [1, 2**32),
    is numpy's own draw, so n < 1 raises numpy's ValueError.
    """
    row_keys = [keys] * len(indices) if isinstance(keys, int) else keys
    if not 1 <= n < 1 << 32:
        return [int(generator(k, i).integers(0, n)) for k, i in zip(row_keys, indices)]
    words = _row_blocks(keys, indices, 1)
    # each word's low half, then its high half
    halves = np.stack([words & np.uint64(_MASK32), words >> np.uint64(32)], axis=-1)
    m = halves.reshape(len(words), 8) * np.uint64(n)
    accepted = (m & np.uint64(_MASK32)) >= np.uint64((1 << 32) % n)
    first = accepted.argmax(axis=1)
    out = (m[np.arange(len(m)), first] >> np.uint64(32)).tolist()
    for r in np.flatnonzero(~accepted[np.arange(len(m)), first]).tolist():
        out[r] = int(generator(row_keys[r], int(indices[r])).integers(0, n))
    return out


def index_from_uniform(probs, u):
    """The index a uniform u in [0, 1) selects from a probability vector
    (floats or Fractions): the first i with u < p[0] + ... + p[i].

    The float sums accumulate left to right (``np.cumsum`` adds in
    sequence), so the index is the count of sums <= u. They can end just
    below 1, so a u past them falls back to the last index with positive
    mass; a zero-mass index is never returned. A float array of rows with
    one uniform per row gives each row's index, as an int array: each
    row's sums are its own.
    """
    cum = np.cumsum(probs if isinstance(probs, np.ndarray) else [float(p) for p in probs],
                    axis=-1)
    i = (cum <= np.asarray(u)[..., None]).sum(axis=-1)
    past = i == cum.shape[-1]
    if past.any():
        positive = np.asarray(probs) > 0
        i = np.where(past, cum.shape[-1] - 1 - positive[..., ::-1].argmax(axis=-1), i)
    return int(i) if i.ndim == 0 else i


def cumulative_row(probs) -> list[float]:
    """The float cumulative sums of a probability vector (floats or
    Fractions), for drawing by ``index_from_uniform``'s rule from a row
    built once.

    The sums accumulate left to right, as ``np.cumsum`` adds, and may end
    just below 1. From the last positive-mass index on they are raised to
    infinity, so the count of entries <= u is ``index_from_uniform(probs,
    u)`` for every u in [0, 1): a u past the float sums lands on the last
    positive-mass index, and a zero-mass index is never drawn.
    """
    cum, acc = [], 0.0
    for p in probs:
        acc += float(p)
        cum.append(acc)
    last = max(i for i, p in enumerate(probs) if p > 0)
    cum[last:] = [math.inf] * (len(cum) - last)
    return cum


def sample_index(probs, rng: np.random.Generator) -> int:
    """Sample an index from a probability vector with one uniform draw of
    ``rng``, whatever the outcome (``index_from_uniform``)."""
    return index_from_uniform(probs, rng.random())
