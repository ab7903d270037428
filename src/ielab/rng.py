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
"""

from __future__ import annotations

import hashlib

import numpy as np

_KEY_MASK = (1 << 128) - 1


def stream(master_seed: int, name: str) -> np.random.Generator:
    """Derive the named stream for a master seed."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    key = int.from_bytes(digest[:16], "little") & _KEY_MASK
    return np.random.Generator(np.random.Philox(key=key))


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
