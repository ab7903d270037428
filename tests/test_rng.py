from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ielab import rng
from ielab.rng import (cumulative_row, family_key, generator, index_from_uniform,
                       integer_rows, stream, uniform_rows)


# 2**31 + 1 rejects almost half of all 32-bit words
_N = st.integers(1, 2**32 - 1) | st.sampled_from([1, 2, 3, 2**31 + 1, 2**32 - 1])


def numpy_philox(key: int, index: int) -> np.random.Generator:
    """numpy's Philox4x64-10 at counter (0, index, 0, 0): its blocks have
    counters (1, index, 0, 0), (2, index, 0, 0), ..."""
    counter = np.array([0, index, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


_SEED = st.integers(0, 2**40)
_FAMILY = st.sampled_from(rng.FAMILIES) | st.text(max_size=40)
_INDEX = st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 1])


@settings(max_examples=300, deadline=None)
@given(seed=_SEED, family=_FAMILY, index=_INDEX, n=st.integers(0, 12))
@example(seed=0, family="traj", index=2**64 - 1, n=12)
def test_uniforms_match_stream(seed, family, index, n):
    """Direct Philox draws at address (family, index) equal numpy's Philox
    at that counter, across the 4-double block boundary."""
    key = family_key(seed, family)
    reference = numpy_philox(key, index).random(n).tolist()
    assert uniform_rows(key, [index], n)[0].tolist() == reference
    assert stream(seed, family, index).random(n).tolist() == reference
    assert generator(key, index).random(n).tolist() == reference


@settings(max_examples=100, deadline=None)
@given(seed=_SEED, family=_FAMILY)
def test_index_zero_is_the_key_alone(seed, family):
    """Index 0 is the stream numpy's Philox builds from the family key
    with its default counter."""
    reference = np.random.Generator(np.random.Philox(key=family_key(seed, family)))
    assert stream(seed, family).random(9).tolist() == reference.random(9).tolist()


@settings(max_examples=200, deadline=None)
@given(seed=_SEED, family=_FAMILY, indices=st.lists(_INDEX, max_size=6),
       n=st.integers(0, 12))
@example(seed=0, family="traj", indices=[], n=5)
@example(seed=2**40, family="é漢\x00", indices=[7, 2**64 - 1, 0, 7, 3], n=12)
def test_uniform_rows_match_streams(seed, family, indices, n):
    """Row i of the batch reader is address (family, indices[i])'s draws,
    bit for bit, for non-contiguous and repeated indices, across several
    4-double blocks and for an empty index list."""
    key = family_key(seed, family)
    rows = uniform_rows(key, indices, n)
    assert rows.shape == (len(indices), n) and rows.dtype == np.float64
    reference = np.array([numpy_philox(key, i).random(n) for i in indices])
    assert rows.tobytes() == reference.reshape(len(indices), n).tobytes()


def test_uniform_rows_of_a_range():
    """A contiguous index array reads the same rows as its list."""
    key = family_key(3, "traj")
    rows = uniform_rows(key, np.arange(10, 74, dtype=np.uint64), 6)
    assert rows.tolist() == [generator(key, k).random(6).tolist() for k in range(10, 74)]


_KEY = st.integers(0, 2**128 - 1) | st.sampled_from([0, 2**64 - 1, 2**64, 2**128 - 1])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_KEY, _INDEX), max_size=8), n=st.integers(0, 13))
@example(rows=[(2**128 - 1, 2**64 - 1), (0, 0), (2**128 - 1, 2**64 - 1)], n=7)
def test_uniform_rows_per_row_keys(rows, n):
    """With one key per row, row i is address (keys[i], indices[i])'s
    draws bit for bit, for repeated rows and n off the 4-double block."""
    keys, indices = [k for k, _ in rows], [i for _, i in rows]
    got = uniform_rows(keys, indices, n)
    reference = np.array([generator(k, i).random(n) for k, i in rows])
    assert got.shape == (len(rows), n)
    assert got.tobytes() == reference.reshape(len(rows), n).tobytes()


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_KEY, _INDEX), max_size=8),
       n=_N | st.sampled_from([0, 2**32, 2**32 + 1, 2**40, 2**40 + 3]))
@example(rows=[(family_key(0, "kstar"), 31)], n=2**31 + 1)
@example(rows=[(2**128 - 1, 0)], n=0)
def test_integer_rows_match_stream(rows, n):
    """The batched Lemire draw equals numpy's ``integers(0, n)`` at each
    row's address, with one key per row or one key for all, for n = 1,
    for n that rejects almost half of all words and for n >= 2**32; at
    n = 0 both raise ValueError."""
    keys, indices = [k for k, _ in rows], [i for _, i in rows]
    if n < 1 and rows:
        with pytest.raises(ValueError):
            generator(keys[0], indices[0]).integers(0, n)
        with pytest.raises(ValueError):
            integer_rows(keys, indices, n)
        with pytest.raises(ValueError):
            integer_rows(keys[0], indices, n)
        return
    assert integer_rows(keys, indices, n) == [int(generator(k, i).integers(0, n))
                                              for k, i in rows]
    if rows:
        assert integer_rows(keys[0], indices, n) == [int(generator(keys[0], i).integers(0, n))
                                                     for i in indices]


def test_integer_rows_read_a_rejected_row_from_numpy():
    """Row ("kstar", 31) of seed 0 rejects all eight halves of its first
    block at n = 2**31 + 1, so its draw is numpy's, from the second block;
    in a batch it sits between rows that are not rejected."""
    n = 2**31 + 1
    key = family_key(0, "kstar")
    first = rng._row_blocks(key, [31], 1)[0].tolist()
    halves = [half for word in first for half in (word & 0xFFFFFFFF, word >> 32)]
    assert all(half * n % 2**32 < 2**32 % n for half in halves)
    indices = [30, 31, 32]
    assert integer_rows(key, indices, n) == [int(numpy_philox(key, i).integers(0, n))
                                             for i in indices]


def sequential_index(probs, u: float) -> int:
    """The left-to-right loop that index_from_uniform replaces."""
    acc = 0.0
    for i, p in enumerate(probs):
        acc += float(p)
        if u < acc:
            return i
    return max(i for i, p in enumerate(probs) if p > 0)


_masses = st.lists(st.just(0.0) | st.floats(0, 1), min_size=1, max_size=12)
_fractions = st.lists(st.just(Fraction(0)) | st.fractions(0, 1, max_denominator=60),
                      min_size=1, max_size=12)
_u = st.floats(0, 1, exclude_max=True) | st.just(1 - 2**-53)


@settings(max_examples=400, deadline=None)
@given(probs=(_masses | _fractions).filter(lambda ps: any(p > 0 for p in ps)), u=_u)
@example(probs=[0.1] * 10 + [0.0], u=1 - 2**-53)  # u past the float sum
@example(probs=[Fraction(1, 10)] * 10 + [Fraction(0)], u=1 - 2**-53)
@example(probs=[0.0, 0.0, 0.0, 1.0], u=0.0)
@example(probs=[0.1] * 10 + [0.0, 0.0, 1e-300], u=1 - 2**-53)
def test_index_from_uniform_matches_sequential_loop(probs, u):
    i = index_from_uniform(probs, u)
    assert i == sequential_index(probs, u)
    assert probs[i] > 0
    if all(isinstance(p, float) for p in probs):  # the ndarray route of the run loop
        assert index_from_uniform(np.array(probs), u) == i
    # a precomputed row draws the same index as its count of entries <= u
    assert sum(c <= u for c in cumulative_row(probs)) == i
