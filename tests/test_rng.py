from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ielab import rng
from ielab.rng import (cumulative_row, index_from_uniform, integer_below, stream, uniform_rows,
                       uniforms)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**40), name=st.text(max_size=40), n=st.integers(0, 12))
def test_uniforms_match_stream(seed, name, n):
    """Direct Philox draws equal the named Generator's, across the
    4-double block boundary."""
    assert uniforms(seed, name, n) == stream(seed, name).random(n).tolist()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**40), names=st.lists(st.text(max_size=40), max_size=6),
       n=st.integers(0, 12))
@example(seed=0, names=[], n=5)
@example(seed=2**40, names=["episode:7:traj", "é漢\x00", ""], n=12)
def test_uniform_rows_match_streams(seed, names, n):
    """Row i of the batch reader is stream i's draws, bit for bit, across
    several 4-double blocks and for an empty list of names."""
    rows = uniform_rows(seed, names, n)
    assert rows.shape == (len(names), n) and rows.dtype == np.float64
    reference = np.array([stream(seed, nm).random(n) for nm in names]).reshape(len(names), n)
    assert rows.tobytes() == reference.tobytes()
    assert rows.tolist() == [uniforms(seed, nm, n) for nm in names]


# 2**31 + 1 rejects almost half of all 32-bit words
_N = st.integers(1, 2**32 - 1) | st.sampled_from([1, 2, 3, 2**31 + 1, 2**32 - 1])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**40), name=st.text(max_size=40), n=_N)
@example(seed=798, name="k", n=2**31 + 1)
def test_integer_below_matches_stream(seed, name, n):
    assert integer_below(seed, name, n) == stream(seed, name).integers(0, n)


def test_integer_below_reads_a_second_block():
    """At seed 798 and n = 2**31 + 1 all eight 32-bit halves of the first
    Philox block are rejected, so the draw comes from the second block."""
    n = 2**31 + 1
    first = next(rng._blocks(rng._key(798, "k")))
    halves = [half for word in first for half in (word & 0xFFFFFFFF, word >> 32)]
    assert all(half * n % 2**32 < 2**32 % n for half in halves)
    assert integer_below(798, "k", n) == stream(798, "k").integers(0, n)


def test_integer_below_wide_ranges_and_bad_n():
    for n in (2**32, 2**40 + 3):
        assert integer_below(5, "wide", n) == stream(5, "wide").integers(0, n)
    with pytest.raises(ValueError):
        integer_below(5, "empty", 0)


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
