from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ielab.rng import stream, uniforms


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**40), name=st.text(max_size=40), n=st.integers(0, 12))
def test_uniforms_match_stream(seed, name, n):
    """Direct Philox draws equal the named Generator's, across the
    4-double block boundary."""
    assert uniforms(seed, name, n) == stream(seed, name).random(n).tolist()
