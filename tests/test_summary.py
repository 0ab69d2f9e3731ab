"""Soundness of the boost phase's field summaries: a pattern that
``QueryEngine._absent`` proves absent from a field occurs in no value of
it, and a pattern that some value contains is never proved absent."""

from __future__ import annotations

from types import SimpleNamespace

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from searchengine_ray.query import QueryEngine, _byte_trigrams

# small alphabets so that windows repeat and proofs go both ways; the
# non-ASCII letters are 2-, 3- and 4-byte UTF-8
TEXT = st.text(alphabet="abcé€𝄞 _/.", max_size=12)
VALUES = st.lists(st.one_of(st.none(), TEXT), max_size=8)


def _summary(values, pad: int, chunk: int):
    """Summary of ``values`` as a slice of a longer array (``pad`` values
    on each side) built in ``chunk``-byte passes, behind ``_absent``."""
    arr = pa.array(["zzzz"] * pad + values + ["zzzz"] * pad, pa.string())
    arr = arr.slice(pad, len(values))
    eng = SimpleNamespace(_trigrams=(_byte_trigrams(arr, chunk),))
    return lambda pat: QueryEngine._absent(eng, 0, pat)


@settings(max_examples=300, deadline=None)
@given(values=VALUES, pat=TEXT, pad=st.integers(0, 2),
       chunk=st.integers(1, 16))
def test_proof_of_absence_implies_no_value_contains(values, pat, pad,
                                                    chunk):
    if _summary(values, pad, chunk)(pat):
        assert len(pat.encode()) >= 3
        assert not any(v is not None and pat in v for v in values)


@settings(max_examples=300, deadline=None)
@given(values=VALUES, data=st.data(), pad=st.integers(0, 2),
       chunk=st.integers(1, 16))
def test_substrings_are_never_proved_absent(values, data, pad, chunk):
    """Substrings of a value, and patterns that straddle two adjacent
    values (whose windows may or may not be in the summary), are never
    proved absent when some value contains them."""
    absent = _summary(values, pad, chunk)
    text = [v for v in values if v]
    if text:
        v = data.draw(st.sampled_from(text))
        i = data.draw(st.integers(0, len(v)))
        assert not absent(v[i:data.draw(st.integers(i, len(v)))])
    joined = "".join(v or "" for v in values)
    i = data.draw(st.integers(0, len(joined)))
    pat = joined[i:data.draw(st.integers(i, len(joined)))]
    assert not absent(pat) or not any(v and pat in v for v in values)


def test_summary_edges():
    """Patterns under 3 bytes get no proof even when absent; empty and
    null values add no windows; one 3-byte character is its own window;
    a pattern made of windows that cross a value boundary ("bc€" over
    "abc", "€") is not proved absent, which is sound; a sliced array
    contributes only its own values' bytes."""
    absent = _summary(["", None, "abc", "€"], 1, 1 << 16)
    assert not absent("zz") and not absent("é") and not absent("")
    assert absent("zzz") and absent("abcd") and absent("€ab")
    assert not absent("abc") and not absent("€") and not absent("bc€")
    assert _byte_trigrams(pa.array([], pa.string())) == frozenset()
    assert _byte_trigrams(pa.array([None, ""], pa.string())) == frozenset()
    sliced = pa.array(["xyz", "abc", "uvw"]).slice(1, 1)
    assert _byte_trigrams(sliced) == {b"abc"}
    large = pa.array(["abcd"], pa.large_string())
    assert _byte_trigrams(large) == {b"abc", b"bcd"}
