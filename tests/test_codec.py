"""Posting codec round-trip tests: hand vectors + hypothesis (FIXTURES.md §5)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from searchengine_ray.codec import (
    block_max_tf,
    decode_block_max,
    decode_postings,
    encode_postings,
    varbyte_decode,
    varbyte_encode,
)


def test_varbyte_empty():
    assert varbyte_encode(np.array([], dtype=np.uint64)) == b""
    assert varbyte_decode(b"").size == 0


def test_varbyte_hand_vectors():
    # single small value → one byte
    assert varbyte_encode(np.array([5], dtype=np.uint64)) == bytes([5])
    # 128 → two bytes little-endian 7-bit groups: 0x80 | 0, then 1
    assert varbyte_encode(np.array([128], dtype=np.uint64)) == bytes([0x80, 0x01])
    # max uint64
    v = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert varbyte_decode(varbyte_encode(v)).tolist() == v.tolist()


def test_varbyte_mixed_sizes():
    v = np.array([0, 1, 127, 128, 300, 2**21, 2**40, 2**63], dtype=np.uint64)
    assert varbyte_decode(varbyte_encode(v)).tolist() == v.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
def test_varbyte_roundtrip_property(vals):
    v = np.array(vals, dtype=np.uint64)
    out = varbyte_decode(varbyte_encode(v))
    assert out.tolist() == v.tolist()


def _per_position_decode(buf: bytes) -> np.ndarray:
    """The earlier decoder, one masked pass per byte position, kept as the
    oracle of the one-pass ``varbyte_decode``. Bytes after the last
    terminator are dropped; it needs at least one terminator."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.nonzero(b < 128)[0]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    out = np.zeros(ends.size, dtype=np.uint64)
    for k in range(int(lengths.max())):
        sel = lengths > k
        out[sel] |= ((b[starts[sel] + k] & np.uint8(0x7F)).astype(np.uint64)
                     << np.uint64(7 * k))
    return out


# 1-byte values, full-width values ≥ 2^63 (10 groups) and everything between
_U64 = st.one_of(st.integers(0, 127), st.integers(2**63, 2**64 - 1),
                 st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(_U64, max_size=120), st.lists(_U64, min_size=1, max_size=1),
       st.data())
def test_varbyte_decode_matches_per_position_oracle(vals, extra, data):
    """One-pass decode equals the per-byte-position oracle on whole
    streams and on a stream cut inside its last value (the partial value
    is dropped by both); the empty buffer and a lone partial value decode
    to nothing."""
    v = np.array(vals, dtype=np.uint64)
    buf = varbyte_encode(v)
    got = varbyte_decode(buf)
    assert got.dtype == np.uint64 and got.tolist() == v.tolist()
    if buf:
        assert got.tolist() == _per_position_decode(buf).tolist()
    tail = varbyte_encode(np.array(extra, dtype=np.uint64))
    cut = buf + tail[:data.draw(st.integers(0, len(tail) - 1), label="cut")]
    if buf:
        assert varbyte_decode(cut).tolist() == \
            _per_position_decode(cut).tolist() == v.tolist()
    else:
        assert varbyte_decode(cut).size == 0
    assert varbyte_decode(b"").size == 0


def test_postings_roundtrip_empty():
    buf = encode_postings(np.array([], dtype=np.uint64),
                          np.array([], dtype=np.float32))
    ids, tfs = decode_postings(buf)
    assert ids.size == 0 and tfs.size == 0


def test_postings_roundtrip_single():
    buf = encode_postings(np.array([42], dtype=np.uint64),
                          np.array([3.0], dtype=np.float32))
    ids, tfs = decode_postings(buf)
    assert ids.tolist() == [42] and tfs.tolist() == [3.0]


def test_postings_v2_layout_hand_vector():
    """The on-disk v2 bytes, written out by hand: header (n, vb_len,
    block_size, n_blocks) as u32, the restart directory (block byte
    offsets u32, then block last doc_ids u64), the delta varbytes, the
    tfs as f32 — and a run inside a batch encodes to the same bytes."""
    import struct

    from searchengine_ray.codec import encode_postings_batch
    ids = np.array([3, 10, 200], dtype=np.uint64)
    tfs = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    want = (struct.pack("<4I", 3, 4, 2, 2) + struct.pack("<2I", 0, 2)
            + struct.pack("<2Q", 10, 200)
            + bytes([3, 7, 0xBE, 0x01])          # deltas 3, 7, 190
            + struct.pack("<3f", 1.0, 2.0, 3.0))
    assert encode_postings(ids, tfs, block_size=2) == want
    both = encode_postings_batch(np.concatenate([[5], ids]).astype(np.uint64),
                                 np.concatenate([[9.0], tfs]),
                                 np.array([0, 1]), np.array([1, 4]),
                                 block_size=2)
    assert both[1] == want
    assert both[0] == (struct.pack("<4I", 1, 1, 2, 1) + struct.pack("<I", 0)
                       + struct.pack("<Q", 5) + bytes([5])
                       + struct.pack("<f", 9.0))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**64 - 1), max_size=150))
def test_postings_roundtrip_property(idset):
    ids = np.array(sorted(idset), dtype=np.uint64)
    tfs = (np.arange(ids.size) % 7 + 1).astype(np.float32) * 1.5
    out_ids, out_tfs = decode_postings(encode_postings(ids, tfs))
    assert out_ids.tolist() == ids.tolist()
    assert out_tfs.tolist() == tfs.tolist()


def test_max_delta_boundary():
    ids = np.array([0, 2**64 - 1], dtype=np.uint64)
    tfs = np.array([1.0, 2.0], dtype=np.float32)
    out_ids, _ = decode_postings(encode_postings(ids, tfs))
    assert out_ids.tolist() == ids.tolist()


def test_block_max():
    tfs = np.arange(1, 300, dtype=np.float32)
    bm = decode_block_max(block_max_tf(tfs, block_size=128))
    assert bm.tolist() == [128.0, 256.0, 299.0]
    assert block_max_tf(np.array([], dtype=np.float32)) == b""


# ---------------------------------------------------------------------------
# v2 restart directory: block-granular range decode
# ---------------------------------------------------------------------------

def test_range_decode_hand_vector():
    from searchengine_ray.codec import decode_postings_range
    ids = np.array([3, 10, 50, 200, 201, 900, 2**40], dtype=np.uint64)
    tfs = np.arange(1, 8, dtype=np.float32)
    buf = encode_postings(ids, tfs, block_size=2)
    got_ids, got_tfs = decode_postings_range(buf, 11, 901)
    assert got_ids.tolist() == [50, 200, 201, 900]
    assert got_tfs.tolist() == [3.0, 4.0, 5.0, 6.0]
    # full range == full decode
    gi, gt = decode_postings_range(buf, 0, 2**64)
    assert gi.tolist() == ids.tolist() and gt.tolist() == tfs.tolist()
    # empty range / range past the end
    assert decode_postings_range(buf, 901, 901)[0].size == 0
    assert decode_postings_range(buf, 2**40 + 1, 2**64)[0].size == 0
    assert decode_postings_range(
        encode_postings(np.array([], dtype=np.uint64),
                        np.array([], dtype=np.float32)), 0, 2**64)[0].size == 0


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**64 - 1), max_size=150),
       st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**64 - 1),
       st.sampled_from([1, 2, 3, 7, 128]))
def test_range_decode_matches_filtered_full(idset, a, b, block_size):
    """decode_postings_range must equal a full decode filtered to [lo, hi)
    for ANY range and block size — the bit-identity contract of
    block-granular decode skipping."""
    from searchengine_ray.codec import decode_postings_range
    lo, hi = min(a, b), max(a, b)
    ids = np.array(sorted(idset), dtype=np.uint64)
    tfs = (np.arange(ids.size) % 7 + 1).astype(np.float32) * 1.5
    buf = encode_postings(ids, tfs, block_size=block_size)
    got_ids, got_tfs = decode_postings_range(buf, lo, hi)
    mask = (ids >= lo) & (ids < hi)
    assert got_ids.tolist() == ids[mask].tolist()
    assert got_tfs.tolist() == tfs[mask].tolist()
