"""Posting-list codec: docID-delta varbyte + weighted-tf + block-max metadata.

The reference stores postings as pickled Python ``(doc_id_str, float)`` tuple
lists (/root/reference/search_engine/indexer/indexer.py:247-248). Here each
term's postings are doc_id-sorted, delta-encoded and varbyte-compressed
(classic 7-bit little-endian groups, MSB = continuation), with weighted tf as
a parallel float32 array and per-block max-tf metadata for block-max WAND
pruning (north star). Encode and decode are numpy-vectorized: encode loops
over byte position (≤10), never over postings; decode is one pass with no
per-byte-position loop (each byte's value and in-value position come from
the terminator bytes, and one ``bitwise_or.reduceat`` joins the groups).
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE_DEFAULT = 128
# On-disk posting layout revision; stamped into manifest.json. v2 added the
# per-block restart directory (offsets + last doc_ids) enabling
# decode_postings_range. Readers refuse mismatched indexes loudly.
CODEC_VERSION = 2


def _varbyte_lengths(values: np.ndarray) -> np.ndarray:
    """Bytes per value of the varbyte encoding (1..10, int64)."""
    nbytes = np.ones(values.size, dtype=np.int64)
    v = values >> np.uint64(7)
    while v.any():
        nbytes += (v > 0)
        v >>= np.uint64(7)
    return nbytes


def _varbyte_bytes(values: np.ndarray, nbytes: np.ndarray,
                   starts: np.ndarray) -> bytes:
    """The varbyte stream of ``values`` whose encodings are ``nbytes``
    long and begin at byte ``starts``."""
    out = np.zeros(int(starts[-1] + nbytes[-1]), dtype=np.uint8)
    for k in range(int(nbytes.max())):
        sel = nbytes > k
        byte = ((values[sel] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        byte[nbytes[sel] - 1 > k] |= np.uint8(0x80)
        out[starts[sel] + k] = byte
    return out.tobytes()


def varbyte_encode(values: np.ndarray) -> bytes:
    """Encode a uint64 array; each value as little-endian 7-bit groups with
    MSB set on all but the final byte."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    if a.size == 0:
        return b""
    nbytes = _varbyte_lengths(a)
    return _varbyte_bytes(a, nbytes, np.cumsum(nbytes) - nbytes)


def varbyte_decode(buf: bytes) -> np.ndarray:
    """Inverse of varbyte_encode; returns uint64 array. One pass, with no
    per-byte-position loop: the terminator bytes (MSB clear) give the value
    starts, a running max of those starts gives each byte's offset inside
    its value, and one ``bitwise_or.reduceat`` over the starts joins the
    7-bit groups shifted by 7·offset. Bytes after the last terminator (a
    partial value) are dropped."""
    b = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(b < 128)
    if ends.size == 0:
        return np.empty(0, dtype=np.uint64)
    b = b[:ends[-1] + 1]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    shift = np.zeros(b.size, dtype=np.int64)
    shift[starts] = starts
    np.maximum.accumulate(shift, out=shift)      # each byte's value start
    np.subtract(np.arange(b.size), shift, out=shift)
    shift *= 7
    groups = (b & np.uint8(0x7F)).astype(np.uint64)
    groups <<= shift.view(np.uint64)
    return np.bitwise_or.reduceat(groups, starts)


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray,
                    block_size: int = BLOCK_SIZE_DEFAULT) -> bytes:
    """Encode one term's postings (v2 layout: header + block restart
    directory + delta-varbyte stream + tf array) — the one-run case of
    :func:`encode_postings_batch`. ``doc_ids`` must be sorted ascending
    uint64 (the build sorts (term, doc_id) before encoding — SURVEY.md
    §2.11: BM25 is order-insensitive, so sorted postings preserve scores
    exactly while enabling delta coding, WAND metadata and block-granular
    decode skipping)."""
    return encode_postings_batch(doc_ids, tfs, np.array([0]),
                                 np.array([len(doc_ids)]), block_size)[0]


def _parse_header(buf: bytes) -> tuple[int, int, int, int, int]:
    """(n, vb_len, block_size, nblocks, vb_start_offset)."""
    n, vb_len, block_size, nblocks = np.frombuffer(buf[:16], dtype=np.uint32)
    return (int(n), int(vb_len), int(block_size), int(nblocks),
            16 + 12 * int(nblocks))


def decode_postings(buf: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode to (doc_ids ascending uint64, tf float32)."""
    n, vb_len, _bs, nblocks, vb0 = _parse_header(buf)
    deltas = varbyte_decode(buf[vb0:vb0 + vb_len])
    doc_ids = np.cumsum(deltas, dtype=np.uint64)
    tfs = np.frombuffer(buf[vb0 + vb_len:], dtype=np.float32)
    assert doc_ids.size == n and tfs.size == n
    return doc_ids, tfs


def decode_postings_range(buf: bytes, lo: int, hi: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Decode ONLY the postings with doc_id in [lo, hi) — block-granular
    decode skipping via the restart directory. Touches (and decodes) only
    the blocks whose doc_id span intersects the range; bit-identical to
    filtering a full decode (property-tested). This is what a doc-range-
    sharded query tier uses: each shard decodes ~1/K of every list."""
    n, _bs, nblocks, lasts = postings_block_meta(buf)
    U64_MAX = 2 ** 64 - 1
    if n == 0 or hi <= lo or lo > U64_MAX:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float32)
    # first block whose last id ≥ lo .. first block whose predecessor's
    # last id ≥ hi (superset of intersecting blocks; exact mask below)
    b_lo = int(np.searchsorted(lasts, np.uint64(lo), side="left"))
    b_hi = min(nblocks,
               int(np.searchsorted(lasts, np.uint64(min(hi, U64_MAX + 1) - 1),
                                   side="left")) + 1)
    ids, tfs = decode_postings_blocks(buf, b_lo, b_hi)
    mask = ids >= np.uint64(lo)
    if hi <= U64_MAX:  # hi may be 2^64 (exclusive upper of the id space)
        mask &= ids < np.uint64(hi)
    return ids[mask], tfs[mask]


def postings_block_meta(buf: bytes) -> tuple[int, int, int, np.ndarray]:
    """(n_postings, block_size, n_blocks, last_doc_id_per_block) from the
    v2 restart directory — NO posting decode. ``lasts`` also yields a
    conservative per-block FIRST-id lower bound (``lasts[b-1] + 1``),
    which is all block-max WAND needs to ask "can doc d live in block b?"."""
    n, _vb_len, block_size, nblocks, _vb0 = _parse_header(buf)
    lasts = np.frombuffer(buf[16 + 4 * nblocks:16 + 12 * nblocks],
                          dtype=np.uint64)
    return n, block_size, nblocks, lasts


def decode_postings_blocks(buf: bytes, b_lo: int, b_hi: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Decode ONLY blocks [b_lo, b_hi) of one term's postings (the
    block-index sibling of :func:`decode_postings_range`): the restart
    directory seeds the delta chain at ``lasts[b_lo−1]``, so a
    contiguous block span decodes standalone. Bit-identical to slicing
    a full decode (property-tested); the WAND scorer stitches
    non-contiguous spans from repeated calls."""
    n, vb_len, block_size, nblocks, vb0 = _parse_header(buf)
    b_lo = max(0, b_lo)
    b_hi = min(nblocks, b_hi)
    if n == 0 or b_hi <= b_lo:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float32)
    offs = np.frombuffer(buf[16:16 + 4 * nblocks], dtype=np.uint32)
    lasts = np.frombuffer(buf[16 + 4 * nblocks:16 + 12 * nblocks],
                          dtype=np.uint64)
    byte_lo = int(offs[b_lo])
    byte_hi = int(offs[b_hi]) if b_hi < nblocks else vb_len
    deltas = varbyte_decode(buf[vb0 + byte_lo:vb0 + byte_hi])
    base = lasts[b_lo - 1] if b_lo > 0 else np.uint64(0)
    ids = base + np.cumsum(deltas, dtype=np.uint64)
    p_lo = b_lo * block_size
    p_hi = min(n, b_hi * block_size)
    tfs = np.frombuffer(buf[vb0 + vb_len + 4 * p_lo:
                            vb0 + vb_len + 4 * p_hi], dtype=np.float32)
    return ids, tfs


def _block_starts(starts: np.ndarray, ends: np.ndarray, block_size: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block geometry of many runs in one gather: ``offsets`` (run i owns
    blocks offsets[i]:offsets[i+1]), each block's run and each block's
    first posting index."""
    nblocks = (ends - starts + block_size - 1) // block_size
    offsets = np.concatenate([[0], np.cumsum(nblocks)])
    run_of_block = np.repeat(np.arange(len(starts)), nblocks)
    j = np.arange(int(offsets[-1])) - offsets[run_of_block]
    return offsets, run_of_block, starts[run_of_block] + block_size * j


def encode_postings_batch(doc_ids: np.ndarray, tfs: np.ndarray,
                          starts: np.ndarray, ends: np.ndarray,
                          block_size: int = BLOCK_SIZE_DEFAULT
                          ) -> list[bytes]:
    """Encode MANY terms' postings in one vectorized pass.

    ``doc_ids``/``tfs`` are the concatenated per-term runs (each run sorted
    ascending by doc_id); ``starts``/``ends`` delimit runs, in order.
    The delta/varbyte math and the restart directories (byte offset of
    each block's first delta within its run's stream, u32, then the last
    doc_id of each block, u64) are computed once over the whole
    partition; the per-term loop only slices. The first delta of block b
    is (first_doc − last_docs[b−1]), so a contiguous block span decodes
    standalone seeded from the directory — the v2 layout's only addition
    over v1 (+6.5% file bytes at block_size=128).
    """
    ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    n = ids.size
    deltas = np.empty_like(ids)
    deltas[1:] = ids[1:] - ids[:-1]
    first = starts[ends > starts]
    deltas[first] = ids[first]
    nbytes = _varbyte_lengths(deltas)
    vbounds = np.concatenate([[0], np.cumsum(nbytes)])
    vb_all = _varbyte_bytes(deltas, nbytes, vbounds[:-1]) if n else b""
    tf_all = np.ascontiguousarray(tfs, dtype=np.float32).tobytes()
    term_vs = vbounds[starts]
    term_ve = vbounds[ends]
    offsets, run_of_block, bstarts = _block_starts(starts, ends, block_size)
    offs = (vbounds[bstarts] - term_vs[run_of_block]).astype("<u4").tobytes()
    bends = np.minimum(bstarts + block_size, ends[run_of_block])
    lasts = ids[bends - 1].astype("<u8").tobytes()
    counts = ends - starts
    headers = np.stack([counts, term_ve - term_vs,
                        np.full_like(counts, block_size),
                        offsets[1:] - offsets[:-1]],
                       axis=1).astype("<u4").tobytes()
    o, vs, ve = offsets.tolist(), term_vs.tolist(), term_ve.tolist()
    s, e = starts.tolist(), ends.tolist()
    return [headers[16 * i:16 * i + 16]
            + offs[4 * o[i]:4 * o[i + 1]] + lasts[8 * o[i]:8 * o[i + 1]]
            + vb_all[vs[i]:ve[i]] + tf_all[4 * s[i]:4 * e[i]]
            for i in range(len(s))]


def block_max_tf_batch(tfs: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                       block_size: int = BLOCK_SIZE_DEFAULT) -> list[bytes]:
    """Per-term block-max metadata for many contiguous runs in one
    ``np.maximum.reduceat`` (runs must tile the array)."""
    t = np.ascontiguousarray(tfs, dtype=np.float32)
    if t.size == 0:
        return []
    offsets, _, bstarts = _block_starts(starts, ends, block_size)
    bmax = np.maximum.reduceat(t, bstarts)
    return [bmax[offsets[i]:offsets[i + 1]].tobytes()
            for i in range(len(starts))]


def block_max_tf(tfs: np.ndarray, block_size: int = BLOCK_SIZE_DEFAULT) -> bytes:
    """Per-block (``block_size`` postings) max weighted tf, float32.

    Query-time upper bound per block: tf_component is increasing in tf and
    decreasing in doc_len, so ``(k1+1)·maxtf / (k1·(1-b) + maxtf)`` (doc_len→0
    limit) is an admissible bound without storing lengths."""
    t = np.ascontiguousarray(tfs, dtype=np.float32)
    if t.size == 0:
        return b""
    nblocks = (t.size + block_size - 1) // block_size
    pad = nblocks * block_size - t.size
    if pad:
        t = np.concatenate([t, np.full(pad, -np.inf, dtype=np.float32)])
    return t.reshape(nblocks, block_size).max(axis=1).tobytes()


def decode_block_max(buf: bytes) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.float32)
