"""Docstore projection stage — stateless map_batches, Arrow in / Arrow out.

Replaces the reference's per-doc ``document_map`` dict build
(/root/reference/search_engine/indexer/indexer.py:137-142). Emits one row
per source row with the stable doc_id, the field mapping used by scoring
boosts (title=path, meta=repo+' '+lang — FIXTURES.md §2), the 200-char
snippet (indexer.py:141 semantics) and the per-row sha256(content)
invariant. No tokenization here — the expensive tokenize pass happens once,
in the postings explode stage.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from searchengine_ray.functions.hashing import hash64_array, sha256_array


def str_col(batch: pa.Table, name: str) -> pa.Array:
    """String column with nulls → "" (per-row error policy, SURVEY.md §4:
    malformed rows are normalized, never silently dropped — a null key
    field still yields a deterministic doc identity)."""
    return pc.fill_null(pc.cast(batch[name], pa.string()), "")


def doc_keys(batch: pa.Table) -> pa.Array:
    """doc_key = repo/path@commit — the reference's ``url`` analogue
    (reference identity: md5(url), crawler.py:79-83)."""
    part1 = pc.binary_join_element_wise(str_col(batch, "repo"),
                                        str_col(batch, "path"), "/")
    return pc.binary_join_element_wise(part1, str_col(batch, "commit"), "@")


def docstats_batch(batch: pa.Table, ids=None) -> pa.Table:
    """``ids``: ``hash64_array(doc_keys(batch))``, when the caller has it."""
    keys = doc_keys(batch)
    if ids is None:
        ids = hash64_array(keys)
    content = str_col(batch, "content")
    snippet_head = pc.utf8_slice_codeunits(content, 0, 200)
    nonempty = pc.greater(pc.utf8_length(content), 0)
    snippet = pc.if_else(
        nonempty,
        pc.binary_join_element_wise(snippet_head, "...", ""),
        pa.scalar("", type=pa.string()),
    )
    meta = pc.binary_join_element_wise(
        str_col(batch, "repo"), str_col(batch, "lang"), " ")
    out = pa.table({
        "doc_id": pa.array(ids),
        "doc_key": keys,
        "repo": str_col(batch, "repo"),
        "path": str_col(batch, "path"),
        "commit": str_col(batch, "commit"),
        "lang": str_col(batch, "lang"),
        "title": str_col(batch, "path"),
        "meta": meta,
        "snippet": snippet,
        "content_sha256": pa.array(sha256_array(content), type=pa.binary()),
    })
    # doc_id-sorted batches → every docstore file's row groups carry tight
    # doc_id min/max stats, so lazy_docstore candidate fetches prune
    return out.sort_by("doc_id")
