"""Arrow-vectorized tokenization — the hot path of the index build.

Every step runs as a pyarrow.compute (RE2) kernel over whole columns; there
is no Python loop over rows or tokens (only over *distinct* terms for
hashing). Output token streams are guaranteed equal to
``functions.tokenizer.tokenize`` (property-tested), because both follow the
same ASCII-class regex chain (tokenizer.py docstring; reference semantics
/root/reference/utils/text_processing.py:40-81).

``normalize_column`` runs six passes: the two camelCase splits,
utf8_lower, HTML entities, URLs, and one ``[^a-z0-9\\s]`` → space pass.
The last stands for the twins' ``[^\\w\\s-]`` and ``[-_]`` passes: after
utf8_lower no ASCII uppercase is left, so both replace the same
characters, one space each (property-tested against the two-pass chain).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from searchengine_ray.config import IndexConfig

_STEPS: list[tuple[str, str]] = [
    (r"([A-Z]+)([A-Z][a-z])", r"\1 \2"),
    (r"([a-z0-9])([A-Z])", r"\1 \2"),
]
_POST_LOWER_STEPS: list[tuple[str, str]] = [
    (r"&\w+;", " "),
    (r"https?://\S+", " "),
    (r"[^a-z0-9\s]", " "),
]


def normalize_column(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Apply the full normalization chain (module docstring); the result
    splits on whitespace into raw tokens (len filter still to apply)."""
    out = arr
    for pat, rep in _STEPS:
        out = pc.replace_substring_regex(out, pattern=pat, replacement=rep)
    out = pc.utf8_lower(out)
    for pat, rep in _POST_LOWER_STEPS:
        out = pc.replace_substring_regex(out, pattern=pat, replacement=rep)
    return out


def _expand_treebank_specials(parents: pa.Array, flat: pa.Array
                              ) -> tuple[pa.Array, pa.Array]:
    """Vectorized Penn-Treebank expansion on a normalized token stream.

    After the normalize chain the only treebank rules that can fire are
    the MacIntyre contraction WORDS (functions/treebank.py docstring), so
    the whole word_tokenize slot reduces to a six-entry dictionary
    expansion: tokens matching a special become their 2-token split,
    everything else passes through — one index_in + one gather, order
    preserved, no Python over tokens."""
    from searchengine_ray.functions.treebank import TREEBANK_SPECIALS

    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    keys = sorted(TREEBANK_SPECIALS)
    idx = pc.fill_null(
        pc.index_in(flat, value_set=pa.array(keys, type=flat.type)), -1) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    matched = idx >= 0
    if not matched.any():
        return parents, flat
    reps = [TREEBANK_SPECIALS[k] for k in keys]
    rep_len = np.array([len(r) for r in reps], dtype=np.int64)
    rep_off = np.concatenate([[0], np.cumsum(rep_len)[:-1]])
    rep_vocab = pa.array([t for r in reps for t in r],
                         type=pa.string())
    out_len = np.where(matched, rep_len[idx], 1)
    starts = np.cumsum(out_len) - out_len
    total = int(starts[-1] + out_len[-1]) if len(out_len) else 0
    gather = np.empty(total, dtype=np.int64)
    unm = np.flatnonzero(~matched)
    gather[starts[unm]] = unm            # out_len == 1 there
    n_flat = len(flat)
    for k in range(len(keys)):           # 6 keys × 2 tokens — tiny loop
        rows = np.flatnonzero(idx == k)
        for j in range(int(rep_len[k])):
            gather[starts[rows] + j] = n_flat + int(rep_off[k]) + j
    if not pa.types.is_string(flat.type):
        flat = pc.cast(flat, pa.string())
    combined = pa.concat_arrays([flat, rep_vocab])
    out_tokens = combined.take(pa.array(gather, type=pa.int64()))
    par = parents.to_numpy(zero_copy_only=False) \
        if not isinstance(parents, np.ndarray) else parents
    out_parents = pa.array(np.repeat(par, out_len))
    return out_parents, out_tokens


def tokenize_column(arr, cfg: IndexConfig | None = None,
                    apply_filter: bool = True) -> tuple[np.ndarray, pa.Array]:
    """Tokenize a string column into a flattened token stream.

    Returns ``(doc_index, token)`` — ``doc_index`` is the int64 row index in
    ``arr`` of each surviving token (tokens of len≤1 always dropped; with
    ``apply_filter`` also stopword/len-bounds filtered per cfg).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    norm = normalize_column(arr)
    # the chain leaves ASCII only (RE2's \w and \s are ASCII classes), so
    # the ASCII splitter is exact. utf8_split_whitespace is not: it reads
    # past the end of the data buffer, and an invalid UTF-8 byte there
    # keeps a trailing space on the column's last token (pinned in
    # test_tokenizer.py)
    lists = pc.ascii_split_whitespace(norm)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    parents = pc.list_parent_indices(lists)
    flat = pc.list_flatten(lists)
    wt = getattr(cfg, "tokenizer", "split") if cfg is not None else "split"
    if wt == "treebank":
        parents, flat = _expand_treebank_specials(parents, flat)
    stemmer = getattr(cfg, "stemmer", "none") if cfg is not None else "none"
    if stemmer and stemmer != "none":
        # reference NLTK-branch order: stem BEFORE the length filters
        # (text_processing.py:66-74); per-DISTINCT-token Python cost only
        from searchengine_ray.functions.stemmer import stem_array
        flat = stem_array(flat, stemmer)
    lens = pc.utf8_length(flat)
    mask = pc.greater(lens, 1)
    if apply_filter and cfg is not None:
        mask = pc.and_(mask, pc.less_equal(lens, cfg.max_token_length))
        if cfg.min_token_length > 2:
            mask = pc.and_(mask, pc.greater_equal(lens, cfg.min_token_length))
        if cfg.stopwords:
            stop = pa.array(sorted(cfg.stopwords), type=flat.type)
            mask = pc.and_(mask, pc.invert(pc.is_in(flat, value_set=stop)))
    doc_index = pc.filter(parents, mask).to_numpy(zero_copy_only=False).astype(np.int64)
    tokens = pc.filter(flat, mask)
    # Tokens are short (≤20 chars post-filter): normalize to 32-bit-offset
    # string so streams from string and large_string source columns concat.
    if not pa.types.is_string(tokens.type):
        tokens = pc.cast(tokens, pa.string())
    return doc_index, tokens


def weighted_term_counts(fields: list[tuple[pa.Array | pa.ChunkedArray, float]],
                         cfg: IndexConfig) -> pa.Table:
    """Per-document boost-weighted term frequencies for a batch.

    Reference semantics /root/reference/search_engine/indexer/indexer.py:58-107:
    tokenize each field, filter, then ``weighted[token] += boost`` per
    occurrence. Returns a table ``(doc_index:int64,
    term:dictionary<int32, string>, wtf:float64)`` with one row per
    (doc, term) across all fields, in (doc_index, code) order. The batch's
    tokens are dictionary-encoded once; wtf is summed on the int64 key
    ``doc_index × V + code`` (V distinct terms), and ``term`` keeps that
    dictionary, so a caller routes over the distinct terms without encoding
    again. wtf values are integral sums of the boost constants, hence exact
    in any summation order (SURVEY.md §1.4).
    """
    idx_parts: list[np.ndarray] = []
    tok_parts: list[pa.Array] = []
    boost_parts: list[np.ndarray] = []
    for arr, boost in fields:
        di, toks = tokenize_column(arr, cfg)
        if len(di) == 0:
            continue
        idx_parts.append(di)
        tok_parts.append(toks)
        boost_parts.append(np.full(len(di), boost, dtype=np.float64))
    if not idx_parts:
        return pa.table({
            "doc_index": pa.array([], type=pa.int64()),
            "term": pa.DictionaryArray.from_arrays(
                pa.array([], type=pa.int32()), pa.array([], type=pa.string())),
            "wtf": pa.array([], type=pa.float64()),
        })
    dic = pa.concat_arrays(tok_parts).dictionary_encode()
    vocab = len(dic.dictionary)
    key = (np.concatenate(idx_parts) * vocab
           + dic.indices.to_numpy(zero_copy_only=False))
    uniq, inverse = np.unique(key, return_inverse=True)
    wtf = np.bincount(inverse, weights=np.concatenate(boost_parts))
    doc_index, codes = np.divmod(uniq, vocab)
    return pa.table({
        "doc_index": pa.array(doc_index),
        "term": pa.DictionaryArray.from_arrays(
            pa.array(codes.astype(np.int32)), dic.dictionary),
        "wtf": pa.array(wtf),
    })
