"""Shared code-aware tokenizer — the single source of truth for term space.

Used identically by (1) the distributed Arrow build stages, (2) the in-process
conformance oracle, and (3) the DuckDB SQL oracle fragments, so rank-identity
tests exercise the engine rather than tokenizer drift (SURVEY.md §1.3).

Semantics = the reference fallback tokenizer
(/root/reference/utils/text_processing.py:40-81: lowercase → strip HTML
entities → strip URLs → strip punctuation except ``\\w \\s -`` → hyphens→space
→ whitespace split → drop len≤1) EXTENDED with code-aware splitting (north
star): camelCase boundaries are split *before* lowercasing, and ``_`` is
split like ``-`` so snake_case identifiers yield their sub-tokens. ``.`` and
``::`` separators are already handled by the punctuation strip.

All regexes are ASCII-class (``re.ASCII``) so the Python implementation, the
pyarrow/RE2 implementation (arrow_tokenize.py) and DuckDB's RE2 agree on
``\\w``/``\\s`` exactly.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from searchengine_ray.config import IndexConfig, QueryConfig

# Order matters and is shared by all three implementations:
# 1) ABCParser -> ABC Parser   2) parseHTML -> parse HTML
_CAMEL_RUN = re.compile(r"([A-Z]+)([A-Z][a-z])")
_CAMEL_LOWER_UPPER = re.compile(r"([a-z0-9])([A-Z])")
# 3) lowercase
# 4) HTML entities (reference text_processing.py:51)
_HTML_ENTITY = re.compile(r"&\w+;", re.ASCII)
# 5) URLs (reference text_processing.py:54)
_URL = re.compile(r"https?://\S+", re.ASCII)
# 6) punctuation except word chars / whitespace / hyphen (reference :57)
_PUNCT = re.compile(r"[^\w\s-]", re.ASCII)
# 7) '-' -> ' ' (reference :60) and '_' -> ' ' (our code-aware extension)


def tokenize(text: str, stemmer: str | None = None,
             word_tokenizer: str | None = None) -> list[str]:
    """Code-aware tokenize; returns tokens of length > 1 (reference :81).

    ``stemmer="porter"`` stems each raw token BEFORE the length filter —
    the reference's NLTK-branch order (text_processing.py:66-74: tokenize
    → stem → drop len≤1). ``word_tokenizer="treebank"`` applies the
    Penn-Treebank rules in the word_tokenize slot of that branch (:66) —
    on normalized text exactly the MacIntyre contraction-word expansion
    (functions/treebank.py)."""
    if not text:
        return []
    text = _CAMEL_RUN.sub(r"\1 \2", text)
    text = _CAMEL_LOWER_UPPER.sub(r"\1 \2", text)
    text = text.lower()
    text = _HTML_ENTITY.sub(" ", text)
    text = _URL.sub(" ", text)
    text = _PUNCT.sub(" ", text)
    text = text.replace("-", " ").replace("_", " ")
    toks = text.split()
    if word_tokenizer == "treebank":
        from searchengine_ray.functions.treebank import expand_pre_stripped
        toks = expand_pre_stripped(toks)
    if stemmer and stemmer != "none":
        from searchengine_ray.functions.stemmer import STEMMERS
        fn = STEMMERS[stemmer]
        toks = [fn(t) for t in toks]
    return [t for t in toks if len(t) > 1]


def filter_tokens(tokens: Iterable[str], cfg: IndexConfig) -> list[str]:
    """Stopword + length filter applied on both index and query side
    (reference indexer.py:74-90, 301-305)."""
    lo, hi, stop = cfg.min_token_length, cfg.max_token_length, cfg.stopwords
    return [t for t in tokens if t not in stop and lo <= len(t) <= hi]


def expand_query(query: str) -> str:
    """Query expansion, reference fallback semantics
    (text_processing.py:127-161) made case-aware: the token pass runs the
    code-aware tokenizer on the *original-case* query (so camelCase queries
    hit the split sub-token term space), then whole lowercased phrases are
    appended for exact-match weighting, preserving the reference's
    duplicate-token quirk (a phrase like ``hash-map`` re-tokenizes into
    tokens already present, doubling their weight)."""
    original = query.lower().strip()
    phrases = [p for p in original.split() if p]
    tokens = tokenize(query)
    expanded = list(tokens)
    for phrase in phrases:
        if phrase not in expanded and len(phrase) > 1:
            expanded.append(phrase)
    return " ".join(expanded)


def prepare_query(query: str, cfg: IndexConfig) -> tuple[list[str], list[str], str]:
    """Reference query prep (indexer.py:284-309).

    Returns (filtered_query_tokens, original_query_tokens, original_query);
    filtered_query_tokens may contain duplicates (each occurrence accumulates
    score, as in the reference) and is empty for empty/stopword-only queries.
    """
    if not query or not query.strip():
        return [], [], ""
    # Stemming happens exactly ONCE, in the outer tokenize over the
    # (unstemmed) expansion — so every query token lives in the index's
    # term space. Deliberate deviation from the reference's NLTK branch,
    # which re-stems the already-stemmed expansion (tokenize→stem inside
    # expand_query, stem again at indexer.py:295) and so emits
    # double-stemmed tokens the index can never contain (Porter is not
    # idempotent: 'decision'→'decis'→'deci'). It also appends a raw phrase
    # whose stem it already holds, so that stem counts twice
    # ('generalization'). Both deltas are pinned in tests/test_tokenizer.py.
    stemmer = getattr(cfg, "stemmer", "none")
    wt = getattr(cfg, "tokenizer", "split")
    expanded = expand_query(query)
    original_query = query.lower().strip()
    query_tokens = tokenize(expanded, stemmer, wt)
    original_query_tokens = tokenize(query, stemmer, wt)
    filtered = filter_tokens(query_tokens, cfg)
    return filtered, original_query_tokens, original_query


def make_snippet(content: str) -> str:
    """Docstore snippet, reference indexer.py:141 semantics:
    ``content[:200] + "..."`` when content is non-empty, else ``""``.
    The query-time metadata boosts substring-match against THIS string."""
    return content[:200] + "..." if content else ""


def generate_relevant_snippet(snippet: str, query_tokens: list[str],
                              qcfg: QueryConfig) -> str:
    """Result formatting only (does not affect ranking) — reference
    indexer.py:344-374 applied to the stored 200-char snippet."""
    content = snippet
    if not content or not query_tokens:
        return content
    content_lower = content.lower()
    window = qcfg.snippet_window
    best_start, best_count = 0, 0
    for i in range(0, len(content) - window, 20):
        w = content_lower[i:i + window]
        count = sum(1 for term in query_tokens if term in w)
        if count > best_count:
            best_count, best_start = count, i
    if best_count > 0:
        return content[best_start:best_start + window] + "..."
    return content[:200] + "..." if len(content) > 200 else content


# ---------------------------------------------------------------------------
# DuckDB SQL fragments (RE2) — must stay in lockstep with tokenize() above.
# Used by __ray_entry__.oracle_sql(); the driver runs them side-by-side with
# the Ray pipelines.
# ---------------------------------------------------------------------------

def sql_normalize_expr(col: str) -> str:
    """SQL expression producing the normalized text whose whitespace-split
    tokens equal ``tokenize(col)`` before the len>1 filter."""
    e = col
    e = f"regexp_replace({e}, '([A-Z]+)([A-Z][a-z])', '\\1 \\2', 'g')"
    e = f"regexp_replace({e}, '([a-z0-9])([A-Z])', '\\1 \\2', 'g')"
    e = f"lower({e})"
    e = f"regexp_replace({e}, '&\\w+;', ' ', 'g')"
    e = f"regexp_replace({e}, 'https?://\\S+', ' ', 'g')"
    e = f"regexp_replace({e}, '[^\\w\\s-]', ' ', 'g')"
    e = f"replace(replace({e}, '-', ' '), '_', ' ')"
    return e


def sql_tokens_expr(col: str) -> str:
    """SQL list expression = tokenize(col): split on whitespace, len>1."""
    split = f"regexp_split_to_array(trim({sql_normalize_expr(col)}), '\\s+')"
    return f"list_filter({split}, t -> length(t) > 1)"


def sql_treebank_tokens_expr(col: str) -> str:
    """SQL list expression = tokenize(col, word_tokenizer="treebank"):
    the normalized whitespace split run through the MacIntyre
    contraction-word expansion (generated from TREEBANK_SPECIALS so the
    table can never drift), then the len>1 filter — expansion outputs
    are all len≥2, so the filter order matches the engine's."""
    from searchengine_ray.functions.treebank import TREEBANK_SPECIALS
    split = f"regexp_split_to_array(trim({sql_normalize_expr(col)}), '\\s+')"
    cases = " ".join(
        f"WHEN '{k}' THEN [{', '.join(repr(p) for p in parts)}]"
        for k, parts in sorted(TREEBANK_SPECIALS.items()))
    expanded = (f"flatten(list_transform({split}, "
                f"t -> CASE t {cases} ELSE [t] END))")
    return f"list_filter({expanded}, t -> length(t) > 1)"


def sql_filtered_tokens_expr(col: str, cfg: IndexConfig) -> str:
    """SQL list expression = filter_tokens(tokenize(col), cfg)."""
    stop = ", ".join(f"'{s}'" for s in sorted(cfg.stopwords))
    return (
        f"list_filter({sql_tokens_expr(col)}, t -> t NOT IN ({stop}) "
        f"AND length(t) BETWEEN {cfg.min_token_length} AND {cfg.max_token_length})"
    )
