"""Tokenizer unit + property tests (SURVEY.md §1.3, §5.1).

The Python tokenizer is the normative term space; the Arrow/RE2 chain
(arrow_tokenize) must produce identical token streams, and the DuckDB SQL
fragment must normalize identically (checked in test_entry_sql.py via the
driver-style comparison).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from searchengine_ray.config import DEFAULT_STOPWORDS, IndexConfig
from searchengine_ray.functions.arrow_tokenize import tokenize_column, weighted_term_counts
from searchengine_ray.functions.tokenizer import (
    expand_query,
    filter_tokens,
    make_snippet,
    prepare_query,
    tokenize,
)

CFG = IndexConfig()


def test_lowercase_and_split():
    assert tokenize("Hello World") == ["hello", "world"]


def test_camel_case_split():
    assert tokenize("parseHTMLDocument") == ["parse", "html", "document"]
    assert tokenize("tokenStream") == ["token", "stream"]
    assert tokenize("ABCParser") == ["abc", "parser"]
    assert tokenize("readFileSync") == ["read", "file", "sync"]


def test_snake_case_split():
    assert tokenize("build_index") == ["build", "index"]
    assert tokenize("a_b_long_name") == ["long", "name"]  # len<=1 dropped


def test_dot_and_coloncolon_separators():
    assert tokenize("pkg.module.Cls") == ["pkg", "module", "cls"]
    assert tokenize("std::vector") == ["std", "vector"]


def test_html_entities_stripped():
    assert tokenize("&amp; &lt; foo") == ["foo"]


def test_urls_stripped():
    assert tokenize("see https://example.com/x?q=1 rest") == ["see", "rest"]


def test_hyphens_split():
    assert tokenize("hash-map") == ["hash", "map"]


def test_short_tokens_dropped():
    assert tokenize("a b cd") == ["cd"]


def test_empty():
    assert tokenize("") == []
    assert tokenize(None) == []


def test_filter_tokens_stopwords_and_length():
    toks = ["the", "ok", "x", "verylongtokenthatkeepsgoingforever", "index"]
    assert filter_tokens(toks, CFG) == ["ok", "index"]


def test_expand_query_appends_phrases():
    # "hash-map" tokenizes to [hash, map]; phrase "hash-map" appended
    assert expand_query("hash-map") == "hash map hash-map"
    # already-present phrase not duplicated
    assert expand_query("index") == "index"


def test_prepare_query_empty_and_stopword_only():
    assert prepare_query("", CFG) == ([], [], "")
    filtered, orig, oq = prepare_query("the and of", CFG)
    assert filtered == []


def test_prepare_query_duplicate_terms_kept():
    filtered, _, _ = prepare_query("foo foo", CFG)
    assert filtered == ["foo", "foo"]


def _reference_nltk_branch(query: str, cfg: IndexConfig) -> list[str]:
    """The reference's NLTK-branch query prep: expand_query tokenizes AND
    stems, appends the raw lowercased phrases it does not already hold,
    and the indexer stems that expansion again."""
    stem = cfg.stemmer
    tokens = tokenize(query, stem)
    expanded = tokens + [p for p in query.lower().strip().split()
                         if p not in tokens and len(p) > 1]
    return filter_tokens(tokenize(" ".join(expanded), stem), cfg)


@pytest.mark.parametrize("query,engine,reference", [
    # Porter is not idempotent: the reference re-stems 'decis' to
    # 'deci', a term no stemmed index contains
    ("decision", ["decis"], ["deci", "decis"]),
    ("parse token stream", ["pars", "token", "stream"],
     ["par", "token", "stream", "pars"]),
    # the raw phrase differs from its stem, so the reference appends it
    # and its stem counts twice
    ("generalization", ["gener"], ["gener", "gener"]),
    # stems that are fixed points give the same term set
    ("hashMap codec", ["hash", "map", "codec", "hashmap"],
     ["hash", "map", "codec", "hashmap"]),
])
def test_prepare_query_stems_once_unlike_reference_nltk_branch(
        query, engine, reference):
    """Pins the documented deviation of prepare_query (functions/
    tokenizer.py): the engine stems each query token exactly once."""
    cfg = IndexConfig(stemmer="porter")
    assert prepare_query(query, cfg)[0] == engine
    assert _reference_nltk_branch(query, cfg) == reference


def test_make_snippet():
    assert make_snippet("") == ""
    assert make_snippet("abc") == "abc..."
    long = "x" * 300
    assert make_snippet(long) == "x" * 200 + "..."


# --- Arrow chain equivalence ------------------------------------------------

def _arrow_tokens(texts: list[str], cfg=None, apply_filter=False):
    arr = pa.array(texts, type=pa.string())
    di, toks = tokenize_column(arr, cfg, apply_filter=apply_filter)
    out: list[list[str]] = [[] for _ in texts]
    for i, t in zip(di, toks.to_pylist()):
        out[int(i)].append(t)
    return out


def test_arrow_matches_python_basic():
    texts = ["parseHTMLDocument and hash-map", "build_index &amp; x",
             "see https://a.b/c d", "", "ABCParser::run(a, b)"]
    assert _arrow_tokens(texts) == [tokenize(t) for t in texts]


def test_arrow_filtered_matches_python():
    texts = ["the parser of tokens", "a an theVeryLongCamelCaseIdentifier"]
    got = _arrow_tokens(texts, CFG, apply_filter=True)
    want = [filter_tokens(tokenize(t), CFG) for t in texts]
    assert got == want


_text_alphabet = st.characters(
    codec="ascii", exclude_categories=("Cs",), exclude_characters="\x00")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=_text_alphabet, max_size=120), max_size=8))
@example(
    texts=['>9\\M><M\x02',
     "h`\x0f_\x10J'U^4",
     '\x08]K\x11\x13D@',
     '>9\\M><M\x02',
     'g\x13',
     'qjZ/-L$\x03\x14',
     "\x14t){vUP\x19'jl\x1f\x01M-*m\x04",
     ''],
).via('discovered failure')
def test_arrow_matches_python_property(texts):
    assert _arrow_tokens(texts) == [tokenize(t) for t in texts]


def test_split_ignores_bytes_past_the_data_buffer(monkeypatch):
    """tokenize_column splits the normalized column exactly as
    str.split() whatever lies past the end of its data buffer. pyarrow's
    utf8_split_whitespace reads that memory: an invalid UTF-8 byte right
    after a trailing space kept the space on the last token ('fr '),
    which made the property test below fail at random."""
    import searchengine_ray.functions.arrow_tokenize as at

    text = b"  dr  7 jc  fr "
    for garbage in (b"\xff" * 8, b"\x80" * 8, b"\x00" * 8):
        offsets = np.array([0, len(text)], dtype=np.int32).tobytes()
        norm = pa.Array.from_buffers(
            pa.string(), 1,
            [None, pa.py_buffer(offsets), pa.py_buffer(text + garbage)])
        monkeypatch.setattr(at, "normalize_column", lambda arr: norm)
        di, toks = at.tokenize_column(pa.array(["x"]), None,
                                      apply_filter=False)
        assert toks.to_pylist() == [t for t in text.decode().split()
                                    if len(t) > 1], garbage
        assert di.tolist() == [0, 0, 0]


def _two_pass_normalize(arr):
    """normalize_column as it was before its last two passes merged:
    ``[^\\w\\s-]`` → space, then ``[-_]`` → space."""
    import pyarrow.compute as pc
    out = arr
    for pat in (r"([A-Z]+)([A-Z][a-z])", r"([a-z0-9])([A-Z])"):
        out = pc.replace_substring_regex(out, pattern=pat,
                                         replacement=r"\1 \2")
    out = pc.utf8_lower(out)
    for pat in (r"&\w+;", r"https?://\S+", r"[^\w\s-]", r"[-_]"):
        out = pc.replace_substring_regex(out, pattern=pat, replacement=" ")
    return out


# control characters outside RE2's \s (\v, the \x1c-\x1f separators),
# non-ASCII letters whose lowercase is ASCII (U+212A KELVIN SIGN → k) or
# grows (U+0130), runs of _ and -, and entities inside URLs
_ADVERSARIAL = st.sampled_from([
    "\v", "\x1c", "\x1d", "\x1e", "\x1f", "\u212a", "\u0130", "\u212aB",
    "_", "__", "-", "--", "_-_", "a_-b", "&amp;", "&lt;x", "&A_b;",
    "http://a.b/x&amp;y", "https://x.y/p_q-r?a=&gt;", "HTTP://UP.CASE",
    "ABCDef", "parseHTML", "x9Y", " ", "\t", "\n", "\r", "\f", "é", "ß",
])


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(
           st.one_of(st.none(), st.lists(
               st.one_of(_ADVERSARIAL, st.text(max_size=4)),
               max_size=12).map("".join)),
           min_size=1, max_size=8),
       large=st.booleans(), data=st.data())
def test_normalize_one_pass_matches_two_pass_chain(texts, large, data):
    """The merged ``[^a-z0-9\\s]`` pass replaces exactly the characters
    the two old passes replaced, on string and large_string arrays and
    on slices of them (a non-zero offset into the buffers)."""
    from searchengine_ray.functions.arrow_tokenize import normalize_column
    arr = pa.array(texts, type=pa.large_string() if large else pa.string())
    start = data.draw(st.integers(0, len(texts) - 1))
    stop = data.draw(st.integers(start, len(texts)))
    for a in (arr, arr.slice(start, stop - start)):
        got = normalize_column(a)
        assert got.type == a.type
        assert got.to_pylist() == _two_pass_normalize(a).to_pylist()


def test_large_string_and_string_mix():
    t = pa.table({
        "a": pa.array(["titleToken here"], type=pa.string()),
        "b": pa.array(["bodyContent here"], type=pa.large_string()),
    })
    out = weighted_term_counts([(t["a"], 5.0), (t["b"], 1.0)], CFG)
    d = {(r["doc_index"], r["term"]): r["wtf"] for r in out.to_pylist()}
    assert d[(0, "title")] == 5.0
    assert d[(0, "here")] == 6.0  # 5.0 (title) + 1.0 (content)
    assert d[(0, "body")] == 1.0


def test_weighted_term_counts_accumulates_occurrences():
    t = pa.table({"a": pa.array(["foo foo bar"], type=pa.string())})
    out = weighted_term_counts([(t["a"], 3.0)], CFG)
    d = {r["term"]: r["wtf"] for r in out.to_pylist()}
    assert d == {"foo": 6.0, "bar": 3.0}


def test_weighted_term_counts_one_dictionary_in_doc_order():
    """The term column is dictionary-typed over the batch's distinct
    terms (each once, every one used), and rows come in doc order; an
    input without tokens gives the same schema."""
    t = pa.table({"a": ["foo bar", "", "the", "bar qux foo"],
                  "b": ["qux", "foo", None, "bar"]})
    out = weighted_term_counts([(t["a"], 5.0), (t["b"], 1.0)], CFG)
    assert pa.types.is_dictionary(out.schema.field("term").type)
    term = out["term"].combine_chunks()
    vocab = term.dictionary.to_pylist()
    assert sorted(vocab) == ["bar", "foo", "qux"]
    assert sorted(set(term.indices.to_pylist())) == [0, 1, 2]
    assert out["doc_index"].to_pylist() == sorted(out["doc_index"].to_pylist())
    got = {(r["doc_index"], r["term"]): r["wtf"] for r in out.to_pylist()}
    assert got == {(0, "foo"): 5.0, (0, "bar"): 5.0, (0, "qux"): 1.0,
                   (1, "foo"): 1.0,
                   (3, "bar"): 6.0, (3, "qux"): 5.0, (3, "foo"): 5.0}
    empty = weighted_term_counts([(t["a"].slice(1, 2), 5.0)], CFG)
    assert len(empty) == 0 and empty.schema == out.schema
