"""Exact block-max WAND candidate selection over the v2 posting codec.

Block-max WAND (WAND: Broder et al., CIKM 2003; block-max variant: Ding
& Suel, SIGIR 2011 — both published) skips posting blocks that provably
cannot place a document in the top-k. This implementation is EXACT with
respect to ``QueryEngine.search()`` — same top-k docs, bit-identical
scores (asserted in tests) — under the engine's full semantics:

- **Boost ladder**: final ranking is by boosted score (metadata boosts
  ≥ 1, ≤ ``MAX_BOOST``), so the base-score prune threshold carries the
  boost ceiling: a doc is prunable only when
  ``upper_bound(base) · MAX_BOOST < θ`` with θ = the k-th best fully
  accumulated EXACT base score (boost ≥ 1 ⇒ θ lower-bounds the k-th
  boosted score; a doc strictly below the k-th boosted score can
  neither enter the top-k nor set the normalization max, the argument
  ``QueryEngine._boost_topk`` also prunes by). Block bounds cannot see
  the doc fields, so they keep the global ceiling, while
  ``_boost_topk`` bounds each surviving candidate from its own title
  and meta. The ceiling costs pruning power — documented, not hidden:
  WAND here shines on skewed tf distributions and long lists, not on
  flat toy corpora.
- **Bit-exact accumulation**: survivors' scores are NOT taken from the
  incremental bound bookkeeping; the decoded fragments are re-fed
  through the same per-occurrence ``np.unique`` + ``np.add.at``
  accumulation ``_score_candidates`` uses, so float summation order is
  identical and scores are bit-equal.
- **Admissible block bound**: contribution UB per block is
  ``idf · (k1+1)·maxtf / (k1·(1−b) + maxtf) · importance`` (the
  doc-len→0 limit — codec.block_max_tf docstring), widened by 1e-9
  relative slack so float evaluation can never under-bound; the prune's
  boost ceiling carries the same slack (``wand_select``).

Set-oriented geometric rounds (decode the globally highest-UB blocks,
re-bound, repeat) replace the classic per-document cursor walk: numpy
stays vectorized, and the worst case degenerates to exactly one full
decode — never slower asymptotically than the exhaustive path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from searchengine_ray.codec import (decode_block_max,
                                    decode_postings_blocks,
                                    postings_block_meta)

_UB_SLACK = 1.0 + 1e-9


@dataclass
class ListState:
    """One physical posting list (a term, or one salted sub-list).

    ``contrib_fn(ids, tfs) -> float64`` computes the EXACT per-posting
    contribution (idf · tf_comp(dl) · importance) — evaluated once at
    decode time. The selection's θ bookkeeping MUST use these exact
    values: any overestimate (e.g. raw tf) inflates θ and prunes blocks
    that hold true top-k docs (caught by tools/wand_bench.py on the
    96k-doc corpus — dl variance makes raw-tf order diverge from
    tf_comp order)."""
    term: str
    buf: bytes
    idf: float
    importance: float
    mult: int                     # occurrences of the term in the query
    contrib_fn: object = None     # (ids, tfs) -> exact contribs
    n: int = 0
    nblocks: int = 0
    block_size: int = 0
    lasts: np.ndarray = None
    first_lb: np.ndarray = None   # conservative first-id lower bound
    ub: np.ndarray = None         # per-block single-occurrence contrib UB
    decoded: np.ndarray = None    # bool per block
    frags: list = field(default_factory=list)  # (b_lo, ids, tfs, contribs)

    def prepare(self, bm_buf: bytes, k1: float, b: float,
                avgdl: float = 1.0,
                dl_bound_fn=None) -> None:
        """``dl_bound_fn(first_lb, lasts) -> per-block min doc-length``
        tightens the UB from the doc-len→0 limit to the block's actual
        id-range minimum (tf_comp is increasing in tf and decreasing in
        dl, so tf_comp(max_tf, min_dl) still dominates every doc in the
        block — admissible, and on length-varied corpora the difference
        is what makes blocks actually prune)."""
        self.n, self.block_size, self.nblocks, self.lasts = \
            postings_block_meta(self.buf)
        self.first_lb = np.concatenate(
            [np.zeros(1, dtype=np.uint64),
             self.lasts[:-1] + np.uint64(1)]) \
            if self.nblocks else np.empty(0, dtype=np.uint64)
        bm = decode_block_max(bm_buf).astype(np.float64)
        assert len(bm) == self.nblocks, "block_max/postings mismatch"
        if self.nblocks and dl_bound_fn is not None:
            dlb = np.asarray(dl_bound_fn(self.first_lb, self.lasts),
                             dtype=np.float64)
            tf_ub = ((k1 + 1.0) * bm) / (
                k1 * (1.0 - b + b * dlb / avgdl) + bm)
        elif self.nblocks:
            tf_ub = ((k1 + 1.0) * bm) / (k1 * (1.0 - b) + bm)
        else:
            tf_ub = bm
        self.ub = self.idf * tf_ub * self.importance * _UB_SLACK
        self.decoded = np.zeros(self.nblocks, dtype=bool)

    def decode_blocks(self, blocks: np.ndarray) -> None:
        """Decode the given (sorted, unique) block indices as contiguous
        runs; append fragments; mark decoded."""
        if blocks.size == 0:
            return
        cut = np.flatnonzero(np.diff(blocks) > 1)
        starts = np.concatenate([[0], cut + 1])
        ends = np.concatenate([cut + 1, [len(blocks)]])
        for s, e in zip(starts, ends):
            b_lo, b_hi = int(blocks[s]), int(blocks[e - 1]) + 1
            ids, tfs = decode_postings_blocks(self.buf, b_lo, b_hi)
            c = self.contrib_fn(ids, tfs) if self.contrib_fn is not None \
                else self.idf * tfs.astype(np.float64) * self.importance
            self.frags.append((b_lo, ids, tfs, c))
        self.decoded[blocks] = True

    def remaining_ub_at(self, ids: np.ndarray) -> np.ndarray:
        """Per-id UB of this list's UNDECODED contribution (0 when the
        id cannot live in an undecoded block), including occurrence
        multiplicity."""
        if self.nblocks == 0 or self.decoded.all():
            return np.zeros(len(ids), dtype=np.float64)
        j = np.searchsorted(self.lasts, ids)
        jc = np.minimum(j, self.nblocks - 1)
        hit = (j < self.nblocks) & (ids >= self.first_lb[jc]) \
            & ~self.decoded[jc]
        return np.where(hit, self.ub[jc] * self.mult, 0.0)

    def undecoded_blocks_containing(self, ids: np.ndarray) -> np.ndarray:
        if self.nblocks == 0:
            return np.empty(0, dtype=np.int64)
        j = np.searchsorted(self.lasts, ids)
        jc = np.minimum(j, self.nblocks - 1)
        hit = (j < self.nblocks) & (ids >= self.first_lb[jc]) \
            & ~self.decoded[jc]
        return np.unique(jc[hit]).astype(np.int64)


def wand_select(lists: list[ListState], top_k: int, max_boost: float,
                stats: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run the geometric-round block-max selection; returns
    (survivor_ids sorted unique, per-list fully-decoded coverage is
    guaranteed for every survivor). The caller re-accumulates exact
    scores from the fragments."""
    total_blocks = int(sum(ls.nblocks for ls in lists))
    rounds = 0
    # The boost chain multiplies in sequence and can land ulps above
    # x·max_boost, and θ is summed in another order than the final
    # accumulation: widen the ceiling by the same relative slack as the
    # block bounds, so a prune never drops a doc that ties the k-th.
    ceiling = max_boost * _UB_SLACK
    M = max(8, 2 * top_k // max(1, min(ls.block_size or 128
                                       for ls in lists)))
    # incremental bookkeeping: candidates/partials carry across rounds;
    # each round folds in only the fragments decoded SINCE the last one
    # (the full re-union was O(decoded × rounds) — measured as the
    # dominant wand_ms term at bench scale)
    cand = np.empty(0, dtype=np.uint64)
    partial = np.zeros(0, dtype=np.float64)
    consumed = [0] * len(lists)
    while True:
        rounds += 1
        # --- fold NEW fragments into (cand, partial) --------------------
        new_ids, new_contribs = [], []
        for li, ls in enumerate(lists):
            for _b, ids, _tfs, c in ls.frags[consumed[li]:]:
                # EXACT contributions (order-free sum; θ must never be
                # computed from an overestimate — see ListState)
                new_ids.append(ids)
                new_contribs.append(c * ls.mult)
            consumed[li] = len(ls.frags)
        if new_ids:
            nid = np.concatenate(new_ids)
            nco = np.concatenate(new_contribs)
            merged = np.union1d(cand, nid)
            p2 = np.zeros(len(merged), dtype=np.float64)
            if cand.size:
                p2[np.searchsorted(merged, cand)] = partial
            np.add.at(p2, np.searchsorted(merged, nid), nco)
            cand, partial = merged, p2
        rem = np.zeros(len(cand), dtype=np.float64)
        for ls in lists:
            rem += ls.remaining_ub_at(cand)
        full = rem == 0.0
        n_full = int(full.sum())
        if n_full >= top_k:
            theta = float(np.partition(partial[full],
                                       n_full - top_k)[n_full - top_k])
        else:
            theta = -np.inf
        undecoded_any = any(not ls.decoded.all() for ls in lists
                            if ls.nblocks)
        if not undecoded_any:
            survivors = cand
            break
        prunable = (partial + rem) * ceiling < theta
        force = ~full & ~prunable
        # --- choose blocks ---------------------------------------------
        # pool = undecoded blocks that can STILL produce a top-k doc: a
        # block of list li matters only if its UB plus every OTHER
        # list's best undecoded UB clears θ/ceiling (for li = the best
        # list this reduces to the classic unseen-doc bound, so an
        # empty pool IS the termination condition)
        per_max = [float(ls.ub[~ls.decoded].max()) * ls.mult
                   if ls.nblocks and not ls.decoded.all() else 0.0
                   for ls in lists]
        total_max = float(sum(per_max))
        pool_ls, pool_b, pool_ub = [], [], []
        for li, ls in enumerate(lists):
            und = np.flatnonzero(~ls.decoded)
            if not und.size:
                continue
            ub_eff = ls.ub[und] * ls.mult
            if np.isfinite(theta):
                others = total_max - per_max[li]
                m = (ub_eff + others) * ceiling >= theta
                und, ub_eff = und[m], ub_eff[m]
                if not und.size:
                    continue
            pool_ls.append(np.full(und.size, li, dtype=np.int64))
            pool_b.append(und)
            pool_ub.append(ub_eff)
        if not pool_b:
            if force.any():
                fids = cand[force]
                for ls in lists:
                    ls.decode_blocks(
                        ls.undecoded_blocks_containing(fids))
                continue
            survivors = cand[full]
            break
        pls = np.concatenate(pool_ls)
        pb = np.concatenate(pool_b)
        pub = np.concatenate(pool_ub)
        take = min(M, len(pub))
        top = np.argpartition(-pub, take - 1)[:take] \
            if take < len(pub) else np.arange(len(pub))
        for li in np.unique(pls[top]):
            ls = lists[li]
            ls.decode_blocks(np.sort(pb[top[pls[top] == li]]))
        # ×2, not ×4: rounds stay O(log blocks) but a toy-scale list
        # isn't swallowed whole before θ tightens enough to prune
        M *= 2
    if stats is not None:
        stats["blocks_total"] = total_blocks
        stats["blocks_decoded"] = int(sum(ls.decoded.sum()
                                          for ls in lists))
        stats["rounds"] = rounds
        stats["candidates"] = int(len(cand))
        stats["survivors"] = int(len(survivors))
    return survivors, cand
