"""Generic relational pipelines over the TPC-H-ish tables.

The reference engine's relational surface is implicit (its index build is
a join+aggregate in disguise); these operators demonstrate that the
engine's GENERIC primitives — ``common.grouped_aggregate`` (coarse
hash-partitioned Arrow-native aggregation) and ``join.equi_join``
(tag→union→shuffle sort-merge) — compose into classic warehouse queries
over the largest tables in the testdata (lineitem is 60k/600k/6M rows at
sf0.01/0.1/1), with no operator code specific to these queries.

Scale shape:
  pricing_summary       pure combiner — per-batch Arrow group_by partials,
                        one tiny (flag × status)-row exchange; never raw rows.
  top_unshipped_orders  dimension semi-join (customer→orders) + fact join
                        (lineitem→orders) whose partitions sum per order
                        and keep a top-N digest, merged on the driver
                        (≤ N × join partitions rows); text never shuffles,
                        only the id/date/priority/revenue columns.

Monetary doubles cross engines as scaled integers with HALF-UP cents:
``floor(x·100 + 0.5)`` — the same IEEE double ops in numpy and DuckDB
(inputs are non-negative), so sums are order-insensitive and bit-exact.
numpy ``round`` (banker's) would diverge from DuckDB's half-away — the
measured pitfall this form avoids.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

Q1_CUTOFF = "1998-09-02 00:00:00"
Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-03-15 00:00:00"


def _ts_us(sql_ts: str) -> int:
    return int(np.datetime64(sql_ts.replace(" ", "T"), "us").astype(np.int64))


def _cents(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """HALF-UP integer cents: floor(x·100 + 0.5) — bit-identical to the
    DuckDB twin (same double multiply/add/floor; values non-negative)."""
    x = pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def pricing_summary(ds: "ray.data.Dataset",
                    cutoff: str = Q1_CUTOFF) -> "ray.data.Dataset":
    """TPC-H Q1 shape: per (l_returnflag, l_linestatus) pricing summary
    over lineitem rows shipped on/before ``cutoff``.

    Columns: l_returnflag, l_linestatus, n_rows, sum_qty,
    sum_base_c (Σ cents), sum_disc_e4 (Σ cents·(100−disc%)),
    sum_charge_e6 (Σ cents·(100−disc%)·(100+tax%)) — all int64, exact.

    Pure combiner: each batch pre-aggregates with Arrow's C++ group_by,
    so the exchange moves ≤ |flags × statuses| rows per batch. At 100 TB
    this is the cheapest wide shape the engine has — no raw row ever
    crosses the network.
    """
    cut_us = _ts_us(cutoff)

    def partial(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch["l_shipdate"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keep = ship <= cut_us
        batch = batch.filter(pa.array(keep))
        qty = pc.cast(batch["l_quantity"], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        price_c = _cents(batch["l_extendedprice"])
        disc_p = _cents(batch["l_discount"])      # 0.04 → 4
        tax_p = _cents(batch["l_tax"])
        disc_e4 = price_c * (100 - disc_p)
        t = pa.table({
            "l_returnflag": pc.cast(batch["l_returnflag"], pa.string()),
            "l_linestatus": pc.cast(batch["l_linestatus"], pa.string()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "q": pa.array(np.floor(qty + 0.5).astype(np.int64)),
            "b": pa.array(price_c),
            "d": pa.array(disc_e4),
            "c": pa.array(disc_e4 * (100 + tax_p)),
        })
        return (t.group_by(["l_returnflag", "l_linestatus"],
                           use_threads=False)
                 .aggregate([("n", "sum"), ("q", "sum"), ("b", "sum"),
                             ("d", "sum"), ("c", "sum")])
                 .rename_columns(["l_returnflag", "l_linestatus",
                                  "n", "q", "b", "d", "c"]))

    from searchengine_ray.pipelines.common import grouped_aggregate

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["l_returnflag", "l_linestatus"],
                           use_threads=False)
             .aggregate([("n", "sum"), ("q", "sum"), ("b", "sum"),
                         ("d", "sum"), ("c", "sum")]))
        return pa.table({
            "l_returnflag": pc.cast(g["l_returnflag"], pa.string()),
            "l_linestatus": pc.cast(g["l_linestatus"], pa.string()),
            "n_rows": pc.cast(g["n_sum"], pa.int64()),
            "sum_qty": pc.cast(g["q_sum"], pa.int64()),
            "sum_base_c": pc.cast(g["b_sum"], pa.int64()),
            "sum_disc_e4": pc.cast(g["d_sum"], pa.int64()),
            "sum_charge_e6": pc.cast(g["c_sum"], pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["l_returnflag", "l_linestatus"],
                             final)


def sql_pricing_summary(cutoff: str = Q1_CUTOFF) -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    t = "CAST(floor(l_tax * 100 + 0.5) AS BIGINT)"
    return f"""
SELECT l_returnflag, l_linestatus,
       count(*)::BIGINT AS n_rows,
       sum(CAST(floor(l_quantity + 0.5) AS BIGINT))::BIGINT AS sum_qty,
       sum({c})::BIGINT AS sum_base_c,
       sum({c} * (100 - {d}))::BIGINT AS sum_disc_e4,
       sum({c} * (100 - {d}) * (100 + {t}))::BIGINT AS sum_charge_e6
FROM lineitem WHERE l_shipdate <= TIMESTAMP '{cutoff}'
GROUP BY l_returnflag, l_linestatus
"""


# Output schemas of the prep_* maps that feed equi_join (one per join
# side that is a lazy map): equi_join reads a side's schema for its typed
# NULL columns, and without one it probes Dataset.schema(), which
# executes part of the lazy side once before the real run.
_I64, _STR = pa.int64(), pa.string()
_CUSTKEY = pa.schema([("c_custkey", _I64)])
_Q3_ORDERS = pa.schema([("o_custkey", _I64), ("o_orderkey", _I64),
                        ("o_orderdate_us", _I64),
                        ("o_orderpriority", _STR)])
_LINE_REV = pa.schema([("l_orderkey", _I64), ("rev_e4", _I64)])
_Q3_DIGEST = pa.schema([("l_orderkey", _I64), ("o_orderdate_us", _I64),
                        ("o_orderpriority", _STR), ("revenue_e4", _I64)])
_Q5_ORDERS = pa.schema([("o_custkey", _I64), ("o_orderkey", _I64)])
_Q5_CUST = pa.schema([("c_custkey", _I64), ("c_nationkey", _I64)])
_Q5_LINE = pa.schema([("l_orderkey", _I64), ("s_nationkey", _I64),
                      ("rev_e4", _I64)])
_Q18_ORDERS = pa.schema([("o_orderkey", _I64), ("o_custkey", _I64),
                         ("o_orderdate_us", _I64)])
_Q18_CUST = pa.schema([("c_custkey", _I64), ("c_name", _STR)])


def top_unshipped_orders(lineitem: "ray.data.Dataset",
                         orders: "ray.data.Dataset",
                         customer: "ray.data.Dataset",
                         segment: str = Q3_SEGMENT,
                         date: str = Q3_DATE,
                         n: int = 10) -> "ray.data.Dataset":
    """TPC-H Q3 shape: top-``n`` orders by revenue among orders placed
    before ``date`` by customers in ``segment`` with lineitems shipped
    after ``date``.

    Columns: rnk, l_orderkey, o_orderdate_us, o_orderpriority,
    revenue_e4 (Σ cents·(100−disc%), int64 exact).

    Plan: (1) customer filters to the segment and SEMI-joins orders on
    custkey (``join.equi_join`` how="semi" — dimension side never
    expands); (2) lineitem filters by shipdate, pre-projects to
    (orderkey, revenue) id-width rows, and INNER-joins the surviving
    orders on orderkey; (3) the join's ``finish`` sums revenue per order
    inside the join partition that already holds all of its rows (no
    second orderkey shuffle) and keeps that partition's top-``n``
    digest; (4) the driver merges the digests into the global top-``n``
    WITHOUT a global sort (same discipline as events.top_n_by_value).
    Every exchanged row is id-width; the driver fetch is bounded by
    n × NUM_JOIN_PARTITIONS digest rows whatever the scale factor.
    """
    from searchengine_ray.pipelines.join import NUM_JOIN_PARTITIONS, equi_join

    date_us = _ts_us(date)

    def prep_orders(batch: pa.Table) -> pa.Table:
        od = pc.cast(batch["o_orderdate"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        t = pa.table({
            "o_custkey": pc.cast(batch["o_custkey"], pa.int64()),
            "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
            "o_orderdate_us": pa.array(od),
            "o_orderpriority": pc.cast(batch["o_orderpriority"],
                                       pa.string()),
        })
        return t.filter(pa.array(od < date_us))

    def prep_cust(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "c_custkey": pc.cast(batch["c_custkey"], pa.int64()),
        })
        return t.filter(pc.equal(batch["c_mktsegment"], segment))

    def prep_line(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch["l_shipdate"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ship > date_us))
        rev = _cents(batch["l_extendedprice"]) \
            * (100 - _cents(batch["l_discount"]))
        return pa.table({
            "l_orderkey": pc.cast(batch["l_orderkey"], pa.int64()),
            "rev_e4": pa.array(rev),
        })

    ordsel = orders.map_batches(prep_orders, batch_format="pyarrow")
    custsel = customer.map_batches(prep_cust, batch_format="pyarrow")
    # semi join: orders of segment customers, emitted once each.
    # Pinned: it is a branch of the fact join's union, which must not
    # carry its own shuffle. Static prep_* schemas skip the probes.
    ord_semi = equi_join(ordsel, custsel, "o_custkey", "c_custkey",
                         ["o_orderkey", "o_orderdate_us",
                          "o_orderpriority"], [], how="semi",
                         left_schema=_Q3_ORDERS,
                         right_schema=_CUSTKEY).materialize()

    def top_n(okey: np.ndarray, odate: np.ndarray, prio: pa.Array,
              rev: np.ndarray) -> pa.Table:
        order = np.lexsort((okey, odate, -rev))[:n]
        return pa.table([okey[order], odate[order],
                         pc.cast(prio, _STR).take(pa.array(order, _I64)),
                         rev[order]], schema=_Q3_DIGEST)

    def sum_orders(part: pa.Table) -> pa.Table:
        g = (part.group_by(["key", "o_orderdate_us", "o_orderpriority"],
                           use_threads=False)
             .aggregate([("rev_e4", "sum")]))
        return top_n(*(pc.cast(g[c], pa.int64()).to_numpy(
                           zero_copy_only=False)
                       for c in ("key", "o_orderdate_us")),
                     g["o_orderpriority"],
                     pc.cast(g["rev_e4_sum"], pa.int64())
                     .to_numpy(zero_copy_only=False))

    # per-order sums + per-partition top-n digest inside the fact join
    linesel = lineitem.map_batches(prep_line, batch_format="pyarrow")
    joined = equi_join(linesel, ord_semi, "l_orderkey", "o_orderkey",
                       ["rev_e4"], ["o_orderdate_us", "o_orderpriority"],
                       left_schema=_LINE_REV, finish=sum_orders)
    # driver merge: ≤ n digest rows per join partition
    parts = [t for t in joined.iter_batches(batch_size=None,
                                            batch_format="pyarrow")
             if len(t)]
    d = pa.concat_tables(parts) if parts else _Q3_DIGEST.empty_table()
    assert len(d) <= n * NUM_JOIN_PARTITIONS, len(d)
    top = top_n(d["l_orderkey"].to_numpy(), d["o_orderdate_us"].to_numpy(),
                d["o_orderpriority"], d["revenue_e4"].to_numpy())
    return ray.data.from_arrow(top.add_column(0, "rnk", pa.array(
        np.arange(1, len(top) + 1, dtype=np.int64))))


def sql_top_unshipped_orders(segment: str = Q3_SEGMENT,
                             date: str = Q3_DATE, n: int = 10) -> str:
    rev = ("CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) * "
           "(100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT))")
    return f"""
WITH o AS (
  SELECT o_orderkey, epoch_us(o_orderdate) AS o_orderdate_us,
         o_orderpriority
  FROM orders
  WHERE o_orderdate < TIMESTAMP '{date}'
    AND o_custkey IN (SELECT c_custkey FROM customer
                      WHERE c_mktsegment = '{segment}')),
g AS (
  SELECT l.l_orderkey, o.o_orderdate_us, o.o_orderpriority,
         sum({rev})::BIGINT AS revenue_e4
  FROM lineitem l JOIN o ON l.l_orderkey = o.o_orderkey
  WHERE l.l_shipdate > TIMESTAMP '{date}'
  GROUP BY 1, 2, 3)
SELECT CAST(row_number() OVER (ORDER BY revenue_e4 DESC, o_orderdate_us,
                               l_orderkey) AS BIGINT) AS rnk,
       l_orderkey, o_orderdate_us, o_orderpriority, revenue_e4
FROM g ORDER BY rnk LIMIT {n}
"""


Q5_REGION = "ASIA"
Q5_LO = "1996-01-01 00:00:00"
Q5_HI = "1999-01-01 00:00:00"


def local_supplier_revenue(lineitem: "ray.data.Dataset",
                           orders: "ray.data.Dataset",
                           customer: "ray.data.Dataset",
                           supplier: "ray.data.Dataset",
                           nation: "ray.data.Dataset",
                           region: "ray.data.Dataset",
                           region_name: str = Q5_REGION,
                           date_lo: str = Q5_LO,
                           date_hi: str = Q5_HI) -> "ray.data.Dataset":
    """TPC-H Q5 shape: revenue per nation from orders in ``region`` within
    a date range where the lineitem's SUPPLIER sits in the CUSTOMER's
    nation. Columns: n_name, n_rows, revenue_e4.

    Scale plan — exactly ONE big exchange pattern, everything else
    broadcast:
      * nation ⋈ region resolves on the driver (≤ |nations| rows by
        schema — a bounded dimension, not data);
      * supplier broadcasts as two sorted int64 arrays via ``ray.put``
        (TPC-H supplier is SF×10k rows ⇒ ~1.6 MB at SF=100; above the
        broadcast threshold it would route through ``equi_join`` exactly
        like customer below) and lineitem resolves s_nationkey with a
        vectorized searchsorted INSIDE map_batches — no shuffle;
      * customer (the largest dimension) joins orders through the
        distributed hash ``equi_join``; the joined id-width rows then
        join the pre-filtered, pre-projected lineitem side on orderkey.
    Every exchanged row is id-width (orderkey, nationkey, revenue).
    """
    from searchengine_ray.pipelines.common import grouped_aggregate
    from searchengine_ray.pipelines.join import equi_join

    lo_us, hi_us = _ts_us(date_lo), _ts_us(date_hi)

    # bounded dimension resolution (≤ |nations| + |regions| rows total)
    rkeys = {r["r_regionkey"] for r in region.take_all()
             if r["r_name"] == region_name}
    nat_name = {int(r["n_nationkey"]): r["n_name"]
                for r in nation.take_all()
                if int(r["n_regionkey"]) in rkeys}
    nat_keys = np.array(sorted(nat_name), dtype=np.int64)
    if not nat_keys.size:
        # no nation in the region: nothing qualifies, and an aggregate
        # over zero rows would come back without a schema
        return ray.data.from_arrow(pa.schema([
            ("n_name", pa.string()), ("n_rows", pa.int64()),
            ("revenue_e4", pa.int64())]).empty_table())

    sup = supplier.take_all()   # SF×10k — the documented broadcast side
    sk = np.array([int(r["s_suppkey"]) for r in sup], dtype=np.int64)
    sn = np.array([int(r["s_nationkey"]) for r in sup], dtype=np.int64)
    o = np.argsort(sk)
    sup_ref = ray.put((sk[o], sn[o]))

    def prep_orders(batch: pa.Table) -> pa.Table:
        od = pc.cast(batch["o_orderdate"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        t = pa.table({
            "o_custkey": pc.cast(batch["o_custkey"], pa.int64()),
            "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
        })
        return t.filter(pa.array((od >= lo_us) & (od < hi_us)))

    def prep_cust(batch: pa.Table) -> pa.Table:
        cn = pc.cast(batch["c_nationkey"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        t = pa.table({
            "c_custkey": pc.cast(batch["c_custkey"], pa.int64()),
            "c_nationkey": pa.array(cn),
        })
        return t.filter(pa.array(np.isin(cn, nat_keys)))

    def prep_line(batch: pa.Table) -> pa.Table:
        keys, nats = ray.get(sup_ref)
        lsk = pc.cast(batch["l_suppkey"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, lsk)
        pos = np.clip(pos, 0, len(keys) - 1)
        found = keys[pos] == lsk
        s_nat = np.where(found, nats[pos], -1)
        keep = np.isin(s_nat, nat_keys)
        rev = _cents(batch["l_extendedprice"]) \
            * (100 - _cents(batch["l_discount"]))
        t = pa.table({
            "l_orderkey": pc.cast(batch["l_orderkey"], pa.int64()),
            "s_nationkey": pa.array(s_nat),
            "rev_e4": pa.array(rev),
        })
        return t.filter(pa.array(keep))

    ordsel = orders.map_batches(prep_orders, batch_format="pyarrow")
    custsel = customer.map_batches(prep_cust, batch_format="pyarrow")
    # orders ⋈ customer (distributed): (key=custkey, o_orderkey, c_nationkey)
    # pinned: a union branch of the fact join must not carry its own
    # shuffle; static prep_* schemas skip the schema probes
    oc = equi_join(ordsel, custsel, "o_custkey", "c_custkey",
                   ["o_orderkey"], ["c_nationkey"],
                   left_schema=_Q5_ORDERS,
                   right_schema=_Q5_CUST).materialize()
    linesel = lineitem.map_batches(prep_line, batch_format="pyarrow")
    joined = equi_join(linesel, oc, "l_orderkey", "o_orderkey",
                       ["s_nationkey", "rev_e4"], ["c_nationkey"],
                       left_schema=_Q5_LINE)

    def partial(batch: pa.Table) -> pa.Table:
        sn_ = pc.cast(batch["s_nationkey"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        cn_ = pc.cast(batch["c_nationkey"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(sn_ == cn_))
        g = (pa.table({
                "nk": pc.cast(t["s_nationkey"], pa.int64()),
                "n": pa.array(np.ones(len(t), dtype=np.int64)),
                "v": pc.cast(t["rev_e4"], pa.int64()),
             }).group_by(["nk"], use_threads=False)
               .aggregate([("n", "sum"), ("v", "sum")]))
        return g.rename_columns(["nk", "n", "v"])

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["nk"], use_threads=False)
             .aggregate([("n", "sum"), ("v", "sum")]))
        nk = pc.cast(g["nk"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "n_name": pa.array([nat_name[int(k)] for k in nk],
                               type=pa.string()),
            "n_rows": pc.cast(g["n_sum"], pa.int64()),
            "revenue_e4": pc.cast(g["v_sum"], pa.int64()),
        })

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["nk"], final)


def sql_local_supplier_revenue(region_name: str = Q5_REGION,
                               date_lo: str = Q5_LO,
                               date_hi: str = Q5_HI) -> str:
    rev = ("CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) * "
           "(100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT))")
    return f"""
SELECT n_name, count(*)::BIGINT AS n_rows, sum({rev})::BIGINT AS revenue_e4
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
JOIN region ON r_regionkey = n_regionkey
WHERE c_nationkey = s_nationkey AND r_name = '{region_name}'
  AND o_orderdate >= TIMESTAMP '{date_lo}'
  AND o_orderdate < TIMESTAMP '{date_hi}'
GROUP BY n_name
"""


Q18_MIN_QTY = 150


def large_orders(lineitem: "ray.data.Dataset",
                 orders: "ray.data.Dataset",
                 customer: "ray.data.Dataset",
                 min_qty: int = Q18_MIN_QTY) -> "ray.data.Dataset":
    """TPC-H Q18 shape: orders whose TOTAL lineitem quantity exceeds
    ``min_qty``, joined back to orders and customer for display columns —
    the aggregate→HAVING→join-back composition (a grouped aggregate
    produced mid-pipeline feeds further joins, not the driver).

    Columns: c_name, o_orderkey, o_orderdate_us, sum_qty.

    Plan: per-batch combiner sums quantity by orderkey (id-width
    partials), ``grouped_aggregate`` finishes and applies the HAVING
    filter INSIDE the partition task (the qualifying set never touches
    the driver), then two distributed hash joins attach order columns
    and the customer name. All exchanged rows are id-width.
    """
    from searchengine_ray.pipelines.common import grouped_aggregate
    from searchengine_ray.pipelines.join import equi_join

    def partial(batch: pa.Table) -> pa.Table:
        qty = pc.cast(batch["l_quantity"], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        t = pa.table({
            "l_orderkey": pc.cast(batch["l_orderkey"], pa.int64()),
            "q": pa.array(np.floor(qty + 0.5).astype(np.int64)),
        })
        g = t.group_by(["l_orderkey"], use_threads=False) \
             .aggregate([("q", "sum")])
        return g.rename_columns(["l_orderkey", "q"])

    def final(part: pa.Table) -> pa.Table:
        g = part.group_by(["l_orderkey"], use_threads=False) \
                .aggregate([("q", "sum")])
        q = pc.cast(g["q_sum"], pa.int64()).to_numpy(zero_copy_only=False)
        t = pa.table({
            "l_orderkey": pc.cast(g["l_orderkey"], pa.int64()),
            "sum_qty": pa.array(q),
        })
        return t.filter(pa.array(q > min_qty))     # HAVING, in-task

    def prep_orders(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
            "o_custkey": pc.cast(batch["o_custkey"], pa.int64()),
            "o_orderdate_us": pc.cast(batch["o_orderdate"], pa.int64()),
        })

    def prep_cust(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.cast(batch["c_custkey"], pa.int64()),
            "c_name": pc.cast(batch["c_name"], pa.string()),
        })

    partials = lineitem.map_batches(partial, batch_format="pyarrow")
    # pinned: a union branch of the next join must not carry its own
    # shuffle; static prep_* schemas skip the joins' schema probes
    qualifying = grouped_aggregate(partials, ["l_orderkey"],
                                   final).materialize()
    ordsel = orders.map_batches(prep_orders, batch_format="pyarrow")
    with_orders = equi_join(qualifying, ordsel,
                            "l_orderkey", "o_orderkey",
                            ["sum_qty"], ["o_custkey", "o_orderdate_us"],
                            right_schema=_Q18_ORDERS)

    def rekey(batch: pa.Table) -> pa.Table:
        # the first join's key column IS the orderkey; give it its
        # public name before it rides the second join as payload
        return batch.rename_columns(
            ["o_orderkey" if c == "key" else c
             for c in batch.column_names])

    custsel = customer.map_batches(prep_cust, batch_format="pyarrow")
    joined = equi_join(with_orders.map_batches(
                           rekey, batch_format="pyarrow").materialize(),
                       custsel, "o_custkey", "c_custkey",
                       ["o_orderkey", "sum_qty", "o_orderdate_us"],
                       ["c_name"], right_schema=_Q18_CUST)

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_name": pc.cast(batch["c_name"], pa.string()),
            "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
            "o_orderdate_us": pc.cast(batch["o_orderdate_us"], pa.int64()),
            "sum_qty": pc.cast(batch["sum_qty"], pa.int64()),
        })

    return joined.map_batches(shape, batch_format="pyarrow")


def sql_large_orders(min_qty: int = Q18_MIN_QTY) -> str:
    return f"""
WITH q AS (
  SELECT l_orderkey, sum(CAST(floor(l_quantity + 0.5) AS BIGINT))::BIGINT
           AS sum_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) > {min_qty})
SELECT c_name, o_orderkey, epoch_us(o_orderdate) AS o_orderdate_us,
       q.sum_qty
FROM q JOIN orders ON o_orderkey = q.l_orderkey
JOIN customer ON c_custkey = o_custkey
"""


def promo_revenue_by_month(lineitem: "ray.data.Dataset",
                           part: "ray.data.Dataset",
                           promo_type: str = "PROMO"
                           ) -> "ray.data.Dataset":
    """TPC-H Q14 shape: per ship-month promo vs total revenue — the
    broadcast-dimension CONDITIONAL aggregate. Columns: month_us
    (month-start epoch µs), n_rows, promo_rev_e4, total_rev_e4 (the
    promo share is the caller's division — emitting both integer sums
    keeps the entry hash-exact instead of float-rounded).

    part broadcasts as a sorted (p_partkey, is_promo) pair of arrays
    (TPC-H part is SF×200k rows ⇒ ~3 MB at SF=100; larger catalogs
    route through ``equi_join``); lineitem resolves the flag with a
    searchsorted INSIDE map_batches and pre-aggregates per month, so
    the only exchange is |months| digest rows per batch.
    """
    from searchengine_ray.pipelines.common import grouped_aggregate

    rows = part.take_all()   # the documented broadcast side
    pk = np.array([int(r["p_partkey"]) for r in rows], dtype=np.int64)
    promo = np.array([r["p_type"] == promo_type for r in rows],
                     dtype=bool)
    o = np.argsort(pk)
    part_ref = ray.put((pk[o], promo[o]))

    def partial(batch: pa.Table) -> pa.Table:
        keys, flags = ray.get(part_ref)
        lpk = pc.cast(batch["l_partkey"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, lpk), 0, len(keys) - 1)
        is_promo = (keys[pos] == lpk) & flags[pos]
        ship = pc.cast(batch["l_shipdate"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        month = (ship.astype("datetime64[us]").astype("datetime64[M]")
                 .astype("datetime64[us]").astype(np.int64))
        rev = _cents(batch["l_extendedprice"]) \
            * (100 - _cents(batch["l_discount"]))
        t = pa.table({
            "month_us": pa.array(month),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "p": pa.array(np.where(is_promo, rev, 0)),
            "v": pa.array(rev),
        })
        return (t.group_by(["month_us"], use_threads=False)
                 .aggregate([("n", "sum"), ("p", "sum"), ("v", "sum")])
                 .rename_columns(["month_us", "n", "p", "v"]))

    def final(partn: pa.Table) -> pa.Table:
        g = (partn.group_by(["month_us"], use_threads=False)
             .aggregate([("n", "sum"), ("p", "sum"), ("v", "sum")]))
        return pa.table({
            "month_us": pc.cast(g["month_us"], pa.int64()),
            "n_rows": pc.cast(g["n_sum"], pa.int64()),
            "promo_rev_e4": pc.cast(g["p_sum"], pa.int64()),
            "total_rev_e4": pc.cast(g["v_sum"], pa.int64()),
        })

    partials = lineitem.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["month_us"], final)


def sql_promo_revenue_by_month(promo_type: str = "PROMO") -> str:
    rev = ("CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) * "
           "(100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT))")
    return f"""
SELECT epoch_us(date_trunc('month', l_shipdate)) AS month_us,
       count(*)::BIGINT AS n_rows,
       sum(CASE WHEN p_type = '{promo_type}' THEN {rev} ELSE 0 END)::BIGINT
         AS promo_rev_e4,
       sum({rev})::BIGINT AS total_rev_e4
FROM lineitem JOIN part ON p_partkey = l_partkey
GROUP BY 1
"""


def supplier_variety(lineitem: "ray.data.Dataset",
                     part: "ray.data.Dataset") -> "ray.data.Dataset":
    """TPC-H Q16 shape: per (p_brand, p_size), the number of DISTINCT
    suppliers that shipped such parts — grouped COUNT DISTINCT after a
    broadcast-dimension enrichment. Columns: p_brand, p_size,
    n_suppliers.

    Combiner cascade (the events.distinct_users_exact discipline):
    each batch resolves (brand, size) via the broadcast part arrays and
    emits its DISTINCT (brand, size, suppkey) triples; a triple-keyed
    ``grouped_aggregate`` finishes the global dedup — every surviving
    triple exists exactly once, so its partition emits per-(brand, size)
    partial counts — and one tiny (brand, size) reduce sums them. Raw
    lineitem rows never shuffle; only distinct triples do.
    """
    from searchengine_ray.pipelines.common import grouped_aggregate

    rows = part.take_all()   # the documented broadcast side (SF×200k)
    pk = np.array([int(r["p_partkey"]) for r in rows], dtype=np.int64)
    brands = sorted({r["p_brand"] for r in rows})
    bcode = {b: i for i, b in enumerate(brands)}
    bidx = np.array([bcode[r["p_brand"]] for r in rows], dtype=np.int64)
    psize = np.array([int(r["p_size"]) for r in rows], dtype=np.int64)
    o = np.argsort(pk)
    ref = ray.put((pk[o], bidx[o], psize[o], np.array(brands)))

    def partial(batch: pa.Table) -> pa.Table:
        keys, bi, sz, bnames = ray.get(ref)
        lpk = pc.cast(batch["l_partkey"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, lpk), 0, len(keys) - 1)
        found = keys[pos] == lpk
        t = pa.table({
            "p_brand": pa.array(bnames[bi[pos]]),
            "p_size": pa.array(sz[pos]),
            "l_suppkey": pc.cast(batch["l_suppkey"], pa.int64()),
        }).filter(pa.array(found))
        return t.group_by(["p_brand", "p_size", "l_suppkey"],
                          use_threads=False).aggregate([])

    def dedup_and_count(part_t: pa.Table) -> pa.Table:
        d = part_t.group_by(["p_brand", "p_size", "l_suppkey"],
                            use_threads=False).aggregate([])
        g = (d.group_by(["p_brand", "p_size"], use_threads=False)
             .aggregate([([], "count_all")]))
        return pa.table({"p_brand": g["p_brand"],
                         "p_size": pc.cast(g["p_size"], pa.int64()),
                         "pn": pc.cast(g["count_all"], pa.int64())})

    def final(part_t: pa.Table) -> pa.Table:
        g = (part_t.group_by(["p_brand", "p_size"], use_threads=False)
             .aggregate([("pn", "sum")]))
        return pa.table({
            "p_brand": pc.cast(g["p_brand"], pa.string()),
            "p_size": pc.cast(g["p_size"], pa.int64()),
            "n_suppliers": pc.cast(g["pn_sum"], pa.int64()),
        })

    partials = lineitem.map_batches(partial, batch_format="pyarrow")
    triples = grouped_aggregate(partials,
                                ["p_brand", "p_size", "l_suppkey"],
                                dedup_and_count)
    return grouped_aggregate(triples, ["p_brand", "p_size"], final)


def sql_supplier_variety() -> str:
    return """
SELECT p_brand, p_size::BIGINT AS p_size,
       count(DISTINCT l_suppkey)::BIGINT AS n_suppliers
FROM lineitem JOIN part ON p_partkey = l_partkey
GROUP BY p_brand, p_size
"""


Q6_LO = "1997-01-01 00:00:00"
Q6_HI = "1998-01-01 00:00:00"


def revenue_delta(sf_dir: str, date_lo: str = Q6_LO, date_hi: str = Q6_HI,
                  disc_lo: int = 3, disc_hi: int = 7,
                  max_qty: int = 24) -> "ray.data.Dataset":
    """TPC-H Q6 shape: forecast-revenue-change — Σ price·discount over a
    narrow predicate slice. Column: one row, revenue_delta_e4 (int64 =
    Σ cents·disc%). The simplest warehouse shape, included to pin the
    READ-side discipline: the predicate pushes into ``read_parquet``
    as a pyarrow dataset filter (row-group pruning at the scan — rows
    outside the slice never enter the object store) and only the four
    touched columns are read; the residual exact filter re-applies
    per batch (pushdown is row-group-granular, not row-exact).
    """
    import pyarrow.dataset as pads
    from searchengine_ray.pipelines.common import grouped_aggregate

    lo_us, hi_us = _ts_us(date_lo), _ts_us(date_hi)
    expr = ((pads.field("l_shipdate")
             >= pa.scalar(lo_us, type=pa.timestamp("us")))
            & (pads.field("l_shipdate")
               < pa.scalar(hi_us, type=pa.timestamp("us")))
            & (pads.field("l_quantity") < max_qty))
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate", "l_quantity", "l_extendedprice",
                 "l_discount"],
        filter=expr)

    def partial(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch["l_shipdate"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        qty = pc.cast(batch["l_quantity"], pa.float64()) \
            .to_numpy(zero_copy_only=False)
        disc = _cents(batch["l_discount"])
        keep = ((ship >= lo_us) & (ship < hi_us) & (qty < max_qty)
                & (disc >= disc_lo) & (disc <= disc_hi))
        rev = _cents(batch["l_extendedprice"]) * disc
        t = pa.table({
            "k": pa.array(np.zeros(int(keep.sum()), dtype=np.int64)),
            "v": pa.array(rev[keep]),
        })
        return t.group_by(["k"], use_threads=False) \
                .aggregate([("v", "sum")]).rename_columns(["k", "v"])

    def final(part: pa.Table) -> pa.Table:
        g = part.group_by(["k"], use_threads=False).aggregate([("v", "sum")])
        return pa.table({"revenue_delta_e4": pc.cast(g["v_sum"],
                                                     pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["k"], final)


def sql_revenue_delta(date_lo: str = Q6_LO, date_hi: str = Q6_HI,
                      disc_lo: int = 3, disc_hi: int = 7,
                      max_qty: int = 24) -> str:
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    return f"""
SELECT sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) * {d})::BIGINT
         AS revenue_delta_e4
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{date_lo}'
  AND l_shipdate < TIMESTAMP '{date_hi}'
  AND l_quantity < {max_qty}
  AND {d} BETWEEN {disc_lo} AND {disc_hi}
"""


PROFILE_COLS = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")


def profile_numeric(ds: "ray.data.Dataset",
                    cols: tuple[str, ...] = PROFILE_COLS
                    ) -> "ray.data.Dataset":
    """DATA PROFILING (``describe()``): per numeric column min / max /
    null count / row count in one streaming pass — the ingest-time data
    card every warehouse emits. Columns: column, min_c, max_c, n_nulls,
    n_rows (values as half-up integer cents so the digest is exact).

    Each batch emits one |cols|-row partial; a single tiny reduce
    combines (min of mins, max of maxes, sums) — nothing else moves.
    """
    from searchengine_ray.pipelines.common import grouped_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        names, mins, maxs, nulls, rows = [], [], [], [], []
        for c in cols:
            col = batch[c]
            nn = int(col.null_count)
            x = pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)
            x = x[~np.isnan(x)] if nn else x
            vc = np.floor(x * 100.0 + 0.5).astype(np.int64)
            names.append(c)
            mins.append(int(vc.min()) if vc.size else np.iinfo(np.int64).max)
            maxs.append(int(vc.max()) if vc.size else np.iinfo(np.int64).min)
            nulls.append(nn)
            rows.append(len(batch))
        return pa.table({
            "column": pa.array(names, type=pa.string()),
            "mn": pa.array(mins, type=pa.int64()),
            "mx": pa.array(maxs, type=pa.int64()),
            "nu": pa.array(nulls, type=pa.int64()),
            "n": pa.array(rows, type=pa.int64()),
        })

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["column"], use_threads=False)
             .aggregate([("mn", "min"), ("mx", "max"),
                         ("nu", "sum"), ("n", "sum")]))
        # a column that was entirely null/empty still carries the
        # identity sentinels after the combine — emit NULL like the SQL
        # oracle's min()/max() over zero values (round-4 advice)
        mn = g["mn_min"].to_numpy(zero_copy_only=False)
        mx = g["mx_max"].to_numpy(zero_copy_only=False)
        imax, imin = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        return pa.table({
            "column": pc.cast(g["column"], pa.string()),
            "min_c": pa.array([None if v == imax else int(v) for v in mn],
                              type=pa.int64()),
            "max_c": pa.array([None if v == imin else int(v) for v in mx],
                              type=pa.int64()),
            "n_nulls": pc.cast(g["nu_sum"], pa.int64()),
            "n_rows": pc.cast(g["n_sum"], pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["column"], final)


def sql_profile_numeric(cols: tuple[str, ...] = PROFILE_COLS) -> str:
    c_exp = "CAST(floor({c} * 100 + 0.5) AS BIGINT)"
    selects = [
        f"SELECT '{c}' AS column, min({c_exp.format(c=c)})::BIGINT AS min_c,"
        f" max({c_exp.format(c=c)})::BIGINT AS max_c,"
        f" (count(*) - count({c}))::BIGINT AS n_nulls,"
        f" count(*)::BIGINT AS n_rows FROM lineitem"
        for c in cols]
    return " UNION ALL ".join(selects)
