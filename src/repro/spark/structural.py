"""Phase P1, distributed: structural matching as a Catalyst join plan.

The motif's spanning path is unrolled into a chain of self-joins over an
edge table of G_T: one join per motif edge, whose condition carries the
equality where the path revisits a bound node and the inequalities that
enforce the bijection of Definition 3.2 (distinct motif nodes map to
distinct graph vertices). Over the distinct-pair table this is Table 4's P1;
over the time-series graph the same chain carries every motif edge's series
for P2 and can prune matches that cannot fit in delta. Broadcast joins are
disabled session-wide (conftest), so this exercises Spark's shuffle-join
path.

``matches_sql`` emits the equivalent SQL text, which tests run on DuckDB via
``repro.oracle.assert_equivalent`` — the same plan checked by an independent
engine — and which also cross-checks the pure-Python DFS matcher.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core.motif import Motif


def sql_double(x: float) -> str:
    """``x`` as a Spark SQL literal of the exact same double."""
    return f"{float(x)!r}D"  # repr round-trips; D: double, not decimal


def node_columns(motif: Motif) -> list[str]:
    """Output column names v0..v{n-1}, one per distinct motif node."""
    return [f"v{i}" for i in range(motif.n_nodes)]


def instance_schema(motif: Motif) -> StructType:
    """The instance row of both engines (``search.find_instances`` and
    ``join_baseline.find_instances_join``).

    Columns: the match binding ``v0..v{n-1}`` (long); then, per motif edge
    i, its edge-set's first and last timestamps ``ts{i}``/``te{i}`` and its
    flow ``f{i}``; then Equation 1's ``flow`` and the span
    ``t_start``/``t_end`` (doubles).
    """
    doubles = [c for i in range(motif.m) for c in (f"ts{i}", f"te{i}", f"f{i}")]
    return StructType(
        [StructField(c, LongType()) for c in node_columns(motif)]
        + [StructField(c, DoubleType()) for c in doubles + ["flow", "t_start", "t_end"]]
    )


def structural_matches_df(
    table: DataFrame, motif: Motif, *, delta: float | None = None
) -> DataFrame:
    """All structural matches of ``motif`` over a G_T edge table.

    ``table`` has ``src``/``dst`` plus any other columns, e.g. the
    distinct-pair table (no others) or the time-series graph (``ts``/``fs``).
    Returns one row per match: ``v0..v{n-1}`` — the graph vertex bound to
    each motif node (canonical numbering) — then every other column ``c``
    of ``table`` once per motif edge i, as ``c{i}``.

    With ``delta``, the table must carry the sorted series ``ts``, and each
    join along the path also requires some element x of ``ts{i}`` and y of
    ``ts{i-1}`` with ``x > y`` and ``x - y <= delta``. Every instance's last
    element of edge-set i-1 and first of edge-set i form such a pair
    (DESIGN.md § 2.1), so this drops only matches, and partial matches,
    that hold no instance.
    """
    path = motif.path
    extra = [c for c in table.columns if c not in ("src", "dst")]

    # Columns and conditions are SQL text: every Column call is a round trip
    # to the JVM, and a query would otherwise spend tens of milliseconds
    # building them.
    def step(i: int) -> DataFrame:
        return table.selectExpr(
            f"src AS _s{i}", f"dst AS _d{i}", *[f"`{c}` AS `{c}{i}`" for c in extra]
        )

    # motif node -> the step column that first bound it
    bound = {path[0]: "_s0", path[1]: "_d0"}
    out = step(0).filter("_s0 <> _d0")
    for i in range(1, motif.m):
        a, b = path[i], path[i + 1]
        cond = [f"{bound[a]} = _s{i}"]
        if b in bound:
            cond.append(f"_d{i} = {bound[b]}")
        else:  # Definition 3.2's bijection
            cond += [f"_d{i} <> {c}" for c in bound.values()]
            bound[b] = f"_d{i}"
        if delta is not None:
            d = sql_double(delta)
            cond.append(
                f"exists(ts{i}, x -> exists(ts{i - 1}, y -> x > y AND x - y <= {d}))"
            )
        out = out.join(step(i), on=F.expr(" AND ".join(cond)), how="inner")
    return out.selectExpr(
        *[f"{bound[k]} AS {v}" for k, v in enumerate(node_columns(motif))],
        *[f"`{c}{i}`" for i in range(motif.m) for c in extra],
    )


def matches_sql(motif: Motif, table: str = "pairs") -> str:
    """SQL equivalent of :func:`structural_matches_df` (DuckDB oracle)."""
    froms = ", ".join(f"{table} e{k}" for k in range(motif.m))
    # Bind v_i from the first edge that touches it, via a lateral-style
    # projection: simpler to express by projecting from e0..e{m-1} directly.
    select_parts: list[str] = []
    seen: set[int] = set()
    for k, (a, b) in enumerate(motif.edges):
        if a not in seen:
            select_parts.append(f"e{k}.src AS v{a}")
            seen.add(a)
        if b not in seen:
            select_parts.append(f"e{k}.dst AS v{b}")
            seen.add(b)
    join_conds: list[str] = []
    # Consecutive edges chain head-to-tail; revisits force equality with the
    # edge that first bound the node.
    first_bind: dict[int, str] = {}
    for k, (a, b) in enumerate(motif.edges):
        for node, col in ((a, f"e{k}.src"), (b, f"e{k}.dst")):
            if node in first_bind:
                join_conds.append(f"{col} = {first_bind[node]}")
            else:
                first_bind[node] = col
    distinct = [
        f"v{i} <> v{j}"
        for i in range(motif.n_nodes)
        for j in range(i + 1, motif.n_nodes)
    ]
    inner = (
        f"SELECT {', '.join(select_parts)} FROM {froms} "
        f"WHERE {' AND '.join(join_conds) if join_conds else 'TRUE'}"
    )
    return (
        f"SELECT * FROM ({inner}) v "
        f"WHERE {' AND '.join(distinct) if distinct else 'TRUE'}"
    )
