"""The curation benchmark: one simulated curator, closed loop, wall clock.

A run repeats *passes* until ``--seconds`` have gone by.  A pass builds
the system afresh, replays the workload's set-up history (both timed as
``setup_s``) and runs the timed session.  Every pass of a run executes
the same operations, so counts and byte figures repeat exactly, and
latencies are pooled over the passes (:class:`Pooled`).  Correctness
checks run once, after the last pass, on that pass's outputs
(:mod:`perfbench.checks`).
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.editor import CurationEditor
from repro.core.provenance import ProvTable
from repro.core.queries import ProvenanceQueries
from repro.core.stores import make_store
from repro.core.txnlog import TransactionLog, who_modified
from repro.storage.db import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.types import ColumnType
from repro.wrappers.relational import RelationalSourceDB
from repro.wrappers.xml import XMLTargetDB
from repro.xmldb import axes
from repro.xmldb.store import XMLDatabase
from repro.xmldb.xpath import XPath

from .inputs import SQL_STATEMENTS, Inputs
from .trace import Tracer

KINDS = ("edit", "commit", "read", "query", "sql")

PROTEIN_SCHEMA = TableSchema(
    "protein",
    [
        Column("id", ColumnType.TEXT, nullable=False),
        Column("name", ColumnType.TEXT, nullable=False),
        Column("organism", ColumnType.TEXT, nullable=False),
        Column("localization", ColumnType.TEXT, nullable=False),
    ],
    primary_key=("id",),
)


class System:
    """The durable CPDB configuration: XML target, relational source, HT
    store over ``ProvTable`` in a WAL-backed database, and a
    ``TransactionLog`` in the same database (fsync at every commit)."""

    def __init__(self, inputs: Inputs, wal_dir: str) -> None:
        self.wal_dir = wal_dir
        self.xml = XMLDatabase("mimi")
        self.xml.load_tree(inputs.target)
        self.source_db = Database("organelledb")
        self.source_db.create_table(PROTEIN_SCHEMA)
        self.source_db.insert_many("protein", inputs.protein_rows)
        self.db = Database("provstore", wal_dir=wal_dir)
        self.table = ProvTable(db=self.db)
        self.log = TransactionLog(self.table)
        self.store = make_store("HT", self.table)
        self.target = XMLTargetDB("T", self.xml)
        self.source = RelationalSourceDB("S", self.source_db)
        self.editor = CurationEditor(self.target, [self.source], self.store, txn_log=self.log)
        self.evaluate_xpath = axes.evaluate_xpath
        self.who_modified = who_modified
        self.tracer: Optional[Tracer] = None
        self._queries: Optional[ProvenanceQueries] = None

    # -- the five operation kinds -----------------------------------------
    def edit(self, update) -> None:
        self.editor.apply(update)

    def commit(self) -> int:
        self._queries = None  # answers are asked as of the latest commit
        return self.editor.commit()

    def read(self, expression: str) -> list:
        return self.evaluate_xpath(self.xml, XPath(expression))

    def query(self, kind: str, loc):
        if self._queries is None:
            self._queries = ProvenanceQueries(self.store)
            if self.tracer is not None:
                self.tracer.wrap(self._queries, "queries", ("get_src", "get_hist", "get_mod", "trace", "effective"))
        queries = self._queries
        if kind == "src":
            return queries.get_src(loc)
        if kind == "hist":
            return queries.get_hist(loc)
        if kind == "mod":
            return queries.get_mod(loc)
        return self.who_modified(queries, self.log, loc)

    def sql(self, index: int, params: tuple) -> list:
        statement = self.db.prepare(SQL_STATEMENTS[index])
        if self.tracer is not None:
            self.tracer.wrap(statement, "sql", ("execute",))
        return statement.execute(params)

    def run(self, op: tuple):
        kind = op[0]
        if kind == "edit":
            return self.edit(op[1])
        if kind == "commit":
            return self.commit()
        if kind == "read":
            return self.read(op[1])
        if kind == "query":
            return self.query(op[1], op[2])
        return self.sql(op[1], op[2])

    # -- measurements ------------------------------------------------------
    def wal_bytes(self) -> int:
        return sum(entry.stat().st_size for entry in os.scandir(self.wal_dir) if entry.is_file())

    def counters(self) -> Dict[str, int]:
        out = {f"xml.{key}": value for key, value in self.xml.access_counts.items()}
        cache = self.db.plan_cache.counters
        out["plan.hits"] = cache["hits"] + cache["shape_hits"]
        if self.tracer is not None:
            out["rows_examined"] = self.tracer.rows_examined
        return out

    def instrument(self, tracer: Tracer) -> None:
        """Wrap the public methods of every object this pass built."""
        self.tracer = tracer
        tracer.wrap(self.editor, "editor", ("insert", "delete", "copy_paste", "commit"))
        tracer.wrap(self.target, "wrappers", ("add_node", "delete_node", "paste_node", "copy_node"))
        tracer.wrap(self.source, "source", ("copy_node",))
        tracer.wrap(self.xml, "xmldb", ("add_node", "delete_node", "paste_node", "subtree"))
        self.evaluate_xpath = tracer.wrap_function(axes.evaluate_xpath, "evaluate_xpath", "xmldb")
        tracer.wrap(self.store, "store", ("begin", "commit", "track_insert", "track_delete", "track_copy"))
        tracer.wrap(
            self.table,
            "provtable",
            (
                "write_batch", "write_statement", "record_at", "records_for_tid", "records_at_loc",
                "records_under", "records_at_locs", "all_records", "max_tid",
            ),
        )
        self.who_modified = tracer.wrap_function(who_modified, "who_modified", "queries")
        tracer.wrap(self.log, "txnlog", ("record_commit", "info"))
        tracer.wrap(self.db, "storage", ("begin", "commit", "insert", "insert_many", "execute", "plan", "prepare"))
        for name in ("prov", "txn"):
            tracer.count_rows(
                self.db.table(name),
                ("scan", "lookup_pk", "lookup_index", "prefix_scan", "range_scan", "multi_range_scan"),
            )


@dataclass
class PassResult:
    tracer: Optional[Tracer]  # the spans, while a run still needs them
    layers: Optional[Dict[str, dict]]  # Tracer.summary() of a traced pass
    build_s: float  # building the system, before the set-up history
    #: per phase, each operation's latency in operation order (inf if it failed)
    latencies: Dict[str, List[float]]
    attempted: Dict[str, int]
    failed: Dict[str, int]
    counts: Dict[str, float]
    outputs: Dict[tuple, object] = field(default_factory=dict)


def run_pass(inputs: Inputs, work_dir: str, traced: bool = False, keep=None) -> "tuple[PassResult, System]":
    """One pass: build, replay the set-up history, run the timed session.

    ``keep(phase, index, op)`` selects the operations whose outputs are
    kept for the correctness checks."""
    latencies: Dict[str, List[float]] = {}
    attempted = dict.fromkeys(KINDS, 0)
    failed = dict.fromkeys(KINDS, 0)
    outputs: Dict[tuple, object] = {}
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=work_dir)
    gc.collect()  # the previous pass's garbage is not this set-up's cost
    started = perf_counter()
    system = System(inputs, wal_dir)
    build_s = perf_counter() - started
    tracer = None
    if traced:
        tracer = Tracer(system.counters)
        system.instrument(tracer)

    def execute(phase: str, ops: List[tuple]) -> None:
        run = system.run if tracer is None else (lambda op: tracer.root(op[0], system.run, op))
        times = latencies[phase] = []
        for index, op in enumerate(ops):
            kind = op[0]
            attempted[kind] += 1
            begin = perf_counter()
            try:
                result = run(op)
            except Exception as exc:  # counted, and reported by kind
                times.append(math.inf)
                failed[kind] += 1
                outputs[(phase, index)] = exc
                continue
            times.append(perf_counter() - begin)
            if keep is not None and keep(phase, index, op):
                outputs[(phase, index)] = result

    execute("setup", inputs.setup_ops)
    gc.collect()
    execute("session", inputs.session_ops)
    counts = {
        "prov_bytes": system.table.byte_size,
        "prov_rows": system.table.row_count,
        "wal_bytes": system.wal_bytes(),
        "edits": attempted["edit"],
        "commits": attempted["commit"],
        "renumbers": system.xml.access_counts["renumber"],
    }
    layers = tracer.summary() if tracer is not None else None
    result = PassResult(tracer, layers, build_s, latencies, attempted, failed, counts, outputs)
    return result, system


def close(system: System) -> None:
    """Remove the pass's WAL directory."""
    shutil.rmtree(system.wal_dir, ignore_errors=True)


class Pooled:
    """Every edit and commit latency of a run's passes, pooled by kind
    (reads, queries and statements show in ``ops_per_s`` and, split by
    layer, in the traced run).  Every pass runs the same operations, so
    a median over the pool is a median over the same operations sampled
    at as many moments as there were passes; work the program does on
    every pass (renumbers, GC, fsyncs) stays in it."""

    def __init__(self) -> None:
        self.by_kind: Dict[str, array] = {"edit": array("d"), "commit": array("d")}
        self.setup_s: List[float] = []  # per pass: building plus the set-up history
        self.session_s: List[float] = []  # per pass: the session's operations, commits included

    def add(self, inputs: Inputs, result: PassResult) -> None:
        for phase, ops in inputs.phases():
            for op, latency in zip(ops, result.latencies[phase]):
                if op[0] in self.by_kind and latency != math.inf:  # failed operations are left out
                    self.by_kind[op[0]].append(latency)
        self.setup_s.append(result.build_s + _total(result.latencies["setup"]))
        self.session_s.append(_total(result.latencies["session"]))


def _total(latencies: List[float]) -> float:
    return math.fsum(t for t in latencies if t != math.inf)


def session_ops(inputs: Inputs) -> int:
    """Edits, reads, queries and statements in the timed phase."""
    return sum(1 for op in inputs.session_ops if op[0] != "commit")


def end_to_end(inputs: Inputs, pooled: Pooled, counts: Dict[str, float]) -> Dict[str, tuple]:
    """Every end-to-end metric of a run: latencies are medians over every
    operation of the kind in every pass; ``setup_s`` and the session time
    behind ``ops_per_s`` are medians over passes (set-up includes
    building, the session includes its commits)."""
    ms = 1000.0
    return {
        "setup_s": (statistics.median(pooled.setup_s), "s"),
        "ops_per_s": (session_ops(inputs) / statistics.median(pooled.session_s), "1/s"),
        "edit_p50_ms": (statistics.median(pooled.by_kind["edit"]) * ms, "ms"),
        "commit_p50_ms": (statistics.median(pooled.by_kind["commit"]) * ms, "ms"),
        "prov_bytes_per_edit": (counts["prov_bytes"] / counts["edits"], "bytes"),
        "wal_bytes_per_edit": (counts["wal_bytes"] / counts["edits"], "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(layers: List[Dict[str, dict]], counts: Dict[str, float], overhead_pct: float) -> Dict[str, tuple]:
    """Every per-layer metric from the summaries of a run's traced passes."""
    sums: Dict[str, dict] = {}
    for summary in layers:
        for part, table in summary.items():
            into = sums.setdefault(part, {})
            for key, value in table.items():
                into[key] = into.get(key, 0) + value
    self_s, total_s, calls, roots, rows, deltas = (
        sums.get(part, {}) for part in ("self_s", "total_s", "calls", "roots", "rows", "deltas")
    )

    def sum_of(table, kind, *names):
        return sum(table.get((kind, name), 0) for name in names)

    def per(value, kind, scale=1.0):
        return value * scale / roots[kind] if roots.get(kind) else 0.0

    ms = 1000.0
    reads = ("ProvTable.record_at", "ProvTable.records_for_tid", "ProvTable.records_at_loc", "ProvTable.records_under",
             "ProvTable.records_at_locs", "ProvTable.all_records", "ProvTable.max_tid")
    query_methods = ("ProvenanceQueries.get_src", "ProvenanceQueries.get_hist", "ProvenanceQueries.get_mod",
                     "ProvenanceQueries.trace", "ProvenanceQueries.effective", "who_modified")
    copies = sum(calls.get((kind, "RelationalSourceDB.copy_node"), 0) for kind in KINDS)
    copy_s = sum(total_s.get((kind, "RelationalSourceDB.copy_node"), 0.0) for kind in KINDS)
    returned = sum_of(rows, "sql", "Database.execute") + sum_of(rows, "query", *reads)
    examined = deltas.get(("sql", "rows_examined"), 0) + deltas.get(("query", "rows_examined"), 0)
    return {
        "xmldb.write_ms_per_edit": (per(sum_of(self_s, "edit", "XMLDatabase.add_node", "XMLDatabase.delete_node", "XMLDatabase.paste_node"), "edit", ms), "ms"),
        "xmldb.renumbers_per_1k_edits": (counts["renumbers"] * 1000.0 / counts["edits"], "count"),
        "xmldb.read_ms_per_read": (per(sum_of(self_s, "read", "evaluate_xpath"), "read", ms), "ms"),
        "xmldb.range_scans_per_read": (per(sum_of(deltas, "read", "xml.range_scan", "xml.multi_range_scan"), "read"), "count"),
        "source.copy_ms_per_copy": (copy_s * ms / copies if copies else 0.0, "ms"),
        "store.track_ms_per_edit": (per(sum_of(self_s, "edit", "HierarchicalTransactionalStore.track_insert", "HierarchicalTransactionalStore.track_delete", "HierarchicalTransactionalStore.track_copy"), "edit", ms), "ms"),
        "store.commit_ms": (per(sum_of(self_s, "commit", "HierarchicalTransactionalStore.commit"), "commit", ms), "ms"),
        "provtable.write_ms_per_commit": (per(sum_of(self_s, "commit", "ProvTable.write_batch", "ProvTable.write_statement"), "commit", ms), "ms"),
        "provtable.rows_per_edit": (counts["prov_rows"] / counts["edits"], "count"),
        "provtable.read_ms_per_query": (per(sum_of(self_s, "query", *reads), "query", ms), "ms"),
        "provtable.rows_read_per_query": (per(sum_of(rows, "query", *reads), "query"), "count"),
        "queries.self_ms_per_query": (per(sum_of(self_s, "query", *query_methods), "query", ms), "ms"),
        "queries.fetches_per_query": (per(sum_of(calls, "query", *reads), "query"), "count"),
        "txnlog.ms_per_commit": (per(sum_of(self_s, "commit", "TransactionLog.record_commit"), "commit", ms), "ms"),
        "storage.commit_ms": (per(sum_of(self_s, "commit", "Database.commit"), "commit", ms), "ms"),
        "wal.flushes_per_commit": (per(sum_of(calls, "commit", "Database.commit"), "commit"), "count"),
        "wal.bytes_per_commit": (counts["wal_bytes"] / counts["commits"], "bytes"),
        "sql.parse_ms_per_stmt": (per(sum_of(self_s, "sql", "Database.prepare", "PreparedStatement.execute"), "sql", ms), "ms"),
        "planner.plan_ms_per_stmt": (per(sum_of(total_s, "sql", "Database.plan"), "sql", ms), "ms"),
        "planner.cache_hits_per_stmt": (per(sum_of(deltas, "sql", "plan.hits"), "sql"), "count"),
        "executor.exec_ms_per_stmt": (per(sum_of(self_s, "sql", "Database.execute"), "sql", ms), "ms"),
        "executor.rows_examined_per_row_returned": (examined / returned if returned else 0.0, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
