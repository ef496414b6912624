"""Correctness checks, run after the timed phase on the last pass.

Each check compares the program's outputs with an oracle that does not
go through the code path being measured:

* target tree — the same operations applied with ``core.updates.
  apply_update`` to plain ``core.tree`` trees in a ``Workspace`` holding
  the source's tree view (built from the rows, not by the wrapper);
* XPath reads — ``XPath.evaluate``, the pointer-walking evaluator, over
  that workspace's tree as it stood when the read ran;
* provenance answers — the Datalog transcription
  (``datalog.provenance_rules.run_queries``) over the full,
  non-hierarchical records of the same history replayed on the T store
  (into a plain list, not through ``ProvTable``);
* SQL results — stdlib ``sqlite3`` over the same ``prov``/``txn`` rows;
* durability — a fresh ``Database`` on the pass's WAL directory, after
  ``recover()``, holds exactly the live ``prov`` and ``txn`` rows.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, List

from repro.common.clock import CostModel, VirtualClock
from repro.core.editor import CurationEditor
from repro.core.paths import Path
from repro.core.provenance import ProvRecord, ProvTable
from repro.core.stores import make_store
from repro.core.txnlog import TransactionLog
from repro.core.updates import Workspace, apply_update
from repro.datalog.provenance_rules import run_queries
from repro.storage.db import Database
from repro.wrappers.memory import MemorySourceDB, MemoryTargetDB
from repro.xmldb.xpath import XPath

from .bench import PassResult, System
from .inputs import SQL_STATEMENTS, Inputs, source_tree

#: distinct query locations checked against the Datalog program per run
DATALOG_LOCATIONS = 12


def _ordered_ops(inputs: Inputs):
    for phase, ops in inputs.phases():
        for index, op in enumerate(ops):
            yield phase, index, op


def check_target_and_reads(inputs: Inputs, result: PassResult, system: System) -> List[str]:
    errors: List[str] = []
    workspace = Workspace({"T": inputs.target.deep_copy(), "S": source_tree(inputs.protein_rows)})
    for phase, index, op in _ordered_ops(inputs):
        if op[0] == "edit":
            apply_update(workspace, op[1])
        elif op[0] == "read" and (phase, index) in result.outputs:
            expected = XPath(op[1]).evaluate(workspace.target_tree())
            if list(result.outputs[(phase, index)]) != expected:
                errors.append(f"read {op[1]!r} at {phase}[{index}] differs from XPath.evaluate")
    if system.target.tree_from_db() != workspace.target_tree():
        errors.append("target tree differs from the Workspace replay")
    return errors


class _RecordSink:
    """Stands in for ``ProvTable`` under the T store: the records the
    store commits go to a list, so the oracle shares neither ``ProvTable``
    nor the storage engine with the measured path."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self.cost_model = CostModel()
        self.records: List[ProvRecord] = []

    def write_batch(self, records, category: str = "commit") -> None:
        self.records.extend(records)


def check_provenance(inputs: Inputs, result: PassResult) -> List[str]:
    queried = [
        (phase, index, op)
        for phase, index, op in _ordered_ops(inputs)
        if op[0] == "query" and (phase, index) in result.outputs
    ]
    if not queried:
        return []
    sink = _RecordSink()
    store = make_store("T", sink)
    editor = CurationEditor(
        MemoryTargetDB("T", inputs.target.deep_copy()),
        [MemorySourceDB("S", source_tree(inputs.protein_rows))],
        store,
    )
    for _phase, _index, op in _ordered_ops(inputs):
        if op[0] == "edit":
            editor.apply(op[1])
        elif op[0] == "commit":
            editor.commit()
    records = sink.records
    errors: List[str] = []
    answers: Dict[Path, Dict[str, set]] = {}
    for phase, index, (_kind, name, loc) in queried:
        if loc not in answers:
            if len(answers) == DATALOG_LOCATIONS:
                continue
            answers[loc] = run_queries(records, loc, store.last_tid)
        expected = answers[loc]
        got = result.outputs[(phase, index)]
        if name == "src":
            same = (set() if got is None else {got}) == expected["src"]
        elif name == "hist":
            same = set(got) == expected["hist"] and len(got) == len(expected["hist"])
        elif name == "mod":
            same = set(got) == expected["mod"]
        else:
            same = got == ({"curator": expected["mod"]} if expected["mod"] else {})
        if not same:
            errors.append(f"{name}({loc}) = {got!r} differs from Datalog {expected}")
    return errors


def _rows(db: Database, name: str) -> list:
    return sorted((row for _rowid, row in db.table(name).scan()), key=repr)


def check_sql(inputs: Inputs, result: PassResult, system: System) -> List[str]:
    lite = sqlite3.connect(":memory:")
    try:
        lite.execute("PRAGMA case_sensitive_like = ON")
        lite.execute("CREATE TABLE prov (tid INTEGER, op TEXT, loc TEXT, src TEXT)")
        lite.execute("CREATE TABLE txn (tid INTEGER, user TEXT, committed_ms REAL, note TEXT)")
        lite.executemany("INSERT INTO prov VALUES (?, ?, ?, ?)", _rows(system.db, "prov"))
        lite.executemany("INSERT INTO txn VALUES (?, ?, ?, ?)", _rows(system.db, "txn"))
        errors: List[str] = []
        for phase, index, op in _ordered_ops(inputs):
            if op[0] != "sql" or (phase, index) not in result.outputs:
                continue
            statement, params = SQL_STATEMENTS[op[1]], op[2]
            expected = [tuple(row) for row in lite.execute(statement, params)]
            got = [tuple(row.values()) for row in result.outputs[(phase, index)]]
            if "ORDER BY" not in statement:
                expected.sort(key=repr)
                got.sort(key=repr)
            if got != expected:
                errors.append(f"SQL {statement!r} {params} differs from sqlite3")
        return errors
    finally:
        lite.close()


def check_recovery(system: System) -> List[str]:
    fresh = Database("provstore", wal_dir=system.wal_dir)
    TransactionLog(ProvTable(db=fresh))
    fresh.recover()
    return [
        f"recovered {name} rows differ from the live table"
        for name in ("prov", "txn")
        if _rows(fresh, name) != _rows(system.db, name)
    ]


def run_all(inputs: Inputs, result: PassResult, system: System) -> List[str]:
    return (
        check_target_and_reads(inputs, result, system)
        + check_provenance(inputs, result)
        + check_sql(inputs, result, system)
        + check_recovery(system)
    )
