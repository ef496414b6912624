"""Seeded inputs for the curation benchmark.

Everything the program receives is generated here, deterministically
from the workload's seed: the target tree, the source rows, and one
operation list per phase of a pass.  The generators are the benchmark's
own (they do not call ``repro.workloads``), so a change to the program's
workload code cannot change what the benchmark measures.

An operation is a tuple whose first element is its kind:

* ``("edit", update)`` — one editor action (``Insert``/``Delete``/``Copy``);
* ``("commit",)`` — ``CurationEditor.commit``;
* ``("read", xpath)`` — one XPath read of the target;
* ``("query", name, loc)`` — ``src``/``hist``/``mod``/``who`` at ``loc``;
* ``("sql", statement_index, params)`` — one of :data:`SQL_STATEMENTS`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.paths import Path
from repro.core.tree import Tree
from repro.core.updates import Copy, Delete, Insert

ORGANISMS = (
    "S.cerevisiae", "H.sapiens", "M.musculus", "D.melanogaster",
    "C.elegans", "A.thaliana", "R.norvegicus", "D.rerio",
)
LOCALIZATIONS = (
    "nucleus", "cytoplasm", "mitochondrion", "membrane",
    "golgi", "peroxisome", "vacuole", "endosome",
)
EVIDENCE = ("Y2H", "coIP", "literature")
PTMS = ("phosphorylation", "acetylation", "ubiquitination")
SYLLABLES = ("abc", "crp", "tor", "ras", "myc", "src", "kin", "pol", "rad", "cdc")
RECORD_FIELDS = ("localization", "name", "organism")
IMPORTS = Path(["imports"])

#: The audit statements, all through ``Database.prepare(sql).execute``.
SQL_STATEMENTS = (
    # GROUP BY over a tid window
    "SELECT op, COUNT(*) AS n FROM prov WHERE tid >= ? AND tid <= ? GROUP BY op",
    # LIKE 'prefix%' on src
    "SELECT tid, loc FROM prov WHERE src LIKE ?",
    # prov joined with txn over a tid window
    "SELECT p.tid, p.loc, t.user FROM prov p JOIN txn t ON p.tid = t.tid "
    "WHERE p.tid >= ? AND p.tid <= ?",
    # ORDER BY ... LIMIT (a total order, so the answer is unique)
    "SELECT tid, loc FROM prov WHERE loc LIKE ? ORDER BY tid DESC, loc LIMIT 10",
)
QUERY_KINDS = ("src", "hist", "mod", "who")


@dataclass(frozen=True)
class Workload:
    """Sizes and shape of one workload; fixed here, never read from the
    environment."""

    name: str
    pattern: str  # "mix" or "real"
    molecules: int  # target records (each 7-13 nodes)
    proteins: int  # source rows (each a size-4 subtree)
    setup_edits: int  # history replayed during set-up
    session_edits: int  # edits in the timed phase
    commit_every: int
    reads_per_edit: int  # XPath reads after each session edit
    tt_share: float  # share of copies taken from the target itself
    session_queries: int  # rounds of 20 provenance queries in the timed phase
    session_sql: int  # rounds of the 4 SQL statements in the timed phase


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "curate-mix", "mix", molecules=1000, proteins=3000, setup_edits=0,
            session_edits=1005, commit_every=5, reads_per_edit=0, tt_share=0.0,
            session_queries=0, session_sql=0,
        ),
        Workload(
            "browse-curate", "real", molecules=500, proteins=3000, setup_edits=0,
            session_edits=1001, commit_every=7, reads_per_edit=1, tt_share=0.0,
            session_queries=0, session_sql=0,
        ),
        Workload(
            "prov-audit", "real", molecules=1000, proteins=3000, setup_edits=3500,
            session_edits=0, commit_every=7, reads_per_edit=0, tt_share=0.3,
            session_queries=40, session_sql=40,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A small copy of ``workload`` for the benchmark's own tests."""
    return replace(
        workload,
        molecules=40,
        proteins=60,
        setup_edits=min(workload.setup_edits, 70),
        session_edits=min(workload.session_edits, 35),
        session_queries=min(workload.session_queries, 2),
        session_sql=min(workload.session_sql, 2),
    )



@dataclass
class Inputs:
    """What one pass feeds the program."""

    workload: Workload
    target: Tree
    protein_rows: List[Tuple[str, str, str, str]]
    setup_ops: List[tuple]
    session_ops: List[tuple]

    def phases(self) -> Tuple[Tuple[str, List[tuple]], ...]:
        return (("setup", self.setup_ops), ("session", self.session_ops))


def _name(rng: random.Random) -> str:
    return rng.choice(SYLLABLES).upper() + rng.choice(SYLLABLES).capitalize() + str(rng.randint(1, 99))


def make_target(rng: random.Random, molecules: int) -> Tree:
    """``molecules/molecule{Mnnnnn}/{name, organism, [ptm], interactions/
    interaction{k}/{partner, evidence}}`` plus an empty ``imports`` area."""
    root = Tree.empty()
    area = Tree.empty()
    for index in range(molecules):
        molecule = Tree.empty()
        molecule.add_child("name", Tree.leaf(_name(rng)))
        molecule.add_child("organism", Tree.leaf(rng.choice(ORGANISMS)))
        if rng.random() < 0.5:
            molecule.add_child("ptm", Tree.leaf(rng.choice(PTMS)))
        interactions = Tree.empty()
        for number in range(1, rng.randint(1, 4) + 1):
            interaction = Tree.empty()
            interaction.add_child("partner", Tree.leaf(f"M{rng.randrange(molecules):05d}"))
            interaction.add_child("evidence", Tree.leaf(rng.choice(EVIDENCE)))
            interactions.add_child(f"interaction{{{number}}}", interaction)
        molecule.add_child("interactions", interactions)
        area.add_child(f"molecule{{M{index:05d}}}", molecule)
    root.add_child("molecules", area)
    root.add_child("imports", Tree.empty())
    return root


def make_proteins(rng: random.Random, count: int) -> List[Tuple[str, str, str, str]]:
    """Rows of ``protein(id, name, organism, localization)``."""
    return [
        (f"O{index:05d}", _name(rng), rng.choice(ORGANISMS), rng.choice(LOCALIZATIONS))
        for index in range(count)
    ]


def source_tree(rows: Sequence[Tuple[str, str, str, str]]) -> Tree:
    """The relational source's tree view, built from the rows directly:
    ``protein/<id>/{name, organism, localization}``."""
    table = Tree.empty()
    for pid, name, organism, localization in rows:
        record = Tree.empty()
        record.add_child("name", Tree.leaf(name))
        record.add_child("organism", Tree.leaf(organism))
        record.add_child("localization", Tree.leaf(localization))
        table.add_child(pid, record)
    root = Tree.empty()
    root.add_child("protein", table)
    return root


class _Script:
    """Generates valid edits against a shadow copy of the target."""

    def __init__(self, rng: random.Random, target: Tree, proteins: int, tt_share: float):
        self.rng = rng
        self.shadow = target.deep_copy()
        self.proteins = proteins
        self.tt_share = tt_share
        self.fresh = 0
        self.deletes = 0
        self.commits = 0
        self.added: List[Path] = []
        self.copied: List[Path] = []
        self.records: List[Path] = []  # copy roots, in creation order
        self.initial = [
            path
            for path, node in target.nodes()
            if len(path) >= 3 and path.head == "molecules" and node.node_count() <= 3
        ]

    def _label(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh:06d}"

    def alive(self, rel: Path) -> bool:
        return self.shadow.contains_path(rel)

    def live_records(self) -> List[Path]:
        return [rel for rel in self.records if self.alive(rel)]

    def add(self, under: Path = IMPORTS) -> Insert:
        """A fresh node; directly under ``imports`` a leaf number half of
        the time, elsewhere always empty."""
        label = self._label("n")
        value = None
        if under == IMPORTS and self.rng.random() >= 0.5:
            value = self.rng.randint(0, 9999)
        self.shadow.resolve(under).add_child(label, Tree.empty() if value is None else Tree.leaf(value))
        self.added.append(under.child(label))
        return Insert(label, value, Path(["T"]).join(under))

    def copy(self) -> Copy:
        label = self._label("c")
        dst = IMPORTS.child(label)
        records = self.live_records() if self.rng.random() < self.tt_share else []
        if records:
            origin = self.rng.choice(records)
            src = Path(["T"]).join(origin)
            pasted = self.shadow.resolve(origin).deep_copy()
        else:
            pid = f"O{self.rng.randrange(self.proteins):05d}"
            src = Path(["S", "protein", pid])
            pasted = Tree.empty()
            for field in RECORD_FIELDS:
                pasted.add_child(field, Tree.leaf(0))
        self.shadow.resolve(dst.parent).add_child(label, pasted)
        self.records.append(dst)
        self.copied.append(dst)
        self.copied.extend(dst.child(child) for child in sorted(pasted.children))
        return Copy(src, Path(["T"]).join(dst))

    def _pop_live(self, pool: List[Path]) -> Optional[Path]:
        while pool:
            index = self.rng.randrange(len(pool))
            pool[index], pool[-1] = pool[-1], pool[index]
            candidate = pool.pop()
            if self.alive(candidate):
                return candidate
        return None

    def delete(self, victim: Optional[Path] = None) -> Delete:
        """Delete ``victim``, or a random live node taken from the added,
        copied and initial nodes in turn (a fixed share from each, so the
        cost of the median delete does not depend on the seed)."""
        if victim is None:
            pools = [self.added, self.copied, self.initial]
            self.deletes += 1
            for offset in range(3):
                victim = self._pop_live(pools[(self.deletes + offset) % 3])
                if victim is not None:
                    break
        if victim is None:
            raise ValueError("nothing left to delete")
        self.shadow.resolve(victim.parent).remove_child(victim.last)
        return Delete(victim.last, Path(["T"]).join(victim.parent))

    def mix_round(self) -> list:
        """Table 2's ``mix``: adds, copies and random deletes in equal
        numbers (each triple is a shuffled add/copy/delete)."""
        kinds = ["add", "copy", "delete"]
        self.rng.shuffle(kinds)
        return [getattr(self, kind)() for kind in kinds]

    def real_round(self) -> list:
        """Table 2's ``real``: copy one record, add 3 nodes under it,
        delete 3 of the nodes the copy brought in."""
        copy = self.copy()
        root = copy.dst.tail
        brought = sorted(self.shadow.resolve(root).children)
        edits: list = [copy]
        edits += [self.add(root) for _ in range(3)]
        victims = self.rng.sample(brought, min(3, len(brought)))
        edits += [self.delete(root.child(label)) for label in victims]
        return edits


class _Reads:
    """The five XPath read shapes, in rotation; parameters drawn from the
    seed against the target as it stands when the read runs."""

    def __init__(self, rng: random.Random, molecules: int) -> None:
        self.rng = rng
        self.molecules = molecules
        self.turn = 0

    def next(self, script: _Script) -> str:
        rng = self.rng
        shape = self.turn % 5
        self.turn += 1
        molecule = f"molecule{{M{rng.randrange(self.molecules):05d}}}"
        if shape == 0:  # keyed-instance child steps
            return f"molecules/{molecule}/name"
        if shape == 1:  # keyed instance, then a predicate on repeated elements
            return f"molecules/{molecule}/interactions/interaction[evidence='{rng.choice(EVIDENCE)}']/partner"
        if shape == 2:  # predicate over every molecule
            return f"molecules/molecule[organism='{rng.choice(ORGANISMS)}']/ptm"
        if shape == 3:  # descendant steps
            return f"//{rng.choice(('ptm', 'name'))}"
        records = script.live_records()[-50:]
        if records:  # wildcard under an imported record
            return f"imports/{rng.choice(records).last}/*"
        return "imports/*"


def _query_round(rng: random.Random, script: _Script, molecules: int, turn: int) -> List[tuple]:
    """Two live copy roots, two live inserted nodes and one large subtree
    root (``T/imports`` and a molecule in turn), each asked all four
    provenance questions.  The fixed make-up keeps a median over the
    answers from depending on the seed's draws."""
    records = script.live_records()
    added = [rel for rel in script.added if script.alive(rel)]
    locations = [rng.choice(records or added) for _ in range(2)]
    locations += [rng.choice(added or records) for _ in range(2)]
    if turn % 2:
        locations.append(Path(["molecules", f"molecule{{M{rng.randrange(molecules):05d}}}"]))
    else:
        locations.append(IMPORTS)
    return [("query", kind, Path(["T"]).join(loc)) for loc in locations for kind in QUERY_KINDS]


def _sql_round(rng: random.Random, script: _Script, proteins: int) -> List[tuple]:
    tids = max(script.commits, 1)
    low = rng.randint(1, max(1, tids - 50))
    join_low = rng.randint(1, max(1, tids - 10))
    records = script.live_records() or [IMPORTS]
    record = rng.choice(records)
    digits = f"{rng.randrange(max(1, proteins // 100)):03d}"
    return [
        ("sql", 0, (low, low + 50)),
        ("sql", 1, (f"S/protein/O{digits}%",)),
        ("sql", 2, (join_low, join_low + 10)),
        ("sql", 3, (f"T/{record}"[:-2] + "%",)),
    ]


def generate(workload: Workload, seed: int) -> Inputs:
    """All inputs of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    target = make_target(rng, workload.molecules)
    rows = make_proteins(rng, workload.proteins)
    script = _Script(rng, target, workload.proteins, workload.tt_share)
    reads = _Reads(rng, workload.molecules)
    round_of = script.mix_round if workload.pattern == "mix" else script.real_round

    def edits(count: int, reads_per_edit: int) -> List[tuple]:
        ops: List[tuple] = []
        pending = 0
        while count > 0:
            for update in round_of():
                ops.append(("edit", update))
                ops.extend(("read", reads.next(script)) for _ in range(reads_per_edit))
                pending += 1
                count -= 1
                if pending == workload.commit_every:
                    ops.append(("commit",))
                    script.commits += 1
                    pending = 0
        if pending:
            ops.append(("commit",))
            script.commits += 1
        return ops

    def rounds(queries: int, sql: int) -> List[tuple]:
        """Query and SQL rounds, each kind spread evenly over the other."""
        placed = [((k + 0.5) / queries, 0, _query_round(rng, script, workload.molecules, k)) for k in range(queries)]
        placed += [((k + 0.5) / sql, 1, _sql_round(rng, script, workload.proteins)) for k in range(sql)]
        return [op for _at, _kind, ops in sorted(placed, key=lambda item: item[:2]) for op in ops]

    setup_ops = edits(workload.setup_edits, 0)
    session_ops = edits(workload.session_edits, workload.reads_per_edit)
    session_ops += rounds(workload.session_queries, workload.session_sql)
    return Inputs(workload, target, rows, setup_ops, session_ops)
