"""GraphIR — the unified intermediate representation (paper §5.1).

Both front-ends (mini-Gremlin, mini-Cypher) lower to this IR; both
back-ends (Gaia/OLAP, HiActor/OLTP) execute it; the optimizers (RBO,
CBO) rewrite it.  That one-IR-many-surfaces shape is the core of the
paper's interactive stack.

The data model D: each bound *alias* is a graph entity (vertex or edge)
carrying properties.  In the relational realization, an alias ``a``
contributes columns ``a_id`` plus ``a_<prop>`` for each referenced
property.  Operators consume/produce sets of such tuples:

Graph operators   : Scan, ExpandEdge, GetVertex, ExpandVertex (fused),
                    Match (pattern-graph matching, lowered by the CBO)
Relational ops    : Select, Project, GroupBy, OrderBy, Limit

Predicates are *structural* (lists of :class:`Cmp`/:class:`InList`
atoms under conjunction), which is what makes FilterPushIntoMatch and
storage-level pushdown (GRIN predicate trait) mechanical rewrites
rather than SQL string surgery.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------
_OPS = {"=", "!=", "<", "<=", ">", ">="}


@dataclass(frozen=True)
class Cmp:
    """``alias.prop <op> literal``; prop None means the vertex/edge id."""

    alias: str
    prop: str | None
    op: str
    value: object

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"bad comparison op {self.op!r}")


@dataclass(frozen=True)
class InList:
    """``alias.prop IN (v1, v2, ...)``."""

    alias: str
    prop: str | None
    values: tuple

    def __init__(self, alias, prop, values):
        object.__setattr__(self, "alias", alias)
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "values", tuple(values))


@dataclass(frozen=True)
class ColEq:
    """``left.prop <op> right.prop`` — compares two bound refs (cycle
    closing, joins on property equality). Not storage-pushable."""

    left: "Ref"
    right: "Ref"
    op: str = "="


@dataclass(frozen=True)
class Raw:
    """Escape hatch: raw *prefixed* SQL over bound columns (e.g.
    ``b1_date - b2_date < 5``). Not storage-pushable."""

    sql: str
    aliases: tuple = ()


Atom = Cmp | InList | ColEq | Raw
Predicate = tuple  # tuple[Atom, ...] under AND


def pushable(atom: "Atom") -> bool:
    """True if the atom can be evaluated by a storage scan of a single
    alias (literal comparison on one entity's own columns)."""
    return isinstance(atom, (Cmp, InList))


def _lit(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return repr(v)


def _colname(atom, prefixed: bool) -> str:
    base = atom.prop if atom.prop is not None else "id"
    return f"{atom.alias}_{base}" if prefixed else base


def atom_sql(atom: Atom, *, prefixed: bool = True) -> str:
    """Render one atom as SQL; ``prefixed=False`` drops the alias prefix
    (for storage-level pushdown where columns are bare property names)."""
    if isinstance(atom, ColEq):
        if not prefixed:
            raise ValueError("ColEq is not storage-pushable")
        return f"{atom.left.column} {atom.op} {atom.right.column}"
    if isinstance(atom, Raw):
        if not prefixed:
            raise ValueError("Raw predicates are not storage-pushable")
        return f"({atom.sql})"
    col = _colname(atom, prefixed)
    if isinstance(atom, Cmp):
        return f"{col} {atom.op} {_lit(atom.value)}"
    return f"{col} IN ({', '.join(_lit(v) for v in atom.values)})"


def predicate_sql(atoms, *, prefixed: bool = True) -> str | None:
    atoms = tuple(atoms or ())
    if not atoms:
        return None
    return " AND ".join(atom_sql(a, prefixed=prefixed) for a in atoms)


def atom_aliases(atoms) -> set[str]:
    out: set[str] = set()
    for a in atoms or ():
        if isinstance(a, ColEq):
            out.update({a.left.alias, a.right.alias})
        elif isinstance(a, Raw):
            out.update(a.aliases)
        else:
            out.add(a.alias)
    return out


# ---------------------------------------------------------------------------
# expressions for Project / GroupBy / OrderBy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Ref:
    """Reference to ``alias.prop`` (prop None = the entity id)."""

    alias: str
    prop: str | None = None

    @property
    def column(self) -> str:
        return f"{self.alias}_{self.prop if self.prop is not None else 'id'}"


@dataclass(frozen=True)
class ProjExpr:
    ref: Ref
    name: str


@dataclass(frozen=True)
class AggExpr:
    """fn in count/sum/avg/min/max; ref None only valid for count(*)."""

    fn: str
    ref: Ref | None
    name: str


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scan:
    """Bind ``alias`` to all vertices of ``label`` (optionally filtered)."""

    label: str
    alias: str
    predicate: Predicate = ()


@dataclass(frozen=True)
class ExpandEdge:
    """From bound vertex ``from_alias``, traverse ``edge_label`` edges.

    Binds ``edge_alias`` (edge properties become available) and records
    the far endpoint id as ``<edge_alias>_nbr`` for a following
    GetVertex.  direction: out | in | both.
    """

    edge_label: str
    direction: str
    from_alias: str
    edge_alias: str
    predicate: Predicate = ()


@dataclass(frozen=True)
class GetVertex:
    """Materialize the far endpoint of the preceding ExpandEdge as a
    vertex binding ``alias`` of ``label`` (vertex properties become
    available; optional predicate)."""

    edge_alias: str
    alias: str
    label: str
    predicate: Predicate = ()


@dataclass(frozen=True)
class ExpandVertex:
    """Fused ExpandEdge+GetVertex (the EdgeVertexFusion result): binds
    ``alias`` to the neighbor *id only* — legal exactly when no vertex
    property of ``alias`` is needed downstream."""

    edge_label: str
    direction: str
    from_alias: str
    alias: str
    predicate: Predicate = ()  # edge-level predicate


@dataclass(frozen=True)
class PatternEdge:
    src: str  # vertex alias
    dst: str
    label: str
    direction: str = "out"  # out: src->dst; both: undirected
    edge_alias: str | None = None
    predicate: Predicate = ()


@dataclass(frozen=True)
class Match:
    """Declarative pattern: vertices (alias -> label [+ predicate]) and
    edges.  Lowered to a chain of Scan/Expand ops either naively
    (declaration order, MATCH_START/MATCH_END semantics) or by the CBO."""

    vertices: tuple  # tuple[(alias, label, Predicate), ...]
    edges: tuple  # tuple[PatternEdge, ...]


@dataclass(frozen=True)
class Join:
    """Natural join of two sub-plans on their shared alias ids (the
    bifurcated logical DAG of Fig. 5(c))."""

    left: tuple
    right: tuple
    on: tuple  # shared aliases


@dataclass(frozen=True)
class Select:
    predicate: Predicate


@dataclass(frozen=True)
class Project:
    exprs: tuple  # tuple[ProjExpr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class GroupBy:
    keys: tuple  # tuple[ProjExpr, ...]
    aggs: tuple  # tuple[AggExpr, ...]


@dataclass(frozen=True)
class OrderBy:
    keys: tuple  # tuple[(name, bool ascending), ...]


@dataclass(frozen=True)
class Limit:
    n: int


@dataclass(frozen=True)
class Count:
    """Terminal count(*) -> single row, column ``cnt``."""

    name: str = "cnt"


Plan = tuple  # tuple of operators


def referenced_props(plan) -> dict[str, set[str]]:
    """alias -> set of property names referenced anywhere downstream.

    ``alias.id`` is the entity id (the ``alias_id`` column that
    ``Ref(alias, None)`` names), not a property.  A Raw atom marks each
    alias it names with ``"*"`` (every property).  Drives
    EdgeVertexFusion legality (a GetVertex whose alias has no referenced
    properties, and no predicate, can fuse into the expand) and the
    columns HiActor's Scan, GetVertex and ExpandEdge take.
    """
    out: dict[str, set[str]] = {}

    def add(alias: str, prop: str | None):
        if prop not in (None, "id"):
            out.setdefault(alias, set()).add(prop)

    def add_ref(ref: Ref | None):
        if ref is not None:
            add(ref.alias, ref.prop)

    def add_atoms(atoms):
        for a in atoms or ():
            if isinstance(a, ColEq):
                add_ref(a.left)
                add_ref(a.right)
            elif isinstance(a, Raw):
                # conservatively mark every named alias as property-using
                for al in a.aliases:
                    out.setdefault(al, set()).add("*")
            else:
                add(a.alias, a.prop)

    for op in plan:
        if isinstance(op, (Scan, ExpandEdge, GetVertex, ExpandVertex, Select)):
            add_atoms(op.predicate)
        if isinstance(op, Project):
            for e in op.exprs:
                add_ref(e.ref)
        if isinstance(op, GroupBy):
            for e in op.keys:
                add_ref(e.ref)
            for a in op.aggs:
                add_ref(a.ref)
        if isinstance(op, Join):
            for sub in (op.left, op.right):
                for al, ps in referenced_props(sub).items():
                    out.setdefault(al, set()).update(ps)
    return out


def replace(op, **kw):
    """dataclasses.replace that tolerates frozen IR nodes."""
    return dc_replace(op, **kw)
