"""Seed graph constructors.

Everything the test rigs complete and model-check starts here: von
Neumann stages, self-membered atoms, truncated descending chains that
stand in for atoms without breaking well-foundedness, Kuratowski tuple
encodings, and the membership codes (loop or chain shaped) that make
the tuple family first-order definable.

All derived nodes get content-addressed ids (see
:func:`~setforge.graph.subset_node_id`), so assembling a larger
declaration never relabels the nodes a smaller one produces. That is
what makes end-extension comparisons across declarations meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .completion import complete
from .dred import _certificate, require_dred
from .errors import SeedClashError, SizeLimitError, SpecValidationError, UnknownNodeError
from .graph import (
    AnnotatedGraph,
    Code,
    ExtensionalDigraph,
    NodeId,
    Provenance,
    Seed,
    require_extensional,
    subset_node_id,
)

_MAX_VON_NEUMANN_STAGE = 5
# Numeral k has k members, so n numerals take n(n-1)/2 edges: 1,024 of
# them take 523,776, about as many as a 65,536-node completion.
_MAX_NATURALS = 1024
# As many nodes as a two-level completion of a four-node seed; a seed
# past 20 nodes cannot be completed even one level within the default
# budget anyway. Bounds quine atoms, and chain-atom links, tuple nodes
# and code nodes together.
_MAX_SEED_NODES = 1 << 16


@dataclass(frozen=True)
class AtomDecl:
    """One declared atom: either a true self-loop or a descending chain.

    ``kind`` is "quine" (node with only a self-loop) or "chain"
    (``length`` pseudo-atom nodes ending in a unique terminal, keeping
    the graph well-founded).
    """

    label: str
    kind: str
    length: int | None = None


@dataclass(frozen=True)
class TupleDecl:
    """A tagged tuple of the code family.

    ``components`` name declared atoms by label, or embedded numerals in
    decimal ("0", "1", ...). The encoded node is the right-nested pair
    (tag, (c1, (c2, ...))).
    """

    tag: int
    components: tuple[str, ...]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_numeral(label: str) -> bool:
    """A numeral reference is written in ASCII decimal digits."""
    return label.isascii() and label.isdigit()


def _numeral_value(label: str) -> int:
    """The number a numeral reference names, or ``_MAX_NATURALS``, which
    no spec embeds, for one with more significant digits than that:
    ``int()`` refuses digit strings past ``sys.get_int_max_str_digits()``."""
    digits = label.lstrip("0")
    if len(digits) > len(str(_MAX_NATURALS)):
        return _MAX_NATURALS
    return int(digits or "0")


@dataclass(frozen=True)
class CodeSpec:
    """Declarative description of a seed graph.

    Validation happens at construction; an invalid declaration is not
    representable. More than ``_MAX_NATURALS`` numerals, or more than
    ``_MAX_SEED_NODES`` chain-atom links, tuple nodes and code nodes
    together (each tuple priced at its worst case), raise
    SizeLimitError. Chain code style carries ``code_length``; loop
    style must leave it unset.
    """

    atoms: tuple[AtomDecl, ...] = ()
    naturals_up_to: int = 0
    tuples: tuple[TupleDecl, ...] = ()
    code_style: str = "loop"
    code_length: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "tuples", tuple(self.tuples))
        self._validate()

    def _validate(self) -> None:
        seen: set[str] = set()
        chain_count = 0
        for a in self.atoms:
            if not isinstance(a.label, str):
                raise SpecValidationError("atom labels must be strings")
            if not a.label:
                raise SpecValidationError("atom labels must be nonempty")
            try:
                a.label.encode("utf-8")
            except UnicodeEncodeError:
                # No document could carry the ids and codes it names.
                raise SpecValidationError(
                    f"atom label {a.label!r} must not hold a lone surrogate"
                ) from None
            if _is_numeral(a.label):
                raise SpecValidationError(
                    f"atom label {a.label!r} is reserved for numeral references"
                )
            if a.label in seen:
                raise SpecValidationError(f"duplicate atom label {a.label!r}")
            seen.add(a.label)
            if a.kind == "quine":
                if a.length is not None:
                    raise SpecValidationError("quine atoms carry no length")
            elif a.kind == "chain":
                chain_count += 1
                if not _is_int(a.length) or a.length < 1:
                    raise SpecValidationError(
                        f"chain atom {a.label!r} needs a length of at least 1"
                    )
            else:
                raise SpecValidationError(f"unknown atom kind {a.kind!r}")
        if not _is_int(self.naturals_up_to):
            raise SpecValidationError("naturals_up_to must be an integer")
        if self.naturals_up_to < 0:
            raise SpecValidationError("naturals_up_to must be non-negative")
        if self.naturals_up_to > _MAX_NATURALS:
            raise SizeLimitError(
                f"naturals_up_to is limited to {_MAX_NATURALS}, got {self.naturals_up_to}"
            )
        if chain_count and self.naturals_up_to < chain_count + 1:
            raise SpecValidationError(
                f"{chain_count} chain atoms need distinct numeral terminals: "
                f"naturals_up_to must be at least {chain_count + 1}"
            )
        seen_tuples: set[TupleDecl] = set()
        for t in self.tuples:
            if not _is_int(t.tag):
                raise SpecValidationError("tuple tag must be an integer")
            if not all(isinstance(c, str) for c in t.components):
                raise SpecValidationError("tuple components must be a list of labels")
            if not (0 <= t.tag < self.naturals_up_to):
                raise SpecValidationError(
                    f"tuple tag {t.tag} outside the embedded numerals "
                    f"0..{self.naturals_up_to - 1}"
                )
            if not t.components:
                raise SpecValidationError("tuple components must be nonempty")
            for c in t.components:
                if _is_numeral(c):
                    if _numeral_value(c) >= self.naturals_up_to:
                        raise SpecValidationError(
                            f"component numeral {c} not embedded (naturals_up_to="
                            f"{self.naturals_up_to})"
                        )
                elif c not in seen:
                    raise SpecValidationError(f"component {c!r} is not a declared atom")
            if t in seen_tuples:
                raise SpecValidationError(f"duplicate tuple declaration {t}")
            seen_tuples.add(t)
        if self.code_style == "loop":
            if self.code_length is not None:
                raise SpecValidationError("loop code style carries no length")
        elif self.code_style == "chain":
            if not _is_int(self.code_length) or self.code_length < 1:
                raise SpecValidationError("chain code style needs code_length >= 1")
            if any(a.kind == "quine" for a in self.atoms):
                # A self-loop admits no strictly increasing rank along its
                # edge, so no depth/rank certificate could ever be issued.
                raise SpecValidationError(
                    "quine atoms cannot appear in a chain-style declaration; "
                    "use chain atoms to keep the graph certifiable"
                )
        else:
            raise SpecValidationError(f"unknown code style {self.code_style!r}")
        # A tuple takes at most 3 nodes per Kuratowski pair, one pair
        # per component, and its code's nodes.
        codes = self.code_length if self.code_style == "chain" else 1
        nodes = sum(a.length for a in self.atoms if a.kind == "chain")
        nodes += sum(3 * len(t.components) + codes for t in self.tuples)
        if nodes > _MAX_SEED_NODES:
            raise SizeLimitError(
                f"chain atoms, tuples and codes are limited to {_MAX_SEED_NODES} nodes, "
                f"got {nodes}"
            )


def quine_atom_id(label: str) -> NodeId:
    return f"atom:{label}"


def chain_atom_id(label: str, j: int) -> NodeId:
    return f"chain:{label}:{j}"


def loop_code_id(tuple_node: NodeId) -> NodeId:
    return f"code:loop:{tuple_node}"


def chain_code_id(j: int, tuple_node: NodeId) -> NodeId:
    return f"code:chain:{j}:{tuple_node}"


def numeral_ids(count: int) -> tuple[NodeId, ...]:
    """Ids of the first ``count`` von Neumann numerals.

    Numeral k is the set of numerals below k, so its id is derived from
    theirs; the result is a fixed sequence shared by every graph that
    embeds numerals.
    """
    ids: list[NodeId] = []
    for _ in range(count):
        ids.append(subset_node_id(ids))
    return tuple(ids)


def _set_notation(members: list[str]) -> str:
    if not members:
        return "∅"
    return "{" + ",".join(sorted(members, key=lambda s: (len(s), s))) + "}"


def von_neumann_seed(k: int) -> ExtensionalDigraph:
    """The membership digraph of the k-th von Neumann stage: ``k``
    completion steps from the empty graph.

    Stages up to 5 are allowed; a later one raises SizeLimitError, since
    stage 6 alone would need 2**65536 nodes.
    Nodes are labeled with canonical set notation, members ordered by
    notation length then text.
    """
    if k < 0:
        raise ValueError("stage must be non-negative")
    if k > _MAX_VON_NEUMANN_STAGE:
        raise SizeLimitError(f"stage {k} is out of reach: stage 6 already holds 2**65536 sets")
    extensions = complete(ExtensionalDigraph.empty(), k).graph.extensions
    # The kernel adds every node after its members.
    notation: dict[NodeId, str] = {}
    for x, ext in extensions.items():
        notation[x] = _set_notation([notation[m] for m in ext])
    return ExtensionalDigraph(extensions, {x: Seed(label=s) for x, s in notation.items()})


def quine_atoms(labels: Iterable[str]) -> ExtensionalDigraph:
    """A graph of self-membered atoms, one per label.

    More than ``_MAX_SEED_NODES`` labels raise SizeLimitError; past
    that many, ``labels`` is not read further.
    """
    labels = list(itertools.islice(labels, _MAX_SEED_NODES + 1))
    if len(labels) > _MAX_SEED_NODES:
        raise SizeLimitError(f"quine atoms are limited to {_MAX_SEED_NODES}")
    if len(set(labels)) != len(labels):
        raise SpecValidationError("quine atom labels must be distinct")
    extensions: dict[NodeId, frozenset[NodeId]] = {}
    provenance: dict[NodeId, Provenance] = {}
    for label in labels:
        node = quine_atom_id(label)
        extensions[node] = frozenset({node})
        provenance[node] = Code(kind="atom", detail=label)
    return ExtensionalDigraph(extensions, provenance)


def _encode(
    extensions: dict[NodeId, frozenset[NodeId]],
    provenance: dict[NodeId, Provenance],
    index: dict[frozenset[NodeId], NodeId],
    components: list[NodeId],
) -> NodeId:
    """Encode ``components`` into the given maps, as :func:`encode_tuple`
    describes, and return the top node. ``index`` maps each extension
    in ``extensions`` to its node and is kept up to date."""
    for c in components:
        if c not in extensions:
            raise UnknownNodeError(f"tuple component {c!r} is not in the graph")

    def node(members: frozenset[NodeId], detail: str) -> NodeId:
        existing = index.get(members)
        if existing is not None:
            return existing
        created = subset_node_id(sorted(members))
        extensions[created] = members
        provenance[created] = Code(kind="tuple", detail=detail)
        index[members] = created
        return created

    top = components[-1]
    for x in reversed(components[:-1]):
        members = {node(frozenset({x}), "singleton")}
        if x != top:
            members.add(node(frozenset({x, top}), "doubleton"))
        top = node(frozenset(members), "pair")
    return top


def encode_tuple(
    g: ExtensionalDigraph, components: list[NodeId]
) -> tuple[ExtensionalDigraph, NodeId]:
    """Encode a component list as right-nested Kuratowski pairs.

    pair(x, y) = {{x}, {x, y}}, with pair(x, x) collapsing to {{x}}.
    Any node whose extension already matches one of the required sets is
    reused, so encoding is idempotent and never breaks extensionality.
    Returns the possibly extended graph and the top node.
    """
    if not components:
        raise ValueError("cannot encode an empty component list")
    extensions = dict(g.extensions)
    provenance = dict(g.provenance)
    index = {ext: x for x, ext in extensions.items()}
    top = _encode(extensions, provenance, index, components)
    return ExtensionalDigraph(extensions, provenance), top


@dataclass(frozen=True)
class CodeIndex:
    """Where each declared tuple ended up in the graph.

    ``tuple_nodes`` maps a declaration to its encoded top node,
    ``code_nodes`` to the membership-code nodes guarding it (a single
    loop node, or the whole chain top-down).
    """

    tuple_nodes: dict[TupleDecl, NodeId] = field(default_factory=dict)
    code_nodes: dict[TupleDecl, tuple[NodeId, ...]] = field(default_factory=dict)

    def tuple_node_set(self) -> frozenset[NodeId]:
        return frozenset(self.tuple_nodes.values())


@dataclass(frozen=True)
class AssembledSeed:
    """Everything :func:`assemble` produced.

    ``dred`` is populated exactly for chain-style declarations; loop
    style yields self-loops, which admit no depth/rank certificate.
    """

    spec: CodeSpec
    graph: ExtensionalDigraph
    index: CodeIndex
    numerals: tuple[NodeId, ...]
    atom_nodes: dict[str, NodeId]
    dred: AnnotatedGraph | None = None


def assemble(spec: CodeSpec) -> AssembledSeed:
    """Build the full seed graph a declaration describes.

    Numerals first, then quine atoms, then chain atoms in declaration
    order, then tuple encodings, then codes, all into one extensions
    map, one provenance map and one extension index; the graph is built
    once, at the end. Chain atom number c has links a_0 .. a_{L-1} with
    a_j = {a_{j+1}} and the bottom a_{L-1} = {numeral c+1}: CodeSpec
    gives every chain atom its own numeral and a distinct label, so no
    two links share an id or an extension. A loop code is one
    self-membered node b = {p, b} per tuple node p; a chain code is
    b_0 .. b_{L-1} with b_j = {p, b_{j+1}} and the bottom b_{L-1} = {p},
    which keeps the graph well-founded. Chain style additionally
    derives the depth/rank certificate with
    :func:`~setforge.dred._certificate`, which prices it before building
    it, and verifies it before returning.
    """
    numerals = numeral_ids(spec.naturals_up_to)
    extensions = {x: frozenset(numerals[:k]) for k, x in enumerate(numerals)}
    provenance: dict[NodeId, Provenance] = {
        x: Seed(label=str(k)) for k, x in enumerate(numerals)
    }
    quines = quine_atoms(a.label for a in spec.atoms if a.kind == "quine")
    extensions.update(quines.extensions)
    provenance.update(quines.provenance)
    for c, a in enumerate(a for a in spec.atoms if a.kind == "chain"):
        assert a.length is not None
        ids = [chain_atom_id(a.label, j) for j in range(a.length)] + [numerals[c + 1]]
        for j in range(a.length):
            extensions[ids[j]] = frozenset({ids[j + 1]})
            provenance[ids[j]] = Code(kind="atom", detail=f"{a.label}[{j}]")
    atom_nodes = {
        a.label: quine_atom_id(a.label) if a.kind == "quine" else chain_atom_id(a.label, 0)
        for a in spec.atoms
    }
    by_extension = {ext: x for x, ext in extensions.items()}
    index = CodeIndex()
    declared: dict[NodeId, TupleDecl] = {}
    for decl in spec.tuples:
        components = [numerals[decl.tag]]
        components += [
            numerals[_numeral_value(c)] if _is_numeral(c) else atom_nodes[c]
            for c in decl.components
        ]
        p = _encode(extensions, provenance, by_extension, components)
        if p in declared:
            # Over a quine atom a, {a} is a itself, so distinct
            # declarations can encode to one node, which one code cannot
            # guard twice.
            raise SpecValidationError(
                f"tuple declarations {declared[p]} and {decl} both encode to node {p!r}"
            )
        declared[p] = decl
        index.tuple_nodes[decl] = p

    def add(
        decl: TupleDecl, node: NodeId, members: frozenset[NodeId], detail: str, kind: str
    ) -> None:
        # No other kind of node has a "code:" id, and no tuple node is
        # guarded twice, so only the extension can clash: a tuple can
        # encode to a chain atom's link, and its chain code's bottom
        # {p} is then the link above, or a tuple's singleton of it.
        clash = by_extension.get(members)
        if clash is not None:
            prov = provenance[clash]
            origin = f"{prov.kind} {prov.detail}" if isinstance(prov, Code) else repr(prov)
            raise SeedClashError(
                f"code node {node!r} of tuple declaration {decl} would duplicate "
                f"the extension of {clash!r} ({origin})"
            )
        extensions[node] = members
        provenance[node] = Code(kind=kind, detail=detail)
        by_extension[members] = node

    for decl, p in index.tuple_nodes.items():
        if spec.code_style == "loop":
            node = loop_code_id(p)
            add(decl, node, frozenset({p, node}), f"loop({p})", "loop")
            index.code_nodes[decl] = (node,)
        else:
            length = spec.code_length
            assert length is not None
            ids = [chain_code_id(j, p) for j in range(length)]
            for j in reversed(range(length)):
                members = frozenset({p}) if j == length - 1 else frozenset({p, ids[j + 1]})
                add(decl, ids[j], members, f"chain[{j}]({p})", "chain")
            index.code_nodes[decl] = tuple(ids)
    g = ExtensionalDigraph(extensions, provenance)
    require_extensional(g)
    dred: AnnotatedGraph | None = None
    if spec.code_style == "chain":
        dred = _certificate(g, chain_style=True)
        require_dred(dred)
    return AssembledSeed(
        spec=spec,
        graph=g,
        index=index,
        numerals=numerals,
        atom_nodes=atom_nodes,
        dred=dred,
    )
