"""Seed constructors: numerals, atoms, chains, tuple codes, assembly."""

import dataclasses
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setforge import (
    AnnotatedGraph,
    AtomDecl,
    CodeSpec,
    ExtensionalDigraph,
    SeedClashError,
    SizeLimitError,
    SpecValidationError,
    TupleDecl,
    UnknownNodeError,
    assemble,
    define_class,
    deserialize,
    encode_tuple,
    numeral_ids,
    quine_atoms,
    serialize,
    verify_dred,
    von_neumann_seed,
)
from setforge import dred as dred_module
from setforge import seeds
from setforge.seeds import chain_atom_id, quine_atom_id

from helpers import (
    is_extensional,
    quine_code_formula,
    random_chain_spec,
    reference_chain_style_certificate,
    reference_families,
    reference_von_neumann_seed,
)


def extensions_as_sets(g: ExtensionalDigraph) -> set:
    return set(g.extensions.values())


# -- von Neumann stages ------------------------------------------------------


def test_von_neumann_zero_is_empty():
    assert len(von_neumann_seed(0)) == 0


def test_von_neumann_three():
    g = von_neumann_seed(3)
    assert len(g.nodes) == 4
    sizes = sorted(len(e) for e in g.extensions.values())
    assert sizes == [0, 1, 1, 2]  # emptyset, {0}, {1}, {0,1}
    assert is_extensional(g)


def test_von_neumann_four_has_sixteen_nodes():
    g = von_neumann_seed(4)
    assert len(g.nodes) == 16
    assert is_extensional(g)


@pytest.mark.parametrize("k", range(6))
def test_von_neumann_seed_agrees_with_its_old_body(k):
    """Completing the empty graph ``k`` steps gives the stage the old
    subset loop built: the same nodes, members and labels, in the same
    dict order."""
    g, want = von_neumann_seed(k), reference_von_neumann_seed(k)
    assert list(g.extensions.items()) == list(want.extensions.items())
    assert list(g.provenance.items()) == list(want.provenance.items())


def test_von_neumann_six_rejected():
    with pytest.raises(SizeLimitError):
        von_neumann_seed(6)


def test_von_neumann_is_transitive():
    g = von_neumann_seed(4)
    for x in g.nodes:
        for m in g.extensions[x]:
            assert g.extensions[m] <= g.extensions[x] | {m} or True
            # membership-transitivity proper:
            assert g.extensions[m] <= set(g.nodes)
    # every member of a node is itself a node with all its members present
    for x in g.nodes:
        for m in g.extensions[x]:
            assert m in g.nodes


def test_numeral_ids_prefix_stability():
    assert numeral_ids(2) == numeral_ids(4)[:2]


# -- quine atoms -------------------------------------------------------------


def test_quine_atoms_empty():
    assert len(quine_atoms([])) == 0


def test_quine_atoms_single():
    g = quine_atoms(["a"])
    (node,) = g.nodes
    assert g.extensions[node] == {node}


def test_quine_atoms_two_are_extensional():
    g = quine_atoms(["a", "b"])
    assert is_extensional(g)
    assert len(g.nodes) == 2


def test_quine_atoms_duplicate_labels_rejected():
    with pytest.raises(Exception):
        quine_atoms(["a", "a"])


def test_quine_atoms_are_capped_before_the_labels_run_out():
    cap = seeds._MAX_SEED_NODES
    assert len(quine_atoms(f"q{i}" for i in range(cap))) == cap
    with pytest.raises(SizeLimitError, match=f"^quine atoms are limited to {cap}$"):
        quine_atoms(f"q{i}" for i in range(cap + 1))
    # Past the cap the labels are not read: an endless supply is refused.
    with pytest.raises(SizeLimitError):
        quine_atoms(f"q{i}" for i in itertools.count())


# -- chains ------------------------------------------------------------------


def chain_seed(*lengths: int) -> seeds.AssembledSeed:
    atoms = tuple(AtomDecl(f"c{i}", "chain", length=n) for i, n in enumerate(lengths))
    return assemble(CodeSpec(atoms=atoms, naturals_up_to=len(lengths) + 1))


def test_chain_length_one():
    seed = chain_seed(2, 1)
    node = chain_atom_id("c1", 0)
    assert seed.graph.extensions[node] == {seed.numerals[2]}
    assert seed.atom_nodes["c1"] == node


def test_chain_length_three_structure():
    seed = chain_seed(3)
    a0, a1, a2 = (chain_atom_id("c0", j) for j in range(3))
    assert seed.graph.extensions[a0] == {a1}
    assert seed.graph.extensions[a1] == {a2}
    assert seed.graph.extensions[a2] == {seed.numerals[1]}
    assert seed.atom_nodes["c0"] == a0


def test_chains_sharing_terminal_clash():
    """Chain atom c ends at numeral c+1, so two chain atoms need three
    numerals; with two, both bottoms would be {numeral 1}."""
    atoms = (AtomDecl("a", "chain", length=2), AtomDecl("b", "chain", length=2))
    with pytest.raises(
        SpecValidationError,
        match="^2 chain atoms need distinct numeral terminals: naturals_up_to must be at least 3$",
    ):
        CodeSpec(atoms=atoms, naturals_up_to=2)
    assert len(assemble(CodeSpec(atoms=atoms, naturals_up_to=3)).graph) == 3 + 4


# -- tuple encoding ----------------------------------------------------------


def test_encode_pair_degenerate():
    g = ExtensionalDigraph.from_extensions({"t": set()})
    g2, top = encode_tuple(g, ["t", "t"])
    # pair(t, t) = {{t}}; adds {t} and {{t}}
    assert len(g2.nodes) == len(g.nodes) + 2
    (inner,) = g2.extensions[top]
    assert g2.extensions[inner] == {"t"}


def test_encode_an_empty_component_list_fails():
    with pytest.raises(ValueError, match="^cannot encode an empty component list$"):
        encode_tuple(ExtensionalDigraph.from_extensions({"t": set()}), [])


def test_encode_pair_quine_collapse():
    # For a quine atom x, {x} is extensionally x itself, so the whole
    # Kuratowski pair folds back onto the atom.
    g = quine_atoms(["x"])
    x = quine_atom_id("x")
    g2, top = encode_tuple(g, [x, x])
    assert top == x
    assert g2.nodes == g.nodes


def test_encode_pair_distinct():
    g = quine_atoms(["x", "y"])
    x, y = quine_atom_id("x"), quine_atom_id("y")
    g2, top = encode_tuple(g, [x, y])
    assert len(g2.nodes) <= len(g.nodes) + 3
    members = sorted(g2.extensions[top], key=lambda n: len(g2.extensions[n]))
    assert g2.extensions[members[0]] == {x}
    assert g2.extensions[members[1]] == {x, y}


def test_encode_tuple_deduplicates():
    g = quine_atoms(["x", "y"])
    x, y = quine_atom_id("x"), quine_atom_id("y")
    g2, top2 = encode_tuple(g, [x, y])
    g3, top3 = encode_tuple(g2, [x, y])
    assert top2 == top3
    assert g3.nodes == g2.nodes


def test_encode_tuple_injective_on_components():
    g = quine_atoms(["x", "y"])
    x, y = quine_atom_id("x"), quine_atom_id("y")
    g, t_xy = encode_tuple(g, [x, y])
    g, t_yx = encode_tuple(g, [y, x])
    g, t_x = encode_tuple(g, [x])
    assert len({t_xy, t_yx, t_x}) == 3
    assert g.extensions[t_xy] != g.extensions[t_yx]


def test_encode_tuple_right_nesting():
    g = quine_atoms(["x", "y", "z"])
    x, y, z = (quine_atom_id(v) for v in "xyz")
    g2, top = encode_tuple(g, [x, y, z])
    g3, rest = encode_tuple(g2, [y, z])
    g4, direct = encode_tuple(g3, [x, rest])
    assert g3.nodes == g2.nodes  # the nested pair was already there
    assert direct == top


# -- attach_codes ------------------------------------------------------------


def loop_spec(**overrides) -> CodeSpec:
    base = dict(
        atoms=(AtomDecl("a", "quine"), AtomDecl("b", "quine")),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("a",)), TupleDecl(1, ("b",))),
        code_style="loop",
    )
    base.update(overrides)
    return CodeSpec(**base)


def test_attach_codes_loop_shape():
    spec = loop_spec(tuples=(TupleDecl(0, ("a",)),))
    seed = assemble(spec)
    (decl,) = spec.tuples
    p = seed.index.tuple_nodes[decl]
    (code,) = seed.index.code_nodes[decl]
    assert seed.graph.extensions[code] == {code, p}


def test_attach_codes_chain_shape():
    spec = CodeSpec(
        atoms=(AtomDecl("a", "chain", length=2),),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("a",)),),
        code_style="chain",
        code_length=3,
    )
    seed = assemble(spec)
    (decl,) = spec.tuples
    p = seed.index.tuple_nodes[decl]
    b0, b1, b2 = seed.index.code_nodes[decl]
    g = seed.graph
    assert g.extensions[b0] == {p, b1}
    assert g.extensions[b1] == {p, b2}
    assert g.extensions[b2] == {p}


def test_attach_codes_distinct_tuples_distinct_codes():
    seed = assemble(loop_spec())
    d0, d1 = seed.spec.tuples
    c0 = seed.index.code_nodes[d0][0]
    c1 = seed.index.code_nodes[d1][0]
    assert seed.graph.extensions[c0] != seed.graph.extensions[c1]


def test_attach_codes_requires_known_components():
    """Tuples are encoded through the step ``encode_tuple`` exposes,
    which refuses a component that is not in the graph."""
    g = quine_atoms(["a"])
    with pytest.raises(UnknownNodeError, match="^tuple component 'atom:b' is not in the graph$"):
        encode_tuple(g, [quine_atom_id("a"), quine_atom_id("b")])


def test_attach_codes_names_both_tuples_that_encode_to_one_node(monkeypatch):
    """Over a quine atom a, {a} is a itself, so the tuples (0, a) and
    (0, a, a) encode to one node. Both declarations and the node are
    named, before any code node is made."""
    first, second = TupleDecl(0, ("a",)), TupleDecl(0, ("a", "a"))
    spec = loop_spec(atoms=(AtomDecl("a", "quine"),), naturals_up_to=1, tuples=(first, second))
    node = assemble(dataclasses.replace(spec, tuples=(first,))).index.tuple_nodes[first]

    def refuse(p):
        raise AssertionError(f"a code node was made for {p!r}")

    monkeypatch.setattr(seeds, "loop_code_id", refuse)
    with pytest.raises(SpecValidationError) as e:
        assemble(spec)
    assert str(e.value) == f"tuple declarations {first} and {second} both encode to node {node!r}"


# -- assemble ----------------------------------------------------------------


def test_assemble_empty_spec():
    seed = assemble(CodeSpec(atoms=(), naturals_up_to=0, tuples=()))
    assert len(seed.graph) == 0
    assert seed.dred is None


def test_assemble_loop_spec_definability():
    """The guarded tuples are exactly what the self-loop-code shape picks
    out, checked against a by-hand scan before trusting define_class."""
    seed = assemble(loop_spec())
    g = seed.graph
    by_hand = set()
    for p in g.nodes:
        for b in g.nodes:
            if b != p and g.extensions[b] == {b, p}:
                by_hand.add(p)
    assert by_hand == set(seed.index.tuple_node_set())
    assert define_class(g, quine_code_formula()) == frozenset(by_hand)


def test_assemble_is_extensional():
    for spec in (
        loop_spec(),
        loop_spec(tuples=(TupleDecl(0, ("a", "b")), TupleDecl(1, ("1", "a")))),
        CodeSpec(
            atoms=(AtomDecl("c", "chain", length=3),),
            naturals_up_to=3,
            tuples=(TupleDecl(2, ("c", "0")),),
            code_style="chain",
            code_length=2,
        ),
    ):
        assert is_extensional(assemble(spec).graph)


def test_assemble_chain_style_verifies():
    spec = CodeSpec(
        atoms=(AtomDecl("a", "chain", length=2),),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("a",)),),
        code_style="chain",
        code_length=2,
    )
    seed = assemble(spec)
    assert seed.dred is not None
    assert verify_dred(seed.dred).ok


def test_assemble_certifies_chain_labels_that_contain_the_id_separator():
    spec = CodeSpec(
        atoms=(AtomDecl("a:b", "chain", length=2),),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("a:b",)),),
        code_style="chain",
        code_length=1,
    )
    seed = assemble(spec)
    assert seed.dred is not None
    assert verify_dred(seed.dred).ok
    assert seed.dred.depth[chain_atom_id("a:b", 0)] == 2
    assert seed.dred.depth[chain_atom_id("a:b", 1)] == 1


CLASH = re.compile(
    r"^code node '[^']+' of tuple declaration TupleDecl\(tag=\d+, components=\(.*\)\) "
    r"would duplicate the extension of '[^']+' \((atom|tuple) .+\)$"
)


def assembled_or_named_clash(spec: CodeSpec) -> seeds.AssembledSeed | None:
    """The assembled seed, whose certificate verifies in chain style, or
    None when assembling refuses a code node that would duplicate a
    node, naming its tuple declaration and that node's provenance."""
    try:
        seed = assemble(spec)
    except SeedClashError as e:
        assert CLASH.match(str(e)), str(e)
        return None
    assert (seed.dred is not None) == (spec.code_style == "chain")
    assert seed.dred is None or verify_dred(seed.dred).ok
    return seed


def test_chain_link_clash_names_the_tuple_and_the_link():
    spec = CodeSpec(
        atoms=(AtomDecl("a", "chain", length=2),),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("0",)),),
        code_style="chain",
        code_length=1,
    )
    with pytest.raises(SeedClashError) as exc:
        assemble(spec)
    assert str(exc.value) == (
        "code node 'code:chain:0:chain:a:1' of tuple declaration "
        "TupleDecl(tag=0, components=('0',)) would duplicate the extension of "
        "'chain:a:0' (atom a[0])"
    )


def test_random_chain_specs_assemble_the_reference_certificate_or_name_the_clash():
    rng = random.Random(20)
    assembled = [assembled_or_named_clash(random_chain_spec(rng)) for _ in range(80)]
    built = [seed for seed in assembled if seed is not None]
    assert len(built) == 76
    for seed in built:
        assert seed.dred == reference_chain_style_certificate(seed.graph)


def test_chain_style_certificate_at_the_cap_and_one_past_it(monkeypatch):
    """The rank families a document of the certificate writes are priced:
    node x sits in families depth(x)+1 up to the top one."""
    spec = CodeSpec(
        atoms=(AtomDecl("a", "chain", length=5),),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("a",)),),
        code_style="chain",
        code_length=2,
    )
    dred = assemble(spec).dred
    assert dred is not None
    entries = sum(map(len, reference_families(dred).values()))
    assert dred.top == max(dred.depth.values()) + 1
    assert entries == sum(dred.top - d for d in dred.depth.values()) > 0
    monkeypatch.setattr(dred_module, "_MAX_RANK_ENTRIES", entries)
    assert assemble(spec).dred == dred
    monkeypatch.setattr(dred_module, "_MAX_RANK_ENTRIES", entries - 1)
    with pytest.raises(
        SizeLimitError,
        match=f"^chain-style certificates are limited to {entries - 1} rank-family entries, "
        f"got {entries}$",
    ):
        assemble(spec)


LONG_CHAIN = sys.getrecursionlimit() + 50


@pytest.mark.parametrize(
    "spec",
    [
        CodeSpec(
            atoms=(AtomDecl("a", "chain", length=LONG_CHAIN),),
            naturals_up_to=2,
            code_style="chain",
            code_length=1,
        ),
        CodeSpec(
            naturals_up_to=1,
            tuples=(TupleDecl(0, ("0",)),),
            code_style="chain",
            code_length=LONG_CHAIN,
        ),
        CodeSpec(
            naturals_up_to=2,
            tuples=(TupleDecl(0, ("0", "1") * 350),),
            code_style="chain",
            code_length=1,
        ),
    ],
    ids=["long-chain-atom", "long-chain-code", "700-component-tuple"],
)
def test_assemble_certifies_chain_style_specs_deeper_than_the_recursion_limit(spec):
    seed = assemble(spec)
    assert seed.dred is not None
    assert verify_dred(seed.dred).ok


def test_assemble_loop_codes_are_only_new_self_loops():
    seed = assemble(loop_spec())
    g = seed.graph
    loops = {x for x in g.nodes if x in g.extensions[x]}
    quines = {quine_atom_id("a"), quine_atom_id("b")}
    codes = {c for cs in seed.index.code_nodes.values() for c in cs}
    assert loops == quines | codes


def test_assemble_numerals_present():
    seed = assemble(loop_spec(naturals_up_to=3))
    assert len(seed.numerals) == 3
    g = seed.graph
    assert g.extensions[seed.numerals[0]] == frozenset()
    assert g.extensions[seed.numerals[2]] == {seed.numerals[0], seed.numerals[1]}


# -- spec validation ---------------------------------------------------------


def test_spec_duplicate_labels():
    with pytest.raises(SpecValidationError):
        CodeSpec(
            atoms=(AtomDecl("a", "quine"), AtomDecl("a", "quine")),
            naturals_up_to=0,
            tuples=(),
        )


def test_spec_negative_naturals_and_unknown_code_style():
    with pytest.raises(SpecValidationError, match="^naturals_up_to must be non-negative$"):
        CodeSpec(naturals_up_to=-1)
    with pytest.raises(SpecValidationError, match="^unknown code style 'zigzag'$"):
        CodeSpec(code_style="zigzag")


def test_spec_tag_out_of_range():
    with pytest.raises(SpecValidationError):
        loop_spec(tuples=(TupleDecl(5, ("a",)),))


def test_spec_unknown_component():
    with pytest.raises(SpecValidationError):
        loop_spec(tuples=(TupleDecl(0, ("zz",)),))


def test_spec_chain_needs_length():
    with pytest.raises(SpecValidationError):
        CodeSpec(atoms=(AtomDecl("a", "chain"),), naturals_up_to=2, tuples=())


def test_spec_chain_style_rejects_quine_atoms():
    with pytest.raises(SpecValidationError):
        CodeSpec(
            atoms=(AtomDecl("a", "quine"),),
            naturals_up_to=1,
            tuples=(),
            code_style="chain",
            code_length=2,
        )


def test_spec_chain_terminals_need_numerals():
    with pytest.raises(SpecValidationError):
        CodeSpec(
            atoms=(AtomDecl("a", "chain", length=2),),
            naturals_up_to=1,  # needs chain_count + 1 = 2
            tuples=(),
            code_style="chain",
            code_length=1,
        )


def test_spec_numerals_capped_at_validation():
    assert CodeSpec(naturals_up_to=seeds._MAX_NATURALS).naturals_up_to == 1024
    with pytest.raises(SizeLimitError, match="^naturals_up_to is limited to 1024, got 1025$"):
        CodeSpec(naturals_up_to=1025)


@pytest.mark.parametrize("style", ["loop", "chain", "tuples"])
def test_spec_chain_nodes_capped_at_validation(style):
    """Chain-atom links, tuple nodes and code nodes are priced together
    before anything is built, each tuple at 3 nodes per component plus
    its code: one chain atom; in chain style with one one-component
    tuple guarded by a chain code of the remaining length; in loop
    style with 16,383 one-component tuples."""
    cap = seeds._MAX_SEED_NODES

    def spec(nodes):
        if style == "loop":
            return CodeSpec(atoms=(AtomDecl("a", "chain", length=nodes),), naturals_up_to=2)
        if style == "tuples":
            count = cap // 4 - 1
            return CodeSpec(
                atoms=(AtomDecl("a", "chain", length=nodes - 4 * count),),
                naturals_up_to=1024,
                tuples=[TupleDecl(i % 1024, (str(i // 1024),)) for i in range(count)],
            )
        return CodeSpec(
            atoms=(AtomDecl("a", "chain", length=1),),
            naturals_up_to=2,
            tuples=(TupleDecl(0, ("a",)),),
            code_style="chain",
            code_length=nodes - 1 - 3,
        )

    spec(cap)
    with pytest.raises(
        SizeLimitError,
        match=f"^chain atoms, tuples and codes are limited to {cap} nodes, got {cap + 1}$",
    ):
        spec(cap + 1)


def test_assemble_builds_the_numeral_ids_a_fixed_number_of_times(monkeypatch):
    """Not once per tuple or component: each call hashes every numeral
    below the count, so per-tuple calls made many tuples quadratic. Nor
    a graph per chain atom: the seed is built once, besides the one
    ``quine_atoms`` returns."""
    calls = []
    graphs = []
    monkeypatch.setattr(seeds, "numeral_ids", lambda n: calls.append(n) or numeral_ids(n))
    monkeypatch.setattr(
        seeds, "ExtensionalDigraph", lambda *a: graphs.append(a) or ExtensionalDigraph(*a)
    )
    counts = []
    for n in (1, 60):
        calls.clear()
        graphs.clear()
        atoms = (AtomDecl("a", "quine"),) + tuple(
            AtomDecl(f"c{i}", "chain", length=2) for i in range(n // 5)
        )
        tuples = tuple(TupleDecl(i % 20, ("a", str(i // 20))) for i in range(n))
        assemble(CodeSpec(atoms=atoms, naturals_up_to=20, tuples=tuples))
        counts.append((len(calls), len(graphs)))
    assert counts[0] == counts[1] == (1, 2)


def test_attach_codes_agrees_with_encoding_one_tuple_at_a_time():
    """Every tuple goes into one shared copy of the graph; encoding each
    through ``encode_tuple`` in turn gives the same nodes, in the same
    order, and the same tops."""
    spec = CodeSpec(
        atoms=(AtomDecl("a", "quine"), AtomDecl("b", "quine")),
        naturals_up_to=4,
        tuples=tuple(
            TupleDecl(t, c)
            for t in range(4)
            for c in (("a",), ("b", "a"), ("3", "a", "3"), (str(t),), ("3", "3"))
        ),
    )
    seed = assemble(spec)
    g = assemble(dataclasses.replace(spec, tuples=())).graph
    for decl in spec.tuples:
        components = [seed.numerals[decl.tag]]
        components += [seed.numerals[int(c)] if c.isdigit() else seed.atom_nodes[c] for c in decl.components]
        g, top = encode_tuple(g, components)
        assert seed.index.tuple_nodes[decl] == top
    # the code nodes come after every tuple node
    assert list(seed.graph.extensions)[: len(g)] == list(g.extensions)
    assert all(seed.graph.extensions[x] == g.extensions[x] for x in g.nodes)
    assert all(seed.graph.provenance[x] == g.provenance[x] for x in g.nodes)


@pytest.mark.parametrize("component", ["4", "0004", "1" * 5000], ids=["just-past", "zero-padded", "5000-digits"])
def test_spec_numeral_components_past_the_embedded_numerals(component):
    """Past Python's integer string limit too: no numeral that long is
    ever handed to int()."""
    with pytest.raises(SpecValidationError) as caught:
        CodeSpec(naturals_up_to=4, tuples=(TupleDecl(0, (component,)),))
    assert str(caught.value) == f"component numeral {component} not embedded (naturals_up_to=4)"


def test_spec_numeral_components_may_carry_any_number_of_leading_zeros():
    padded = CodeSpec(naturals_up_to=4, tuples=(TupleDecl(0, ("0" * 5000 + "3",)),))
    plain = CodeSpec(naturals_up_to=4, tuples=(TupleDecl(0, ("3",)),))
    assert assemble(padded).graph == assemble(plain).graph


def test_spec_duplicate_tuples():
    with pytest.raises(SpecValidationError):
        loop_spec(tuples=(TupleDecl(0, ("a",)), TupleDecl(0, ("a",))))


def test_numeral_label_collision_rejected():
    with pytest.raises(SpecValidationError):
        loop_spec(atoms=(AtomDecl("3", "quine"),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: loop_spec(atoms=(AtomDecl(7, "quine"),)),
        lambda: CodeSpec(
            atoms=(AtomDecl("a", "chain", length="2"),),
            naturals_up_to=2,
            code_style="chain",
            code_length=1,
        ),
        lambda: CodeSpec(naturals_up_to=1, code_style="chain", code_length="1"),
        lambda: CodeSpec(naturals_up_to="2"),
        lambda: loop_spec(tuples=(TupleDecl(True, ("a",)),)),
        lambda: loop_spec(tuples=(TupleDecl(0, (["a"],)),)),
    ],
    ids=["label", "length", "code-length", "naturals", "bool-tag", "component"],
)
def test_spec_field_types_are_checked(build):
    with pytest.raises(SpecValidationError):
        build()


# Label characters: plain, escaped, the id separator, a numeral digit,
# a character outside the BMP and two lone surrogates.
LABEL_CHARS = ("a", "b", "é", ":", "\x1f", '"', "0", "\U0001f600", "\ud800", "\udfff")


@st.composite
def specs(draw):
    """Code specs of every shape, most of them valid."""
    label = st.text(st.sampled_from(LABEL_CHARS), min_size=1, max_size=3)
    labels = draw(st.lists(label, max_size=3, unique=True))
    style = draw(st.sampled_from(("loop", "chain")))
    atoms = tuple(
        AtomDecl(label, "chain", draw(st.integers(1, 3)))
        if style == "chain" or draw(st.booleans())
        else AtomDecl(label, "quine")
        for label in labels
    )
    naturals = draw(st.integers(len(atoms) + 1, 5))
    names = [*labels, *map(str, range(naturals))]
    components = st.lists(st.sampled_from(names), min_size=1, max_size=3).map(tuple)
    tuple_decl = st.builds(TupleDecl, st.integers(0, naturals - 1), components)
    tuples = draw(st.lists(tuple_decl, max_size=2, unique=True))
    length = draw(st.integers(1, 2)) if style == "chain" else None
    return atoms, naturals, tuple(tuples), style, length


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(specs())
def test_every_accepted_spec_writes_a_document_that_reads_back(case):
    """No spec that CodeSpec accepts yields a document the reader
    refuses: a lone surrogate in a label is refused by the spec. Each
    accepted spec assembles, certified in chain style, or names the
    clash; only loop style can encode two declarations to one node
    (over a quine atom, {a} is a itself)."""
    atoms, naturals, tuples, style, length = case
    try:
        spec = CodeSpec(atoms, naturals, tuples, style, length)
    except SpecValidationError:
        return
    try:
        seed = assembled_or_named_clash(spec)
    except SpecValidationError as e:
        assert style == "loop" and "both encode to node" in str(e)
        return
    if seed is None:
        return
    doc = seed.dred or AnnotatedGraph(seed.graph)
    assert deserialize(serialize(doc)) == doc
