"""Formula parsing, printing, evaluation, and the axiom probes."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    chain_code_formula,
    is_extensional,
    naive_eval,
    print_formula,
    quine_code_formula,
    random_closed_formula,
    random_extensional_graph,
    random_formula,
    reference_check_infinity,
    reference_parse,
)

from setforge import (
    And,
    AtomDecl,
    CodeSpec,
    Equal,
    Exists,
    ExtensionalDigraph,
    ForAll,
    FormulaError,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    ParseError,
    TupleDecl,
    UnknownNodeError,
    assemble,
    check_axiom,
    complete,
    define_class,
    eval_formula,
    free_variables,
    parse,
    quine_atoms,
    von_neumann_seed,
)
from setforge.logic import MAX_FORMULA_DEPTH, _guard
from setforge.seeds import quine_atom_id


# -- parsing -----------------------------------------------------------------


def test_parse_member():
    assert parse("x in y") == Member("x", "y")


def test_parse_equal():
    assert parse("x = y") == Equal("x", "y")


def test_parse_precedence():
    # & binds tighter than |, both tighter than ->
    f = parse("x in y & y in z | x = z")
    assert f == Or(And(Member("x", "y"), Member("y", "z")), Equal("x", "z"))


def test_parse_implies_right_associates():
    f = parse("x = x -> y = y -> z = z")
    assert f == Implies(Equal("x", "x"), Implies(Equal("y", "y"), Equal("z", "z")))


def test_parse_quantifier_body_extends_right():
    f = parse("all z. z in b & z = b")
    assert f == ForAll("z", And(Member("z", "b"), Equal("z", "b")))


def test_parse_not():
    assert parse("!(x = y)") == Not(Equal("x", "y"))


def test_parse_quine_shape():
    text = "exists b. ((all z. (z in b <-> (z = b | z = p))) & !(b = p))"
    assert parse(text) == quine_code_formula()


def test_parse_unicode_aliases():
    assert parse("x ∈ y") == parse("x in y")
    assert parse("∀x. ∃y. x ∈ y ∧ ¬(x = y)") == parse(
        "all x. exists y. x in y & !(x = y)"
    )
    assert parse("x = x → y = y") == parse("x = x -> y = y")
    assert parse("x = x ↔ y = y") == parse("x = x <-> y = y")


def test_parse_error_unbalanced():
    with pytest.raises(ParseError) as err:
        parse("(x in y")
    assert err.value.position == 7


def test_parse_error_dangling_operator():
    with pytest.raises(ParseError):
        parse("x in")


def test_parse_error_keyword_as_variable():
    with pytest.raises(ParseError):
        parse("in in x")


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse("x = y y")
    assert err.value.position == 6


def test_keywords_not_variables():
    with pytest.raises(ParseError):
        parse("exists in. in = in")


def nested_formulas(depth: int) -> dict:
    """One formula text per nesting shape, each exactly ``depth`` deep."""
    return {
        "negation": "!" * (depth - 1) + "x in y",
        "parentheses": "(" * (depth - 1) + "x in y" + ")" * (depth - 1),
        "quantifiers": "exists y. " * (depth - 1) + "x in y",
        "implications": " -> ".join(["x in y"] * depth),
        "equivalences": " <-> ".join(["x in y"] * depth),
        "conjuncts": " & ".join(["x in y"] * depth),
        "disjuncts": " | ".join(["x in y"] * depth),
        "mixed": "all y. (" * ((depth - 1) // 2) + "!" * ((depth - 1) % 2) + "x in y"
        + ")" * ((depth - 1) // 2),
    }


def test_formula_at_the_nesting_cap_round_trips():
    for shape, text in nested_formulas(MAX_FORMULA_DEPTH).items():
        f = parse(text)
        assert parse(print_formula(f)) == f, shape
        assert free_variables(f) <= {"x", "y"}


def test_formula_past_the_nesting_cap_is_a_parse_error():
    for shape, text in nested_formulas(MAX_FORMULA_DEPTH + 1).items():
        with pytest.raises(ParseError, match="nests deeper than") as err:
            parse(text)
        assert 0 < err.value.position < len(text), shape
    # the depth counts levels, not tokens: a group of k conjuncts is
    # k + 1 deep, whichever side of a connective it stands on
    def group(k):
        return "(" + " & ".join(["x in y"] * k) + ")"

    for shape in ("!{}", "{} & x in y", "x in y & {}", "{} -> x in y"):
        parse(shape.format(group(MAX_FORMULA_DEPTH - 2)))
        with pytest.raises(ParseError):
            parse(shape.format(group(MAX_FORMULA_DEPTH - 1)))


def _frames() -> int:
    """How many frames the caller's stack holds."""
    frame, count = sys._getframe(1), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_formulas_at_the_nesting_cap_parse_within_400_frames():
    """The parser takes three frames per parenthesised level (the
    connective loop, the unary and the atom), two per quantifier and one
    per negation or connective: about 305 for the deepest shape at the
    cap. One method per precedence tier takes six per parenthesised
    level, about 605."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 400)
    try:
        for shape, text in nested_formulas(MAX_FORMULA_DEPTH).items():
            try:
                parse(text)
            except RecursionError:
                pytest.fail(f"{shape} needs more than 400 frames")
    finally:
        sys.setrecursionlimit(limit)


_TOKENS = ("x", "y", "in", "=", "!", "&", "|", "->", "<->", "(", ")", "exists", "all", ".")


def _formula_text(rng: random.Random, nesting: int, operands: int) -> str:
    """A formula in the grammar: ``operands`` operands joined by
    connectives without parentheses, an operand being an atom, negations
    of one or, while ``nesting`` lasts, a quantifier or a parenthesised
    formula."""

    def operand() -> str:
        roll = rng.random()
        if nesting and roll < 0.25:
            inner = _formula_text(rng, nesting - 1, rng.randint(1, 4))
            if roll < 0.15:
                return f"({inner})"
            return f"{rng.choice(['exists', 'all', '∃', '∀'])} {rng.choice('xyz')}. {inner}"
        if roll < 0.4:
            return rng.choice(["!", "¬"]) * rng.randint(1, 3) + operand()
        return f"{rng.choice('xyz')} {rng.choice(['in', '=', '∈'])} {rng.choice('xyz')}"

    connectives = rng.sample(["&", "|", "->", "<->", "∧", "∨", "→", "↔"], rng.randint(1, 4))
    text = operand()
    for _ in range(operands - 1):
        text += f" {rng.choice(connectives)} {operand()}"
    return text


def _parsed(parse_text, text: str):
    try:
        return ("ok", parse_text(text))
    except Exception as e:  # compared, not swallowed: both parsers must agree
        return ("raised", type(e).__name__, str(e), getattr(e, "position", None))


def test_parse_agrees_with_the_reference_parser():
    """Grammar-generated formulas, their truncations, and random token
    strings give equal trees, or equal errors at equal positions."""
    rng = random.Random(34)
    texts = []
    for _ in range(1500):
        # Some chains are long enough to pass the nesting cap.
        text = _formula_text(rng, 3, rng.choice([rng.randint(1, 6), rng.randint(40, 110)]))
        texts += [text, text[: rng.randrange(len(text) + 1)]]
    texts += [" ".join(rng.choices(_TOKENS, k=rng.randint(0, 12))) for _ in range(3000)]
    outcomes = [_parsed(parse, text) for text in texts]
    assert outcomes == [_parsed(reference_parse, text) for text in texts]
    kinds = [o[0] if o[0] == "ok" else o[2].split(": ", 1)[1][:12] for o in outcomes]
    assert kinds.count("ok") > 1000 and kinds.count("formula nest") > 100, set(kinds)


# -- printing ----------------------------------------------------------------


def test_print_member():
    assert print_formula(Member("x", "y")) == "x in y"


def test_print_respects_precedence():
    f = And(Or(Equal("x", "y"), Equal("y", "z")), Member("x", "z"))
    printed = print_formula(f)
    assert parse(printed) == f


def test_print_quantifier():
    f = ForAll("x", Exists("y", Member("x", "y")))
    assert parse(print_formula(f)) == f


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_print_parse_round_trip(r):
    rng = random.Random(r.getrandbits(64))
    f = random_formula(rng, depth=4, bound=("x", "y"))
    assert parse(print_formula(f)) == f


def test_free_variables():
    f = Exists("b", And(Member("b", "p"), Equal("q", "b")))
    assert free_variables(f) == {"p", "q"}
    assert free_variables(quine_code_formula()) == {"p"}


# -- evaluation --------------------------------------------------------------


def test_eval_quine_self_membership():
    g = quine_atoms(["a"])
    a = quine_atom_id("a")
    assert eval_formula(g, Member("x", "x"), {"x": a})
    assert eval_formula(g, parse("all x. x in x"))


def test_eval_no_top_node():
    u = complete(ExtensionalDigraph.empty(), 2)
    assert not eval_formula(u.graph, parse("all x. exists y. x in y"))


def test_eval_unbound_variable():
    g = quine_atoms(["a"])
    with pytest.raises(FormulaError):
        eval_formula(g, Member("x", "y"), {"x": quine_atom_id("a")})


def test_eval_unknown_binding():
    g = quine_atoms(["a"])
    with pytest.raises(UnknownNodeError):
        eval_formula(g, Member("x", "x"), {"x": "ghost"})


def test_eval_quantifiers_shadow_bindings():
    g = von_neumann_seed(2)  # two nodes: empty and its singleton
    # The inner "exists x" must shadow the outer binding of x.
    f = parse("exists x. !(x = y)")
    for node in g.nodes:
        assert eval_formula(g, f, {"x": node, "y": node})


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_eval_agrees_with_naive(r):
    rng = random.Random(r.getrandbits(64))
    g = random_extensional_graph(rng, 5, min_nodes=1)
    f = random_closed_formula(rng, depth=3)
    assert eval_formula(g, f) == naive_eval(g, f, {})


# -- class definition --------------------------------------------------------


def test_define_class_everything():
    g = von_neumann_seed(3)
    assert define_class(g, parse("x = x")) == g.nodes


def test_define_class_self_loops():
    g = quine_atoms(["a", "b"])
    g2 = complete(g, 1).graph
    loops = {x for x in g2.nodes if x in g2.extensions[x]}
    assert define_class(g2, parse("x in x")) == loops
    assert loops == g.nodes


def test_define_class_empty_on_wellfounded():
    u = complete(ExtensionalDigraph.empty(), 3)
    assert define_class(u.graph, parse("x in x")) == frozenset()


def test_define_class_needs_one_free_variable():
    g = von_neumann_seed(2)
    with pytest.raises(FormulaError):
        define_class(g, parse("x in y"))
    with pytest.raises(FormulaError):
        define_class(g, parse("all x. x = x"))


# -- axiom probes ------------------------------------------------------------


def test_extensionality_probe_agrees_with_checker():
    rng = random.Random(20260818)
    for _ in range(25):
        g = random_extensional_graph(rng, 5)
        report = check_axiom(g, "extensionality")
        assert report.holds == is_extensional(g)


def test_extensionality_probe_witness():
    g = ExtensionalDigraph.from_extensions({"a": set(), "b": set(), "c": {"a"}})
    report = check_axiom(g, "extensionality")
    assert not report.holds
    assert set(report.witness) == {"a", "b"}


def test_foundation_probe_on_wellfounded():
    assert check_axiom(von_neumann_seed(4), "foundation_minimal").holds


def test_foundation_probe_quine_counterexample():
    g = quine_atoms(["a"])
    report = check_axiom(g, "foundation_minimal")
    assert not report.holds
    assert report.witness == (quine_atom_id("a"),)


def test_infinity_probe_is_false_on_finite_graphs():
    for g in (
        von_neumann_seed(4),
        complete(quine_atoms(["a"]), 2).graph,
        complete(ExtensionalDigraph.empty(), 3).graph,
    ):
        assert not check_axiom(g, "infinity").holds


def infinity_probe_graphs():
    """Every digraph on up to three nodes, self-loops and shared
    extensions included; random ones on up to seven; and von Neumann
    numerals 0..k under a node that holds them all, with or without
    the next numeral, so the successor search runs deep."""
    for n in range(4):
        names = [f"n{i}" for i in range(n)]
        pairs = [(m, c) for c in names for m in names]
        for mask in range(1 << len(pairs)):
            chosen = (pair for bit, pair in enumerate(pairs) if mask >> bit & 1)
            yield ExtensionalDigraph.from_edges(names, chosen)
    rng = random.Random(508)
    for _ in range(300):
        names = [f"n{i}" for i in range(rng.randint(1, 7))]
        yield ExtensionalDigraph.from_extensions(
            {x: {y for y in names if rng.random() < 0.4} for x in names}
        )
    for k in range(1, 5):
        for extra in (False, True):
            numerals = [f"v{j}" for j in range(k + 1 + extra)]
            extensions = {v: numerals[:j] for j, v in enumerate(numerals)}
            yield ExtensionalDigraph.from_extensions({**extensions, "i": numerals[: k + 1]})


def test_infinity_probe_agrees_with_the_search():
    graphs = 0
    for g in infinity_probe_graphs():
        assert check_axiom(g, "infinity") == reference_check_infinity(g)
        graphs += 1
    assert graphs == 531 + 300 + 8


def test_unknown_axiom():
    with pytest.raises(ValueError):
        check_axiom(von_neumann_seed(1), "choice")


# -- code-detection formulas -------------------------------------------------


def chain_class_by_hand(g: ExtensionalDigraph, bound: int) -> frozenset:
    """Independent scan: v is selected when some b_0..b_bound satisfy
    ext(b_j) == {b_{j+1}, v} for all j < bound, by direct set equality."""
    nodes = sorted(g.nodes)

    def descend(b, v, steps):
        if steps == 0:
            return True
        return any(
            g.extensions[b] == {nxt, v} and descend(nxt, v, steps - 1)
            for nxt in nodes
        )

    return frozenset(v for v in nodes if any(descend(b, v, bound) for b in nodes))


CHAIN_SPEC = CodeSpec(
    atoms=(AtomDecl("a", "chain", length=2),),
    naturals_up_to=2,
    tuples=(TupleDecl(0, ("a",)),),
    code_style="chain",
    code_length=3,
)


def test_chain_formula_needs_positive_bound():
    with pytest.raises(ValueError):
        chain_code_formula(0)


def test_chain_formula_matches_direct_scan():
    g = assemble(CHAIN_SPEC).graph
    for bound in (1, 2, 3, 4):
        got = define_class(g, chain_code_formula(bound))
        assert got == chain_class_by_hand(g, bound), f"bound {bound}"


def test_chain_formula_keeps_tuples_up_to_code_length():
    seed = assemble(CHAIN_SPEC)
    tuples = set(seed.index.tuple_node_set())
    for bound in (1, 2, 3):  # code_length is 3
        assert tuples <= define_class(seed.graph, chain_code_formula(bound))


def test_chain_formula_drops_tuples_past_code_length():
    seed = assemble(CHAIN_SPEC)
    cls = define_class(seed.graph, chain_code_formula(4))
    assert not (set(seed.index.tuple_node_set()) & cls)


def test_chain_formula_overselects_at_shallow_bounds():
    # The one-step unfolding also fires on singleton extensions (take
    # b_1 = v), so at bound 1 nearly everything qualifies. Exact value
    # frozen from the direct scan: only the top code node escapes.
    seed = assemble(CHAIN_SPEC)
    g = seed.graph
    cls = define_class(g, chain_code_formula(1))
    (decl,) = seed.spec.tuples
    top_code = seed.index.code_nodes[decl][0]
    assert cls == g.nodes - {top_code}
    assert define_class(g, chain_code_formula(2)) == seed.index.tuple_node_set()


def test_quine_formula_ignores_bare_quine_atoms():
    # A quine atom is b = {b}, not b = {b, p} for a distinct p, so the
    # loop-detection formula selects nothing on an atoms-only graph.
    g = quine_atoms(["a", "b"])
    assert define_class(g, quine_code_formula()) == frozenset()


# -- guarded quantifiers -----------------------------------------------------

GUARD_SHAPES = frozenset(
    {
        "member-of-guard",  # v in u
        "container-of-guard",  # u in v
        "exists-first",
        "exists-later",
        "forall-antecedent",
        "forall-conjunct",
        "outer-bound-guard",
        "shadowed",
        "self-membership",
    }
)


def near_guard(rng, var, scope):
    """An atom on ``var`` alone or under a connective that hides it as a guard."""
    u = rng.choice(scope)
    atom = rng.choice((Member(var, u), Member(u, var), Equal(var, u)))
    ctor = rng.choice((None, Not, Or, Implies, Iff))
    if ctor is None:
        return atom
    if ctor is Not:
        return Not(atom)
    return ctor(atom, Member(rng.choice(scope), rng.choice(scope)))


def random_guarded_formula(rng, depth, scope, free, seen):
    """Random formula whose quantifiers mostly take a guarded shape.

    ``scope`` lists the variables in scope, ``free`` those free in the
    whole formula; every shape a quantifier takes is added to ``seen``.
    """
    if depth == 0 or rng.random() < 0.15:
        a, b = rng.choice(scope), rng.choice(scope)
        return Member(a, b) if rng.random() < 0.6 else Equal(a, b)
    roll = rng.random()
    if roll < 0.1:
        return Not(random_guarded_formula(rng, depth - 1, scope, free, seen))
    if roll < 0.3:
        ctor = rng.choice((And, Or, Implies, Iff))
        return ctor(
            random_guarded_formula(rng, depth - 1, scope, free, seen),
            random_guarded_formula(rng, depth - 1, scope, free, seen),
        )
    var = rng.choice(("x", "y", "z", "w"))
    if var in scope:
        seen.add("shadowed")
    inner = tuple(sorted(set(scope) | {var}))
    others = [u for u in scope if u != var]
    if others and rng.random() < 0.85:
        u = rng.choice(others)
        if u not in free:
            seen.add("outer-bound-guard")
        if rng.random() < 0.5:
            guard, direction = Member(var, u), "member-of-guard"
        else:
            guard, direction = Member(u, var), "container-of-guard"
        seen.add(direction)
    else:
        guard = None
    if guard is None and rng.random() < 0.5:
        guard = near_guard(rng, var, inner)
    elif guard is None or rng.random() < 0.2:
        # v in v ahead of the real guard, or in place of one
        seen.add("self-membership")
        loop = Member(var, var)
        guard = loop if guard is None else And(loop, guard)
    body = random_guarded_formula(rng, depth - 1, inner, free, seen)
    other = near_guard(rng, var, inner)
    shape = rng.choice(("exists-first", "exists-later", "forall-antecedent", "forall-conjunct"))
    seen.add(shape)
    if shape == "exists-first":
        return Exists(var, And(guard, body))
    if shape == "exists-later":
        if rng.random() < 0.5:
            return Exists(var, And(other, And(guard, body)))
        return Exists(var, And(And(other, guard), body))
    if shape == "forall-antecedent":
        return ForAll(var, Implies(guard, body))
    ante = And(other, guard) if rng.random() < 0.5 else And(guard, other)
    return ForAll(var, Implies(ante, body))


def test_guarded_shapes_agree_with_naive():
    rng = random.Random(20261018)
    seen = set()
    formulas = 0
    for _ in range(150):
        g = random_extensional_graph(rng, 5, min_nodes=1)
        nodes = sorted(g.nodes)
        for _ in range(4):
            f = random_guarded_formula(rng, 3, ("x", "y"), ("x", "y"), seen)
            env = {"x": rng.choice(nodes), "y": rng.choice(nodes)}
            assert eval_formula(g, f, env) == naive_eval(g, f, env), print_formula(f)
            one = random_guarded_formula(rng, 3, ("x",), ("x",), seen)
            if free_variables(one) != {"x"}:
                continue
            formulas += 1
            scan = frozenset(x for x in nodes if naive_eval(g, one, {"x": x}))
            assert define_class(g, one) == scan, print_formula(one)
            owner = rng.choice(nodes)
            assert eval_formula(g, one, {"x": owner}) == (owner in scan), print_formula(one)
    assert GUARD_SHAPES <= seen, GUARD_SHAPES - seen
    assert formulas > 300


@pytest.mark.parametrize(
    "text, guard",
    [
        ("exists y. (y in x & x in y)", Member("y", "x")),
        ("exists y. (y = y & x in y)", Member("x", "y")),
        ("exists y. ((y = x & z in x) & (y in y & y in z))", Member("y", "z")),
        ("all y. (y in x -> y = y)", Member("y", "x")),
        ("all y. (y = x & x in y -> y in z)", Member("x", "y")),
        ("all y. (y in x & y = y)", None),
        ("all y. (y = y -> y in x)", None),
        ("exists y. (y in y & y = x)", None),
        ("exists y. (y in x | y = y)", None),
        ("exists y. !(y in x)", None),
        ("exists y. exists z. (z in y & y in x)", None),
    ],
)
def test_guard_is_first_membership_conjunct(text, guard):
    assert _guard(parse(text)) == guard


def test_containers_built_only_for_a_container_guard():
    g = complete(von_neumann_seed(3), 1).graph
    define_class(g, parse("exists y. (y in x & x in y)"))
    define_class(g, parse("all y. (y in y -> x in y)"))
    assert "_containers" not in g.__dict__
    assert define_class(g, parse("exists y. (x in y & y in x)")) == frozenset()
    assert "_containers" in g.__dict__


def test_deep_library_formula_still_compiles():
    g = ExtensionalDigraph.from_extensions({"e": set()})
    assert define_class(g, chain_code_formula(300)) == frozenset()


# -- generated source ----------------------------------------------------------

DEEP = 300


def _deep_library_formulas() -> dict:
    """Formulas ``DEEP`` levels deep, built without the parser, each with
    the one free variable ``x``.  A quantifier chain's body holds at the
    first node and fails at the second, so every ``exists`` stops at its
    first node and every ``all`` at its first node but the innermost."""
    atoms = (Member("x", "x"), Not(Equal("x", "x")))

    def right(ctor):
        f = atoms[0]
        for i in range(DEEP - 1):
            f = ctor(atoms[i % 2], f)
        return f

    def left(ctor):
        f = atoms[0]
        for i in range(DEEP - 1):
            f = ctor(f, atoms[i % 2])
        return f

    def quantifiers(ctor, names):
        f = And(Member(names[(DEEP - 1) % len(names)], names[(DEEP - 1) % len(names)]),
                Equal("x", "x"))
        for i in reversed(range(DEEP)):
            f = ctor(names[i % len(names)], f)
        return f

    negations = atoms[0]
    for _ in range(DEEP - 1):
        negations = Not(negations)
    return {
        "not": negations,
        "iff": right(Iff),
        "implies": right(Implies),
        "and": left(And),
        "or": left(Or),
        "exists": quantifiers(Exists, [f"y{i}" for i in range(DEEP)]),
        "forall": quantifiers(ForAll, ["y", "z"]),  # each rebinds the one two levels out
    }


DEEP_FORMULAS = _deep_library_formulas()


def _naive_with_frames(g, f, env):
    """``naive_eval``, which takes several frames per quantifier, under a
    recursion limit raised for it alone."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * DEEP)
    try:
        return naive_eval(g, f, env)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("shape", sorted(DEEP_FORMULAS))
def test_deep_library_formulas_agree_with_naive(shape):
    f = DEEP_FORMULAS[shape]
    g = ExtensionalDigraph.from_extensions({"a": {"a"}, "b": set()})
    assert free_variables(f) == {"x"}
    scan = frozenset(x for x in ("a", "b") if _naive_with_frames(g, f, {"x": x}))
    assert define_class(g, f) == scan
    for x in ("a", "b"):
        assert eval_formula(g, f, {"x": x}) == (x in scan)


HOSTILE_NAMES = ("def", "x y", "__import__('os')", "x²", "p0", "v1", "q0", "ext", "nodes", "top")


def _hostile_formulas(a: str, b: str) -> list:
    """Formulas free in ``a`` alone that bind ``b`` and rebind ``a`` and ``b``
    under it: a member guard, a container guard and an unguarded pair."""
    return [
        Exists(b, And(Member(b, a), Exists(a, And(Member(a, b), Not(Equal(a, b)))))),
        ForAll(b, Implies(Member(a, b), Or(Equal(a, b), ForAll(a, Iff(Member(a, b), Member(b, a)))))),
        Not(Exists(b, Or(Member(b, b), Exists(b, Equal(a, b))))),
    ]


@pytest.mark.parametrize("name", HOSTILE_NAMES)
def test_variable_names_never_reach_the_source(name):
    # Node ids that collide with the generated names as well.
    g = ExtensionalDigraph.from_extensions(
        {"ext": set(), "q0": {"ext"}, "p0": {"q0"}, "x y": {"ext", "q0"}, "nodes": {"nodes"}}
    )
    other = HOSTILE_NAMES[(HOSTILE_NAMES.index(name) + 1) % len(HOSTILE_NAMES)]
    for a, b in ((name, "x"), ("x", name), (name, other)):
        for f in _hostile_formulas(a, b):
            assert free_variables(f) == {a}
            scan = frozenset(n for n in g.nodes if naive_eval(g, f, {a: n}))
            assert define_class(g, f) == scan, (a, b, f)
            for n in sorted(g.nodes):
                env = {a: n, b: "p0"}  # the binding of b is shadowed
                assert eval_formula(g, f, env) == naive_eval(g, f, env) == (n in scan)
