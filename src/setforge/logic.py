"""First-order membership logic over extensional digraphs.

The language has two atom shapes, ``x in y`` and ``x = y``, the usual
connectives, and two quantifiers ranging over the nodes of a graph.
Formulas are plain frozen dataclasses; the evaluator compiles a formula
to generated Python source, a function per quantifier, once per call,
which keeps class definition over every node affordable.

Syntax accepted by :func:`parse`::

    formula := iff
    iff     := imp ("<->" iff)?
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | ("exists" | "all") var "." formula | atom
    atom    := var "in" var | var "=" var | "(" formula ")"

Precedence, tightest first: !, &, |, ->, <->. A quantifier body extends
as far right as possible. The Unicode spellings ∈ ∀ ∃ ¬ ∧ ∨ → ↔ are
also accepted. The library has no printer; the test suite's printer,
which emits ASCII, checks parsing by round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Union

from .errors import FormulaError, ParseError, UnknownNodeError
from .graph import ExtensionalDigraph, NodeId, extensionality_violation

Var = str


@dataclass(frozen=True)
class Member:
    left: Var
    right: Var


@dataclass(frozen=True)
class Equal:
    left: Var
    right: Var


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: Var
    body: "Formula"


@dataclass(frozen=True)
class ForAll:
    var: Var
    body: "Formula"


Formula = Union[Member, Equal, Not, And, Or, Implies, Iff, Exists, ForAll]

_KEYWORDS = frozenset({"in", "exists", "all"})

# The binary connectives, loosest first: token, class, whether it
# associates to the right, and its source template: a format with a slot
# per operand if it does, else the separator of its flattened chain.
_CONNECTIVES = (
    ("<->", Iff, True, "({} is {})"),
    ("->", Implies, True, "(not {} or {})"),
    ("|", Or, False, " or "),
    ("&", And, False, " and "),
)


def free_variables(f: Formula) -> frozenset[Var]:
    if isinstance(f, (Member, Equal)):
        return frozenset({f.left, f.right})
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Exists, ForAll)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing


_UNICODE_ALIASES = {
    "∈": "in",
    "∀": "all",
    "∃": "exists",
    "¬": "!",
    "∧": "&",
    "∨": "|",
    "→": "->",
    "↔": "<->",
}

_Token = tuple[str, str, int]  # kind, text, offset


def _tokenize(text: str) -> Iterator[_Token]:
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _UNICODE_ALIASES:
            alias = _UNICODE_ALIASES[c]
            yield (alias, alias, i)
            i += 1
            continue
        if text.startswith("<->", i):
            yield ("<->", "<->", i)
            i += 3
            continue
        if text.startswith("->", i):
            yield ("->", "->", i)
            i += 2
            continue
        if c in "()!&|=.":
            yield (c, c, i)
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                yield (word, word, i)
            else:
                yield ("name", word, i)
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    yield ("eof", "", n)


MAX_FORMULA_DEPTH = 100
"""The deepest formula :func:`parse` accepts, counted on the parse tree.

Every atom, negation, quantifier, binary connective and parenthesised
group is one level, and a formula's depth is the number of levels on
its longest root-to-atom path: ``x in y`` is 1, ``!(x in y)`` is 3, and
a chain of k conjuncts is k.  The free-variable walk, the source
generator and the test suite's printer recurse once per level, and the
parser at most three times (a parenthesised group: the connective loop,
the unary and the atom), so a formula at the cap needs about 305
frames, well inside Python's default recursion limit.
"""


class _Parser:
    """Recursive descent over the token list.

    Each method takes the ``level`` its subtree's root is known to sit
    at (the root is at 1; a left operand turns out one level deeper
    than it was parsed at) and returns the subtree with its depth.
    """

    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, got {tok[1] or 'end of input'!r}", tok[2])
        return self.take()

    def fit(self, level: int, depth: int, tok: _Token) -> int:
        """``depth``, unless a subtree that deep at ``level`` is over the cap."""
        if level + depth - 1 > MAX_FORMULA_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels", tok[2])
        return depth

    def binary(self, level: int, loosest: int = 0) -> tuple[Formula, int]:
        """The formula at ``level`` up to the first connective looser than
        ``_CONNECTIVES[loosest]``, by precedence climbing: a right operand
        takes its own tier too where its connective associates right."""
        node, depth = self.unary(level)
        while True:
            tok = self.peek()
            tier = next((i for i, c in enumerate(_CONNECTIVES) if c[0] == tok[0]), -1)
            if tier < loosest:
                return node, depth
            self.take()
            _, cls, right_assoc, _ = _CONNECTIVES[tier]
            right, right_depth = self.binary(level + 1, tier if right_assoc else tier + 1)
            node, depth = cls(node, right), self.fit(level, 1 + max(depth, right_depth), tok)

    def unary(self, level: int) -> tuple[Formula, int]:
        tok = self.peek()
        self.fit(level, 1, tok)
        if tok[0] == "!":
            self.take()
            body, depth = self.unary(level + 1)
            return Not(body), 1 + depth
        if tok[0] in {"exists", "all"}:
            self.take()
            var = self.expect("name", "a variable name")[1]
            self.expect(".", "'.' after the bound variable")
            body, depth = self.binary(level + 1)
            return (Exists(var, body) if tok[0] == "exists" else ForAll(var, body)), 1 + depth
        return self.atom(level)

    def atom(self, level: int) -> tuple[Formula, int]:
        tok = self.peek()
        if tok[0] == "(":
            self.take()
            inner, depth = self.binary(level + 1)
            closing = self.peek()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            self.take()
            return inner, 1 + depth
        if tok[0] == "name":
            left = self.take()[1]
            op = self.peek()
            if op[0] == "in":
                self.take()
                right = self.expect("name", "a variable name")[1]
                return Member(left, right), 1
            if op[0] == "=":
                self.take()
                right = self.expect("name", "a variable name")[1]
                return Equal(left, right), 1
            raise ParseError("expected 'in' or '=' after a variable", op[2])
        raise ParseError(f"expected a formula, got {tok[1] or 'end of input'!r}", tok[2])


def parse(text: str) -> Formula:
    """Parse formula text. Offsets in errors are 0-based character positions.

    A formula deeper than :data:`MAX_FORMULA_DEPTH` is a ParseError at
    the token where its depth first exceeds the cap.
    """
    parser = _Parser(text)
    out, _ = parser.binary(1)
    trailing = parser.peek()
    if trailing[0] != "eof":
        raise ParseError(f"unexpected trailing input {trailing[1]!r}", trailing[2])
    return out


# ---------------------------------------------------------------------------
# evaluation


# The most formula levels one generated expression holds; a deeper
# subformula is hoisted into a function of its own.  Each level adds a
# pair of parentheses, and CPython's parser refuses 200 nested ones.
_HOIST_DEPTH = 50


def _chain(f: Formula, cls: type) -> Iterator[Formula]:
    """The operands of ``f``'s tree of ``cls`` nodes, left to right, by
    an explicit stack, so that a long chain costs no Python frames."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            stack.append(node.right)
            stack.append(node.left)
        else:
            yield node


def _guard(f: Exists | ForAll) -> Member | None:
    """The guard of quantifier ``f`` (see :class:`_Source`), or None."""
    if isinstance(f, Exists):
        scope = f.body
    elif isinstance(f.body, Implies):
        scope = f.body.left
    else:
        return None
    for atom in _chain(scope, And):
        if isinstance(atom, Member) and atom.left != atom.right:
            if f.var in (atom.left, atom.right):
                return atom
    return None


class _Source:
    """The Python source of one formula over one graph: a ``def`` per
    quantifier and per hoisted subformula, whose parameters are the
    variables in scope. Every identifier is generated (``p0…`` free
    variables, ``v1…`` bound ones, ``q0…`` functions), so no variable
    name, node id or formula text reaches the source. The namespace
    holds the extension map ``ext``, the sorted ``nodes`` and, only once
    a container guard is generated, the containers ``con``.

    A quantifier over ``v`` is guarded when it has the shape
    ``exists v. (... & G & ...)`` or ``all v. ((... & G & ...) -> F)``,
    where G is a membership atom between ``v`` and a different variable
    ``u``; the first such conjunct, left to right, is the guard. Only a
    node in the guard's index can satisfy G, so a guarded quantifier's
    loop runs over that index: ``extensions[u]`` for ``v in u`` and
    ``containers()[u]`` for ``u in v``. Any other node would make the
    ``exists`` body false and the ``all`` body true, so the result is
    the one a scan of every node gives. ``v in v`` is no guard, and
    every unguarded quantifier runs over all nodes in sorted order.
    """

    def __init__(self, g: ExtensionalDigraph):
        self.g = g
        self.namespace = {"__builtins__": {}, "ext": g.extensions, "nodes": g.sorted_nodes()}
        self.defs: list[str] = []
        self.bound = 0

    def function(self, scope: dict[Var, str], body: list[str]) -> str:
        """Define a function of ``scope``'s identifiers; return its call."""
        name = f"q{len(self.defs)}"
        params = ", ".join(scope.values())
        self.defs.append(f"def {name}({params}):\n" + "".join(f"    {s}\n" for s in body))
        return f"{name}({params})"

    def expr(self, f: Formula, scope: dict[Var, str], depth: int = 0) -> str:
        """An expression for ``f``, its variables named as ``scope`` says."""
        if depth == _HOIST_DEPTH:
            return self.function(scope, [f"return {self.expr(f, scope)}"])
        if isinstance(f, Member):
            return f"({scope[f.left]} in ext[{scope[f.right]}])"
        if isinstance(f, Equal):
            return f"({scope[f.left]} == {scope[f.right]})"
        if isinstance(f, Not):
            return f"(not {self.expr(f.body, scope, depth + 1)})"
        for _, cls, right_assoc, template in _CONNECTIVES:
            if isinstance(f, cls):
                if right_assoc:
                    left = self.expr(f.left, scope, depth + 1)
                    return template.format(left, self.expr(f.right, scope, depth + 1))
                operands = []
                for operand in _chain(f, cls):
                    operands.append(self.expr(operand, scope, depth + 1))
                return "(" + template.join(operands) + ")"
        if isinstance(f, (Exists, ForAll)):
            guard = _guard(f)
            if guard is None:
                domain = "nodes"
            elif guard.left == f.var:
                domain = f"ext[{scope[guard.right]}]"
            else:
                self.namespace["con"] = self.g.containers()
                domain = f"con[{scope[guard.left]}]"
            self.bound += 1
            var = f"v{self.bound}"
            body = self.expr(f.body, {**scope, f.var: var})
            want = isinstance(f, Exists)
            test = body if want else f"not {body}"
            loop = [f"for {var} in {domain}:", f"    if {test}:", f"        return {want}"]
            return self.function(scope, loop + [f"return {not want}"])
        raise TypeError(f"not a formula: {f!r}")


def _generate(g: ExtensionalDigraph, f: Formula, free: list[Var]) -> Callable[..., bool]:
    """Compile ``f`` to a function of the nodes bound to ``free``, in order."""
    source = _Source(g)
    scope = {var: f"p{i}" for i, var in enumerate(free)}
    body = source.expr(f, scope)
    if not isinstance(f, (Exists, ForAll)):  # else the last function is f's own
        source.function(scope, [f"return {body}"])
    exec(compile("".join(source.defs), "<formula>", "exec"), source.namespace)
    return source.namespace[f"q{len(source.defs) - 1}"]  # type: ignore[return-value]


def eval_formula(
    g: ExtensionalDigraph, f: Formula, env: Mapping[Var, NodeId] | None = None
) -> bool:
    """Evaluate ``f`` over the nodes of ``g``.

    Every free variable must be bound to a node of the graph. A guarded
    quantifier (see :class:`_Source`) ranges over its guard's index,
    every other one over all nodes. Evaluation has no side effects, so
    the result does not depend on the order a quantifier visits nodes in.
    """
    bound = dict(env or {})
    free = sorted(free_variables(f))
    missing = [var for var in free if var not in bound]
    if missing:
        raise FormulaError(f"unbound variable {missing[0]!r}")
    for var, node in bound.items():
        if node not in g.nodes:
            raise UnknownNodeError(f"binding {var}={node!r} names an unknown node")
    return _generate(g, f, free)(*[bound[var] for var in free])


def define_class(g: ExtensionalDigraph, f: Formula) -> frozenset[NodeId]:
    """The set of nodes satisfying a formula with one free variable."""
    fv = sorted(free_variables(f))
    if len(fv) != 1:
        raise FormulaError(
            f"class definition needs exactly one free variable, got {fv or 'none'}"
        )
    return frozenset(filter(_generate(g, f, fv), g.sorted_nodes()))


# ---------------------------------------------------------------------------
# axiom probes


AXIOM_NAMES = ("extensionality", "foundation_minimal", "infinity")


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a structural axiom check.

    ``witness`` carries the offending node(s) on failure, or the found
    node when an existence claim holds.
    """

    axiom: str
    holds: bool
    witness: tuple[NodeId, ...]
    detail: str


def _check_extensionality(g: ExtensionalDigraph) -> AxiomReport:
    pair = extensionality_violation(g)
    if pair is None:
        return AxiomReport("extensionality", True, (), "all extensions distinct")
    x, y = pair
    return AxiomReport(
        "extensionality", False, pair, f"nodes {x!r} and {y!r} share an extension"
    )


def _check_foundation_minimal(g: ExtensionalDigraph) -> AxiomReport:
    for x in g.sorted_nodes():
        ext = g.extensions[x]
        if not ext:
            continue
        if not any(g.extensions[m].isdisjoint(ext) for m in ext):
            return AxiomReport(
                "foundation_minimal",
                False,
                (x,),
                f"every member of {x!r} meets its extension again",
            )
    return AxiomReport(
        "foundation_minimal", True, (), "every nonempty node has a minimal member"
    )


def _check_infinity(g: ExtensionalDigraph) -> AxiomReport:
    """Infinity asks for a node with an empty member x_0 whose every
    member x has a member s with ext(s) = ext(x) | {x}.  No finite graph
    has one: by induction the successors x_k have ext(x_k) = {x_0, ...,
    x_{k-1}}, k distinct nodes, so x_k is none of them and the x_k never
    repeat.  So the probe fails on every graph, without a search."""
    return AxiomReport(
        "infinity", False, (), "no node is successor-closed around an empty member"
    )


def check_axiom(g: ExtensionalDigraph, axiom: str) -> AxiomReport:
    """Run one structural axiom probe. See AXIOM_NAMES for valid names."""
    if axiom == "extensionality":
        return _check_extensionality(g)
    if axiom == "foundation_minimal":
        return _check_foundation_minimal(g)
    if axiom == "infinity":
        return _check_infinity(g)
    raise ValueError(f"unknown axiom {axiom!r}")
