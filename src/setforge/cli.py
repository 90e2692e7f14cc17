"""Command line interface.

Commands read a graph document from stdin and write results to stdout,
so they compose with pipes::

    setforge seed vN 3 | setforge complete --levels 2 | setforge check --witness-report

Exit codes: 0 success or property holds, 1 property fails (a
counterexample is printed), 2 budget exceeded, 3 parse or schema
error, 4 usage error. ``--porcelain`` switches reports to stable
tab-separated records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import accumulate, groupby, repeat
from operator import floordiv, itemgetter
from typing import Any, Iterator, Sequence, TextIO

from .completion import Budget, DEFAULT_BUDGET, _priced, complete, witness_report
from .document import _gc_paused, _pieces, deserialize
from .dot import _pieces as _dot_pieces
from .dred import dred_complete, verify_dred
from .errors import (
    BudgetExceededError,
    DredConditionError,
    ParseError,
    SchemaError,
    SetforgeError,
    SizeLimitError,
    SpecValidationError,
)
from .graph import AnnotatedGraph, ExtensionalDigraph, _require_iso_count
from .logic import AXIOM_NAMES, check_axiom, define_class, eval_formula, parse
from .oracle import compare, oracle_stages, stage_mismatch
from .seeds import AtomDecl, CodeSpec, TupleDecl, assemble, quine_atoms, von_neumann_seed

_BUDGET_ENV = "SETFORGE_BUDGET"

# About how many characters are handed to a stream in one write: a
# document or a DOT text is never joined whole in memory.
_WRITE_SIZE = 1 << 20


def _resolve_budget(value: int | None) -> Budget:
    if value is None:
        raw = os.environ.get(_BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            value = int(raw)
            if value < 1:
                raise ValueError(value)
        except ValueError:
            raise SpecValidationError(f"{_BUDGET_ENV} must be a positive integer, got {raw!r}")
    return Budget(value)


class _Unread:
    """Standard output that, once its reader has closed the pipe (as
    ``| head`` does), sends the rest to the null device instead of
    raising, so the command still ends with its own exit code. The
    descriptor itself is redirected, so the interpreter's flush at exit
    does not fail either."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream

    def write(self, text: str) -> None:
        self._call(self._stream.write, text)

    def flush(self) -> None:
        self._call(self._stream.flush)

    def _call(self, method: Any, *args: str) -> None:
        try:
            method(*args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, self._stream.fileno())
            os.close(devnull)


@contextmanager
def _in_utf8(stream: Any) -> Iterator[None]:
    """``stream`` writing UTF-8 for the block, whatever the locale or
    ``PYTHONIOENCODING`` chose, where its encoding can be set (a
    ``StringIO`` has none to set)."""
    reconfigure = getattr(stream, "reconfigure", None)
    if reconfigure is None:
        yield
        return
    encoding, errors = stream.encoding, stream.errors
    reconfigure(encoding="utf-8", errors=errors)
    try:
        yield
    finally:
        reconfigure(encoding=encoding, errors=errors)


def _read_document() -> AnnotatedGraph:
    """The document on stdin, read as bytes where the stream has them,
    so that the whole input is never held decoded too: ``deserialize``
    decodes what it must strictly as UTF-8, whatever the locale."""
    stdin = sys.stdin
    return deserialize(getattr(stdin, "buffer", stdin).read())


def _write_runs(pieces: list[str], stream: Any) -> None:
    """Write the join of ``pieces`` to ``stream`` in runs of about
    ``_WRITE_SIZE`` characters, each piece in the run in which its end
    falls, so that neither the joined text nor an encoded copy of it is
    ever made."""
    runs = map(floordiv, accumulate(map(len, pieces)), repeat(_WRITE_SIZE))
    for _, run in groupby(zip(runs, pieces), key=itemgetter(0)):
        stream.write("".join(map(itemgetter(1), run)))


def _spec_from_json(raw: Any) -> tuple[CodeSpec, dict[str, str]]:
    """Check the JSON shape of a spec file; CodeSpec checks the field types."""
    if not isinstance(raw, dict):
        raise SpecValidationError("a code spec file must hold a JSON object")
    entries = {}
    for block in ("atoms", "tuples"):
        entries[block] = raw.get(block, [])
        if not isinstance(entries[block], list):
            raise SpecValidationError(f"{block} must be a list")
        if not all(isinstance(item, dict) for item in entries[block]):
            raise SpecValidationError(f"{block} entries must be objects")
    atoms = [
        AtomDecl(
            label=item.get("label", ""),
            kind=item.get("kind", "quine"),
            length=item.get("length"),
        )
        for item in entries["atoms"]
    ]
    tuples = []
    for item in entries["tuples"]:
        components = item.get("components", [])
        if not isinstance(components, list):
            raise SpecValidationError("tuple components must be a list of labels")
        tuples.append(TupleDecl(tag=item.get("tag"), components=tuple(components)))
    spec = CodeSpec(
        atoms=tuple(atoms),
        naturals_up_to=raw.get("naturals_up_to", 0),
        tuples=tuple(tuples),
        code_style=raw.get("code_style", "loop"),
        code_length=raw.get("code_length"),
    )
    formulas_raw = raw.get("formulas", {})
    if not isinstance(formulas_raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in formulas_raw.items()
    ):
        raise SpecValidationError("the formulas block must map names to formula text")
    return spec, dict(formulas_raw)


def _cmd_seed(args: argparse.Namespace) -> int:
    if args.kind == "empty":
        if args.arg is not None:
            raise ValueError("seed empty takes no argument")
        _write_runs(_pieces(AnnotatedGraph(ExtensionalDigraph.empty())), sys.stdout)
        return 0
    if args.kind == "vN":
        if args.arg is None:
            raise ValueError("seed vN needs a stage number")
        _write_runs(_pieces(AnnotatedGraph(von_neumann_seed(int(args.arg)))), sys.stdout)
        return 0
    if args.kind == "quine":
        if args.arg is None:
            raise ValueError("seed quine needs an atom count")
        count = int(args.arg)
        if count < 0:
            raise ValueError("atom count must be non-negative")
        _write_runs(_pieces(AnnotatedGraph(quine_atoms(f"q{i}" for i in range(count)))), sys.stdout)
        return 0
    # spec file
    if args.arg is None:
        raise ValueError("seed spec needs a file path")
    try:
        with open(args.arg, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError) as e:
        raise SpecValidationError(f"cannot read {args.arg}: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecValidationError(f"invalid JSON in {args.arg}: {e.msg}") from e
    except RecursionError as e:
        raise SpecValidationError(f"invalid JSON in {args.arg}: nested too deeply") from e
    except ValueError as e:  # an integer literal past the conversion limit
        raise SpecValidationError(
            f"invalid JSON in {args.arg}: integers have at most "
            f"{sys.get_int_max_str_digits()} digits"
        ) from e
    spec, formulas = _spec_from_json(raw)
    seed = assemble(spec)
    _write_runs(
        _pieces(replace(seed.dred or AnnotatedGraph(seed.graph), formulas=formulas)), sys.stdout
    )
    return 0


def _cmd_complete(args: argparse.Namespace) -> int:
    doc = _read_document()
    budget = _resolve_budget(args.budget)
    grow = dred_complete if args.dred else complete
    # The result goes to ``_pieces`` as a temporary, held by no local
    # here, so that its graph is freed before the line is rendered.
    _write_runs(_pieces(replace(grow(doc, args.levels, budget), formulas=doc.formulas)), sys.stdout)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _read_document()
    if args.axiom is not None:
        report = check_axiom(doc.graph, args.axiom)
        status = "pass" if report.holds else "fail"
        if args.porcelain:
            print(f"axiom\t{report.axiom}\t{status}\t{','.join(report.witness)}")
        elif report.holds:
            print(f"axiom {report.axiom}: holds ({report.detail})")
        else:
            print(f"axiom {report.axiom}: fails ({report.detail})")
        return 0 if report.holds else 1
    if args.witness_report:
        report = witness_report(doc)
        if args.porcelain:
            failed = {(f.level, f.clause): f for f in report.failures}
            for level, clause in report.checked:
                failure = failed.get((level, clause))
                if failure is None:
                    print(f"witness\t{level}\t{clause}\tpass\t")
                else:
                    print(f"witness\t{level}\t{clause}\tfail\t{failure.detail}")
        else:
            for line in report.summary_lines():
                print(line)
        return 0 if report.ok else 1
    # dred conditions
    report = verify_dred(doc)
    if args.porcelain:
        if report.ok:
            print("dred\tok\t")
        for violation in report.violations:
            print(f"dred\t{violation.condition}\t{violation.detail}")
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


def _resolve_formula(doc: AnnotatedGraph, text: str):
    if text.startswith("@"):
        name = text[1:]
        if name not in doc.formulas:
            raise ParseError(f"no formula named {name!r} in the document", 0)
        text = doc.formulas[name]
    return parse(text)


def _cmd_eval(args: argparse.Namespace) -> int:
    doc = _read_document()
    formula = _resolve_formula(doc, args.formula)
    env = {}
    for binding in args.bind or []:
        var, sep, node = binding.partition("=")
        if not sep or not var:
            raise SpecValidationError(f"bindings look like var=nodeId, got {binding!r}")
        env[var] = node
    value = eval_formula(doc.graph, formula, env)
    print(f"eval\t{'true' if value else 'false'}" if args.porcelain else str(value).lower())
    return 0 if value else 1


def _cmd_define(args: argparse.Namespace) -> int:
    doc = _read_document()
    formula = _resolve_formula(doc, args.formula)
    members = sorted(define_class(doc.graph, formula))
    prefix = "define\t" if args.porcelain else ""
    sys.stdout.write("".join(f"{prefix}{node}\n" for node in members))
    if not args.porcelain:
        print(f"{len(members)} nodes", file=sys.stderr)
    return 0


def _cmd_oracle_compare(args: argparse.Namespace) -> int:
    doc = _read_document()
    budget = _resolve_budget(args.budget)
    # The request is priced as ``complete`` prices it, and its node
    # count held to the isomorphism limit, before anything is built.
    size = _priced(doc.graph, args.levels, budget)
    _require_iso_count(size, size)
    # The reference's stage values first, so that a seed they cannot
    # decorate or a stage over the budget is reported before the kernel
    # runs.  The kernel's nodes are then matched to those values level
    # by level, and a mismatch is named where that match stopped.
    reference = oracle_stages(doc, args.levels, budget)
    detail = stage_mismatch(complete(doc, args.levels, budget).graph, reference)
    status = "isomorphic" if detail is None else "mismatch"
    print(f"oracle\t{status}\t{detail or status}" if args.porcelain else detail or status)
    return 0 if detail is None else 1


def _cmd_export(args: argparse.Namespace) -> int:
    pieces = _dot_pieces(_read_document())
    if args.dot == "-":
        _write_runs(pieces, sys.stdout)
        return 0
    try:
        with open(args.dot, "w", encoding="utf-8") as handle:
            _write_runs(pieces, handle)
    except OSError as e:
        raise SpecValidationError(f"cannot write {args.dot}: {e}") from e
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    docs = []
    for path in (args.a, args.b):
        try:
            with open(path, "rb") as handle:
                docs.append(deserialize(handle.read()))
        except OSError as e:
            raise SpecValidationError(f"cannot read {path}: {e}") from e
        except SchemaError as e:
            if isinstance(e.__cause__, UnicodeDecodeError):
                raise SpecValidationError(f"cannot read {path}: {e.__cause__}") from e
            raise
    a, b = docs
    if a == b:
        print("diff\tidentical\t" if args.porcelain else "identical")
        return 0
    verdict = compare(a.graph, b.graph)
    if verdict.isomorphic:
        print(
            "diff\tisomorphic\tdocuments differ, graphs are isomorphic"
            if args.porcelain
            else "isomorphic (documents differ outside the graph or in ids)"
        )
        return 0
    print(
        f"diff\tdifferent\t{verdict.detail}" if args.porcelain else f"different: {verdict.detail}"
    )
    return 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--porcelain",
        action="store_true",
        help="emit stable tab-separated records instead of prose",
    )
    parser = argparse.ArgumentParser(
        prog="setforge",
        description="build, complete, and model-check extensional digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seed", parents=[common], help="emit a seed graph document")
    p.add_argument("kind", choices=["empty", "vN", "quine", "spec"])
    p.add_argument("arg", nargs="?", help="stage, atom count, or spec file path")
    p.set_defaults(func=_cmd_seed)

    p = sub.add_parser("complete", parents=[common], help="run completion steps")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--dred", action="store_true", help="carry depth/rank annotations")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("check", parents=[common], help="check structural properties")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--axiom", choices=list(AXIOM_NAMES))
    group.add_argument("--witness-report", action="store_true")
    group.add_argument("--dred-conditions", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", parents=[common], help="evaluate a closed or bound formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--bind", action="append", metavar="VAR=NODE")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("define", parents=[common], help="list the class a formula defines")
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_define)

    p = sub.add_parser(
        "oracle-compare", parents=[common], help="complete two ways and compare"
    )
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("export", parents=[common], help="render the graph as DOT")
    p.add_argument("--dot", required=True, metavar="PATH", help="output path, - for stdout")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("diff", parents=[common], help="compare two graph documents")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 4
    stdout = sys.stdout
    # Outside the handlers, so that their reports go out in UTF-8 too,
    # and the last flush goes through ``_Unread`` before the encoding is
    # restored, which flushes the stream again.
    with _in_utf8(stdout):
        sys.stdout = _Unread(stdout)
        try:
            # Documents, graphs, oracle values and colour keys hold no
            # reference cycles, so the cyclic collector's passes over the
            # objects a command allocates would free nothing.
            with _gc_paused():
                return args.func(args)
        except BudgetExceededError as e:
            print(f"budget exceeded: {e}", file=sys.stderr)
            return 2
        except SizeLimitError as e:
            print(f"size limit: {e}", file=sys.stderr)
            return 2
        except DredConditionError as e:
            print(f"depth/rank conditions fail: {e}")
            return 1
        except SetforgeError as e:
            print(str(e), file=sys.stderr)
            return 3
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 4
        finally:
            sys.stdout.flush()
            sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
