"""DOT export, byte for byte against the exporter that quoted every edge end again."""

import random

from setforge import (
    AnnotatedGraph,
    AtomDecl,
    Code,
    CodeSpec,
    Deficiency,
    ExtensionalDigraph,
    Seed,
    assemble,
    dred_complete,
    to_dot,
)

from helpers import reference_to_dot

ID_POOL = ("a", "b", "n1", 'q"', "back\\slash", '\\"', '"\\"', "é", "x y", "z\\\\", "set:0f", '""')
LABEL_POOL = ("0", "seed", 'say "hi"', "c:\\dir", "\\", "")


def random_record(rng: random.Random) -> AnnotatedGraph:
    """Any wiring, every provenance kind (deficiency levels past the
    last shade included), with or without depth and a rank map; the
    rank map may miss nodes."""
    names = rng.sample(ID_POOL, rng.randint(0, len(ID_POOL)))
    extensions = {x: frozenset(y for y in names if rng.random() < 0.35) for x in names}
    provenance = {}
    for x in names:
        kind = rng.randrange(3)
        if kind == 0:
            provenance[x] = Seed(rng.choice(LABEL_POOL))
        elif kind == 1:
            provenance[x] = Deficiency(rng.randint(1, 6))
        else:
            provenance[x] = Code(rng.choice(("atom", "tuple", "loop", "chain")), rng.choice(LABEL_POOL))
    depth = rank = top = None
    if rng.random() < 0.7:
        depth = {x: rng.randint(0, 4) for x in names}
        if rng.random() < 0.8:
            top = rng.randint(0, 4)
            rank = {x: rng.randint(-2, 6) for x in names if top and rng.random() < 0.7}
    return AnnotatedGraph(
        ExtensionalDigraph(extensions, provenance), depth=depth, rank=rank, top=top
    )


def test_to_dot_matches_reference_byte_for_byte():
    rng = random.Random(41)
    records = [random_record(rng) for _ in range(400)]
    certified = assemble(
        CodeSpec(
            atoms=(AtomDecl('q"b\\', "chain", length=2),),
            naturals_up_to=2,
            code_style="chain",
            code_length=1,
        )
    ).dred
    records += [certified, dred_complete(certified, 1), AnnotatedGraph(certified.graph)]
    for record in records:
        assert to_dot(record) == reference_to_dot(record)
