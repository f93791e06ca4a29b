"""Differential test of the set-at-a-time extents (`Evaluator._where`, read
by `extension` and by the exhaustive search) against the per-state reads
(`Evaluator.eval` on a fresh evaluator) and against the frozenset engine
(`frozenset_engine`)."""

import random

import pytest

import frozenset_engine as oracle
from cogal.checker import Evaluator
from cogal.formula import And, Fragment, Know, Not, Or, PaBox, parse
from cogal.harness import GenParams, random_formula, random_model
from cogal.model import KripkeModel
from cogal.search import _groups, _mask_partitions

# announcements inside quantifier bodies, quantifiers inside announcements,
# and bodies of mixed polarity, which no one set decides (`_winner`)
NESTED = [
    "<{a}> [p | K b q] K c p", "[{a,b}] <~K c p> K a p",
    "<[{a}]> [~q] (K b p | q)", "[<{b}>] <K a p> ~K c q",
    "[<{a}> K b p] K c q", "<<[{b}]> ~K a q> p", "[[{a,c}] K b p] ~K a p",
    "<[<{a}>] (K b p | ~K c p)> K a q",
    "<[{a}]> (K b q & ~K c q)", "<{a,b}> (K c p & ~K a q)",
    "[{b}] (K a p -> ~K c p)", "[<{a,c}>] (K b q <-> K a p)",
    "[p] <[{a}]> (K b q & ~K c q) -> [p] <{a}> (K b q & ~K c q)",
    "<[{a}]> K a p -> <{a}> [{b,c}] K a p",
    "<[{a,b}]> (K a p & K b ~q) -> <[{a,b}]> K a p",
]


def shared():
    """Formulas that reuse one subformula many times: interned, so one node
    read from several parents, and a chain of conjunctions of a node with
    itself, whose tree has 2 ** 12 leaves."""
    x = parse("K a p & ~K b q")
    out = [Or(x, PaBox(x, Know("c", x))), And(parse("<{a}> K b p"), Not(x))]
    chain = parse("[<{a}>] (K b p | K c ~q)")
    for _ in range(12):
        chain = And(chain, chain)
    return out + [chain, PaBox(x, chain)]


def formulas(rng, agents, props):
    out = [random_formula(rng, agents, props, frag=frag, max_depth=3)
           for frag in Fragment for _ in range(3)]
    return out + [parse(text) for text in NESTED] + shared()


def per_state(model, f):
    fresh = Evaluator(model)
    return frozenset(s for s in model.states if fresh.eval(s, f))


@pytest.mark.parametrize("certify", [False, True])
def test_extension_agrees_with_per_state_reads_and_the_oracle(certify):
    params = GenParams(max_states=6, seed=2707, count=24)
    rng = random.Random("extents")
    sizes = set()
    for i in range(params.count):
        model = random_model(params, i)
        sizes.add(len(model.states))
        ev = Evaluator(model, certify=certify)
        for f in formulas(rng, model.agents, model.props):
            fresh = Evaluator(model, certify=certify)
            truths = frozenset(s for s in model.states if fresh.eval(s, f))
            got = ev.extension(f)
            assert got == truths, (i, f)
            assert got == oracle.Evaluator(model).extension(f), (i, f)
            assert ev.certificates.mismatches == []
            if certify:
                # an extent certifies the choices that the per-state reads
                # do, no more
                alone = Evaluator(model, certify=True)
                alone.extension(f)
                assert alone._cert_seen == fresh._cert_seen, (i, f)
    assert max(sizes) == 6 and len(sizes) > 3


def test_group_evaluators_agree_with_each_candidates_own():
    # every candidate of the exhaustive search, read on its refinement
    # group's revalued evaluator, as the search reads it
    agents, props = ("a", "b", "c"), ("p", "q")
    texts = NESTED[8:] + ["<{a}> [p | K b q] K c p", "[<{a}> K b p] K c q"]
    fs = [parse(text) for text in texts] + shared()[:2]
    count = 0
    for n in (1, 2, 3):
        states = tuple(f"s{i}" for i in range(n))
        partitions = _mask_partitions(n)
        for parts, masks, ev, truth in _groups(agents, props, n):
            ev._revalue(truth)
            # the candidate's own model, on a frame of its own
            model = KripkeModel._from_masks(
                states, agents, props,
                dict(zip(agents, [partitions[i] for i in parts])),
                dict(zip(props, masks)))
            for f in fs:
                assert ev.extension(f) == per_state(model, f), (parts, masks, f)
            count += 1
    assert count == 1140
