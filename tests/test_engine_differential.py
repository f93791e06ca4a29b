"""Differential test: the bitmask engine against the frozenset engine it
replaced (`frozenset_engine`), on random models of up to six states."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import frozenset_engine as oracle
from cogal.checker import Evaluator, _unions
from cogal.formula import (
    And, Atom, Bot, CoalBox, CoalDia, Fragment, GroupBox, GroupDia, Know,
    Not, Or, PaBox, Top, parse, render,
)
from cogal.harness import random_formula
from cogal.model import (
    KripkeModel, bisim_contract, char_formula, is_contracted, validate,
)

NAMES = ("w0", "w1", "w2", "w3", "w4", "w5")


@st.composite
def models(draw):
    """States named out of document order, partition blocks listed in a
    drawn order, and a drawn valuation."""
    n = draw(st.integers(1, 6))
    states = tuple(draw(st.permutations(NAMES))[:n])
    agents = ("a", "b", "c")[:draw(st.integers(1, 3))]
    props = ("p", "q")
    partitions = {}
    for agent in agents:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = {}
        for s, label in zip(states, labels):
            blocks.setdefault(label, set()).add(s)
        order = draw(st.permutations(sorted(blocks)))
        partitions[agent] = tuple(frozenset(blocks[k]) for k in order)
    valuation = {}
    for p in props:
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        valuation[p] = frozenset(s for s, bit in zip(states, bits) if bit)
    return KripkeModel(states, agents, props, partitions, valuation)


def _formulas(model, seed):
    """A random formula, and a group and a coalition diamond over one, so
    that `check` has evidence to report."""
    rng = random.Random(seed)
    agents, props = model.agents, model.props
    body = random_formula(rng, agents, props, frag=Fragment.COGAL, max_depth=2)
    group = frozenset(a for a in agents if rng.random() < 0.5)
    inner = random_formula(rng, agents, props, frag=Fragment.COGAL, max_depth=2)
    return [body, GroupDia(group, inner), CoalDia(group, inner)]


def positive_formulas(agents, props):
    """Positive formulas over the names: literals, top and bottom, closed
    under `&`, `|`, `K`, `[chi] phi` with chi the negation of a positive
    formula or a literal, and `[G] phi`."""
    literals = st.one_of(st.sampled_from(props).map(Atom),
                         st.sampled_from(props).map(lambda p: Not(Atom(p))),
                         st.sampled_from([Top(), Bot()]))
    groups = st.frozensets(st.sampled_from(agents))

    def extend(inner):
        return st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Know, st.sampled_from(agents), inner),
            st.builds(PaBox, st.one_of(inner.map(Not), literals), inner),
            st.builds(GroupBox, groups, inner))

    return st.recursive(literals, extend, max_leaves=6)


def biased_formulas(agents, props):
    """One quantifier of each kind at the top, where `check` reports
    evidence, plus one under `K`, `&` or another quantifier. Bodies are
    positive, negative (`~K a p` among them, which a wrong rule would call
    positive) or neither, such as `q & ~K a p`."""
    positive = positive_formulas(agents, props)
    body = st.one_of(positive, positive.map(Not),
                     st.builds(lambda a, f: Not(Know(a, f)),
                               st.sampled_from(agents), positive),
                     st.builds(And, positive, positive.map(Not)))
    groups = st.frozensets(st.sampled_from(agents))
    kinds = (GroupDia, GroupBox, CoalDia, CoalBox)
    quantified = st.one_of(*(st.builds(op, groups, body) for op in kinds))
    nested = st.one_of(st.builds(Know, st.sampled_from(agents), quantified),
                       st.builds(And, positive, quantified),
                       *(st.builds(op, groups, quantified) for op in kinds))
    return st.tuples(*(st.builds(op, groups, body) for op in kinds), nested)


def assert_agree(new, old, model, f):
    assert new.extension(f) == old.extension(f), render(f)
    for s in model.states:
        assert new.eval(s, f) == old.eval(s, f), (s, render(f))
        assert new.check(s, f).to_doc() == old.check(s, f).to_doc(), \
            (s, render(f))


@settings(max_examples=150, deadline=None)
@given(models(), st.integers(0, 2 ** 32))
def test_engines_agree(model, seed):
    new, old = Evaluator(model), oracle.Evaluator(model)
    for f in _formulas(model, seed):
        assert_agree(new, old, model, f)


@settings(max_examples=100, deadline=None)
@given(models(), st.data())
def test_engines_agree_on_positive_and_negative_bodies(model, data):
    """The one-set rule for quantifiers over positive and negative bodies
    against the oracle, which always scans every choice set."""
    new, old = Evaluator(model), oracle.Evaluator(model)
    for f in data.draw(biased_formulas(model.agents, model.props)):
        assert_agree(new, old, model, f)


@settings(max_examples=100, deadline=None)
@given(models(), st.integers(0, 2 ** 32))
def test_certificates_agree(model, seed):
    new = Evaluator(model, certify=True)
    old = oracle.Evaluator(model, certify=True)
    for f in _formulas(model, seed):
        for s in model.states:
            assert new.eval(s, f) == old.eval(s, f)
    assert new.certificates.checked == old.certificates.checked
    assert new.certificates.mismatches == old.certificates.mismatches == []


@settings(max_examples=300, deadline=None)
@given(models())
def test_contraction_agrees(model):
    new, old = bisim_contract(model), oracle.bisim_contract(model)
    assert dict(new.mapping) == dict(old.mapping)
    assert list(new.mapping) == list(old.mapping)
    assert new.contracted.to_doc() == old.contracted.to_doc()
    assert (new.contracted is model) == (old.contracted is model)
    assert is_contracted(model) == (old.contracted is model)
    contracted = new.contracted
    table = oracle.char_table(contracted)
    for s in contracted.states:
        assert char_formula(contracted, s) == table[s]
    # the engine's enumerator, decoded to state names, in the oracle's order:
    # unanchored, and anchored at each class for every state in it
    for agent in model.agents:
        classes = model._class_masks[agent]
        sizes = [c.bit_count() for c in classes]

        def decoded(anchor=None):
            return [frozenset(s for i, s in enumerate(model.states)
                              if union >> i & 1)
                    for union in _unions(classes, sizes, anchor)]

        assert decoded() == oracle.class_unions(model, agent)
        for k, c in enumerate(classes):
            for s in (s for i, s in enumerate(model.states) if c >> i & 1):
                assert decoded(k) == oracle.class_unions(model, agent, s)


# Random formulas rarely make evidence depend on the order of equal-size
# unions (about one check in a thousand); these pinned cases do.
PINNED = [
    ({"agents": ["a", "b", "c"], "props": ["p", "q"],
      "states": ["s0", "s1", "s2", "s3"],
      "partitions": {"a": [["s0", "s1"], ["s2", "s3"]],
                     "b": [["s0"], ["s1"], ["s2", "s3"]],
                     "c": [["s0", "s1", "s2", "s3"]]},
      "valuation": {"p": [], "q": ["s1", "s2", "s3"]}},
     "s0", "<{b}> ~K c ~q"),
    ({"agents": ["a", "b", "c"], "props": ["p", "q"],
      "states": ["s0", "s1", "s2", "s3", "s4"],
      "partitions": {"a": [["s0"], ["s1"], ["s2"], ["s3"], ["s4"]],
                     "b": [["s0", "s1", "s2", "s3", "s4"]],
                     "c": [["s0", "s4"], ["s1", "s2", "s3"]]},
      "valuation": {"p": ["s2"], "q": ["s0", "s3", "s4"]}},
     "s3", "<[{b,c}]> K b q"),
]


@pytest.mark.parametrize("doc, state, text", PINNED)
def test_evidence_order_on_pinned_models(doc, state, text):
    model, f = validate(doc), parse(text)
    got = Evaluator(model).check(state, f).to_doc()
    assert got == oracle.Evaluator(model).check(state, f).to_doc()
    assert got["witness"] or got["refutation"]


def test_refutation_of_a_false_coalition_diamond_over_a_negative_body():
    """`<[G]> ~phi` with phi positive is decided by the opponents' first set
    alone, but its refutation is still the first response that beats the
    group's first set, which `check` must go on to find."""
    model = validate({
        "agents": ["a", "b", "c"], "props": ["p", "q"],
        "states": ["s0", "s1", "s2", "s3"],
        "partitions": {"a": [["s0", "s1"], ["s2"], ["s3"]],
                       "b": [["s0"], ["s1"], ["s2", "s3"]],
                       "c": [["s0", "s3"], ["s1", "s2"]]},
        "valuation": {"p": ["s0", "s1", "s2"], "q": ["s1", "s3"]}})
    f = parse("<[{b}]> ~K a q")
    got = Evaluator(model).check("s1", f).to_doc()
    assert got == oracle.Evaluator(model).check("s1", f).to_doc()
    assert not got["truth"]
    assert got["refutation"]["choice"] == {"a": ["s0", "s1"], "c": ["s1", "s2"]}
