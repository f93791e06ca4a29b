"""`model._Quotient`, the one form of a contracted restriction: against the
frozenset oracle's contraction of `update`, and a guard that evaluation,
evidence and certificates are read off its masks with no `KripkeModel`."""

from pathlib import Path

from hypothesis import given, settings, strategies as st

import frozenset_engine as oracle
import random

from cogal.checker import Evaluator
from cogal.formula import Fragment, conjoin
from cogal.harness import (
    GenParams, _prop4_parts, enumerate_models, instantiation_pool,
    random_formula, random_model,
)
from cogal.model import (
    KripkeModel, _Quotient, _bits, _refine, char_formula, is_contracted,
    load_model, validate,
)
from test_engine_differential import models

MODELS = Path(__file__).resolve().parents[1] / "models"

# A contracted model whose characteristic formulas depend on the rule that
# the state chosen in the first block only one side's class meets is the
# lowest rep of that class in it; random models rarely do.
REP_CHOICE = {
    "agents": ["a", "b"], "props": ["p"],
    "states": ["s0", "s1", "s2", "s3", "s4", "s5"],
    "partitions": {"a": [["s0"], ["s1"], ["s2"], ["s3", "s4", "s5"]],
                   "b": [["s0", "s2", "s5"], ["s1", "s3"], ["s4"]]},
    "valuation": {"p": ["s0"]},
}


@settings(max_examples=300, deadline=None)
@given(models(), st.data())
def test_restriction_quotient_is_the_oracle_contraction(model, data):
    """For any kept set: the decoded quotient, the map onto reps, the
    characteristic formulas and the realization of random per-member unions
    equal the oracle's, read on the oracle's contraction of the update."""
    names = model.states
    kept = data.draw(st.integers(1, (1 << len(names)) - 1))
    quotient = _Quotient(model, kept, _refine(model, kept))
    cm = oracle.bisim_contract(model.update(names[i] for i in _bits(kept)))
    contracted = quotient.decode(model)
    assert contracted.to_doc() == cm.contracted.to_doc()
    assert is_contracted(contracted)
    assert {names[i]: names[quotient.rep_of[i]] for i in _bits(kept)} \
        == dict(cm.mapping)
    table = oracle.char_table(cm.contracted)
    chars = quotient.chars(model._truth_masks)
    assert {names[r]: f for r, f in chars.items()} == table

    group = data.draw(st.frozensets(st.sampled_from(model.agents)))
    members = [a for a in model.agents if a in group]
    masks = []
    for agent in members:
        classes = quotient.classes[agent]
        picked = data.draw(st.lists(st.booleans(), min_size=len(classes),
                                    max_size=len(classes)))
        union = 0
        for c, bit in zip(classes, picked):
            if bit:
                union |= c
        masks.append(union)
    choice = {a: frozenset(names[i] for i in _bits(m & quotient.reps))
              for a, m in zip(members, masks)}
    w = data.draw(st.sampled_from(cm.contracted.states))
    assert conjoin(quotient.part(chars, a, m) for a, m in zip(members, masks)) \
        == oracle.realize_choice(cm.contracted, w, group, choice)


def test_characteristic_formulas_take_the_lowest_rep():
    model = validate(REP_CHOICE)
    assert is_contracted(model)
    table = oracle.char_table(model)
    for s in model.states:
        assert char_formula(model, s) == table[s], s


def named_decode(model, quotient):
    """`_Quotient.decode` through the name-level constructor: each class
    and truth set named as the frozenset of its reps' names."""
    names, reps = model.states, quotient.reps

    def named(mask):
        return frozenset(names[i] for i in _bits(mask & reps))

    return KripkeModel(
        tuple(names[i] for i in _bits(reps)), model.agents, model.props,
        {a: tuple(named(c) for c in classes)
         for a, classes in quotient.classes.items()},
        {p: named(truth) for p, truth in model._truth_masks.items()})


def test_decode_builds_what_the_names_build():
    """The mask-built decode, on every restriction of the shipped models and
    on the whole of every candidate of up to 3 states that is not
    contracted."""
    pairs = []
    for name in ("train.json", "prop4.json"):
        model = load_model(MODELS / name)[0]
        pairs += [(model, _Quotient(model, kept, _refine(model, kept)))
                  for kept in range(1, 1 << len(model.states))]
    candidates = [m for m in enumerate_models(("a", "b", "c"), ("p", "q"), 3)
                  if not is_contracted(m)]
    assert len(candidates) == 1504
    pairs += [(m, m._whole_quotient) for m in candidates]
    for model, quotient in pairs:
        assert quotient.decode(model).to_doc() \
            == named_decode(model, quotient).to_doc()


def general_quotient(model, kept, refined):
    """`_Quotient.__init__`'s one path, written out: the reference that a
    one-state quotient is checked against."""
    levels, classes = refined
    quotient = _Quotient.__new__(_Quotient)
    quotient.kept = kept
    quotient.levels = levels
    quotient.blocks = sorted(((b & -b).bit_length() - 1, b)
                             for b in levels[-1])
    quotient.reps = 0
    quotient.rep_of = list(range(len(model.states)))
    for rep, block in quotient.blocks:
        quotient.reps |= 1 << rep
        for i in _bits(block ^ 1 << rep):
            quotient.rep_of[i] = rep
    quotient.classes = dict(zip(model.agents, classes))
    quotient.firsts = {}
    return quotient


def test_one_state_quotient_is_the_general_paths():
    count = 0
    for model in enumerate_models(("a", "b", "c"), ("p", "q"), 3):
        for i in range(len(model.states)):
            refined = _refine(model, 1 << i)
            fast = _Quotient(model, 1 << i, refined)
            general = general_quotient(model, 1 << i, refined)
            for slot in _Quotient.__slots__:
                assert getattr(fast, slot) == getattr(general, slot), slot
            count += 1
    assert count == 4 + 2 * 128 + 3 * 8000


def test_evidence_and_certificates_build_no_model(monkeypatch):
    """A witness, a refutation and a certified run on the splitting
    countermodel construct no `KripkeModel` once the model is loaded."""
    model, point = load_model(MODELS / "prop4.json")
    built = []
    init_masks = KripkeModel._init_masks  # where every construction ends

    def counted(self, *args):
        built.append(self)
        init_masks(self, *args)

    monkeypatch.setattr(KripkeModel, "_init_masks", counted)
    antecedent, consequent = _prop4_parts()
    ev = Evaluator(model)
    won = ev.check(point, antecedent)
    lost = ev.check(point, consequent)
    assert won.truth and won.witness_formula is not None
    assert not lost.truth and lost.refutation_formula is not None
    certified = Evaluator(model, certify=True)
    for s in model.states:
        certified.eval(s, antecedent)
        certified.eval(s, consequent)
    assert certified.certificates.checked > 0
    assert certified.certificates.mismatches == []
    assert built == []


def test_extent_is_the_oracle_extension_on_the_restriction():
    """`Evaluator._where(kept, f)` reads the restriction to `kept` itself,
    with no quotient: on 300 seeded models of up to 5 states, random kept
    masks, many of them no union of the model's blocks, and epistemic pool
    and random formulas, the extent is the frozenset oracle's extension on
    `model.update` of the kept states. One evaluator per model, so the
    kept masks share its memo."""
    rng = random.Random("extents")
    params = GenParams(max_states=5, seed=21)
    checked = split = 0
    for i in range(300):
        model = random_model(params, i)
        n = len(model.states)
        pool = instantiation_pool(model.agents, model.props)
        formulas = rng.sample(pool, 12) + [
            random_formula(rng, model.agents, model.props,
                           frag=Fragment.EL, max_depth=3)
            for _ in range(4)]
        blocks = [block for _, block in model._whole_quotient.blocks]
        ev = Evaluator(model)
        for kept in [(1 << n) - 1] + [rng.randint(1, (1 << n) - 1)
                                      for _ in range(3)]:
            # a mask that splits a block of bisimilar states
            split += any(b & kept not in (0, b) for b in blocks)
            restricted = oracle.Evaluator(model.update(model._named(kept)))
            for f in formulas:
                assert ev._states(ev._where(kept, f)) == \
                    restricted.extension(f), (model.to_doc(), kept, f)
                checked += 1
    assert split >= 100
    assert checked == 300 * 4 * 16
