"""Tables that the evaluators of one model share.

What the whole model's quotient offers and realizes does not depend on the
query: each agent's class unions (`_Quotient.unions`), and, under the
model's own valuation, the characteristic formulas (`KripkeModel._chars`)
and the members' realized announcements (`KripkeModel._parts`). The names
of state sets depend only on the frame (`KripkeModel._named_sets`). Every
evaluator of a model reads them, so a later evaluator reads them warm. The
tests hold that they are shared, that the restrictions and choice sets are
not, and that a fresh evaluator per query gives exactly what one evaluator
per model gives, on a cold model and on a warm one, certificates included.
"""

import random
from pathlib import Path

from cogal.checker import Evaluator
from cogal.formula import CoalDia, Fragment, GroupDia, parse
from cogal.harness import GenParams, random_formula, random_model
from cogal.model import load_model, validate

MODELS = Path(__file__).resolve().parents[1] / "models"

# quantified diamonds at the top, so that `check` gives witnesses and
# refutations, some of them past the first sets
EVIDENCE = ["<{a}> K b p", "<{a,b}> ~K c ~p", "<[{a,c}]> (~K c ~p & ~K c p)",
            "<[{c}]> K c ~p", "<{a,b}> (K c p & ~K a p)",
            "<[{a}]> (K b p | ~K c p)", "<{c}> [{a}] (p -> K b p)"]


def test_evaluators_of_a_model_share_its_whole_quotients_tables(train):
    model, w = train
    first, second = Evaluator(model), Evaluator(model)
    f = parse("<[{a,c}]> (~K c ~p & ~K c p)")
    assert first.check(w, f).to_doc() == second.check(w, f).to_doc()
    q = model._whole_quotient
    assert first._root_quotient is second._root_quotient is q
    for agent in model.agents:
        for rep in range(len(model.states)):
            options = first._options(q, agent, rep)
            assert second._options(q, agent, rep) is options
            for union in options:
                part = first._part(q, agent, union)
                assert second._part(q, agent, union) is part
                assert model._parts[agent, union] is part
    assert first._parts[q.kept] is second._parts[q.kept] is model._parts
    assert first._char_table(q) is second._char_table(q) is model._chars
    assert first._states(q.kept) is second._states(q.kept)


def test_restrictions_and_choice_sets_stay_per_evaluator(train):
    model, w = train
    first, second = Evaluator(model), Evaluator(model)
    kept = 0b01
    mine, theirs = first._restriction(kept), second._restriction(kept)
    assert mine is not theirs
    # a restriction's option lists and parts are its evaluator's own
    options = first._options(mine, "c", 0)
    assert second._options(theirs, "c", 0) == options
    assert second._options(theirs, "c", 0) is not options
    assert first._part(mine, "c", kept) == second._part(theirs, "c", kept)
    assert first._parts[kept] is not second._parts[kept]
    q = model._whole_quotient
    group = frozenset("ab")
    assert first._choice_sets(q, 0, group) is not second._choice_sets(
        q, 0, group)


def models():
    """The shipped models and a few seeded random ones, all over the
    agents a, b, c and with p among their propositions."""
    out = [load_model(MODELS / name)[0]
           for name in ("train.json", "prop4.json")]
    params = GenParams(max_states=4, agents=("a", "b", "c"),
                       props=("p", "q"), seed=35)
    out += [random_model(params, i) for i in range(20)]
    return out


def formulas(model, rng) -> list:
    """Per fragment EL, PAL, GAL and CoGAL, random formulas, and at the
    top quantified diamonds over random bodies, for `check`'s evidence."""
    agents, props = model.agents, model.props
    out = []
    for frag in Fragment:
        out += [random_formula(rng, agents, props, frag=frag, max_depth=3)
                for _ in range(3)]
    for frag in (Fragment.EL, Fragment.GAL):
        for _ in range(2):
            group = frozenset(rng.sample(agents, rng.randint(1, 2)))
            body = random_formula(rng, agents, props, frag=frag, max_depth=2)
            out += [GroupDia(group, body), CoalDia(group, body)]
    return out


def docs_one_evaluator(model, fs, **kwargs) -> list:
    ev = Evaluator(model, **kwargs)
    return [ev.check(s, f).to_doc() for f in fs for s in model.states]


def docs_fresh_evaluators(model, fs, **kwargs) -> list:
    return [Evaluator(model, **kwargs).check(s, f).to_doc()
            for f in fs for s in model.states]


def test_fresh_evaluators_give_what_one_evaluator_per_model_gives():
    rng = random.Random("shared tables")
    evidence = 0
    for model in models():
        fs = formulas(model, rng) + [parse(text) for text in EVIDENCE]
        reference = docs_one_evaluator(validate(model.to_doc()), fs)
        # a fresh evaluator per query, before and after the model is warm
        assert docs_fresh_evaluators(model, fs) == reference
        assert docs_one_evaluator(model, fs) == reference
        assert docs_fresh_evaluators(model, fs) == reference
        evidence += sum(doc["witness"] is not None
                        or doc["refutation"] is not None
                        for doc in reference)
    assert evidence >= 600


def certified(model, fs):
    """`check`'s docs of the formulas at every state on one certifying
    evaluator, and its certificate count and mismatches."""
    ev = Evaluator(model, certify=True)
    docs = [ev.check(s, f).to_doc() for f in fs for s in model.states]
    return docs, ev.certificates.checked, ev.certificates.mismatches


def test_certificates_do_not_depend_on_an_earlier_reader():
    rng = random.Random("certified")
    total = 0
    for model in models():
        fs = formulas(model, rng) + [parse(text) for text in EVIDENCE]
        cold = certified(validate(model.to_doc()), fs)
        # other evaluators, certifying or not, read the model first
        docs_fresh_evaluators(model, fs)
        docs_one_evaluator(model, fs, certify=True)
        assert model._parts
        assert certified(model, fs) == cold
        assert cold[2] == []
        total += cold[1]
    assert total >= 800
