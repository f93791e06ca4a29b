import random
import sys

import pytest

from cogal.checker import Evaluator
from cogal.formula import (
    And, Atom, Fragment, Know, Not, PaBox, _parts, _rebuild, fragment,
    normalize, parse, render, resugar,
)
from cogal.harness import GenParams, random_formula, random_model
from cogal.translate import _step, _weight, translate

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestClauses:
    def test_knowledge_is_transparent(self):
        assert translate(Know("a", p)) == Know("a", p)

    def test_announced_atom(self):
        # [p]q becomes p -> q, i.e. ~(p & ~q) in primitives
        assert translate(parse("[p] q")) == Not(And(p, Not(q)))

    def test_announced_knowledge(self):
        got = translate(parse("[p] K a q"))
        assert got == Not(And(p, Not(Know("a", Not(And(p, Not(q)))))))
        assert render(resugar(got)) == "p -> K a (p -> q)"

    def test_composed_announcements(self):
        got = translate(parse("[p] [q] r"))
        # equals the translation of announcing p & [p]q in one step
        assert got == translate(parse("[p & [p] q] r"))
        assert render(resugar(got)) == "p & (p -> q) -> r"

    def test_derived_connectives_normalized_first(self):
        assert translate(parse("[p | q] r")) \
            == translate(PaBox(normalize(parse("p | q")), r))


class TestContract:
    def test_rejects_quantified_inputs(self):
        with pytest.raises(ValueError, match="GAL"):
            translate(parse("[{a}] p"))
        with pytest.raises(ValueError, match="COGAL"):
            translate(parse("<[{a}]> p"))

    def test_idempotent_on_epistemic_inputs(self):
        rng = random.Random("t-idem")
        for _ in range(100):
            f = random_formula(rng, ("a", "b"), ("p", "q"),
                               frag=Fragment.EL, max_depth=3)
            once = translate(f)
            assert translate(once) == once

    def test_output_fragment_is_epistemic(self):
        rng = random.Random("t-frag")
        for _ in range(200):
            f = random_formula(rng, ("a", "b"), ("p", "q"),
                               frag=Fragment.PAL, max_depth=3)
            assert fragment(translate(f)) is Fragment.EL


class TestEquivalence:
    def test_extension_preserved_on_random_models(self):
        rng = random.Random("t-ext")
        params = GenParams(max_states=4, agents=("a", "b"), props=("p", "q"),
                           seed=77, count=40)
        pairs = 0
        for i in range(40):
            model = random_model(params, i)
            ev = Evaluator(model)
            for _ in range(5):
                f = random_formula(rng, model.agents, model.props,
                                   frag=Fragment.PAL, max_depth=3)
                pairs += 1
                assert ev.extension(f) == ev.extension(translate(f))
        assert pairs >= 200


class TestTermination:
    def test_weight_decreases_on_each_rewrite(self, monkeypatch):
        # check the decrease at every rewrite step translate takes, driven
        # through deeply nested announcements
        module = sys.modules["cogal.translate"]
        real_step = module._step
        steps = []

        def checked_step(f):
            out = real_step(f)
            assert _weight(out) < _weight(f), render(f)
            steps.append(f)
            return out

        monkeypatch.setattr(module, "_step", checked_step)
        rng = random.Random("t-weight")
        # a call rewrites each distinct announcement once (`_t` memoises),
        # so 300 formulas give the 1000 rewrites checked
        for _ in range(300):
            f = random_formula(rng, ("a", "b"), ("p", "q"),
                               frag=Fragment.PAL, max_depth=4)
            translate(f)
        assert len(steps) >= 1000

    def test_weight_orders_the_rewrites(self):
        outer = normalize(parse("[p] [q] r"))
        step = normalize(parse("[p & [p] q] r"))
        assert _weight(step) < _weight(outer)

    def test_additive_size_does_not_prove_termination(self):
        """The composition rewrite can keep or grow the additive size measure;
        the multiplicative weight is the one that shrinks."""
        from cogal.formula import size
        big = Know("a", Know("a", Know("a", Know("a", p))))
        outer = PaBox(big, PaBox(q, r))
        step = PaBox(And(big, PaBox(big, q)), r)
        assert size(step) >= size(outer)
        assert _weight(step) < _weight(outer)


def unmemoised(f):
    """`translate._t` as it was before memoisation: each occurrence of a
    subformula rewritten afresh."""
    if isinstance(f, PaBox):
        return unmemoised(_step(f))
    return _rebuild(f, [unmemoised(g) for g in _parts(f)])


class TestMemo:
    def test_memoised_rewrite_gives_the_same_node(self):
        rng = random.Random("t-memo")
        for _ in range(300):
            f = random_formula(rng, ("a", "b"), ("p", "q"),
                               frag=Fragment.PAL, max_depth=4)
            assert translate(f) is unmemoised(normalize(f)), render(f)
