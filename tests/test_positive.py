"""Positive bodies: the preservation lemma behind `checker._positive`, the
one-set rule it licenses, and the lazy choice-set generator."""

import itertools
import random

from hypothesis import given, settings, strategies as st

import frozenset_engine as oracle
from cogal.checker import Evaluator, _positive
from cogal.formula import (
    CoalBox, CoalDia, Fragment, GroupBox, GroupDia, Not, parse, render,
)
from cogal.harness import (
    GenParams, instantiation_pool, random_formula, random_model,
)
from cogal.model import bisim_contract, is_contracted, validate
from frozenset_engine import choice_intersection, group_choices
from test_engine_differential import models, positive_formulas


@st.composite
def restricted(draw):
    """A model, a state w and a set of states containing w."""
    model = draw(models())
    w = draw(st.sampled_from(model.states))
    keep = {w} | {s for s in model.states if draw(st.booleans())}
    return model, w, frozenset(keep)


class TestLemma:
    @settings(max_examples=200, deadline=None)
    @given(restricted(), st.data())
    def test_positive_formulas_survive_restriction(self, case, data):
        model, w, keep = case
        f = data.draw(positive_formulas(model.agents, model.props))
        assert _positive(f), render(f)
        if oracle.Evaluator(model).eval(w, f):
            assert oracle.Evaluator(model.update(keep)).eval(w, f), \
                (model.to_doc(), w, sorted(keep), render(f))

    @settings(max_examples=150, deadline=None)
    @given(restricted(), st.integers(0, 2 ** 32))
    def test_what_the_checker_calls_positive_survives_restriction(
            self, case, seed):
        """Random formulas of every shape, judged by `_positive` itself, so
        that a formula it wrongly calls positive fails here."""
        model, w, keep = case
        rng = random.Random(seed)
        before = oracle.Evaluator(model)
        after = oracle.Evaluator(model.update(keep))
        for _ in range(30):
            f = random_formula(rng, model.agents, model.props,
                               frag=Fragment.COGAL, max_depth=3)
            if _positive(f) and before.eval(w, f):
                assert after.eval(w, f), \
                    (model.to_doc(), w, sorted(keep), render(f))

    def test_restrictions_that_merge_states(self):
        """A seeded sweep aimed at the shape that breaks preservation for the
        announcement diamonds: a restriction that drops one state and so
        makes two of the others bisimilar. Over contracted 4-5-state models,
        each such restriction and every state it keeps, a formula that
        `_positive` accepts must keep its truth. `<G> K x l`, `<[G]> K x l`
        and `[<G>] K x l` are the candidates a wrong rule would accept (it
        would fail here first at model 1216); `[G] K x l` and `K x l` are
        positive."""
        params = GenParams(max_states=5, seed=5)
        shapes = ("<{g}> K {x} {l}", "<[{g}]> K {x} {l}", "[<{g}>] K {x} {l}",
                  "[{g}] K {x} {l}", "K {x} {l}")
        merging = 0
        for i in range(1300):
            model = random_model(params, i)
            if len(model.states) < 4 or not is_contracted(model):
                continue
            formulas = dict.fromkeys(
                parse(shape.format(g="{" + g + "}", x=x, l=l))
                for shape in shapes for g in model.agents
                for x in model.agents
                for p in model.props for l in (p, "~" + p))
            positive = [f for f in formulas if _positive(f)]
            before = oracle.Evaluator(model)
            for dropped in model.states:
                keep = [s for s in model.states if s != dropped]
                restricted = model.update(keep)
                if is_contracted(restricted):
                    continue
                merging += 1
                after = oracle.Evaluator(restricted)
                for f in positive:
                    for w in keep:
                        if before.eval(w, f):
                            assert after.eval(w, f), \
                                (i, dropped, w, render(f))
        assert merging > 100

    def test_classification(self):
        positive = ["p", "~p", "top", "bot", "K a p & (q | ~q)",
                    "[~K a p] K b q", "[p] K b q", "[{a,b}] K c ~p",
                    "K a [{b}] (p | K c q)"]
        negative_or_mixed = ["~K a p", "~~p", "p -> q", "p <-> q",
                             "<p> K a q", "[K a p] K b q", "<{a}> K b p",
                             "<[{a}]> p", "[<{a}>] p", "[~~K a p] q"]
        for text in positive:
            assert _positive(parse(text)), text
        for text in negative_or_mixed:
            assert not _positive(parse(text)), text

    def test_announcement_diamonds_do_not_carry_positivity(self):
        """A restriction can make states bisimilar that were not, and then
        a class can no longer be announced without its new twins. At w, b
        announces {w, y}, after which a knows p. After restricting to S,
        y is bisimilar to x, so b's smallest announcement is all of S, and
        x refutes K a p there. The same model refutes preservation for
        `<[G]>` and `[<G>]` with positive bodies, so none of the three is
        positive. A rule that took `<{b}> K a p` for positive would decide
        `<{c}> <{b}> K a p` by c's first set, S, and read false."""
        model = validate({
            "agents": ["a", "b", "c"], "props": ["p", "q"],
            "states": ["w", "x", "y", "v", "z"],
            "partitions": {"a": [["w", "x", "z"], ["y", "v"]],
                           "b": [["w", "y"], ["x", "v"], ["z"]],
                           "c": [["w", "x", "y", "v"], ["z"]]},
            "valuation": {"p": ["w", "v"], "q": ["z"]},
        })
        before = oracle.Evaluator(model)
        after = oracle.Evaluator(model.update(frozenset("wxyv")))
        for text in ("<{b}> K a p", "<[{b}]> K a p", "[<{a}>] K a p"):
            f = parse(text)
            assert not _positive(f), text
            assert before.eval("w", f) and not after.eval("w", f), text
        f = parse("<{c}> <{b}> K a p")
        assert Evaluator(model).eval("w", f) is before.eval("w", f) is True

    def test_computed_once_and_not_at_construction(self):
        # a vocabulary no other test builds: an interned node, with the
        # facts cached on it, lives as long as anything refers to it
        f = parse("K once_a (once_p & once_q)")
        assert not hasattr(f, "_positive")
        assert _positive(f)
        assert f._positive is True and f.body._positive is True
        assert f is parse("K once_a (once_p & once_q)")
        assert "_positive" not in repr(f)


def exact_model(rng, n, classes):
    """Model with n states and the given number of classes per agent, each
    proposition true at each state with probability 1/2."""
    states = [f"s{i}" for i in range(n)]
    partitions = {}
    for agent, k in classes.items():
        labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(labels)
        blocks = {}
        for s, label in zip(states, labels):
            blocks.setdefault(label, []).append(s)
        partitions[agent] = list(blocks.values())
    valuation = {p: [s for s in states if rng.random() < 0.5]
                 for p in ("p", "q", "r", "s")}
    return validate({"agents": list(classes), "props": ["p", "q", "r", "s"],
                     "states": states, "partitions": partitions,
                     "valuation": valuation})


def uncached_decider(f, agents):
    """The one-set rule of `Evaluator._deciding_group`, derived afresh from
    the quantifier, its body and the model's agents."""
    body = f.body
    if _positive(body):
        diamond = isinstance(f, (GroupDia, CoalDia))
    elif isinstance(body, Not) and _positive(body.body):
        diamond = isinstance(f, (GroupBox, CoalBox))
    else:
        return None
    if diamond:
        return f.group
    if isinstance(f, (GroupBox, GroupDia)):
        return frozenset()
    return frozenset(agents) - f.group


class TestOneSetDecides:
    def test_cached_rule_is_the_uncached_rule(self):
        """Every quantifier over every group of a, b, c, with each pool
        formula and its negation as body: the rule cached on the node gives
        the uncached one, asked twice, on evaluators whose agent sets, and
        so opponents, differ."""
        pool = instantiation_pool("abc", "pq")
        assert len(pool) == 255
        groups = [frozenset(g) for n in range(4)
                  for g in itertools.combinations("abc", n)]
        rng = random.Random("decider")
        evaluators = [Evaluator(exact_model(rng, 2, dict.fromkeys(agents, 1)))
                      for agents in ("abc", "abcd")]
        decided = undecided = 0
        for kind in (GroupBox, GroupDia, CoalBox, CoalDia):
            for group in groups:
                for g in pool:
                    for body in (g, Not(g)):
                        f = kind(group, body)
                        for ev in evaluators:
                            expected = uncached_decider(f, ev.model.agents)
                            assert ev._deciding_group(f) == expected
                            assert ev._deciding_group(f) == expected
                            if expected is None:
                                undecided += 1
                            else:
                                decided += 1
        assert decided + undecided == 4 * 8 * 510 * 2
        assert decided and undecided

    def test_certifying_evaluator_decides_nothing_by_one_set(self):
        """Under `certify` every quantifier is scanned, so that every choice
        set is certified: over every group of a, b, c, with each pool
        formula and its negation as body, no quantifier has a deciding
        group, though a plain evaluator of the same model decides some."""
        pool = instantiation_pool("abc", "pq")
        groups = [frozenset(g) for n in range(4)
                  for g in itertools.combinations("abc", n)]
        model = exact_model(random.Random("decider"), 2,
                            dict.fromkeys("abc", 1))
        certifying, plain = (Evaluator(model, certify=True),
                             Evaluator(model))
        decided = 0
        for kind in (GroupBox, GroupDia, CoalBox, CoalDia):
            for group in groups:
                for g in pool:
                    for body in (g, Not(g)):
                        f = kind(group, body)
                        decided += plain._deciding_group(f) is not None
                        assert certifying._deciding_group(f) is None
        assert decided

    def test_positive_diamond_builds_few_restrictions(self):
        """`<{a,b}> K c p` at every state of a 32-state model: one
        restriction per state at most, where enumerating the choice sets
        builds hundreds of thousands."""
        model = exact_model(random.Random(32), 32, {"a": 13, "b": 10, "c": 12})
        assert len(bisim_contract(model).contracted.states) == 32
        ev = Evaluator(model)
        f = parse("<{a,b}> K c p")
        truths = [ev.eval(s, f) for s in model.states]
        assert any(truths) and not all(truths)
        assert len(ev._quotients) <= 40

    def test_every_case_matches_the_full_scan(self):
        """The one-set rule against the scan that `certify` keeps, for the
        four quantifiers over a positive and a negative body."""
        rng = random.Random("one set")
        bodies = ["K c p", "K a (p | K b q)", "[~K a q] K b p",
                  "~K c p", "~(K a p & [{b}] K c q)"]
        for _ in range(12):
            model = exact_model(rng, 7, {"a": 3, "b": 3, "c": 2})
            fast, scan = Evaluator(model), Evaluator(model, certify=True)
            for body in bodies:
                for op in ("<{a}>", "[{a,b}]", "<[{b}]>", "[<{a,c}>]",
                           "<{}>", "[<{}>]", "<[{a,b,c}]>"):
                    f = parse(f"{op} {body}")
                    for s in model.states:
                        assert fast.check(s, f) == scan.check(s, f), \
                            (model.to_doc(), s, render(f))
            assert scan.certificates.mismatches == []

    def test_early_win_builds_one_choice_set(self):
        """A diamond whose body is neither positive nor negative scans the
        group's sets lazily: a win with the first set builds no other."""
        sets, first = self.early_win("<{a,b}> (p | ~K c q)")
        assert sets.found == [first] and sets.rest is not None

    def test_early_win_of_one_member_builds_one_choice_set(self):
        """A one-member group's sets are walked lazily too: a win with a's
        first set builds none of a's other 15 unions of classes."""
        sets, first = self.early_win("<{a}> (p | ~K c q)")
        assert len(sets.options[0]) == 16
        assert sets.found == [first] and sets.rest is not None

    @staticmethod
    def early_win(text):
        """On a seeded 12-state model where a has 5 classes, at the first
        state where the body holds after the group's first set: the
        memoised choice sets of the group there, and that first set."""
        model = exact_model(random.Random(5), 12, {"a": 5, "b": 4, "c": 4})
        ev = Evaluator(model)
        f = parse(text)
        root = ev._root_quotient
        for s in model.states:
            rep = root.rep_of[model._position[s]]
            first = ev._first_set(root, rep, f.group)
            if not ev._holds_after(first[0], rep, f.body):
                continue
            assert ev.eval(s, f)
            return ev._choice_set_cache[root.kept, rep, f.group], first
        raise AssertionError("no state where the first set wins")


class TestLazyChoiceSets:
    @settings(max_examples=120, deadline=None)
    @given(models(), st.data())
    def test_same_sets_order_and_representatives_as_the_product(
            self, model, data):
        """On a contracted model the root restriction is the model itself:
        the generator must yield the product's first-seen sets, each with
        the first product choice that yields it, however it is read."""
        model = bisim_contract(model).contracted
        group = data.draw(st.frozensets(st.sampled_from(model.agents)))
        w = data.draw(st.sampled_from(model.states))
        expected, seen = [], set()
        for choice in group_choices(model, w, group):
            cut = choice_intersection(model, choice)
            if cut not in seen:
                seen.add(cut)
                expected.append((cut, choice))
        ev = Evaluator(model)
        root = ev._root_quotient
        rep = root.rep_of[model._position[w]]
        sets = ev._choice_sets(root, rep, group)
        # a partial read, a nested read, then the rest
        head = []
        for pair in sets:
            head.append(pair)
            assert list(sets)[:len(head)] == head
            break
        got = list(sets)
        assert got[:1] == head and list(sets) == got
        decoded = [(ev._states(cut), ev._choice(group, choice))
                   for cut, choice in got]
        assert decoded == expected
        assert got[0] == ev._first_set(root, rep, group)
