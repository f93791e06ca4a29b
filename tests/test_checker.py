import gc
import importlib.util
import itertools
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

import cogal.model
from cogal.cli import main as cli_main
from cogal.checker import (
    BindingError, Evaluator, Verdict, _ChoiceSets, _distinct_sets, check,
    eval_formula, extension,
)
from cogal.formula import (
    And, Atom, CoalBox, CoalDia, Fragment, GroupBox, GroupDia, Hole, Imp,
    Know, KnowCtx, Not, PaBox, PaDia, Top, fragment, parse, render,
)
from cogal.harness import (
    GenParams, axiom_suite, instantiation_pool, random_formula, random_model,
)
from cogal.model import (
    ModelError, PointedModel, bisim_contract, realize_choice, validate,
)

import frozenset_engine as oracle
from frozenset_engine import choice_intersection, class_unions, group_choices
from conftest import naive_pal_eval
from test_positive import exact_model


class TestTrainExamples:
    CLAIMS = [
        ("[~p] K c ~p", True),
        ("[{c}] (~K c ~p & ~K c p)", True),
        ("<{a,b}> (~K c ~p & ~K c p)", True),
        ("<[{a,b}]> (~K c ~p & ~K c p)", True),
        ("[<{a,c}>] (K c ~p | K c p)", True),
        ("<[{a,c}]> (~K c ~p & ~K c p)", False),
    ]

    @pytest.mark.parametrize("text,expected", CLAIMS)
    def test_claim(self, train, text, expected):
        model, w = train
        assert eval_formula(model, w, parse(text)) is expected

    def test_extension_examples(self, train):
        model, _ = train
        assert extension(model, parse("~p")) == frozenset({"w"})
        assert extension(model, Top()) == frozenset({"w", "v"})

    def test_update_only_when_announcement_true(self, train):
        model, w = train
        # p is false at w, so the box is vacuous and the diamond fails
        assert eval_formula(model, w, parse("[p] bot")) is True
        assert eval_formula(model, w, parse("<p> top")) is False


class TestGroupChoices:
    def test_options_for_two_classes(self, train):
        model, w = train
        choices = list(group_choices(model, w, {"a"}))
        assert [c["a"] for c in choices] == [frozenset({"w"}),
                                             frozenset({"w", "v"})]

    def test_single_class_agent(self, train):
        model, w = train
        assert [c["c"] for c in group_choices(model, w, {"c"})] \
            == [frozenset({"w", "v"})]

    def test_empty_group_trivial_choice(self, train):
        model, w = train
        assert list(group_choices(model, w, set())) == [{}]
        assert choice_intersection(model, {}) == frozenset(model.states)

    def test_counts_are_two_to_the_classes_minus_one(self):
        params = GenParams(max_states=6, agents=("a", "b"), props=("p",),
                           seed=2, count=40)
        for i in range(40):
            model = bisim_contract(random_model(params, i)).contracted
            w = model.states[0]
            for group in [{"a"}, {"b"}, {"a", "b"}]:
                expected = 1
                for agent in group:
                    expected *= 2 ** (len(model.partitions[agent]) - 1)
                assert len(list(group_choices(model, w, group))) == expected

    def test_unanchored_choices_are_the_product_of_all_unions(self):
        """Without a state, every member ranges over all unions of its
        classes, the empty one included, in `class_unions` order."""
        params = GenParams(max_states=4, agents=("a", "b", "c"),
                           props=("p",), seed=3, count=20)
        for i in range(20):
            model = random_model(params, i)
            for group in [set(), {"b"}, {"a", "c"}, {"a", "b", "c"}]:
                members = [a for a in model.agents if a in group]
                expected = [dict(zip(members, combo)) for combo in
                            itertools.product(*[class_unions(model, a)
                                                for a in members])]
                assert list(group_choices(model, None, group)) == expected

    def test_increasing_cardinality_order(self):
        model = validate({
            "agents": ["a"], "props": ["p", "q"],
            "states": ["x", "y", "z", "u"],
            "partitions": {"a": [["x"], ["y", "z"], ["u"]]},
            "valuation": {"p": ["x", "y"], "q": ["y", "u"]},
        })
        sizes = [len(c["a"]) for c in group_choices(model, "x", {"a"})]
        assert sizes == sorted(sizes) == [1, 2, 3, 4]

    def test_undeclared_agents_and_states_are_model_errors(self, train):
        # an undeclared agent is not an absent one: as `realize_choice`
        # does, the enumerators reject it rather than yield `{}`
        model, w = train
        with pytest.raises(ModelError, match=r"unknown agents \['zz'\]"):
            list(group_choices(model, w, {"zz"}))
        with pytest.raises(ModelError, match=r"unknown agents \['zz'\]"):
            list(group_choices(model, None, {"a", "zz"}))
        with pytest.raises(ModelError, match="unknown state 'nowhere'"):
            list(group_choices(model, "nowhere", set()))
        with pytest.raises(ModelError, match="unknown agent 'zz'"):
            class_unions(model, "zz", w)
        with pytest.raises(ModelError, match="unknown agent 'zz'"):
            class_unions(model, "zz")
        with pytest.raises(ModelError, match="unknown state 'nowhere'"):
            class_unions(model, "a", "nowhere")


class TestDuality:
    @staticmethod
    def _models(count, seed, props=("p", "q")):
        params = GenParams(max_states=4, agents=("a", "b"), props=props,
                           seed=seed, count=count)
        return [random_model(params, i) for i in range(count)]

    def test_announcement_group_and_coalition_duals(self):
        rng = random.Random("duality")
        cases = 0
        for model in self._models(42, seed=31):
            ev = Evaluator(model)
            for _ in range(4):
                ann = random_formula(rng, model.agents, model.props,
                                     frag=Fragment.EL, max_depth=2)
                body = random_formula(rng, model.agents, model.props,
                                      max_depth=2)
                group = frozenset(a for a in model.agents
                                  if rng.random() < 0.5)
                pairs = [
                    (PaDia(ann, body), Not(PaBox(ann, Not(body)))),
                    (GroupDia(group, body), Not(GroupBox(group, Not(body)))),
                    (CoalDia(group, body), Not(CoalBox(group, Not(body)))),
                ]
                for s in model.states:
                    for dia, boxed in pairs:
                        cases += 1
                        assert ev.eval(s, dia) == ev.eval(s, boxed)
        assert cases >= 500


class TestAgainstNaiveReference:
    def test_pal_fragment_agrees_with_naive_semantics(self):
        params = GenParams(max_states=5, agents=("a", "b"), props=("p", "q"),
                           seed=17, count=60)
        rng = random.Random("naive")
        cases = 0
        for i in range(60):
            model = random_model(params, i)
            ev = Evaluator(model)
            for _ in range(5):
                f = random_formula(rng, model.agents, model.props,
                                   frag=Fragment.PAL, max_depth=3)
                for s in model.states:
                    cases += 1
                    assert ev.eval(s, f) == naive_pal_eval(model, s, f)
        assert cases >= 500


class TestGroupQuantifierAgainstRealAnnouncements:
    """Independent audit of the group-box semantics: its verdicts must match
    what actual announcement formulas do under the naive PAL oracle.

    False verdicts are fully audited: the refuting choice realizes to a
    formula whose plain announcement already fails. True verdicts are audited
    against a sampled family of genuine joint announcements.
    """

    def test_false_box_realizes_to_a_failing_announcement(self):
        params = GenParams(max_states=4, agents=("a", "b"), props=("p", "q"),
                           seed=101, count=60)
        rng = random.Random("box-false")
        audited = 0
        for i in range(60):
            model = bisim_contract(random_model(params, i)).contracted
            ev = Evaluator(model)
            pool = instantiation_pool(model.agents, model.props)
            for _ in range(3):
                group = frozenset(a for a in model.agents
                                  if rng.random() < 0.7)
                body = pool[rng.randrange(len(pool))]
                f = GroupBox(group, body)
                for s in model.states:
                    if ev.eval(s, f):
                        continue
                    # find the defeating choice and replay it as PAL
                    for choice in group_choices(model, s, group):
                        realized = realize_choice(model, s, group, choice)
                        replay = PaBox(realized, body)
                        if not naive_pal_eval(model, s, replay):
                            audited += 1
                            break
                    else:
                        raise AssertionError(
                            "false group box without a failing announcement")
        assert audited >= 100

    def test_true_box_survives_sampled_real_announcements(self):
        params = GenParams(max_states=4, agents=("a", "b"), props=("p", "q"),
                           seed=103, count=40)
        rng = random.Random("box-true")
        audited = 0
        for i in range(40):
            model = random_model(params, i)
            ev = Evaluator(model)
            pool = instantiation_pool(model.agents, model.props)
            for _ in range(3):
                group = frozenset(a for a in model.agents
                                  if rng.random() < 0.7)
                body = pool[rng.randrange(len(pool))]
                f = GroupBox(group, body)
                announcements = []
                for _ in range(4):
                    parts = [Know(a, pool[rng.randrange(len(pool))])
                             for a in model.agents if a in group]
                    joint = parts[0] if parts else Top()
                    for part in parts[1:]:
                        joint = And(joint, part)
                    announcements.append(joint)
                for s in model.states:
                    if not ev.eval(s, f):
                        continue
                    for joint in announcements:
                        audited += 1
                        assert naive_pal_eval(model, s, PaBox(joint, body))
        assert audited >= 200


class TestMemo:
    def test_memoized_and_fresh_agree(self):
        # One evaluator shared across formulas, its memo and restrictions
        # warmed by every earlier query, against a fresh one per query.
        params = GenParams(max_states=4, agents=("a", "b"), props=("p",),
                           seed=23, count=25)
        rng = random.Random("memo")
        for i in range(25):
            model = random_model(params, i)
            warm = Evaluator(model)
            for _ in range(4):
                f = random_formula(rng, model.agents, model.props, max_depth=2)
                for s in model.states:
                    assert warm.eval(s, f) == Evaluator(model).eval(s, f)

    def test_evaluator_is_freed_without_the_cycle_collector(self, train):
        # a choice-set scan that stops early keeps its walk suspended in
        # the evaluator's cache; the walk must not refer back to the
        # evaluator, or every evaluator waits for the cycle collector
        model, w = train
        enabled = gc.isenabled()
        gc.disable()
        try:
            ev = Evaluator(model)
            assert ev.eval(w, parse("<[{a}]> <{b,c}> K a p")) is False
            freed = weakref.ref(ev)
            del ev
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    def test_certify_suite_leaves_no_cyclic_garbage(self, train):
        # the recursive closures of `_unions` and `_Quotient.chars` must
        # not outlive their calls in reference cycles
        model, w = train
        params = GenParams(seed=1000, count=4)
        axiom_suite(params, certify=True)  # formulas and caches warmed
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            report = axiom_suite(params, certify=True)
            verdict = Evaluator(model).check(w, parse("<{a,b}> ~K c ~p"))
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert report.certificates.checked > 0
        assert verdict.witness_formula is not None

    def test_non_formula_node_is_rejected(self, train):
        # a necessity form is a node but no formula: the dispatch on node
        # class has no case for it
        model, w = train
        for form in (Hole(), KnowCtx("a", Hole())):
            with pytest.raises(TypeError, match="^not a formula: "):
                Evaluator(model).eval(w, form)


# announcements inside quantifier bodies, quantifiers inside announcements
NESTED = ["<{a}> [p | K b q] K c p", "[<{a,b}> K c p] K a q",
          "<[{a}]> <K b p> ~K c q", "[{a,b}] <~K c p> K a p",
          "<<{b}> ~K a p> [<{a,c}>] K c q", "<{a,b}> (K a p & [q] ~K b p)",
          "[{b,c}] <[{a}]> [~q] K b ~p"]


class TestSweep:
    """A sweep over every state on one evaluator reads each restriction's
    announcement extents, realized announcements and named state sets once
    (`Evaluator._where`, `_realize`, `_states`); it must answer exactly as a
    fresh evaluator per state does."""

    MODELS = 24

    @staticmethod
    def _formulas(rng, agents, props):
        out = [random_formula(rng, agents, props, frag=frag)
               for frag in Fragment for _ in range(2)]
        return out + [parse(text) for text in NESTED]

    @pytest.mark.parametrize("certify", [False, True])
    def test_sweep_agrees_with_a_fresh_evaluator_per_state(self, certify):
        params = GenParams(max_states=6, seed=2301, count=self.MODELS)
        rng = random.Random("sweep")
        fragments = set()
        checked = 0
        for i in range(self.MODELS):
            model = random_model(params, i)
            for f in self._formulas(rng, model.agents, model.props):
                fragments.add(fragment(f))
                sweep = Evaluator(model, certify=certify)
                docs = [sweep.check(s, f).to_doc() for s in model.states]
                seen = set()
                for s, doc in zip(model.states, docs):
                    fresh = Evaluator(model, certify=certify)
                    assert doc == fresh.check(s, f).to_doc(), (render(f), s)
                    seen |= fresh._cert_seen
                    assert fresh.certificates.mismatches == []
                truths = frozenset(s for s, doc in zip(model.states, docs)
                                   if doc["truth"])
                assert sweep.extension(f) == truths
                assert oracle.Evaluator(model).extension(f) == truths
                # the sweep certifies the choices the fresh evaluators do,
                # each once
                assert sweep.certificates.checked == len(seen)
                assert sweep.certificates.mismatches == []
                checked += sweep.certificates.checked
        assert fragments == set(Fragment)
        assert (checked > 0) == certify


def scale_model(n: int):
    """The benchmark's first model of n states at its panel seed 1000
    (`perfbench/modelgen.py`)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "modelgen.py"
    spec = importlib.util.spec_from_file_location("modelgen", path)
    modelgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(modelgen)
    return validate(modelgen.exact_model_doc(
        random.Random(f"scale:1000:{n}:0"), n))


class TestSweepCounts:
    """What a sweep reads once per restriction, counted on a 16-state
    benchmark model."""

    def test_each_announcement_extent_is_evaluated_once(self, monkeypatch):
        model = scale_model(16)
        f = parse("[p] K c q")
        reads = Counter()
        inner = Evaluator._eval

        def counted(self, q, state, g):
            if g is f.announce:
                reads[q.kept] += 1
            return inner(self, q, state, g)

        monkeypatch.setattr(Evaluator, "_eval", counted)
        ev = Evaluator(model)
        truths = [ev.check(s, f).truth for s in model.states]
        root = ev._root_quotient
        # p holds at more than one state, so a sweep that recomputed its
        # extent per state would evaluate it more than once per block
        assert len(model.truth_set("p")) > 1 and len(root.blocks) > 1
        assert any(truths) and not all(truths)
        # at each state, to test the announcement, and once per block, for
        # its extent
        assert reads == {root.kept: len(model.states) + len(root.blocks)}

    def test_each_member_announcement_is_realized_once(self, monkeypatch):
        model = scale_model(16)
        f = parse("<{a,b}> K c p")
        realized = []
        inner = cogal.model.disjoin

        def counted(parts):
            realized.append(None)
            return inner(parts)

        monkeypatch.setattr(cogal.model, "disjoin", counted)
        ev = Evaluator(model)
        witnesses = [ev.check(s, f).witness_choice for s in model.states]
        parts = [(a, states) for choice in witnesses if choice
                 for a, states in choice.items()]
        # the sweep's witnesses repeat parts; each is realized once
        assert len(set(parts)) < len(parts)
        assert len(realized) == len(set(parts))


class TestBinding:
    def test_unbound_agent(self, train):
        model, w = train
        with pytest.raises(BindingError, match="agents d"):
            eval_formula(model, w, parse("K d p"))

    def test_unbound_proposition(self, train):
        model, w = train
        with pytest.raises(BindingError, match="propositions z"):
            eval_formula(model, w, parse("K a z"))

    def test_unbound_group_member(self, train):
        model, w = train
        with pytest.raises(BindingError, match="agents d"):
            eval_formula(model, w, parse("[{a,d}] p"))

    @pytest.mark.parametrize("text, message", [
        # p holds at v, so evaluation alone would never reach K z q
        ("p | K z q", "formula mentions unbound agents z and propositions q"),
        ("<{a,z}> p", "formula mentions unbound agents z"),
        ("[K z p] q", "formula mentions unbound agents z and propositions q"),
    ])
    def test_unbound_name_anywhere_in_the_formula(self, train, text, message):
        model, _ = train
        ev = Evaluator(model)
        f = parse(text)
        for query in (lambda: ev.eval("v", f), lambda: ev.eval("w", f),
                      lambda: ev.extension(f), lambda: ev.check("v", f)):
            with pytest.raises(BindingError) as err:
                query()
            assert str(err.value) == message

    def test_bound_names_are_learned_by_the_model_first(self):
        # the model's names may be new to every formula built so far
        model = validate({"agents": ["agent_new"], "props": ["prop_new"],
                          "states": ["s"], "partitions": {"agent_new": [["s"]]},
                          "valuation": {"prop_new": ["s"]}})
        ev = Evaluator(model)
        assert ev.eval("s", parse("K agent_new prop_new"))
        with pytest.raises(BindingError, match="propositions prop_other"):
            ev.eval("s", parse("prop_other"))

    def test_binding_check_never_walks_the_formula(self, train, monkeypatch):
        """Count-based guard: once built, a large formula is checked for
        bindings without visiting its nodes."""
        import cogal.formula as formula_module

        model, w = train
        leaves = [Know("abc"[i % 3], Atom("p") if i % 2 else Not(Atom("p")))
                  for i in range(700)]
        while len(leaves) > 1:  # balanced, so evaluation stays shallow
            leaves = [And(*leaves[i:i + 2]) if i + 1 < len(leaves) else leaves[i]
                      for i in range(0, len(leaves), 2)]
        f = leaves[0]
        assert _node_count(f) >= 2000
        ev = Evaluator(model)
        ev.eval(w, f)
        calls = []
        real_parts = formula_module._parts
        monkeypatch.setattr(formula_module, "_parts",
                            lambda g: calls.append(g) or real_parts(g))
        for i in range(1000):
            ev.eval("wv"[i % 2], f)
        assert calls == []
        formula_module.fragment(f)  # the counter does see walks
        assert len(calls) >= 2000


def _node_count(f):
    return 1 + sum(_node_count(getattr(f, fld))
                   for fld in ("body", "left", "right", "announce")
                   if hasattr(f, fld))


class TestVerdicts:
    def test_trivial_announcement_witness(self, train):
        model, w = train
        verdict = check(PointedModel(model, w),
                        parse("<{a,b}> [{c}] ~K c ~p"))
        assert verdict.truth
        assert verdict.witness_choice == {"a": frozenset({"w", "v"}),
                                          "b": frozenset({"w", "v"})}
        assert extension(model, verdict.witness_formula) \
            == frozenset({"w", "v"})

    def test_coalition_falsum_has_no_witness(self, train):
        model, w = train
        verdict = check(PointedModel(model, w), parse("<[{a}]> bot"))
        assert not verdict.truth
        assert verdict.witness_choice is None

    def test_coalition_refutation_defeats_first_choice(self, train):
        model, w = train
        f = parse("<[{a,c}]> (~K c ~p & ~K c p)")
        verdict = check(PointedModel(model, w), f)
        assert not verdict.truth
        assert verdict.refutation_choice == {"b": frozenset({"w"})}
        # the refuting announcement really is b announcing "not p"
        assert extension(model, verdict.refutation_formula) \
            == frozenset({"w"})

    def test_coalition_witness_choice(self, train):
        model, w = train
        verdict = check(PointedModel(model, w),
                        parse("<[{a,b}]> (~K c ~p & ~K c p)"))
        assert verdict.truth
        assert verdict.witness_choice is not None
        assert verdict.witness_formula is not None

    def test_witness_formula_extension_matches_choice(self):
        """The realizing formula of a witness denotes, on the original model,
        exactly the intersection of the reported choice sets."""
        params = GenParams(max_states=5, agents=("a", "b"), props=("p", "q"),
                           seed=43, count=60)
        rng = random.Random("witness-extension")
        audited = 0
        for i in range(60):
            model = random_model(params, i)
            pool = instantiation_pool(model.agents, model.props)
            ev = Evaluator(model)
            for _ in range(3):
                group = frozenset(a for a in model.agents
                                  if rng.random() < 0.7)
                body = pool[rng.randrange(len(pool))]
                for s in model.states:
                    verdict = ev.check(s, GroupDia(group, body))
                    if verdict.witness_choice is None:
                        continue
                    audited += 1
                    expected = frozenset(model.states)
                    for part in verdict.witness_choice.values():
                        expected &= part
                    assert ev.extension(verdict.witness_formula) == expected
        assert audited >= 100

    def test_witness_replay_oracle(self):
        """A group-diamond witness replayed as a plain announcement diamond
        must reproduce the truth value."""
        params = GenParams(max_states=4, agents=("a", "b"), props=("p", "q"),
                           seed=41, count=150)
        rng = random.Random("replay")
        replayed = 0
        for i in range(150):
            model = random_model(params, i)
            pool = instantiation_pool(model.agents, model.props)
            ev = Evaluator(model)
            for _ in range(4):
                group = frozenset(a for a in model.agents
                                  if rng.random() < 0.7)
                body = pool[rng.randrange(len(pool))]
                f = GroupDia(group, body)
                for s in model.states:
                    verdict = ev.check(s, f)
                    if verdict.truth and verdict.witness_formula is not None:
                        replayed += 1
                        replay = PaDia(verdict.witness_formula, body)
                        assert eval_formula(model, s, replay)
                        if replayed >= 300:
                            return
        assert replayed >= 300


def product_walk_verdict(model, state, f):
    """Verdict for a group or coalition diamond by walking the full product
    of member choices, using public API and the oracle's choices only: the
    members in model order, the last varying fastest, and each member's
    unions by increasing size, ties broken by class positions.

    Each update set is evaluated by a fresh evaluator on the contracted
    model restricted to it. The witness is the first group choice that
    succeeds; the refutation is the first opponent choice that defeats the
    first group choice."""
    cm = bisim_contract(model)
    top = cm.contracted
    s = cm.mapping[state]
    outcomes = {}

    def holds(kept):
        if kept not in outcomes:
            outcomes[kept] = Evaluator(top.update(kept)).eval(s, f.body)
        return outcomes[kept]

    def pull(choice):
        return {a: frozenset(t for t in model.states if cm.mapping[t] in chosen)
                for a, chosen in choice.items()}

    def witness(choice):
        return Verdict(True, witness_choice=pull(choice),
                       witness_formula=realize_choice(top, s, f.group, choice))

    if isinstance(f, GroupDia):
        for choice in group_choices(top, s, f.group):
            if holds(choice_intersection(top, choice)):
                return witness(choice)
        return Verdict(False)
    opponents = frozenset(model.agents) - f.group
    responses = list(group_choices(top, s, opponents))
    first_defeat = None
    for i, choice in enumerate(group_choices(top, s, f.group)):
        own = choice_intersection(top, choice)
        defeat = next((c for c in responses
                       if not holds(own & choice_intersection(top, c))), None)
        if defeat is None:
            return witness(choice)
        if i == 0:
            first_defeat = defeat
    return Verdict(False, refutation_choice=pull(first_defeat),
                   refutation_formula=realize_choice(top, s, opponents,
                                                     first_defeat))


class TestEvidenceAgainstProductWalk:
    def test_check_matches_product_walk(self):
        """Evidence read from the deduplicated choice sets equals the
        evidence of the full product walk, diamonds true and false."""
        params = GenParams(max_states=5, agents=("a", "b", "c"),
                           props=("p", "q"), seed=97, count=120)
        rng = random.Random("evidence")
        true_diamonds = false_coalitions = 0
        for i in range(params.count):
            model = random_model(params, i)
            ev = Evaluator(model)
            for _ in range(3):
                group = frozenset(a for a in model.agents if rng.random() < 0.5)
                body = random_formula(rng, model.agents, model.props,
                                      frag=Fragment.GAL, max_depth=2)
                kind = CoalDia if rng.random() < 0.6 else GroupDia
                f = kind(group, body)
                for s in model.states:
                    got = ev.check(s, f).to_doc()
                    assert got == product_walk_verdict(model, s, f).to_doc(), \
                        (model.to_doc(), s, render(f))
                    true_diamonds += got["truth"]
                    false_coalitions += kind is CoalDia and not got["truth"]
        assert true_diamonds >= 200
        assert false_coalitions >= 100

    def test_refutation_defeats_the_first_group_set(self):
        # Opponent a's first defeating response differs between {b,c}'s
        # first choice and its third, so the refutation pins the order.
        model = validate({
            "agents": ["a", "b", "c"],
            "props": ["p", "q"],
            "states": ["s0", "s1", "s2", "s3", "s4"],
            "partitions": {"a": [["s0"], ["s1"], ["s2"], ["s3"], ["s4"]],
                           "b": [["s0"], ["s1", "s2"], ["s3", "s4"]],
                           "c": [["s0", "s2", "s3", "s4"], ["s1"]]},
            "valuation": {"p": ["s0", "s1", "s2", "s3"],
                          "q": ["s0", "s1", "s4"]},
        })
        f = parse("<[{b,c}]> (K b ~q & K b K c ~q)")
        got = Evaluator(model).check("s3", f).to_doc()
        assert got == product_walk_verdict(model, "s3", f).to_doc()
        assert got["refutation"]["choice"] == {"a": ["s3", "s4"]}

    def test_mixed_bodies_on_larger_models(self):
        """Coalition quantifiers over bodies neither positive nor negative,
        on models of 6 to 10 states: diamonds against the product walk,
        boxes against the frozenset engine. Both ways a scan ends are
        exercised: every trace losing, and some trace winning."""
        rng = random.Random("coalition scan")
        bodies = [parse(text) for text in ("K a p & ~K b q", "K b p & ~K c q",
                                           "~K c p & K a (p | q)")]
        groups = [frozenset(g) for g in ("a", "b", "c", "ab", "bc")]
        exits = scans = 0
        for _ in range(24):
            model = exact_model(rng, rng.randint(6, 10),
                                {a: rng.randint(2, 4) for a in "abc"})
            ev, reference = Evaluator(model), oracle.Evaluator(model)
            for body in bodies:
                group = rng.choice(groups)
                diamond, box = CoalDia(group, body), CoalBox(group, body)
                for s in model.states:
                    assert ev.check(s, diamond).to_doc() == product_walk_verdict(
                        model, s, diamond).to_doc(), (model.to_doc(), s,
                                                      render(diamond))
                    assert ev.eval(s, box) == reference.eval(s, box), \
                        (model.to_doc(), s, render(box))
                    if every_trace_loses(model, s, diamond):
                        exits += 1
                    else:
                        scans += 1
        assert exits >= 200 and scans >= 100

    def test_trace_wins_but_a_later_response_defeats(self):
        """The first set's trace wins, yet a later response beats it: the
        diamond is false, and the refutation is not the opponents' first
        set."""
        model = validate({
            "agents": ["a", "b", "c"], "props": ["p", "q"],
            "states": ["s0", "s1", "s2"],
            "partitions": {"a": [["s0"], ["s1", "s2"]],
                           "b": [["s0"], ["s1"], ["s2"]],
                           "c": [["s0", "s1"], ["s2"]]},
            "valuation": {"p": [], "q": ["s1"]},
        })
        f = parse("<[{a}]> (~K c p & K a q)")
        assert not every_trace_loses(model, "s1", f)
        got = Evaluator(model).check("s1", f).to_doc()
        assert got == product_walk_verdict(model, "s1", f).to_doc()
        assert not got["truth"]
        assert got["refutation"]["choice"] == {"b": ["s1", "s2"],
                                               "c": ["s0", "s1", "s2"]}

    def test_witness_is_not_the_first_set(self):
        """a's own class loses to b's and c's, the whole model wins."""
        model = validate({
            "agents": ["a", "b", "c"], "props": ["p", "q"],
            "states": ["s0", "s1", "s2"],
            "partitions": {"a": [["s0"], ["s1"], ["s2"]],
                           "b": [["s0", "s1", "s2"]],
                           "c": [["s0", "s1", "s2"]]},
            "valuation": {"p": ["s0", "s2"], "q": ["s0", "s2"]},
        })
        f = parse("<[{a}]> (K a p & ~K b q)")
        got = Evaluator(model).check("s0", f).to_doc()
        assert got == product_walk_verdict(model, "s0", f).to_doc()
        assert got["witness"]["choice"] == {"a": ["s0", "s1", "s2"]}


def every_trace_loses(model, state, f):
    """Whether the body of a coalition diamond fails after every set that
    the opponents' first choice leaves of a group choice, read with the
    public API on the contracted model."""
    cm = bisim_contract(model)
    top, s = cm.contracted, cm.mapping[state]
    opponents = frozenset(model.agents) - f.group
    first = choice_intersection(top, next(group_choices(top, s, opponents)))
    return not any(
        Evaluator(top.update(choice_intersection(top, choice) & first))
        .eval(s, f.body)
        for choice in group_choices(top, s, f.group))


class TestCoalitionScan:
    def test_diamond_body_at_32_states(self):
        """`<[{a}]> <{b,c}> K a q` at every state of a 32-state model: each
        own set is played against the sets the responses leave of it, so
        the opponents' own list of choice sets is never walked."""
        model = exact_model(random.Random(32), 32, {"a": 13, "b": 10, "c": 12})
        assert len(bisim_contract(model).contracted.states) == 32
        ev = Evaluator(model)
        f = parse("<[{a}]> <{b,c}> K a q")
        truths = [ev.eval(s, f) for s in model.states]
        assert any(truths) and not all(truths)
        assert len(ev._quotients) < 100
        opponents = frozenset("bc")
        walked = [sets.found for (_, _, group), sets
                  in ev._choice_set_cache.items() if group == opponents]
        assert walked and not any(walked)

    def test_built_sets_meet_an_own_set_as_the_walk_does(self):
        """`_ChoiceSets.meet` reads the sets A & B off the built list of
        sets B when it has it, with repeats: at their first appearances
        they are the sets and representatives the walk over the options
        gives, in the same order. The certificates of a `certify` scan
        rest on it."""
        rng = random.Random("meet")
        groups = [frozenset(g) for n in (1, 2, 3)
                  for g in itertools.combinations("abc", n)]
        compared = 0
        for _ in range(30):
            model = exact_model(rng, rng.randint(3, 7),
                                {a: rng.randint(1, 4) for a in "abc"})
            ev = Evaluator(model)
            q = ev._root_quotient
            for state, _ in q.blocks:
                for group in groups:
                    options = [ev._options(q, a, state)
                               for a in ev._members(group)]
                    built = _ChoiceSets(q.kept, options)
                    list(built)
                    assert built.rest is None
                    for own, _ in _distinct_sets(
                            q.kept, [ev._options(q, "a", state)]):
                        first_seen = {}
                        for cut, choice in built.meet(own):
                            first_seen.setdefault(cut, choice)
                        assert (list(first_seen.items())
                                == list(_distinct_sets(own, options)))
                        compared += 1
        assert compared > 1000


class TestJsonVerdict:
    def test_round_trip_schema(self, train):
        import json
        model, w = train
        verdict = check(PointedModel(model, w),
                        parse("<{a,b}> (~K c ~p & ~K c p)"))
        doc = json.loads(json.dumps(verdict.to_doc()))
        assert doc["truth"] is True
        assert doc["witness"]["choice"] == {"a": ["v", "w"], "b": ["v", "w"]}
        assert parse(doc["witness"]["formula"]) == verdict.witness_formula


class TestSemanticAxiomInstances:
    """Module-scale samples; the acceptance suite runs the full-size sweeps."""

    @staticmethod
    def _sample(count, seed, agents=("a", "b")):
        params = GenParams(max_states=4, agents=agents, props=("p", "q"),
                           seed=seed, count=count)
        return [random_model(params, i) for i in range(count)]

    def test_pal_reduction_axioms(self):
        from cogal.formula import Iff
        rng = random.Random("pal-reductions")
        for model in self._sample(20, seed=51):
            ev = Evaluator(model)
            pool = instantiation_pool(model.agents, model.props)
            draw = lambda: pool[rng.randrange(len(pool))]
            for _ in range(3):
                x, y, z = draw(), draw(), draw()
                a = model.agents[rng.randrange(len(model.agents))]
                atom = Atom(model.props[0])
                schemas = [
                    Iff(PaBox(x, atom), Imp(x, atom)),
                    Iff(PaBox(x, Not(y)), Imp(x, Not(PaBox(x, y)))),
                    Iff(PaBox(x, And(y, z)), And(PaBox(x, y), PaBox(x, z))),
                    Iff(PaBox(x, Know(a, y)), Imp(x, Know(a, PaBox(x, y)))),
                    Iff(PaBox(x, PaBox(y, z)), PaBox(And(x, PaBox(x, y)), z)),
                ]
                for schema in schemas:
                    for s in model.states:
                        assert ev.eval(s, schema), render(schema)

    def test_group_box_implies_specific_announcement(self):
        rng = random.Random("a10")
        for model in self._sample(15, seed=53):
            ev = Evaluator(model)
            pool = instantiation_pool(model.agents, model.props)
            for _ in range(3):
                body = pool[rng.randrange(len(pool))]
                for size_ in range(len(model.agents) + 1):
                    for combo in itertools.combinations(model.agents, size_):
                        group = frozenset(combo)
                        joint_parts = [Know(a, pool[rng.randrange(len(pool))])
                                       for a in model.agents if a in group]
                        joint = joint_parts and joint_parts[0] or Top()
                        for part in joint_parts[1:]:
                            joint = And(joint, part)
                        schema = Imp(GroupBox(group, body), PaBox(joint, body))
                        for s in model.states:
                            assert ev.eval(s, schema)

    def test_coalition_interaction_axiom(self):
        rng = random.Random("a11")
        for model in self._sample(12, seed=57, agents=("a", "b", "c")):
            ev = Evaluator(model)
            pool = instantiation_pool(model.agents, model.props)
            everyone = frozenset(model.agents)
            for _ in range(2):
                body = pool[rng.randrange(len(pool))]
                for size_ in range(len(model.agents) + 1):
                    for combo in itertools.combinations(model.agents, size_):
                        group = frozenset(combo)
                        schema = Imp(CoalDia(group, body),
                                     GroupDia(group,
                                              GroupBox(everyone - group, body)))
                        for s in model.states:
                            assert ev.eval(s, schema)


class TestRecontraction:
    """Updates can merge previously distinguishable states; the evaluator must
    re-contract before enumerating inner quantifier choices, otherwise it
    ranges over update sets no real announcement denotes."""

    @staticmethod
    def _model():
        # After discarding the q-state, s/s2 and t0/t1 become bisimilar, yet
        # they sit in different b-classes; without re-contraction agent b
        # appears able to announce the set {s, t0}, which no epistemic
        # formula denotes there.
        return validate({
            "agents": ["a", "b"],
            "props": ["p", "q"],
            "states": ["s", "s2", "t0", "t1", "z"],
            "partitions": {
                "a": [["s", "t1"], ["s2", "t0", "z"]],
                "b": [["s", "t0"], ["s2", "t1"], ["z"]],
            },
            "valuation": {"p": ["t0", "t1"], "q": ["z"]},
        })

    FORMULA = "[~q] <{b}> ~K b ~(p & K a p)"

    def test_model_is_contracted_but_update_merges(self):
        model = self._model()
        from cogal.model import is_contracted
        assert is_contracted(model)
        child = model.update({"s", "s2", "t0", "t1"})
        assert not is_contracted(child)

    def test_defensive_and_naive_modes_differ(self):
        model = self._model()
        assert Evaluator(model).eval("s", parse(self.FORMULA)) is False
        # Without re-contraction, b could pick its class union {s, t0} of
        # the updated model; that set splits bisimilar states, so no
        # announcement denotes it.
        child = model.update({"s", "s2", "t0", "t1"})
        naive = frozenset({"s", "t0"})
        assert naive in class_unions(child, "b", "s")
        mapping = bisim_contract(child).mapping
        closure = frozenset(t for t in child.states
                            if mapping[t] in {mapping[u] for u in naive})
        assert closure != naive

    def test_only_the_defensive_mode_passes_certification(self):
        model = self._model()
        f = parse(self.FORMULA)
        good = Evaluator(model, certify=True)
        good.eval("s", f)
        assert good.certificates.ok and good.certificates.checked > 0
        child = model.update({"s", "s2", "t0", "t1"})
        with pytest.raises(ModelError):
            realize_choice(child, "s", {"b"}, {"b": frozenset({"s", "t0"})})

    def test_the_update_is_contracted(self):
        # the announcement's body quantifies, so the update it leads to is
        # contracted before b's unions are enumerated: the four kept states
        # fall into two blocks there
        model = self._model()
        ev = Evaluator(model)
        assert ev.eval("s", parse(self.FORMULA)) is False
        kept = 0b01111
        assert kept in ev._quotients
        assert len(ev._quotients[kept].blocks) == 2


class TestViews:
    """A restriction whose body is purely epistemic is read on a view of the
    parent's quotient (`_Quotient.view`); only where a quantifier enumerates,
    or a body announces, is the restriction contracted."""

    EPISTEMIC_BODIES = ["<{a,b}> (K c p & ~K a q)", "<{a,b}> K c p",
                        "<[{a}]> (K b p & ~K c q)", "[<{b,c}>] ~K a s",
                        "[~K a p] K c q", "<K b q> ~K a p"]

    @pytest.mark.parametrize("certify", [False, True])
    def test_epistemic_bodies_contract_only_the_root(self, certify):
        model = exact_model(random.Random(12), 12, {"a": 5, "b": 4, "c": 4})
        assert len(bisim_contract(model).contracted.states) == 12
        ev = Evaluator(model, certify=certify)
        contracting = oracle.Evaluator(model)
        for text in self.EPISTEMIC_BODIES:
            f = parse(text)
            truths = [ev.eval(s, f) for s in model.states]
            assert any(truths) and not all(truths), text
            assert truths == [contracting.eval(s, f) for s in model.states]
        # the whole model is contracted; no restriction is
        assert list(ev._quotients) == [ev._root_quotient.kept]
        if certify:
            assert ev.certificates.checked > 0
            assert ev.certificates.mismatches == []

    def test_existing_quotient_is_reused(self):
        # once a restriction is contracted, an epistemic body is read on
        # it too, at its own reps
        model = TestRecontraction._model()
        ev = Evaluator(model)
        kept = 0b01111
        child = ev._restriction(kept)
        assert ev._holds_after(ev._root_quotient, kept, 1, parse("K b ~p")) \
            is False
        assert {key[:2] for key in ev._memo} == {(kept, child.rep_of[1])}


class TestEdgeGroups:
    def test_empty_group_box_is_trivial_announcement(self, train):
        model, w = train
        # the only choice of the empty group keeps the whole model
        assert eval_formula(model, w, parse("[{}] ~K c ~p")) is True
        assert eval_formula(model, w, parse("<{}> K c ~p")) is False

    def test_grand_coalition_diamond_equals_group_diamond(self):
        params = GenParams(max_states=4, agents=("a", "b"), props=("p",),
                           seed=71, count=30)
        rng = random.Random("grand")
        for i in range(30):
            model = random_model(params, i)
            ev = Evaluator(model)
            pool = instantiation_pool(model.agents, model.props)
            body = pool[rng.randrange(len(pool))]
            everyone = frozenset(model.agents)
            for s in model.states:
                assert ev.eval(s, CoalDia(everyone, body)) \
                    == ev.eval(s, GroupDia(everyone, body))


class TestCertificateCanary:
    """The certifier records a wrong realization, and one that raises, as
    mismatches: `_Quotient.part` is patched to get them."""

    # a contracted model in which a's union {s0, s1} is needed by several
    # distinct choices of {a, b}: b's classes cut it into different sets
    MODEL = {
        "agents": ["a", "b"], "props": ["p", "q"],
        "states": ["s0", "s1", "s2"],
        "partitions": {"a": [["s0", "s1"], ["s2"]],
                       "b": [["s0"], ["s1"], ["s2"]]},
        "valuation": {"p": ["s0"], "q": ["s1"]},
    }

    @staticmethod
    def wrong_extent(monkeypatch):
        """`K a top`, true everywhere, for every union of a's classes that
        misses one of them."""
        part = cogal.model._Quotient.part

        def patched(self, chars, agent, mask):
            if agent == "a" and any(not c & mask for c in self.classes["a"]):
                return Know("a", Top())
            return part(self, chars, agent, mask)

        monkeypatch.setattr(cogal.model._Quotient, "part", patched)

    def test_wrong_and_failed_realizations_are_recorded(self, monkeypatch):
        self.wrong_extent(monkeypatch)
        wrong = cogal.model._Quotient.part
        failed = []

        def patched(self, chars, agent, mask):
            if (agent, mask) == ("a", 0b011):
                failed.append(mask)
                raise ModelError("patched failure")
            return wrong(self, chars, agent, mask)

        monkeypatch.setattr(cogal.model._Quotient, "part", patched)
        model = validate(self.MODEL)
        ev = Evaluator(model, certify=True)
        for s in model.states:
            ev.eval(s, parse("<{a,b}> p"))
            ev.eval(s, parse("<{a}> p"))
        problems = [problem for _, _, problem in ev.certificates.mismatches]
        assert not ev.certificates.ok
        assert "extension ['s0', 's1', 's2'] != choice intersection ['s2']" \
            in problems
        raised = [p for p in problems
                  if p == "realization failed: patched failure"]
        # a part that raises is not stored: each choice that needs it
        # realizes it again and records its own mismatch
        assert len(raised) == len(failed) >= 2
        assert len(problems) == len(raised) + 1

    def test_suite_fails_on_a_wrong_realization(self, monkeypatch, capsys):
        self.wrong_extent(monkeypatch)
        params = GenParams(max_states=3, seed=7, count=10)
        report = axiom_suite(params, items=("A11",), certify=True)
        assert not report.passed
        line = next(l for l in report.to_text().splitlines()
                    if l.startswith("certificates: "))
        checked, mismatches = (int(word) for word in line.split()[1::2])
        assert 0 < mismatches <= checked
        assert cli_main(["suite", "--certify", "--seed", "7", "--models", "10",
                         "--max-states", "3", "--items", "A11"]) == 1
        assert "suite: FAIL" in capsys.readouterr().out
