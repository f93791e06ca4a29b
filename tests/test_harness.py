import json
import random
import re
from pathlib import Path

import pytest

import cogal.harness as harness
from cogal.checker import Evaluator, eval_formula
from cogal.cli import main
from cogal.formula import (
    And, Atom, Bot, CoalDia, Fragment, Hole, Iff, Imp, ImpCtx, Know, Not, Or,
    PaBox, PaDia, Top, fragment, instantiate, parse, render, size,
)
from cogal.harness import (
    GenParams, axiom_suite, canonical_item_name, enumerate_models,
    find_countermodel, instantiation_pool, prop4_countermodel, prop4_formula,
    prop4_verifies, random_formula, random_model, set_partitions, train_model,
)
from cogal.harness import _announcements, _prop4_candidate, _subsets
from cogal.model import bisim_contract, realize_choice, validate
from frozenset_engine import choice_intersection, group_choices


class TestGenParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenParams(max_states=0)
        with pytest.raises(ValueError):
            GenParams(agents=())
        with pytest.raises(ValueError):
            GenParams(seed=-1)


class TestRandomModels:
    def test_deterministic(self):
        params = GenParams(seed=9, count=5)
        for i in range(5):
            assert random_model(params, i).to_doc() \
                == random_model(params, i).to_doc()

    def test_distinct_across_indices(self):
        params = GenParams(max_states=4, seed=9, count=1000)
        assert random_model(params, 0).to_doc() != random_model(params, 1).to_doc()
        # small state counts collide by pigeonhole; among the larger models
        # collisions must stay rare
        docs = [json.dumps(random_model(params, i).to_doc(), sort_keys=True)
                for i in range(300)]
        big = [d for d in docs if d.count('"s2"') > 0]
        assert len(set(big)) >= 0.95 * len(big)

    def test_all_generated_models_validate(self):
        params = GenParams(max_states=6, agents=("a", "b", "c"),
                           props=("p", "q"), seed=4, count=1000)
        for i in range(1000):
            model = random_model(params, i)
            assert validate(model.to_doc()).to_doc() == model.to_doc()

    def test_state_counts_span_range(self):
        params = GenParams(max_states=4, seed=2, count=200)
        sizes = {len(random_model(params, i).states) for i in range(200)}
        assert sizes == {1, 2, 3, 4}


class TestEnumeration:
    def test_single_state_vocabulary(self):
        models = list(enumerate_models(("a",), ("p",), 1))
        assert len(models) == 2  # p true or false at the only state

    def test_two_state_count_matches_closed_form(self):
        # partitions of a 2-element set (2) times valuations (2^2)
        models = [m for m in enumerate_models(("a",), ("p",), 2)
                  if len(m.states) == 2]
        assert len(models) == 2 * 4

    def test_includes_indistinguishable_pair(self):
        found = False
        for m in enumerate_models(("a",), ("p",), 2):
            if len(m.states) == 2 and len(m.partitions["a"]) == 1 \
                    and len(m.truth_set("p")) == 1:
                found = True
        assert found

    def test_partition_count(self):
        assert len(list(set_partitions(("x", "y", "z")))) == 5  # Bell(3)


def modal_depth(f):
    if isinstance(f, (Atom, Top, Bot)):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.body)
    if isinstance(f, (And, Or, Imp, Iff)):
        return max(modal_depth(f.left), modal_depth(f.right))
    assert isinstance(f, Know), f
    return modal_depth(f.body) + 1


class TestPool:
    def test_bounds(self):
        pool = instantiation_pool(("a", "b", "c"), ("p", "q"))
        assert len(pool) > 100
        for f in pool:
            assert size(f) <= 9
            assert modal_depth(f) <= 2
            assert fragment(f) is Fragment.EL

    def test_repeated_names_give_no_repeated_formulas(self):
        pool = instantiation_pool(("a", "a"), ("p", "p"))
        assert len(set(pool)) == len(pool) \
            == len(instantiation_pool(("a",), ("p",)))

    def test_deterministic_order(self):
        assert instantiation_pool(("a", "b"), ("p",)) \
            == instantiation_pool(("a", "b"), ("p",))

    def test_any_iterables_give_the_cached_tuple(self):
        pool = instantiation_pool(("a", "b"), ("p",))
        assert instantiation_pool(["a", "b"], ["p"]) is pool
        assert instantiation_pool((x for x in "ab"), iter(["p"])) is pool


class TestSearch:
    def test_valid_formula_has_no_countermodel(self):
        hit = find_countermodel(parse("K a p -> p"),
                                GenParams(max_states=2, agents=("a",),
                                          props=("p",), count=100))
        assert hit is None

    def test_schematic_atoms_with_an_empty_pool_are_rejected(self):
        # no instance to check proves nothing: not "no countermodel"
        with pytest.raises(ValueError, match="pool"):
            find_countermodel(parse("x & ~x"), GenParams(max_states=2),
                              schematic=["x"], pool=[])
        assert find_countermodel(parse("x & ~x"), GenParams(max_states=2),
                                 schematic=["x"], pool=[Top()]) is not None

    @pytest.mark.parametrize("schematic, message", [
        (["x", "x"], "schematic atoms must be distinct"),
        (["x", "X1", "y"], "schematic atoms not in the formula: X1, y"),
    ])
    def test_bad_schematic_atoms_are_rejected(self, schematic, message):
        # a repeated atom multiplies the instances with no new one, and an
        # atom the formula lacks would leave the formula's own atoms plain
        # propositions, so the search would answer another question
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_countermodel(parse("x -> K a x"), GenParams(max_states=1),
                              schematic=schematic, pool=[Top()])

    def test_finds_two_state_countermodel(self):
        hit = find_countermodel(parse("p -> K a p"),
                                GenParams(max_states=2, agents=("a",),
                                          props=("p",), count=100))
        assert hit is not None
        model = hit.pointed.model
        assert len(model.states) == 2
        assert len(model.partitions["a"]) == 1
        assert eval_formula(model, hit.pointed.point, parse("p -> K a p")) \
            is False

    def test_schematic_atoms(self):
        pool = (Atom("p"), Know("a", Atom("p")))
        hit = find_countermodel(parse("x -> K a x"),
                                GenParams(max_states=2, agents=("a",),
                                          props=("p",), count=100),
                                schematic=("x",), pool=pool)
        assert hit is not None
        assert set(hit.assignment) == {"x"}
        assert "x" not in hit.pointed.model.props

    def test_random_fallback_beyond_exhaustive_bound(self):
        hit = find_countermodel(parse("K a (p & q) -> K a p & K a q"),
                                GenParams(max_states=4, agents=("a",),
                                          props=("p", "q"), seed=1, count=40))
        assert hit is None

    def test_sampled_search_without_models_is_an_error(self):
        # no model evaluated is no evidence that the formula holds
        with pytest.raises(ValueError, match="at least one model"):
            find_countermodel(parse("<{a}> p"),
                              GenParams(max_states=4, agents=("a",),
                                        props=("p",), count=0))

    def test_search_refutes_coalition_splitting(self):
        """Bounded random search independently rediscovers a countermodel to
        the splitting implication the shipped construction refutes."""
        goal = prop4_formula()
        split = CoalDia(frozenset({"a"}),
                        CoalDia(frozenset({"b"}), goal))
        joint = CoalDia(frozenset({"a", "b"}), goal)
        from cogal.formula import Imp
        hit = find_countermodel(Imp(joint, split),
                                GenParams(max_states=4,
                                          agents=("a", "b", "c"),
                                          props=("p", "q", "r"),
                                          seed=0, count=100))
        assert hit is not None
        ev = Evaluator(hit.pointed.model)
        assert ev.eval(hit.pointed.point, joint) is True
        assert ev.eval(hit.pointed.point, split) is False


class TestProp4:
    def test_shipped_model_verifies(self):
        model, state = prop4_countermodel()
        assert len(model.agents) == 3
        assert len(model.props) == 3
        assert prop4_verifies(model, state)

    def test_goal_formula_shape(self):
        goal = prop4_formula()
        assert render(goal) == ("K b (p & q & r) & ~K a (p & q & r) "
                                "& ~K c (p & q & r)")

    def test_failing_construction_is_reported_not_raised(
            self, monkeypatch, capsys):
        """The item's own evaluation is the construction's check: a model on
        which the combined announcement cannot reach the goal is a suite
        failure (exit 1), not an internal error (exit 2)."""
        one_state = validate({
            "agents": ["a", "b", "c"], "props": ["p", "q", "r"],
            "states": ["w"],
            "partitions": {"a": [["w"]], "b": [["w"]], "c": [["w"]]},
            "valuation": {},
        })
        monkeypatch.setattr(harness, "_prop4_candidate",
                            lambda: (one_state, "w"))
        assert main(["suite", "--models", "2", "--items", "prop4"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^prop4 +2 +1 +FAIL ", out, re.M), out
        assert out.endswith("suite: FAIL\n")

    def test_split_fails_while_joint_succeeds(self):
        model, state = prop4_countermodel()
        goal = prop4_formula()
        joint = CoalDia(frozenset({"a", "b"}), goal)
        split = CoalDia(frozenset({"a"}), CoalDia(frozenset({"b"}), goal))
        ev = Evaluator(model)
        assert ev.eval(state, joint) is True
        assert ev.eval(state, split) is False


class TestSuite:
    PARAMS = GenParams(max_states=3, agents=("a", "b", "c"), props=("p", "q"),
                       seed=5, count=6)

    def test_all_items_behave(self):
        report = axiom_suite(self.PARAMS, certify=True)
        assert report.passed
        by_name = {item.name: item for item in report.items}
        assert by_name["canary"].failures > 0
        assert by_name["canary"].passed
        assert by_name["canary"].countermodel is not None
        assert by_name["prop4"].countermodel is not None
        assert report.certificates.checked > 0
        assert report.certificates.ok
        for item in report.items:
            if item.kind == "valid":
                assert item.failures == 0, item.name

    def test_reports_are_byte_identical(self):
        one = axiom_suite(self.PARAMS, items=("C1", "A08", "canary"))
        two = axiom_suite(self.PARAMS, items=("C1", "A08", "canary"))
        assert one.to_text() == two.to_text()
        assert json.dumps(one.to_doc(), sort_keys=True) \
            == json.dumps(two.to_doc(), sort_keys=True)

    def test_countermodel_rechecks_false_under_fresh_checker(self):
        report = axiom_suite(self.PARAMS, items=("canary",))
        record = report.items[0].countermodel
        model = validate(record["model"])
        assert eval_formula(model, record["state"],
                            parse(record["formula"])) is False

    def test_prop4_item_reports_the_construction(self):
        report = axiom_suite(self.PARAMS, items=("prop4",))
        item = report.items[0]
        assert item.passed
        record = item.countermodel
        model = validate(record["model"])
        assert record["state"] == record["model"]["designated"]
        assert eval_formula(model, record["state"],
                            parse(record["formula"])) is False

    def test_item_name_normalization(self):
        assert canonical_item_name("a8") == "A08"
        assert canonical_item_name("A11") == "A11"
        assert canonical_item_name("Prop4") == "prop4"
        assert canonical_item_name("c1") == "C1"
        with pytest.raises(KeyError):
            canonical_item_name("A99")

    def test_exploratory_item_never_fails_the_suite(self):
        report = axiom_suite(self.PARAMS, items=("converse_a11",))
        assert report.items[0].kind == "exploratory"
        assert report.passed

    def test_quantifier_rule_items_are_non_vacuous(self):
        report = axiom_suite(self.PARAMS, items=("R5", "R6"))
        by_name = {item.name: item for item in report.items}
        assert by_name["R5"].instances > 0
        assert by_name["R6"].instances > 0
        assert report.passed

    def test_documented_hundred_model_run_passes(self):
        report = axiom_suite(GenParams(max_states=4, agents=("a", "b", "c"),
                                       props=("p", "q"), seed=7, count=100))
        assert report.passed, [i.name for i in report.items if not i.passed]


class TestQuantifierRuleAnnouncements:
    """R5 and R6 realize one announcement per distinct choice set, and R5
    none of the opponents'. A premise instance reads an announcement only
    through its extension, so the deduplicated lists must decide every
    premise as the full per-choice lists do."""

    PANEL = GenParams(seed=1000, count=100)

    @staticmethod
    def full_list(contracted, anchor, group):
        # one realized announcement per choice, duplicates included
        return [realize_choice(contracted, anchor, group, c)
                for c in group_choices(contracted, None, group)]

    @staticmethod
    def premise_ok(ev, model, coalition, form, goal, own, other):
        # the premise loop of R5 and R6 over the full lists
        def everywhere(f):
            return all(ev.eval(s, f) for s in model.states)

        if coalition:
            return all(
                any(everywhere(instantiate(
                        form, Imp(psi, PaDia(And(psi, chi), goal))))
                    for chi in other)
                for psi in own)
        return all(everywhere(instantiate(form, PaBox(psi, goal)))
                   for psi in own)

    def test_deduplicated_lists_decide_premises_as_full_lists(self):
        params = GenParams(max_states=3, seed=11, count=40)
        outcomes, shorter = set(), 0
        for index in range(params.count):
            model = random_model(params, index)
            contracted = bisim_contract(model).contracted
            anchor = contracted.states[0]
            # one evaluator per side, so neither reads the other's memo
            ev_full, ev_dedup = Evaluator(model), Evaluator(model)
            pool = instantiation_pool(model.agents, model.props)
            rng = random.Random(index)
            everyone = frozenset(model.agents)
            for group in [g for g in _subsets(model.agents) if len(g) <= 2][:4]:
                full = [self.full_list(contracted, anchor, g)
                        for g in (group, everyone - group)]
                dedup = [_announcements(model, g)
                         for g in (group, everyone - group)]
                shorter += len(dedup[1]) < len(full[1])
                x = pool[rng.randrange(len(pool))]
                for form in (Hole(), ImpCtx(x, Hole())):
                    for goal in (Top(), pool[rng.randrange(len(pool))]):
                        for coalition in (False, True):
                            want = self.premise_ok(ev_full, model, coalition,
                                                   form, goal, *full)
                            got = self.premise_ok(ev_dedup, model, coalition,
                                                  form, goal, *dedup)
                            assert got == want
                            outcomes.add((coalition, want))
        # both rules saw true and false premises, and opponent lists (of
        # two or more members) lost duplicates
        assert len(outcomes) == 4
        assert shorter > 0

    @staticmethod
    def old_announcements(model, group):
        # the path `_announcements` replaced: contract to a second model,
        # enumerate the full product, keep each set's first choice
        contracted = bisim_contract(model).contracted
        seen, out = set(), []
        for choice in group_choices(contracted, None, group):
            cut = choice_intersection(contracted, choice)
            if cut not in seen:
                seen.add(cut)
                out.append(realize_choice(contracted, contracted.states[0],
                                          group, choice))
        return out

    def test_same_announcements_as_the_old_path(self):
        params = GenParams(max_states=5, seed=12, count=120)
        merged = 0  # models whose quotient merges states
        for index in range(params.count):
            model = random_model(params, index)
            merged += len(model._whole_quotient.blocks) < len(model.states)
            for group in _subsets(model.agents):
                old = self.old_announcements(model, group)
                new = _announcements(model, group)
                assert len(new) == len(old)
                assert all(n is o for n, o in zip(new, old))
        assert merged > 0

    def realized_groups(self, monkeypatch, item):
        groups = []
        announcements = harness._announcements

        def counting(model, group):
            out = announcements(model, group)
            groups.extend([frozenset(group)] * len(out))
            return out

        monkeypatch.setattr(harness, "_announcements", counting)
        report = axiom_suite(self.PANEL, items=(item,), certify=True)
        return groups, report

    def test_r6_realizes_each_choice_set_once(self, monkeypatch):
        groups, report = self.realized_groups(monkeypatch, "R6")
        assert len(groups) == 1690  # 5,819 with one per choice
        assert report.certificates.checked == 1221
        assert report.certificates.ok

    def test_r5_realizes_no_opponent_choice(self, monkeypatch):
        groups, report = self.realized_groups(monkeypatch, "R5")
        expected = []
        for index in range(self.PANEL.count):
            model = random_model(self.PANEL, index)
            if len(model.states) > 3:
                continue
            contracted = bisim_contract(model).contracted
            for group in [g for g in _subsets(model.agents) if len(g) <= 2][:4]:
                sets = {choice_intersection(contracted, c)
                        for c in group_choices(contracted, None, group)}
                expected += [group] * len(sets)
        assert groups == expected
        assert len(groups) == 691
        assert report.certificates.checked == 490
        assert report.certificates.ok


class TestRulePremises:
    def test_universal_truth_is_not_a_sound_premise_under_updates(self):
        """Ignorance can hold at every state yet die by announcement, so the
        announcement-rule items must not treat per-model universal truth as
        a premise; only validity instances survive into submodels."""
        model = validate({
            "agents": ["a"], "props": ["p"], "states": ["w", "v"],
            "partitions": {"a": [["w", "v"]]}, "valuation": {"p": ["v"]},
        })
        premise = parse("~K a ~p")
        ev = Evaluator(model)
        assert all(ev.eval(s, premise) for s in model.states)
        conclusion = parse("[~p] ~K a ~p")
        assert ev.eval("w", conclusion) is False

    def test_c5_instances_respect_disjointness(self):
        # the generator only emits disjoint pairs; the pair sets over three
        # agents number 27, each model contributing one instance per state
        report = axiom_suite(GenParams(max_states=1, agents=("a", "b", "c"),
                                       props=("p",), seed=0, count=1),
                             items=("C5",))
        assert report.items[0].instances == 27


class TestRandomFormula:
    def test_respects_fragment(self):
        rng = random.Random("frag")
        for _ in range(100):
            assert fragment(random_formula(rng, ("a",), ("p",),
                                           frag=Fragment.EL,
                                           max_depth=3)) is Fragment.EL
        for _ in range(100):
            f = random_formula(rng, ("a",), ("p",), frag=Fragment.PAL,
                               max_depth=3)
            assert fragment(f) <= Fragment.PAL

    def test_deterministic_given_rng(self):
        a = random.Random(12)
        b = random.Random(12)
        for _ in range(50):
            assert random_formula(a, ("a", "b"), ("p", "q")) \
                == random_formula(b, ("a", "b"), ("p", "q"))


class TestShippedModelFiles:
    """The files under models/ duplicate the models built in code."""

    MODELS = Path(__file__).resolve().parents[1] / "models"

    @pytest.mark.parametrize("name, build", [
        ("prop4.json", _prop4_candidate),
        ("train.json", train_model),
    ])
    def test_file_matches_code(self, name, build):
        model, state = build()
        doc = json.loads((self.MODELS / name).read_text(encoding="utf-8"))
        assert doc == model.to_doc(designated=state)


class TestTrainModel:
    def test_shape(self):
        model, point = train_model()
        assert point == "w"
        assert model.states == ("w", "v")
        assert model.truth_set("p") == frozenset({"v"})
