import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cogal
from cogal.checker import Evaluator, extension
from cogal.formula import Atom, Know, Not, Top
from cogal.harness import GenParams, random_formula, random_model
from cogal.model import (
    KripkeModel, ModelError, PointedModel, bisim_contract, char_formula,
    is_contracted, load_model, realize_choice, save_model, to_dot, validate,
)


class TestValidate:
    def test_train_document(self, train_doc):
        model = validate(train_doc)
        assert model.states == ("w", "v")
        assert model.class_of("c", "w") == frozenset({"w", "v"})
        assert model.props_at("v") == ("p",)

    def test_overlapping_partition(self, train_doc):
        train_doc["partitions"]["a"] = [["w"], ["w", "v"]]
        with pytest.raises(ModelError, match="overlapping"):
            validate(train_doc)

    def test_empty_state_set(self, train_doc):
        train_doc["states"] = []
        train_doc["partitions"] = {"a": [], "b": [], "c": []}
        with pytest.raises(ModelError, match="non-empty"):
            validate(train_doc)

    def test_non_covering_partition(self, train_doc):
        train_doc["partitions"]["b"] = [["w"]]
        with pytest.raises(ModelError, match="does not cover"):
            validate(train_doc)

    def test_unknown_state_in_valuation(self, train_doc):
        train_doc["valuation"]["p"] = ["nowhere"]
        with pytest.raises(ModelError, match="unknown state"):
            validate(train_doc)

    def test_duplicate_identifiers(self, train_doc):
        train_doc["agents"] = ["a", "a", "c"]
        with pytest.raises(ModelError, match="duplicate"):
            validate(train_doc)

    @pytest.mark.parametrize("key, names, message", [
        ("agents", ["A"], "invalid agent name 'A'"),
        ("props", ["top"], "invalid proposition name 'top'"),
    ])
    def test_invalid_name(self, train_doc, key, names, message):
        train_doc[key] = names
        with pytest.raises(ModelError, match=message):
            validate(train_doc)

    def test_missing_partition_agent(self, train_doc):
        del train_doc["partitions"]["c"]
        with pytest.raises(ModelError, match="exactly the agent set"):
            validate(train_doc)

    def test_nested_list_in_partition_block(self, train_doc):
        train_doc["partitions"]["a"] = [[["w"]], ["v"]]
        with pytest.raises(ModelError, match="lists of state ids"):
            validate(train_doc)

    def test_object_in_valuation_list(self, train_doc):
        train_doc["valuation"]["p"] = [{"x": 1}]
        with pytest.raises(ModelError, match="list of state ids"):
            validate(train_doc)

    def test_unknown_designated(self, train_doc):
        train_doc["designated"] = "zz"
        with pytest.raises(ModelError, match="designated"):
            validate(train_doc)

    def test_list_designated(self, train_doc):
        train_doc["designated"] = ["w"]
        with pytest.raises(ModelError, match="designated"):
            validate(train_doc)

    def test_doc_round_trip(self, train_doc):
        model = validate(train_doc)
        assert validate(model.to_doc()).to_doc() == model.to_doc()


def from_masks(states=("s0", "s1"), agents=("a",), props=("p",),
               class_masks=None, truth_masks=None):
    """`KripkeModel._from_masks` on a valid two-state model, or on it with
    the given parts replaced."""
    return KripkeModel._from_masks(
        states, agents, props,
        class_masks if class_masks is not None else {"a": (0b01, 0b10)},
        truth_masks if truth_masks is not None else {"p": 0b10})


def from_names(states=("s0", "s1"), agents=("a",), props=("p",),
               class_masks=None, truth_masks=None):
    """The same model through the name-level constructor."""
    def named(mask):
        return frozenset(s for i, s in enumerate(states) if mask >> i & 1)

    class_masks = class_masks if class_masks is not None else {"a": (1, 2)}
    truth_masks = truth_masks if truth_masks is not None else {"p": 0b10}
    return KripkeModel(
        states, agents, props,
        {a: tuple(named(b) for b in blocks)
         for a, blocks in class_masks.items()},
        {p: named(m) for p, m in truth_masks.items()})


IDENT = ": expected [a-z][a-z0-9_]* other than the reserved words 'top' and 'bot'"
# faults both constructors can express, with the one message they share
SHARED_FAULTS = [
    ({"class_masks": {"a": (0, 0b11)}}, "empty partition block for agent 'a'"),
    ({"class_masks": {"a": (0b11, 0b10)}},
     "overlapping partition blocks for agent 'a' at state 's1'"),
    ({"class_masks": {"a": (0b01,)}},
     "partition of agent 'a' does not cover states ['s1']"),
    ({"states": ("s0", "s0")}, "duplicate state identifiers"),
    ({"agents": ("a", "a")}, "duplicate agent identifiers"),
    ({"agents": ("A",), "class_masks": {"A": (1, 2)}},
     "invalid agent name 'A'" + IDENT),
    ({"props": ("top",), "truth_masks": {"top": 0}},
     "invalid proposition name 'top'" + IDENT),
]


class TestMaskConstructor:
    def test_valid_masks(self):
        model = from_masks()
        assert model.to_doc() == from_names().to_doc()
        assert model.partitions == {"a": (frozenset({"s0"}), frozenset({"s1"}))}
        assert model.valuation == {"p": frozenset({"s1"})}

    @pytest.mark.parametrize("fault, message", SHARED_FAULTS + [
        ({"class_masks": {"a": (0b01, 0b110)}},
         "partition of agent 'a' mentions unknown state at bit 2"),
        ({"truth_masks": {"p": 0b100}},
         "valuation of 'p' mentions unknown state at bit 2"),
    ])
    def test_invalid_masks(self, fault, message):
        with pytest.raises(ModelError) as raised:
            from_masks(**fault)
        assert str(raised.value) == message

    @pytest.mark.parametrize("fault, message", SHARED_FAULTS)
    def test_name_level_constructor_gives_the_same_text(self, fault, message):
        with pytest.raises(ModelError) as raised:
            from_names(**fault)
        assert str(raised.value) == message


def two_state_frame() -> dict:
    """The validated frame of `from_masks`'s model."""
    states = ("s0", "s1")
    return KripkeModel._frame(states, ("a",), ("p",), {"a": (0b01, 0b10)},
                              states)


class TestFrameConstructor:
    def test_models_share_the_frame(self):
        frame = two_state_frame()
        first = KripkeModel._from_frame(frame, {"p": 0b10})
        second = KripkeModel._from_frame(frame, {"p": 0b01})
        assert first.to_doc() == from_masks().to_doc()
        assert second.to_doc() == from_masks(truth_masks={"p": 0b01}).to_doc()
        for name in ("states", "agents", "props", "_position", "_class_masks",
                     "_class_at", "_vocab", "_member_lists", "_named_sets"):
            assert getattr(first, name) is getattr(second, name) is frame[name]
        assert first._truth_masks == {"p": 0b10}
        assert second._truth_masks == {"p": 0b01}

    @pytest.mark.parametrize("truth, message", [
        ({"p": 0b100}, "valuation of 'p' mentions unknown state at bit 2"),
        ({"p": 0b11 | 1 << 70},
         "valuation of 'p' mentions unknown state at bit 70"),
        ({"r": 0b01}, "valuation mentions unknown proposition 'r'"),
    ])
    def test_truth_faults_give_the_mask_constructors_text(self, truth,
                                                          message):
        frame = two_state_frame()
        with pytest.raises(ModelError) as on_frame:
            KripkeModel._from_frame(frame, truth)
        with pytest.raises(ModelError) as from_mask_level:
            from_masks(truth_masks=truth)
        assert str(on_frame.value) == str(from_mask_level.value) == message
        # a refused valuation leaves the frame as it was
        assert frame == two_state_frame()
        assert KripkeModel._from_frame(frame, {"p": 0b10}).to_doc() \
            == from_masks().to_doc()


class TestCopies:
    def test_copies_are_validated_afresh(self, train):
        model, _ = train
        for copied in (copy.copy(model), copy.deepcopy(model),
                       pickle.loads(pickle.dumps(model))):
            assert copied is not model
            assert copied.to_doc() == model.to_doc()
            assert copied._class_at == model._class_at
            assert copied._vocab == model._vocab

    def test_unpickled_in_a_fresh_interpreter(self, train):
        """The vocabulary mask's bits differ between processes: a model
        pickled here must bind formulas there, after other names took the
        low bits."""
        script = (
            "import pickle, sys\n"
            "from cogal.checker import BindingError, Evaluator\n"
            "from cogal.formula import parse\n"
            "parse('K zz1 y1 & K zz2 y2 & [{zz3}] y3')\n"
            "model = pickle.loads(sys.stdin.buffer.read())\n"
            "ev = Evaluator(model)\n"
            "print(ev.eval('w', parse('[~p] K c ~p')))\n"
            "try:\n"
            "    ev.eval('w', parse('K d q'))\n"
            "except BindingError as exc:\n"
            "    print(exc)\n")
        env = dict(os.environ, PYTHONHASHSEED="4321",
                   PYTHONPATH=str(Path(cogal.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script],
                              input=pickle.dumps(train[0]), capture_output=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.decode().splitlines() == [
            "True", "formula mentions unbound agents d and propositions q"]


class TestUpdate:
    def test_single_state_restriction(self, train):
        model, _ = train
        small = model.update({"w"})
        assert small.states == ("w",)
        assert small.props_at("w") == ()
        for agent in small.agents:
            assert small.partitions[agent] == (frozenset({"w"}),)

    def test_identity_update(self, train):
        model, _ = train
        assert model.update(set(model.states)).to_doc() == model.to_doc()

    def test_empty_keep_rejected(self, train):
        model, _ = train
        with pytest.raises(ModelError, match="empty"):
            model.update(set())

    def test_unknown_state_rejected(self, train):
        model, _ = train
        with pytest.raises(ModelError, match="unknown"):
            model.update({"w", "zz"})

    def test_idempotent_and_s5_preserving_on_random_models(self):
        params = GenParams(max_states=5, agents=("a", "b"), props=("p", "q"),
                           seed=11, count=150)
        rng = random.Random("update-subsets")
        checked = 0
        for i in range(150):
            model = random_model(params, i)
            for _ in range(5):
                keep = frozenset(s for s in model.states if rng.random() < 0.6)
                if not keep:
                    continue
                checked += 1
                small = model.update(keep)
                # partitions remain partitions (constructor re-validates) and
                # a repeated update with the same states is a no-op
                assert small.update(keep & set(small.states)).to_doc() \
                    == small.to_doc()
        assert checked >= 500


class TestContraction:
    def test_train_is_already_contracted(self, train):
        model, _ = train
        cm = bisim_contract(model)
        assert cm.contracted.to_doc() == model.to_doc()
        assert cm.mapping == {"w": "w", "v": "v"}
        assert is_contracted(model)

    def test_duplicate_states_merge(self):
        model = validate({
            "agents": ["a"], "props": ["p"], "states": ["x", "y"],
            "partitions": {"a": [["x", "y"]]}, "valuation": {"p": []},
        })
        cm = bisim_contract(model)
        assert cm.contracted.states == ("x",)
        assert cm.mapping == {"x": "x", "y": "x"}
        assert not is_contracted(model)

    def test_contraction_is_idempotent(self):
        params = GenParams(max_states=6, agents=("a", "b"), props=("p",),
                           seed=3, count=60)
        for i in range(60):
            model = random_model(params, i)
            contracted = bisim_contract(model).contracted
            again = bisim_contract(contracted)
            assert again.contracted.to_doc() == contracted.to_doc()
            assert is_contracted(contracted)

    def test_contracted_model_is_its_own_contraction(self):
        params = GenParams(max_states=6, agents=("a", "b"), props=("p",),
                           seed=3, count=40)
        for i in range(40):
            contracted = bisim_contract(random_model(params, i)).contracted
            cm = bisim_contract(contracted)
            assert cm.original is contracted
            assert cm.contracted is contracted
            assert cm.mapping == {s: s for s in contracted.states}

    def test_truth_preserved_at_mapped_points(self):
        params = GenParams(max_states=5, agents=("a", "b"), props=("p",),
                           seed=5, count=40)
        rng = random.Random("contraction-formulas")
        merged_somewhere = 0
        for i in range(40):
            model = random_model(params, i)
            cm = bisim_contract(model)
            if len(cm.contracted.states) < len(model.states):
                merged_somewhere += 1
            orig = Evaluator(model)
            small = Evaluator(cm.contracted)
            for _ in range(5):
                f = random_formula(rng, model.agents, model.props, max_depth=3)
                for s in model.states:
                    assert orig.eval(s, f) == small.eval(cm.mapping[s], f)
        assert merged_somewhere >= 5  # the sample must exercise real merges


class TestCharFormula:
    def test_train_states(self, train):
        model, _ = train
        assert extension(model, char_formula(model, "v")) == frozenset({"v"})
        assert extension(model, char_formula(model, "w")) == frozenset({"w"})

    def test_single_state_model(self):
        model = validate({
            "agents": ["a"], "props": ["p"], "states": ["s"],
            "partitions": {"a": [["s"]]}, "valuation": {"p": ["s"]},
        })
        f = char_formula(model, "s")
        assert extension(model, f) == frozenset({"s"})

    def test_requires_contracted_model(self):
        model = validate({
            "agents": ["a"], "props": ["p"], "states": ["x", "y"],
            "partitions": {"a": [["x", "y"]]}, "valuation": {"p": []},
        })
        with pytest.raises(ModelError, match="not bisimulation-contracted"):
            char_formula(model, "x")

    def test_extensions_are_disjoint_singletons(self):
        params = GenParams(max_states=6, agents=("a", "b"), props=("p", "q"),
                           seed=9, count=100)
        for i in range(100):
            contracted = bisim_contract(random_model(params, i)).contracted
            ev = Evaluator(contracted)
            for s in contracted.states:
                assert ev.extension(char_formula(contracted, s)) \
                    == frozenset({s})


class TestRealizeChoice:
    def test_train_single_agent(self, train):
        model, w = train
        f = realize_choice(model, w, {"a"}, {"a": frozenset({"w"})})
        assert extension(model, f) == frozenset({"w"})
        # equivalent to "a knows not-p": same extension
        assert extension(model, Know("a", Not(Atom("p")))) == frozenset({"w"})

    def test_train_trivial_announcement(self, train):
        model, w = train
        f = realize_choice(model, w, {"c"}, {"c": frozenset({"w", "v"})})
        assert extension(model, f) == frozenset({"w", "v"})

    def test_empty_group_realizes_top(self, train):
        model, w = train
        assert realize_choice(model, w, set(), {}) == Top()

    def test_rejects_non_union_of_classes(self, train):
        model, w = train
        with pytest.raises(ModelError, match="union"):
            realize_choice(model, w, {"c"}, {"c": frozenset({"w"})})

    def test_rejects_missing_member(self, train):
        model, w = train
        with pytest.raises(ModelError, match="missing"):
            realize_choice(model, w, {"a", "b"}, {"a": frozenset({"w"})})

    def test_extension_equals_intersection_on_random_instances(self):
        params = GenParams(max_states=5, agents=("a", "b", "c"),
                           props=("p", "q"), seed=21, count=90)
        rng = random.Random("realize")
        checked = 0
        for i in range(90):
            contracted = bisim_contract(random_model(params, i)).contracted
            ev = Evaluator(contracted)
            for _ in range(4):
                group = frozenset(a for a in contracted.agents
                                  if rng.random() < 0.6)
                choice = {}
                expected = frozenset(contracted.states)
                for agent in group:
                    blocks = contracted.partitions[agent]
                    union = frozenset()
                    for block in blocks:
                        if rng.random() < 0.6:
                            union |= block
                    if not union:
                        union = blocks[0]
                    choice[agent] = union
                    expected &= union
                if not expected:
                    continue
                checked += 1
                f = realize_choice(contracted, next(iter(expected)), group,
                                   choice)
                assert ev.extension(f) == expected
        assert checked >= 300


class TestDot:
    def test_train_export(self, train):
        model, _ = train
        dot = to_dot(model)
        assert dot.count("label=") == 3  # two nodes and one edge
        assert '"w" -- "v" [label="c"];' in dot
        assert "--" in dot and dot.count("--") == 1  # reflexive edges omitted

    def test_multi_agent_edge_labels(self):
        model = validate({
            "agents": ["a", "b"], "props": [], "states": ["x", "y"],
            "partitions": {"a": [["x", "y"]], "b": [["x", "y"]]},
            "valuation": {},
        })
        assert '[label="a,b"]' in to_dot(model)


class TestFiles:
    def test_save_and_load(self, tmp_path, train):
        model, w = train
        path = tmp_path / "m.json"
        save_model(path, model, designated=w)
        loaded, designated = load_model(path)
        assert designated == w
        assert loaded.to_doc() == model.to_doc()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelError):
            load_model(path)

    def test_pointed_model_checks_membership(self, train):
        model, _ = train
        with pytest.raises(ModelError):
            PointedModel(model, "zz")

    def test_state_ids_are_free_form(self):
        """Agents and propositions must be grammar identifiers, but state ids
        are opaque strings; DOT export quotes them."""
        model = validate({
            "agents": ["a"], "props": ["p"],
            "states": ["W-1", "state 2"],
            "partitions": {"a": [["W-1", "state 2"]]},
            "valuation": {"p": ["state 2"]},
        })
        assert extension(model, Atom("p")) == frozenset({"state 2"})
        dot = to_dot(model)
        assert '"W-1"' in dot and '"state 2"' in dot
        cm = bisim_contract(model)
        assert cm.contracted.states == ("W-1", "state 2")


class TestOwnership:
    def test_callers_containers_do_not_change_a_built_model(self):
        """A model keeps tuples and masks of its own: mutating the lists and
        dicts it was built from changes none of its views, its document,
        its updates or its evaluation."""
        states, agents, props = ["w", "v"], ["a"], ["p", "q"]
        blocks = [{"w"}, {"v"}]
        partitions = {"a": blocks}
        valuation = {"p": {"v"}}
        model = KripkeModel(states, agents, props, partitions, valuation)
        states.append("u")
        agents.append("b")
        props.append("r")
        blocks[0].add("u")
        blocks.append({"x"})
        partitions["b"] = [{"w", "v"}]
        valuation["p"] = {"w"}
        valuation["q"] = {"w", "v"}
        assert model.states == ("w", "v")
        assert model.agents == ("a",)
        assert model.props == ("p", "q")
        assert model.partitions == {"a": (frozenset({"w"}), frozenset({"v"}))}
        # every declared proposition, an empty truth set included
        assert model.valuation == {"p": frozenset({"v"}), "q": frozenset()}
        assert model.to_doc() == {
            "agents": ["a"], "props": ["p", "q"], "states": ["w", "v"],
            "partitions": {"a": [["w"], ["v"]]},
            "valuation": {"p": ["v"], "q": []}}
        assert validate(model.to_doc()).to_doc() == model.to_doc()
        assert model.update(["v"]).to_doc() == {
            "agents": ["a"], "props": ["p", "q"], "states": ["v"],
            "partitions": {"a": [["v"]]}, "valuation": {"p": ["v"], "q": []}}
        assert extension(model, Atom("p")) == frozenset({"v"})


# inputs that each raise one exception, with its type and exact message
INPUT_ERRORS = [
    pytest.param(lambda doc, model: validate([]), ModelError,
                 "model document must be a JSON object", id="doc-list"),
    pytest.param(lambda doc, model: validate(dict(doc, partitions=[])),
                 ModelError,
                 "field 'partitions' must map agents to block lists",
                 id="partitions-list"),
    pytest.param(lambda doc, model: validate(dict(doc, valuation=[["v"]])),
                 ModelError,
                 "field 'valuation' must map propositions to state lists",
                 id="valuation-list"),
    pytest.param(lambda doc, model: validate(
                     dict(doc, partitions=dict(doc["partitions"],
                                               a=[["w", "w"], ["v"]]))),
                 ModelError,
                 "partition block ['w', 'w'] of agent 'a' repeats a state",
                 id="block-repeats-a-state"),
    # the constructor refuses what `validate` refuses, so every model's
    # `to_doc` validates
    pytest.param(lambda doc, model: KripkeModel(
                     [0, 1], ["a"], ["p"], {"a": [[0], [1]]}, {"p": [1]}),
                 ModelError, "field 'states' must be a list of strings",
                 id="constructor-state-not-a-string"),
    pytest.param(lambda doc, model: KripkeModel(
                     ["w", "v"], ["a"], ["p"], {"a": [["w", "w"], ["v"]]},
                     {"p": ["v"]}),
                 ModelError,
                 "partition block ['w', 'w'] of agent 'a' repeats a state",
                 id="constructor-block-repeats-a-state"),
    pytest.param(lambda doc, model: realize_choice(
                     model, "w", {"a", "z"}, {"a": frozenset({"w"})}),
                 ModelError, "choice mentions unknown agents ['z']",
                 id="choice-unknown-agent"),
    pytest.param(lambda doc, model: realize_choice(
                     model, "w", {"a"}, {"a": frozenset({"w", "x"})}),
                 ModelError, "choice for agent 'a' mentions unknown states",
                 id="choice-unknown-state"),
    pytest.param(lambda doc, model: realize_choice(
                     model, "x", {"a"}, {"a": frozenset({"w"})}),
                 ModelError, "unknown state 'x'", id="choice-unknown-point"),
    pytest.param(lambda doc, model: realize_choice(
                     model, "w", {"a", "b"}, {"a": frozenset({"w"})}),
                 ModelError, "choice is missing group member 'b'",
                 id="choice-missing-member"),
    pytest.param(lambda doc, model: char_formula(model, "x"), ModelError,
                 "unknown state 'x'", id="char-formula-unknown-state"),
    pytest.param(lambda doc, model: GenParams(count=-1), ValueError,
                 "count must be non-negative", id="negative-count"),
    pytest.param(lambda doc, model: setattr(model, "states", ("w",)),
                 AttributeError, "cannot assign to field 'states'",
                 id="assign-field"),
]


@pytest.mark.parametrize("call, kind, message", INPUT_ERRORS)
def test_input_errors_name_the_fault(train_doc, call, kind, message):
    with pytest.raises(Exception) as raised:
        call(train_doc, validate(train_doc))
    assert raised.type is kind
    assert str(raised.value) == message
