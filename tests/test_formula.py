import copy
import dataclasses
import gc
import itertools
import os
import pickle
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cogal
from cogal.checker import BindingError, Evaluator
from cogal.formula import (
    And, Atom, Bot, CoalBox, CoalDia, Formula, Fragment, GroupBox, GroupDia,
    Hole, Iff, Imp, ImpCtx, Know, KnowCtx, NecessityForm, Not, Or, PaBox,
    PaCtx, PaDia, ParseError, Top, _Entry, _TABLE, _drop, _vocab_mask,
    agents_of, atoms, conjoin, depth_ca, depth_pa, fragment, instantiate,
    is_group_announcement, normalize, order_lt, parse, render, resugar, size,
    substitute,
)
from cogal.harness import train_model

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParse:
    def test_smallest_modal_case(self):
        assert parse("K a p") == Know("a", p)

    def test_announcement_of_negation(self):
        assert parse("[~p] K c ~p") == PaBox(Not(p), Know("c", Not(p)))

    def test_coalition_diamond(self):
        expected = CoalDia({"a", "b"}, And(Not(Know("c", Not(p))),
                                           Not(Know("c", p))))
        assert parse("<[{a,b}]> (~K c ~p & ~K c p)") == expected

    def test_bracket_disambiguation(self):
        assert isinstance(parse("[<{a}>] r"), CoalBox)
        announced = parse("[<{a}> q] r")
        assert isinstance(announced, PaBox)
        assert announced.announce == GroupDia({"a"}, q)
        assert isinstance(parse("<[{a}]> r"), CoalDia)
        dia = parse("<[{a}] q> r")
        assert isinstance(dia, PaDia)
        assert dia.announce == GroupBox({"a"}, q)

    def test_empty_group(self):
        assert parse("[{}] p") == GroupBox(frozenset(), p)

    def test_associativity(self):
        assert parse("a & b & c") == And(And(Atom("a"), Atom("b")), Atom("c"))
        assert parse("a -> b -> c") == Imp(Atom("a"), Imp(Atom("b"), Atom("c")))

    def test_unary_binds_tighter(self):
        assert parse("K a p & q") == And(Know("a", p), q)
        assert parse("[p] q | r") == Or(PaBox(p, q), r)

    def test_error_position_and_expectations(self):
        with pytest.raises(ParseError) as err:
            parse("p ->")
        assert err.value.line == 1
        assert err.value.column == 5
        assert "end of input" in str(err.value)
        assert err.value.expected

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="unknown operator"):
            parse("p $ q")

    @pytest.mark.parametrize("text, message, line, column", [
        ("p &\n\u3000q $", "unknown operator or character '$'", 2, 4),
        ("p ->\n", "unexpected end of input", 2, 1),
        ("p\t\r-> q q", "unexpected trailing 'q'", 1, 9),
        ("K a\n\n  (p\x85& q", "unexpected end of input", 3, 9),
    ], ids=["ideographic-space", "newline-last", "tab-return", "next-line"])
    def test_error_position_across_lines_and_unicode_space(
            self, text, message, line, column):
        """A newline starts a line; any other whitespace, an ideographic
        space, a carriage return or a next-line character among them, is
        one column."""
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).startswith(
            f"{message} at line {line}, column {column}")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("p q")

    def test_missing_closing_bracket(self):
        with pytest.raises(ParseError) as err:
            parse("[p q")
        assert "']'" in err.value.expected


class TestRender:
    def test_know(self):
        assert render(Know("a", p)) == "K a p"

    def test_coalition_box_with_disjunction(self):
        f = CoalBox({"a", "c"}, Or(Know("c", Not(p)), Know("c", p)))
        assert render(f) == "[<{a,c}>] (K c ~p | K c p)"

    def test_groups_render_sorted(self):
        assert render(GroupDia({"c", "a"}, p)) == "<{a,c}> p"

    def test_minimal_parens(self):
        assert render(And(Or(p, q), r)) == "(p | q) & r"
        assert render(Or(p, And(q, r))) == "p | q & r"
        assert render(Imp(Imp(p, q), r)) == "(p -> q) -> r"
        assert render(Not(And(p, q))) == "~(p & q)"


_atom_names = st.sampled_from(["p", "q", "r0"])
_agent_names = st.sampled_from(["a", "b", "c"])
_groups = st.frozensets(_agent_names, max_size=3)

_base = st.one_of(st.builds(Atom, _atom_names), st.just(Top()), st.just(Bot()))


def _extend(children):
    return st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Iff, children, children),
        st.builds(Know, _agent_names, children),
        st.builds(PaBox, children, children),
        st.builds(PaDia, children, children),
        st.builds(GroupBox, _groups, children),
        st.builds(GroupDia, _groups, children),
        st.builds(CoalBox, _groups, children),
        st.builds(CoalDia, _groups, children),
    )


formulas = st.recursive(_base, _extend, max_leaves=25)


class TestRoundTrip:
    @settings(max_examples=1000, deadline=None)
    @given(formulas)
    # a bracket nested in the other kind: announcements and coalitions
    @example(parse("[<p> q] r"))
    @example(parse("<[p] q> r"))
    @example(parse("[<{a}>] p"))
    @example(parse("<[{a}]> p"))
    def test_parse_render_identity(self, f):
        assert parse(render(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(formulas)
    def test_resugar_round_trips_too(self, f):
        g = resugar(f)
        assert parse(render(g)) == g


class TestFragment:
    def test_examples(self):
        assert fragment(Know("a", p)) is Fragment.EL
        assert fragment(PaBox(Not(p), Know("c", Not(p)))) is Fragment.PAL
        assert fragment(GroupDia({"a"}, p)) is Fragment.GAL
        assert fragment(CoalDia({"a", "b"}, p)) is Fragment.COGAL

    def test_nested_operators_dominate(self):
        assert fragment(Know("a", PaBox(p, GroupBox({"b"}, q)))) is Fragment.GAL
        assert fragment(PaBox(CoalBox({"a"}, p), q)) is Fragment.COGAL


class TestGroupAnnouncement:
    def test_two_member_conjunction(self):
        f = And(Know("a", q), Know("b", Top()))
        assert is_group_announcement(f, {"a", "b"})

    def test_body_must_be_epistemic(self):
        f = Know("a", PaBox(p, q))
        assert not is_group_announcement(f, {"a"})

    def test_empty_group_is_top(self):
        assert is_group_announcement(Top(), set())
        assert not is_group_announcement(p, set())
        assert not is_group_announcement(Know("a", p), set())

    def test_exactly_one_conjunct_per_member(self):
        assert not is_group_announcement(Know("a", p), {"a", "b"})
        doubled = And(Know("a", p), Know("a", q))
        assert not is_group_announcement(doubled, {"a"})
        outsider = And(Know("a", p), Know("c", q))
        assert not is_group_announcement(outsider, {"a", "b"})

    def test_associativity_is_immaterial(self):
        left = And(And(Know("a", p), Know("b", q)), Know("c", r))
        right = And(Know("a", p), And(Know("b", q), Know("c", r)))
        assert is_group_announcement(left, {"a", "b", "c"})
        assert is_group_announcement(right, {"a", "b", "c"})

    @settings(max_examples=200, deadline=None)
    @given(formulas, _groups)
    def test_implies_epistemic_fragment(self, f, group):
        if is_group_announcement(f, group):
            assert fragment(f) is Fragment.EL or isinstance(f, Top)


class TestMeasures:
    def test_size_examples(self):
        assert size(p) == 1
        assert size(PaBox(p, q)) == 4
        assert size(And(p, q)) == 3

    def test_size_of_derived_forms_expands_first(self):
        assert size(Or(p, q)) == size(Not(And(Not(p), Not(q))))
        assert size(Bot()) == size(Not(Top()))

    def test_depth_examples(self):
        assert depth_pa(GroupBox({"a"}, p)) == 1
        assert depth_ca(GroupBox({"a"}, p)) == 0
        assert depth_ca(CoalBox({"a"}, p)) == 1
        assert depth_pa(CoalBox({"a"}, p)) == 0

    def test_depth_through_announcements_is_additive(self):
        f = PaBox(GroupBox({"a"}, p), GroupBox({"b"}, q))
        assert depth_pa(f) == 2
        g = PaBox(CoalBox({"a"}, p), CoalBox({"b"}, q))
        assert depth_ca(g) == 2

    @settings(max_examples=300, deadline=None)
    @given(formulas)
    def test_size_at_least_one(self, f):
        assert size(f) >= 1

    @settings(max_examples=300, deadline=None)
    @given(formulas)
    def test_size_decreases_on_primitive_subformulas(self, f):
        g = normalize(f)
        for child in _primitive_children(g):
            assert size(child) < size(g)


def _primitive_children(g):
    if isinstance(g, Not):
        return [g.body]
    if isinstance(g, And):
        return [g.left, g.right]
    if isinstance(g, Know):
        return [g.body]
    if isinstance(g, (GroupBox, CoalBox)):
        return [g.body]
    if isinstance(g, PaBox):
        return [g.announce, g.body]
    return []


class TestOrder:
    def test_irreflexive(self):
        assert not order_lt(p, p)
        f = CoalBox({"a"}, PaBox(p, q))
        assert not order_lt(f, f)

    def test_group_case(self):
        joint = And(Know("a", p), Know("b", q))
        body = PaBox(q, Know("a", p))
        assert order_lt(PaBox(joint, body), GroupBox({"a", "b"}, body))

    def test_prefixed_group_case(self):
        joint = And(Know("a", p), Know("b", q))
        body = GroupDia({"a"}, p)
        chi = Know("c", q)
        assert order_lt(PaBox(chi, PaBox(joint, body)),
                        PaBox(chi, GroupBox({"a", "b"}, body)))

    def test_coalition_case(self):
        own = And(Know("a", p), Know("b", q))
        other = Know("c", r)
        body = CoalDia({"c"}, p)
        lhs = Imp(own, PaDia(And(own, other), body))
        assert order_lt(lhs, CoalBox({"a", "b"}, body))

    def test_prefixed_coalition_case(self):
        own = Know("a", p)
        other = And(Know("b", q), Know("c", r))
        body = GroupBox({"b"}, q)
        tau = Not(Know("b", p))
        lhs = PaBox(tau, Imp(own, PaDia(And(own, other), body)))
        assert order_lt(lhs, PaBox(tau, CoalBox({"a"}, body)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(formulas, min_size=3, max_size=6))
    def test_strict_partial_order_on_samples(self, sample):
        for f in sample:
            assert not order_lt(f, f)
        for f, g, h in itertools.product(sample, repeat=3):
            if order_lt(f, g) and order_lt(g, h):
                assert order_lt(f, h)
            if order_lt(f, g):
                assert not order_lt(g, f)


class TestNecessityForms:
    def test_hole(self):
        assert instantiate(Hole(), p) == p

    def test_implication_context(self):
        assert instantiate(ImpCtx(q, Hole()), p) == Imp(q, p)

    def test_nested_context(self):
        form = PaCtx(r, KnowCtx("a", Hole()))
        assert instantiate(form, p) == PaBox(r, Know("a", p))

    def test_single_replacement(self):
        form = ImpCtx(p, KnowCtx("b", PaCtx(q, Hole())))
        result = instantiate(form, And(p, q))
        assert result == Imp(p, Know("b", PaBox(q, And(p, q))))
        # the result is a plain formula: contexts cannot survive instantiation
        assert not isinstance(result, (Hole, ImpCtx, KnowCtx, PaCtx))


class TestSubstitute:
    def test_replaces_atoms(self):
        f = Imp(p, Know("a", p))
        g = substitute(f, {"p": And(q, r)})
        assert g == Imp(And(q, r), Know("a", And(q, r)))

    def test_missing_names_kept(self):
        assert substitute(And(p, q), {"p": r}) == And(r, q)


class TestResugar:
    def test_implication_shape(self):
        f = Not(And(p, Not(q)))
        assert resugar(f) == Imp(p, q)

    def test_nested(self):
        f = Not(And(p, Not(Know("a", Not(And(p, Not(q)))))))
        assert render(resugar(f)) == "p -> K a (p -> q)"

    def test_not_top_becomes_bot(self):
        assert resugar(Not(Top())) == Bot()


class TestConstructors:
    def test_atom_names_validated(self):
        with pytest.raises(ValueError):
            Atom("P")
        with pytest.raises(ValueError):
            Atom("top")

    def test_agent_names_validated(self):
        with pytest.raises(ValueError):
            Know("Agent", p)
        with pytest.raises(ValueError):
            GroupBox({"a", "1x"}, p)
        # names are checked before subformulas: still a `ValueError` when
        # the body is no formula either
        for bad in (lambda: Know("Bad", "q"), lambda: KnowCtx("Bad", "q"),
                    lambda: CoalDia(["a", "Bad"], "q")):
            with pytest.raises(ValueError, match="invalid agent name 'Bad'"):
                bad()

    def test_groups_are_coerced_to_frozensets(self):
        for cls in (GroupBox, GroupDia, CoalBox, CoalDia):
            f = cls(["b", "a", "b"], p)
            assert type(f.group) is frozenset
            assert f.group == frozenset({"a", "b"})
            assert f == cls(frozenset({"a", "b"}), p)
            assert hash(f) == hash(cls(("a", "b"), p))

    @pytest.mark.parametrize("bad", [1, None, b"p", ["p"], {"p": 1}, "P",
                                     "top", "p q", ""])
    def test_accepted_names_do_not_admit_lookalikes(self, bad):
        # accepted names are remembered; nothing equal-looking, unhashable
        # or non-string passes on their strength
        Know("a", p)
        with pytest.raises(ValueError, match="invalid proposition name"):
            Atom(bad)
        with pytest.raises(ValueError, match="invalid agent name"):
            Know(bad, p)

    def test_operator_sugar(self):
        assert (p & q) == And(p, q)
        assert (p | q) == Or(p, q)
        assert (p >> q) == Imp(p, q)
        assert ~p == Not(p)

    def test_conjoin_empty_is_top(self):
        assert conjoin([]) == Top()


def walked_vocabulary(f):
    """(atoms, agents) by a plain recursive walk over the dataclass fields,
    independent of the facts cached on the nodes."""
    props, agents = set(), set()

    def walk(g):
        if isinstance(g, Atom):
            props.add(g.name)
        elif isinstance(g, Know):
            agents.add(g.agent)
        elif isinstance(g, (GroupBox, GroupDia, CoalBox, CoalDia)):
            agents.update(g.group)
        for fld in dataclasses.fields(g):
            value = getattr(g, fld.name)
            if isinstance(value, Formula):
                walk(value)

    walk(f)
    return frozenset(props), frozenset(agents)


def _replace_first_child(f):
    """`dataclasses.replace` the first subformula (or the atom's name) with
    a fresh name, so the rebuilt node's vocabulary must change."""
    if isinstance(f, Atom):
        return dataclasses.replace(f, name="s9")
    for fld in dataclasses.fields(f):
        if isinstance(getattr(f, fld.name), Formula):
            return dataclasses.replace(f, **{fld.name: Know("d9", Atom("s9"))})
    return f


contexts = st.recursive(
    st.just(Hole()),
    lambda tails: st.one_of(st.builds(ImpCtx, formulas, tails),
                            st.builds(KnowCtx, _agent_names, tails),
                            st.builds(PaCtx, formulas, tails)),
    max_leaves=4)


class TestCachedFacts:
    """Nodes are interned and their vocabulary and whether they are purely
    epistemic are computed once, at construction; all must agree with the
    structure however the node was built."""

    def assert_facts(self, f):
        assert (atoms(f), agents_of(f)) == walked_vocabulary(f)
        assert f._epistemic == (fragment(f) is Fragment.EL)
        g = parse(render(f))
        assert f is g
        assert f == g and hash(f) == hash(g)

    @settings(max_examples=300, deadline=None)
    @given(formulas, formulas, contexts)
    def test_facts_of_derived_nodes(self, f, g, form):
        self.assert_facts(f)
        self.assert_facts(substitute(f, {"p": g, "q": Know("z", Atom("y"))}))
        self.assert_facts(instantiate(form, f))
        self.assert_facts(normalize(f))
        self.assert_facts(resugar(normalize(f)))
        self.assert_facts(_replace_first_child(f))
        for h in (copy.deepcopy(f), copy.copy(f), pickle.loads(pickle.dumps(f))):
            assert h is f
            self.assert_facts(h)

    @settings(max_examples=100, deadline=None)
    @given(contexts)
    def test_contexts_hash_structurally(self, form):
        assert pickle.loads(pickle.dumps(form)) is form
        assert copy.deepcopy(form) is form and copy.copy(form) is form
        assert instantiate(form, p) is instantiate(copy.copy(form), Atom("p"))

    @settings(max_examples=300, deadline=None)
    @given(formulas, contexts)
    def test_hash_and_mask_follow_the_generic_rule(self, f, form):
        """Every node shape hashes by identity, and stores the OR of its
        subnodes' masks and its own names' bits."""
        def check(g):
            mask = 0
            for fld in dataclasses.fields(g):
                value = getattr(g, fld.name)
                if isinstance(value, (Formula, NecessityForm)):
                    check(value)
                    mask |= value._mask
                else:
                    kind = "p" if fld.name == "name" else "a"
                    names = [value] if isinstance(value, str) else value
                    mask |= _vocab_mask(**{("props" if kind == "p"
                                            else "agents"): names})
            assert hash(g) == object.__hash__(g)
            assert g._mask == mask
        check(f)
        check(form)
        check(instantiate(form, f))

    def test_deep_chains_compare_without_recursion(self):
        def chain(depth):
            f = Atom("p")
            for _ in range(depth):
                f = Not(f)
            return f

        one, two = chain(2000), chain(2000)
        assert one is two
        assert one == two and not one != two
        assert one != chain(1999) and chain(1999) != one
        assert {one: "found"}[two] == "found"
        assert Atom("p") != "p" and Atom("p") == Atom("p")

    def test_distinct_structures_are_distinct_objects(self):
        pairs = [(Atom("p"), Atom("q")), (Know("a", p), Know("b", p)),
                 (Not(Not(p)), Not(Not(q))), (And(p, q), And(q, p)),
                 (And(p, q), Or(p, q)), (PaBox(p, q), PaDia(p, q)),
                 (GroupBox({"a"}, p), CoalBox({"a"}, p)),
                 (GroupBox({"a"}, p), GroupBox({"a", "b"}, p)),
                 (Top(), Bot()), (KnowCtx("a", Hole()), KnowCtx("b", Hole()))]
        for f, g in pairs:
            assert f is not g
            assert f != g and not f == g
            assert len({f, g}) == 2
        assert Not(Not(p)) is Not(Not(Atom("p")))

    def test_non_formula_child_rejected(self):
        with pytest.raises(TypeError, match="not a formula"):
            And(p, "q")
        with pytest.raises(TypeError, match="not a formula"):
            Know("a", "q")
        with pytest.raises(TypeError, match="not a formula"):
            CoalDia(["a"], "q")
        with pytest.raises(TypeError, match="not a formula"):
            atoms(Hole())

    def test_concurrent_first_mentions_get_one_bit_each(self):
        names = [f"race{i}" for i in range(300)]
        built = [None] * 8
        start = threading.Barrier(8, timeout=60)

        def build(slot):
            start.wait()
            built[slot] = ([Atom(n) for n in names]
                           + [Know(n, Top()) for n in names])

        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        masks = [f._mask for f in built[0]]
        assert all(m and not m & (m - 1) for m in masks)  # one bit each
        assert len(set(masks)) == len(masks)
        for nodes in built[1:]:
            assert [f._mask for f in nodes] == masks
        assert atoms(conjoin(built[5][:300])) == frozenset(names)
        assert agents_of(conjoin(built[2][300:])) == frozenset(names)

    def test_unpickled_in_a_fresh_interpreter(self):
        """Bit order and string hashes differ between processes: a formula
        pickled here must rebuild its facts there, after other names took
        the low bits."""
        f = parse("<[{b,c}]> (K a (p & q0) | [K c ~r] <{a}> top)")
        script = (
            "import pickle, sys\n"
            "from cogal.formula import agents_of, atoms, parse, render\n"
            "from cogal.checker import BindingError, Evaluator\n"
            "from cogal.harness import train_model\n"
            "parse('K zz1 y1 & K zz2 y2 & [{zz3}] y3 & q0')\n"
            "f = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(f) == hash(parse(render(f)))\n"
            "print(sorted(atoms(f)), sorted(agents_of(f)))\n"
            "model, w = train_model()\n"
            "try:\n"
            "    Evaluator(model).eval(w, f)\n"
            "except BindingError as exc:\n"
            "    print(exc)\n")
        env = dict(os.environ, PYTHONHASHSEED="4321",
                   PYTHONPATH=str(Path(cogal.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script],
                              input=pickle.dumps(f), capture_output=True,
                              env=env, timeout=60, check=True)
        model, w = train_model()
        with pytest.raises(BindingError) as err:
            Evaluator(model).eval(w, f)
        assert str(err.value) == "formula mentions unbound propositions q0, r"
        assert done.stdout.decode().splitlines() == [
            f"{sorted(atoms(f))} {sorted(agents_of(f))}", str(err.value)]


def _negations(f, depth):
    for _ in range(depth):
        f = Not(f)
    return f


class TestInterning:
    """Structurally equal nodes are one object, however and wherever they
    were built; the table holds them weakly. (`TestCachedFacts` checks that
    reparsing, pickling and copying return the same node.)"""

    def test_keyword_construction_and_replace(self):
        assert PaBox(announce=p, body=q) is PaBox(p, q)
        assert CoalDia(group=["a"], body=p) is CoalDia({"a"}, p)
        assert dataclasses.replace(Know("a", p), agent="b") is Know("b", p)
        assert dataclasses.replace(ImpCtx(p, Hole()), premise=q) is ImpCtx(q, Hole())
        assert Top() is Top() and Bot() is Bot() and Hole() is Hole()

    @pytest.mark.parametrize("node, name", [
        (Atom("p"), "name"), (Top(), "name"), (Know("a", p), "body"),
        (CoalDia({"a"}, p), "group"), (KnowCtx("a", Hole()), "tail"),
        (Hole(), "tail")], ids=repr)
    def test_fields_are_frozen(self, node, name):
        before = repr(node)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(node, name, q)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(node, name)
        assert repr(node) == before

    def test_dataclass_api_and_pickling(self):
        f = CoalDia({"a"}, PaBox(p, Know("b", Not(q))))
        form = ImpCtx(p, KnowCtx("a", PaCtx(q, Hole())))
        assert [fld.name for fld in dataclasses.fields(f)] == ["group", "body"]
        assert [fld.name for fld in dataclasses.fields(form)] == [
            "premise", "tail"]
        assert dataclasses.fields(Top()) == ()
        assert dataclasses.replace(f, group={"b"}) is CoalDia({"b"}, f.body)
        assert dataclasses.replace(form, premise=q) is ImpCtx(q, form.tail)
        for node in (f, form, Top(), Hole()):
            assert dataclasses.is_dataclass(node)
            assert pickle.loads(pickle.dumps(node)) is node
        assert repr(f.body) == ("PaBox(announce=Atom(name='p'), body=Know("
                                "agent='b', body=Not(body=Atom(name='q'))))")
        assert repr(form.tail.tail) == (
            "PaCtx(announce=Atom(name='q'), tail=Hole())")

    def test_list_and_frozenset_groups_give_one_node(self):
        for cls in (GroupBox, GroupDia, CoalBox, CoalDia):
            f = cls(["b", "a", "b"], p)
            assert f is cls(frozenset({"a", "b"}), p) is cls(("a", "b"), p)
            assert cls([], p) is cls(frozenset(), p)

    def test_errors_are_unchanged(self):
        # an unhashable child is no formula either, and is reported as one
        for build, child in ((lambda: And(p, [1]), [1]),
                             (lambda: And({}, p), {}),
                             (lambda: Not([p]), [p]),
                             (lambda: Know("a", {"q": 1}), {"q": 1}),
                             (lambda: CoalDia(["a"], []), []),
                             (lambda: ImpCtx(p, [Hole()]), [Hole()]),
                             (lambda: PaCtx(set(), Hole()), set())):
            with pytest.raises(TypeError) as err:
                build()
            assert str(err.value) == f"not a formula: {child!r}"
        # names are checked before subnodes
        for build in (lambda: Know("Bad", [1]), lambda: KnowCtx("Bad", {}),
                      lambda: GroupBox(["a", "Bad"], [])):
            with pytest.raises(ValueError, match="invalid agent name 'Bad'"):
                build()
        with pytest.raises(ValueError, match="invalid proposition name"):
            Atom(["p"])

    def test_table_drains_when_formulas_are_freed(self):
        gc.collect()
        before = len(_TABLE)
        deep = _negations(Atom("drain0"), 100_000)
        wide = parse("<[{drain1}]> K drain2 (drain3 & [drain4] drain5) | ~drain3")
        assert len(_TABLE) >= before + 100_008
        gone = weakref.ref(deep), weakref.ref(wide)
        del deep, wide
        gc.collect()
        assert gone[0]() is None and gone[1]() is None
        assert (Atom, "drain0") not in _TABLE
        assert len(_TABLE) == before

    def test_a_dead_entry_is_replaced_and_a_late_callback_keeps_the_new_one(self):
        class Gone:
            pass

        key = (Atom, "dead0")
        assert key not in _TABLE
        gone = Gone()
        dead = _Entry(gone, _drop)
        dead.key = key
        del gone
        assert dead() is None
        _TABLE[key] = dead
        f = Atom("dead0")
        assert _TABLE[key]() is f
        _drop(dead)
        assert _TABLE[key]() is f and Atom("dead0") is f
        del f
        gc.collect()
        assert key not in _TABLE

    def test_concurrent_construction_gives_one_node(self):
        tops = [None] * 4
        start = threading.Barrier(4, timeout=60)

        def build(slot):
            start.wait()
            tops[slot] = _negations(Atom("race_chain"), 2000)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(top is tops[0] for top in tops)
        assert tops[0] is _negations(Atom("race_chain"), 2000)
