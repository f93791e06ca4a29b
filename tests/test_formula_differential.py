"""Differential tests of the formula layer's structural recursions.

`normalize`, `resugar`, `substitute`, `translate` and the measures behind
`size`, `depth_pa`, `depth_ca` and `order_lt` each used to spell out one
case per node class. They now share `_parts`/`_rebuild` and one
`_measures` recursion. The per-class versions are kept below as oracles;
on random formulas both must return equal results, and where the oracle
raises, the engine must raise the same exception type.
"""

from hypothesis import given, settings, strategies as st

import pytest

from cogal.formula import (
    And, Atom, Bot, CoalBox, CoalDia, Fragment, GroupBox, GroupDia, Iff, Imp,
    Know, Not, Or, PaBox, PaDia, Top, _measures, depth_ca, depth_pa,
    fragment, normalize, order_lt, resugar, size, substitute,
)
from cogal.translate import translate
from test_formula import _atom_names, _base, formulas


# --- oracles: one case per node class --------------------------------------

def old_substitute(f, mapping):
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(old_substitute(f.body, mapping))
    if isinstance(f, (And, Or, Imp, Iff)):
        return type(f)(old_substitute(f.left, mapping),
                       old_substitute(f.right, mapping))
    if isinstance(f, Know):
        return Know(f.agent, old_substitute(f.body, mapping))
    if isinstance(f, (PaBox, PaDia)):
        return type(f)(old_substitute(f.announce, mapping),
                       old_substitute(f.body, mapping))
    return type(f)(f.group, old_substitute(f.body, mapping))


def old_normalize(f):
    if isinstance(f, (Atom, Top)):
        return f
    if isinstance(f, Bot):
        return Not(Top())
    if isinstance(f, Not):
        return Not(old_normalize(f.body))
    if isinstance(f, And):
        return And(old_normalize(f.left), old_normalize(f.right))
    if isinstance(f, Or):
        return Not(And(Not(old_normalize(f.left)), Not(old_normalize(f.right))))
    if isinstance(f, Imp):
        return Not(And(old_normalize(f.left), Not(old_normalize(f.right))))
    if isinstance(f, Iff):
        return And(old_normalize(Imp(f.left, f.right)),
                   old_normalize(Imp(f.right, f.left)))
    if isinstance(f, Know):
        return Know(f.agent, old_normalize(f.body))
    if isinstance(f, PaBox):
        return PaBox(old_normalize(f.announce), old_normalize(f.body))
    if isinstance(f, PaDia):
        return Not(PaBox(old_normalize(f.announce), Not(old_normalize(f.body))))
    if isinstance(f, GroupBox):
        return GroupBox(f.group, old_normalize(f.body))
    if isinstance(f, GroupDia):
        return Not(GroupBox(f.group, Not(old_normalize(f.body))))
    if isinstance(f, CoalBox):
        return CoalBox(f.group, old_normalize(f.body))
    if isinstance(f, CoalDia):
        return Not(CoalBox(f.group, Not(old_normalize(f.body))))
    raise TypeError(f"not a formula: {f!r}")


def old_resugar(f):
    if isinstance(f, (Atom, Top, Bot)):
        return f
    if isinstance(f, Not):
        body = old_resugar(f.body)
        if isinstance(body, Top):
            return Bot()
        if isinstance(body, And) and isinstance(body.right, Not):
            return Imp(body.left, body.right.body)
        return Not(body)
    if isinstance(f, (And, Or, Imp, Iff)):
        return type(f)(old_resugar(f.left), old_resugar(f.right))
    if isinstance(f, Know):
        return Know(f.agent, old_resugar(f.body))
    if isinstance(f, (PaBox, PaDia)):
        return type(f)(old_resugar(f.announce), old_resugar(f.body))
    return type(f)(f.group, old_resugar(f.body))


def old_size_prim(f):
    if isinstance(f, (Atom, Top)):
        return 1
    if isinstance(f, (Not, Know, GroupBox, CoalBox)):
        return old_size_prim(f.body) + 1
    if isinstance(f, And):
        return old_size_prim(f.left) + old_size_prim(f.right) + 1
    if isinstance(f, PaBox):
        return old_size_prim(f.announce) + 3 * old_size_prim(f.body)
    raise TypeError(f"not in primitive form: {f!r}")


def old_depth_pa_prim(f):
    if isinstance(f, (Atom, Top)):
        return 0
    if isinstance(f, (Not, Know, CoalBox)):
        return old_depth_pa_prim(f.body)
    if isinstance(f, And):
        return max(old_depth_pa_prim(f.left), old_depth_pa_prim(f.right))
    if isinstance(f, PaBox):
        return old_depth_pa_prim(f.announce) + old_depth_pa_prim(f.body)
    if isinstance(f, GroupBox):
        return old_depth_pa_prim(f.body) + 1
    raise TypeError(f"not in primitive form: {f!r}")


def old_depth_ca_prim(f):
    if isinstance(f, (Atom, Top)):
        return 0
    if isinstance(f, (Not, Know, GroupBox)):
        return old_depth_ca_prim(f.body)
    if isinstance(f, And):
        return max(old_depth_ca_prim(f.left), old_depth_ca_prim(f.right))
    if isinstance(f, PaBox):
        return old_depth_ca_prim(f.announce) + old_depth_ca_prim(f.body)
    if isinstance(f, CoalBox):
        return old_depth_ca_prim(f.body) + 1
    raise TypeError(f"not in primitive form: {f!r}")


def old_measures(f):
    return old_depth_ca_prim(f), old_depth_pa_prim(f), old_size_prim(f)


def _old_imp(left, right):
    return Not(And(left, Not(right)))


def _old_step(f):
    announce, body = f.announce, f.body
    if isinstance(body, (Atom, Top)):
        return _old_imp(announce, body)
    if isinstance(body, Not):
        return _old_imp(announce, Not(PaBox(announce, body.body)))
    if isinstance(body, And):
        return And(PaBox(announce, body.left), PaBox(announce, body.right))
    if isinstance(body, Know):
        return _old_imp(announce, Know(body.agent, PaBox(announce, body.body)))
    if isinstance(body, PaBox):
        return PaBox(And(announce, PaBox(announce, body.announce)), body.body)
    raise TypeError(f"announcement body outside PAL: {body!r}")


def _old_t(f):
    if isinstance(f, (Atom, Top)):
        return f
    if isinstance(f, Not):
        return Not(_old_t(f.body))
    if isinstance(f, And):
        return And(_old_t(f.left), _old_t(f.right))
    if isinstance(f, Know):
        return Know(f.agent, _old_t(f.body))
    if isinstance(f, PaBox):
        return _old_t(_old_step(f))
    raise TypeError(f"not in the PAL primitive fragment: {f!r}")


def old_translate(f):
    frag = fragment(f)
    if frag not in (Fragment.EL, Fragment.PAL):
        raise ValueError("translation is defined for the announcement fragment "
                         f"only; input is in {frag.name}")
    return _old_t(old_normalize(f))


# --- comparisons -------------------------------------------------------------

def outcome(fn, *args):
    """("ok", result) or ("raised", exception type)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type is what is compared
        return "raised", type(exc)


# PAL formulas, kept small: a translation grows exponentially with nesting
pal_formulas = st.recursive(
    _base,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Iff, children, children),
        st.builds(Know, st.sampled_from(["a", "b"]), children),
        st.builds(PaBox, children, children),
        st.builds(PaDia, children, children)),
    max_leaves=8)

mappings = st.dictionaries(_atom_names, formulas, max_size=2)


class TestAgainstPerClassRecursions:
    @settings(max_examples=400, deadline=None)
    @given(formulas, mappings)
    def test_rewrites(self, f, mapping):
        assert normalize(f) == old_normalize(f)
        assert resugar(f) == old_resugar(f)
        assert resugar(normalize(f)) == old_resugar(old_normalize(f))
        assert substitute(f, mapping) == old_substitute(f, mapping)
        if fragment(f) > Fragment.PAL:
            # rejected before any rewriting, so cheap at any size
            assert outcome(translate, f) == outcome(old_translate, f)

    @settings(max_examples=400, deadline=None)
    @given(formulas, formulas)
    def test_measures(self, f, g):
        # raw input is mostly not primitive: both sides must raise alike
        assert outcome(_measures, f) == outcome(old_measures, f)
        fn, gn = old_normalize(f), old_normalize(g)
        assert _measures(fn) == old_measures(fn)
        assert (depth_ca(f), depth_pa(f), size(f)) == old_measures(fn)
        assert order_lt(f, g) == (old_measures(fn) < old_measures(gn))

    @settings(max_examples=300, deadline=None)
    @given(pal_formulas)
    def test_translate(self, f):
        assert translate(f) == old_translate(f)

    def test_one_frame_per_nesting_level(self):
        # as deep as the per-class recursions reach under the default limit
        f = Atom("p")
        for _ in range(800):
            f = Not(f)
        # `==` on nodes recurses deeper than these; the stored hashes are
        # structural and compare in one step
        assert hash(normalize(f)) == hash(resugar(f)) == hash(f)
        assert hash(translate(f)) == hash(f)
        assert hash(substitute(f, {"p": Top()})) \
            == hash(old_substitute(f, {"p": Top()}))
        assert size(f) == 801

    @pytest.mark.parametrize("bad", [Or(Atom("p"), Top()), Bot(),
                                     GroupDia({"a"}, Top()), "p", None])
    def test_non_primitive_input_raises_alike(self, bad):
        assert outcome(_measures, bad) == outcome(old_measures, bad)
        assert outcome(_measures, bad)[0] == "raised"
