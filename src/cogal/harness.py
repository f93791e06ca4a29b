"""Validity laboratory: the axiom/property suite and the shipped models.
Model generation and countermodel search live in `cogal.search`; their
public names are bound here too.

Genuine validity for this language is undecidable, so the suite samples:
axiom schemas are instantiated from a bounded canonical pool of epistemic
formulas and evaluated at every state of seeded random models. Inference
rules are tested as truth preservation on single models (premise true at all
states implies conclusion true at all states). For rules whose conclusions
evaluate inside updated models the premises are drawn from validity
instances only: a formula that is merely true everywhere on one model can
become false after a truthful announcement, so per-model universal truth is
not a sound premise there. Everything is deterministic given
(seed, parameters).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .checker import CertificateLog, Evaluator, _distinct_sets, _unions
from .formula import (
    And, Atom, Bot, CoalBox, CoalDia, Formula, GroupBox, GroupDia, Hole, Iff,
    Imp, ImpCtx, Know, KnowCtx, Not, Or, PaBox, PaCtx, PaDia, Top, conjoin,
    instantiate, parse, render,
)
from .model import KripkeModel, validate
from .search import (
    GenParams, SearchHit, enumerate_models, find_countermodel,
    instantiation_pool, random_formula, random_model, set_partitions,
)
from .translate import translate

__all__ = [
    "GenParams", "SearchHit", "ItemReport", "SuiteReport",
    "random_model", "enumerate_models", "set_partitions", "random_formula",
    "instantiation_pool", "find_countermodel", "axiom_suite",
    "suite_item_names", "canonical_item_name",
    "prop4_formula", "prop4_countermodel", "prop4_verifies", "train_model",
]


# --- shipped models -------------------------------------------------------

def train_model() -> Tuple[KripkeModel, str]:
    """Two-state model of one ignorant agent: c cannot tell the p-state from
    the other, a and b can. Designated state falsifies p."""
    model = validate({
        "agents": ["a", "b", "c"],
        "props": ["p"],
        "states": ["w", "v"],
        "partitions": {"a": [["w"], ["v"]],
                       "b": [["w"], ["v"]],
                       "c": [["w", "v"]]},
        "valuation": {"p": ["v"]},
    })
    return model, "w"


def prop4_formula() -> Formula:
    """Goal formula for the splitting countermodel: b knows the three facts,
    a and c do not."""
    return parse("K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r)")


def _prop4_candidate() -> Tuple[KripkeModel, str]:
    # Hand-built: at w0 agent a knows q but not p; b knows everything;
    # c is ignorant of p, q and r. Once b's knowledge of p is on the table,
    # a learns all three facts and no later announcement can undo that.
    model = validate({
        "agents": ["a", "b", "c"],
        "props": ["p", "q", "r"],
        "states": ["w0", "w1", "w2", "w3"],
        "partitions": {
            "a": [["w0", "w1"], ["w2"], ["w3"]],
            "b": [["w0"], ["w1"], ["w2"], ["w3"]],
            "c": [["w0", "w1", "w2", "w3"]],
        },
        "valuation": {"p": ["w0", "w2", "w3"],
                      "q": ["w0", "w1", "w3"],
                      "r": ["w0", "w1", "w2"]},
    })
    return model, "w0"


def _prop4_parts() -> Tuple[Formula, Formula]:
    goal = prop4_formula()
    antecedent = CoalDia(frozenset({"a", "b"}), goal)
    consequent = CoalDia(frozenset({"a"}), CoalDia(frozenset({"b"}), goal))
    return antecedent, consequent


def prop4_verifies(model: KripkeModel, state: str) -> bool:
    antecedent, consequent = _prop4_parts()
    ev = Evaluator(model)
    return ev.eval(state, antecedent) and not ev.eval(state, consequent)


def prop4_countermodel() -> Tuple[KripkeModel, str]:
    """Concrete 3-agent, 3-proposition model on which a combined coalition
    announcement achieves the goal but consecutive single-agent coalition
    announcements cannot. Raises RuntimeError if the shipped model ever
    fails its mechanical check."""
    model, state = _prop4_candidate()
    if not prop4_verifies(model, state):
        raise RuntimeError("the shipped splitting countermodel fails its check")
    return model, state


# --- suite ------------------------------------------------------------------

@dataclass
class ItemReport:
    name: str
    label: str
    kind: str  # "valid" | "rule" | "construction" | "expect_fail" | "exploratory"
    instances: int
    failures: int
    countermodel: Optional[dict]

    @property
    def passed(self) -> bool:
        if self.kind == "exploratory":
            return True
        if self.kind == "expect_fail":
            return self.failures > 0
        return self.failures == 0

    @property
    def status(self) -> str:
        if self.kind == "exploratory":
            return "info"
        return "pass" if self.passed else "FAIL"

    def to_doc(self) -> dict:
        return {"name": self.name, "label": self.label, "kind": self.kind,
                "instances": self.instances, "failures": self.failures,
                "passed": self.passed, "countermodel": self.countermodel}


@dataclass
class SuiteReport:
    params: GenParams
    items: List[ItemReport]
    certificates: Optional[CertificateLog] = None

    @property
    def passed(self) -> bool:
        ok = all(item.passed for item in self.items)
        if self.certificates is not None:
            ok = ok and self.certificates.ok
        return ok

    def to_doc(self) -> dict:
        doc = {
            "params": {"seed": self.params.seed, "count": self.params.count,
                       "max_states": self.params.max_states,
                       "agents": list(self.params.agents),
                       "props": list(self.params.props)},
            "items": [item.to_doc() for item in self.items],
            "totals": {"items": len(self.items),
                       "instances": sum(i.instances for i in self.items),
                       "failures": sum(i.failures for i in self.items)},
            "certificates": None,
            "passed": self.passed,
        }
        if self.certificates is not None:
            doc["certificates"] = {"checked": self.certificates.checked,
                                   "mismatches": len(self.certificates.mismatches)}
        return doc

    def to_text(self) -> str:
        p = self.params
        lines = [
            f"seed={p.seed} models={p.count} max-states={p.max_states} "
            f"agents={','.join(p.agents)} props={','.join(p.props)}",
            f"{'item':<18} {'instances':>9} {'failures':>8}  {'status':<6} label",
        ]
        for item in self.items:
            lines.append(f"{item.name:<18} {item.instances:>9} "
                         f"{item.failures:>8}  {item.status:<6} {item.label}")
        if self.certificates is not None:
            lines.append(f"certificates: {self.certificates.checked} checked, "
                         f"{len(self.certificates.mismatches)} mismatches")
        lines.append(f"totals: {len(self.items)} items, "
                     f"{sum(i.instances for i in self.items)} instances, "
                     f"{sum(i.failures for i in self.items)} failures")
        lines.append(f"suite: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


@dataclass
class _Failure:
    state: str
    formula: Formula
    note: str


_RunResult = Tuple[int, List[_Failure], Optional[dict]]


def _subsets(agents: tuple) -> List[frozenset]:
    return [frozenset(combo) for r in range(len(agents) + 1)
            for combo in itertools.combinations(agents, r)]


def _draw(rng: random.Random, pool: tuple) -> Formula:
    return pool[rng.randrange(len(pool))]


def _joint(model: KripkeModel, group: frozenset, rng, pool) -> Formula:
    """A group announcement: one knowledge conjunct per member."""
    return conjoin(Know(a, _draw(rng, pool))
                   for a in model.agents if a in group)


def _valid_item(trials: Callable) -> Callable:
    """Runner asserting every trial formula at every state of the model."""

    def run(model, ev, rng, pool, index) -> _RunResult:
        instances = 0
        failures = []
        for f, note in trials(model, rng, pool):
            for s in model.states:
                instances += 1
                if not ev.eval(s, f):
                    failures.append(_Failure(s, f, note))
        return instances, failures, None

    return run


def _universal_pool(model, ev, rng, pool) -> List[Tuple[Formula, str]]:
    """Formulas true at every state of this model: guaranteed tautology
    instances plus any pool draws that happen to hold universally. Only a
    sound premise family for rules that do not update the model."""
    x = _draw(rng, pool)
    out = [(Or(x, Not(x)), "excluded middle instance"),
           (Imp(x, x), "identity instance")]
    everything = frozenset(model.states)
    for _ in range(4):
        g = _draw(rng, pool)
        if ev.extension(g) == everything:
            out.append((g, "universally true draw"))
    return out


def _validity_premises(model, ev, rng, pool) -> List[Tuple[Formula, str]]:
    """Premises for rules whose conclusions evaluate inside updated models:
    instances of validities, whose truth survives every restriction. A merely
    universally-true draw would not do; knowing-nothing formulas can hold at
    every state yet fail after a truthful announcement."""
    x, y = _draw(rng, pool), _draw(rng, pool)
    agent = model.agents[rng.randrange(len(model.agents))]
    return [
        (Or(x, Not(x)), "excluded middle instance"),
        (Imp(And(x, y), x), "weakening instance"),
        (Imp(Know(agent, x), x), "knowledge-truth instance"),
        (Iff(Not(Not(x)), x), "double-negation instance"),
    ]


def _rule_item(cases: Callable) -> Callable:
    """Runner for truth-preservation of a rule on single models: `cases`
    yields the conclusions whose premises held on the model, and each must
    hold at all states. A conclusion is one instance and at most one
    failure."""

    def run(model, ev, rng, pool, index) -> _RunResult:
        instances = 0
        failures = []
        for conclusion, note in cases(model, ev, rng, pool):
            instances += 1
            for s in model.states:
                if not ev.eval(s, conclusion):
                    failures.append(_Failure(s, conclusion, note))
                    break
        return instances, failures, None

    return run


def _premised(conclusions: Callable,
              premises: Callable = _universal_pool) -> Callable:
    """Rule cases of a premise family and a conclusion scheme: the
    conclusions of every premise that holds at all states."""

    def cases(model, ev, rng, pool):
        for premise, note in premises(model, ev, rng, pool):
            if all(ev.eval(s, premise) for s in model.states):
                for conclusion, cnote in conclusions(model, rng, pool, premise):
                    yield conclusion, f"{cnote} from {note}"

    return cases


# Schema trials (`_t_`), conclusion schemes (`_c_`) and rule cases (`_r_`).
# `rng` is item- and model-specific, so sampling is deterministic per (seed,
# item, model index).

def _t_a1(model, rng, pool):
    for agent in model.agents:
        for _ in range(2):
            x, y = _draw(rng, pool), _draw(rng, pool)
            yield (Imp(Know(agent, Imp(x, y)),
                       Imp(Know(agent, x), Know(agent, y))),
                   f"K_{agent} distribution")


def _t_a2(model, rng, pool):
    for agent in model.agents:
        for _ in range(2):
            x = _draw(rng, pool)
            yield Imp(Know(agent, x), x), f"K_{agent} truth"


def _t_a3(model, rng, pool):
    for agent in model.agents:
        for _ in range(2):
            x = _draw(rng, pool)
            yield (Imp(Know(agent, x), Know(agent, Know(agent, x))),
                   f"K_{agent} positive introspection")


def _t_a4(model, rng, pool):
    for agent in model.agents:
        for _ in range(2):
            x = _draw(rng, pool)
            yield (Imp(Not(Know(agent, x)), Know(agent, Not(Know(agent, x)))),
                   f"K_{agent} negative introspection")


def _t_a5(model, rng, pool):
    for prop in model.props:
        for _ in range(2):
            x = _draw(rng, pool)
            yield (Iff(PaBox(x, Atom(prop)), Imp(x, Atom(prop))),
                   "announcement-atom reduction")


def _t_a6(model, rng, pool):
    for _ in range(3):
        x, y = _draw(rng, pool), _draw(rng, pool)
        yield (Iff(PaBox(x, Not(y)), Imp(x, Not(PaBox(x, y)))),
               "announcement-negation reduction")


def _t_a7(model, rng, pool):
    for _ in range(3):
        x, y, z = _draw(rng, pool), _draw(rng, pool), _draw(rng, pool)
        yield (Iff(PaBox(x, And(y, z)), And(PaBox(x, y), PaBox(x, z))),
               "announcement-conjunction reduction")


def _t_a8(model, rng, pool):
    for agent in model.agents:
        for _ in range(2):
            x, y = _draw(rng, pool), _draw(rng, pool)
            yield (Iff(PaBox(x, Know(agent, y)),
                       Imp(x, Know(agent, PaBox(x, y)))),
                   "announcement-knowledge reduction")


def _t_a9(model, rng, pool):
    for _ in range(3):
        x, y, z = _draw(rng, pool), _draw(rng, pool), _draw(rng, pool)
        yield (Iff(PaBox(x, PaBox(y, z)), PaBox(And(x, PaBox(x, y)), z)),
               "announcement-composition reduction")


def _t_a10(model, rng, pool):
    for group in _subsets(model.agents):
        for _ in range(2):
            x = _draw(rng, pool)
            joint = _joint(model, group, rng, pool)
            yield (Imp(GroupBox(group, x), PaBox(joint, x)),
                   f"group box to announcement {render(joint)}")


def _t_a11(model, rng, pool):
    others = frozenset(model.agents)
    for group in _subsets(model.agents):
        for _ in range(2):
            x = _draw(rng, pool)
            yield (Imp(CoalDia(group, x),
                       GroupDia(group, GroupBox(others - group, x))),
                   "coalition-group interaction")


def _t_c0(model, rng, pool):
    for _ in range(3):
        x, y = _draw(rng, pool), _draw(rng, pool)
        yield Or(x, Not(x)), "excluded middle"
        yield Imp(x, Imp(y, x)), "weakening"
        yield Imp(And(x, y), x), "conjunction elimination"
        yield Imp(Imp(Imp(x, y), x), x), "Peirce"
        yield Iff(Not(Not(x)), x), "double negation"


def _t_c1(model, rng, pool):
    for group in _subsets(model.agents):
        yield Not(CoalDia(group, Bot())), "no coalition forces falsum"


def _t_c2(model, rng, pool):
    for group in _subsets(model.agents):
        yield CoalDia(group, Top()), "every coalition forces verum"


def _t_c3(model, rng, pool):
    everyone = frozenset(model.agents)
    for _ in range(3):
        x = _draw(rng, pool)
        yield (Imp(Not(CoalDia(frozenset(), Not(x))), CoalDia(everyone, x)),
               "empty-coalition dual to grand coalition")


def _t_c4(model, rng, pool):
    for group in _subsets(model.agents):
        for _ in range(2):
            x, y = _draw(rng, pool), _draw(rng, pool)
            yield (Imp(CoalDia(group, And(x, y)), CoalDia(group, x)),
                   "coalition goal weakening")


def _t_c5(model, rng, pool):
    for g in _subsets(model.agents):
        for h in _subsets(model.agents):
            if g & h:
                continue
            x, y = _draw(rng, pool), _draw(rng, pool)
            yield (Imp(And(CoalDia(g, x), CoalDia(h, y)),
                       CoalDia(g | h, And(x, y))),
                   "disjoint coalitions combine")


def _t_lemma1(model, rng, pool):
    for _ in range(3):
        psi = _draw(rng, pool)
        chis = {a: _draw(rng, pool) for a in model.agents}
        goal = _draw(rng, pool)
        left = PaBox(conjoin([psi] + [Know(a, translate(PaBox(psi, chis[a])))
                                      for a in model.agents]), goal)
        right = PaBox(psi, PaBox(conjoin(Know(a, chis[a])
                                         for a in model.agents), goal))
        yield (Iff(left, right),
               "announcing translated future knowledge now")


def _t_prop3(model, rng, pool):
    for g in _subsets(model.agents):
        for h in _subsets(model.agents):
            x = _draw(rng, pool)
            yield (Imp(CoalDia(g, CoalDia(h, x)), CoalDia(g | h, x)),
                   "consecutive coalition announcements combine")


def _t_prop3_corollary(model, rng, pool):
    for g in _subsets(model.agents):
        x = _draw(rng, pool)
        yield (Imp(CoalDia(g, CoalDia(g, x)), CoalDia(g, x)),
               "coalition announcement idempotence")


def _t_converse_a11(model, rng, pool):
    others = frozenset(model.agents)
    for group in _subsets(model.agents):
        for _ in range(2):
            x = _draw(rng, pool)
            yield (Imp(GroupDia(group, GroupBox(others - group, x)),
                       CoalDia(group, x)),
                   "converse interaction (open)")


def _t_canary(model, rng, pool):
    yield (CoalDia(frozenset({model.agents[0]}), Bot()),
           "canary schema is expected to fail")


def _c_r1(model, rng, pool, premise):
    for agent in model.agents:
        yield Know(agent, premise), f"necessitation for K_{agent}"


def _c_r2(model, rng, pool, premise):
    for _ in range(2):
        yield PaBox(_draw(rng, pool), premise), "announcement necessitation"


def _c_r3(model, rng, pool, premise):
    for group in _subsets(model.agents):
        yield GroupBox(group, premise), "group necessitation"


def _c_r4(model, rng, pool, premise):
    for group in _subsets(model.agents):
        yield CoalBox(group, premise), "coalition necessitation"


def _r_clr1(model, ev, rng, pool):
    everything = frozenset(model.states)
    for _ in range(2):
        x = _draw(rng, pool)
        for y, how in ((Not(Not(x)), "double negation"),
                       (And(x, Top()), "conjunction with verum")):
            if ev.extension(Iff(x, y)) == everything:
                for group in _subsets(model.agents):
                    yield (Iff(CoalDia(group, x), CoalDia(group, y)),
                           f"congruence via {how}")


def _necessity_forms(model, rng, pool):
    agent = model.agents[rng.randrange(len(model.agents))]
    return [
        (Hole(), "bare"),
        (ImpCtx(_draw(rng, pool), Hole()), "implication tail"),
        (KnowCtx(agent, Hole()), "knowledge prefix"),
        (PaCtx(_draw(rng, pool), Hole()), "announcement prefix"),
    ]


def _announcements(model: KripkeModel, group) -> List[Formula]:
    """One realized announcement of the group per distinct choice set on
    the model's quotient (`_distinct_sets` over all unions of each member's
    classes, the empty one included): the first choice that yields it,
    members in model order, the last varying fastest, each one's unions by
    size, ties broken by class positions."""
    q, chars = model._whole_quotient, model._chars
    members = [a for a in model.agents if a in group]
    options = [_unions(q.classes[a], [(c & q.reps).bit_count()
                                      for c in q.classes[a]])
               for a in members]
    return [conjoin(q.part(chars, agent, mask)
                    for agent, mask in zip(members, choice))
            for _, choice in _distinct_sets(q.kept, options)]


def _r_quantifier(coalition: bool) -> Callable:
    """Sampled semantic soundness of the quantifier-introduction rules: when
    every realized announcement instance of the premise scheme holds at all
    states, the quantified conclusion must too. Realized announcements on the
    contracted model denote exactly the announcements expressible about it,
    so the premise sweep is finite and complete. Kept to small models.

    A premise instance depends on the announcements psi and chi only through
    their extensions: the necessity forms used put psi and psi & chi at the
    top or as a public announcement there. So one announcement per distinct
    choice set (`_announcements`) decides the premise as every choice
    would."""

    def cases(model, ev, rng, pool):
        if len(model.states) > 3:
            return

        def everywhere(f):
            return all(ev.eval(s, f) for s in model.states)

        groups = [g for g in _subsets(model.agents) if len(g) <= 2]
        for group in groups[:4]:
            own = _announcements(model, group)
            if coalition:
                other = _announcements(model, set(model.agents) - group)
            for form, fnote in _necessity_forms(model, rng, pool)[:2]:
                for goal in (Top(), _draw(rng, pool)):
                    if coalition:
                        premise_ok = all(
                            any(everywhere(instantiate(
                                    form, Imp(psi, PaDia(And(psi, chi), goal))))
                                for chi in other)
                            for psi in own)
                        conclusion = instantiate(form, CoalBox(group, goal))
                    else:
                        premise_ok = all(
                            everywhere(instantiate(form, PaBox(psi, goal)))
                            for psi in own)
                        conclusion = instantiate(form, GroupBox(group, goal))
                    if premise_ok:
                        yield conclusion, f"{fnote} context"

    return cases


def _run_prop4(model, ev, rng, pool, index) -> _RunResult:
    if index != 0:
        return 0, [], None
    # the item's own evaluation is the construction's check: a failing
    # construction is reported as a failure, not raised
    m4, w = _prop4_candidate()
    antecedent, consequent = _prop4_parts()
    checker = Evaluator(m4, certify=ev.certify)
    failures = []
    if not checker.eval(w, antecedent):
        failures.append(_Failure(w, antecedent,
                                 "combined coalition announcement must succeed"))
    if checker.eval(w, consequent):
        failures.append(_Failure(w, consequent,
                                 "split coalition announcements must fail"))
    if ev.certify:
        ev.certificates.checked += checker.certificates.checked
        ev.certificates.mismatches.extend(checker.certificates.mismatches)
    evidence = {"model": m4.to_doc(designated=w), "state": w,
                "formula": render(Imp(antecedent, consequent)),
                "note": "implication is false at the designated state"}
    return 2, failures, evidence


@dataclass(frozen=True)
class _Item:
    name: str
    label: str
    kind: str
    run: Callable


_ITEMS: Dict[str, _Item] = {}


def _register(name, label, kind, run):
    _ITEMS[name] = _Item(name, label, kind, run)


_register("A01", "knowledge distributes over implication", "valid", _valid_item(_t_a1))
_register("A02", "knowledge is truthful", "valid", _valid_item(_t_a2))
_register("A03", "positive introspection", "valid", _valid_item(_t_a3))
_register("A04", "negative introspection", "valid", _valid_item(_t_a4))
_register("A05", "announcement-atom reduction", "valid", _valid_item(_t_a5))
_register("A06", "announcement-negation reduction", "valid", _valid_item(_t_a6))
_register("A07", "announcement-conjunction reduction", "valid", _valid_item(_t_a7))
_register("A08", "announcement-knowledge reduction", "valid", _valid_item(_t_a8))
_register("A09", "announcement-composition reduction", "valid", _valid_item(_t_a9))
_register("A10", "group box implies announcement box", "valid", _valid_item(_t_a10))
_register("A11", "coalition box implies group-then-others box", "valid",
          _valid_item(_t_a11))
_register("C0", "propositional tautology instances", "valid", _valid_item(_t_c0))
_register("C1", "coalitions cannot force falsum", "valid", _valid_item(_t_c1))
_register("C2", "coalitions can force verum", "valid", _valid_item(_t_c2))
_register("C3", "empty-coalition dual yields grand coalition", "valid",
          _valid_item(_t_c3))
_register("C4", "coalition goals close under weakening", "valid", _valid_item(_t_c4))
_register("C5", "disjoint coalitions combine", "valid", _valid_item(_t_c5))
_register("CLR1", "coalition congruence for equivalent goals", "rule",
          _rule_item(_r_clr1))
_register("R1", "knowledge necessitation preserves truth", "rule",
          _rule_item(_premised(_c_r1)))
_register("R2", "announcement necessitation preserves truth", "rule",
          _rule_item(_premised(_c_r2, _validity_premises)))
_register("R3", "group necessitation preserves truth", "rule",
          _rule_item(_premised(_c_r3, _validity_premises)))
_register("R4", "coalition necessitation preserves truth", "rule",
          _rule_item(_premised(_c_r4, _validity_premises)))
_register("R5", "group-quantifier introduction sound on samples", "rule",
          _rule_item(_r_quantifier(coalition=False)))
_register("R6", "coalition-quantifier introduction sound on samples", "rule",
          _rule_item(_r_quantifier(coalition=True)))
_register("canary", "intentionally invalid schema (must fail)", "expect_fail",
          _valid_item(_t_canary))
_register("converse_a11", "converse interaction (exploratory)", "exploratory",
          _valid_item(_t_converse_a11))
_register("lemma1", "later announcements translate to joint ones", "valid",
          _valid_item(_t_lemma1))
_register("prop3", "consecutive coalition announcements combine", "valid",
          _valid_item(_t_prop3))
_register("prop3_corollary", "coalition announcement idempotence", "valid",
          _valid_item(_t_prop3_corollary))
_register("prop4", "combined power does not split (countermodel)",
          "construction", _run_prop4)


def suite_item_names() -> tuple:
    return tuple(sorted(_ITEMS))


def canonical_item_name(name: str) -> str:
    """Map user spellings like a8/A8/Prop4 to registered item names."""
    key = name.strip().lower()
    for registered in _ITEMS:
        if key == registered.lower():
            return registered
    if key.startswith("a") and key[1:].isdigit():
        padded = f"A{int(key[1:]):02d}"
        if padded in _ITEMS:
            return padded
    raise KeyError(f"unknown suite item {name!r}; known items: "
                   + ", ".join(suite_item_names()))


def axiom_suite(params: GenParams, items: Optional[Iterable[str]] = None,
                certify: bool = False) -> SuiteReport:
    """Run the axiom and property suite over seeded random models.

    Deterministic given (seed, params): the same inputs produce byte-identical
    reports. With `certify=True` every distinct announcement choice
    enumerated during evaluation is checked against its realizing formula.
    """
    if items is None:
        names = list(suite_item_names())
    else:
        names = sorted({canonical_item_name(n) for n in items})
    # a suite that checks nothing neither passes nor fails
    if not names:
        raise ValueError("no suite items to run")
    if params.count < 1:
        raise ValueError("the suite needs at least one model")
    reports = [ItemReport(n, _ITEMS[n].label, _ITEMS[n].kind, 0, 0, None)
               for n in names]
    certificates = CertificateLog() if certify else None
    for index in range(params.count):
        model = random_model(params, index)
        ev = Evaluator(model, certify=certify)
        pool = instantiation_pool(model.agents, model.props)
        for report in reports:
            rng = random.Random(f"suite:{params.seed}:{report.name}:{index}")
            instances, failures, evidence = _ITEMS[report.name].run(
                model, ev, rng, pool, index)
            report.instances += instances
            report.failures += len(failures)
            if evidence is not None:
                # the construction item gives its evidence once, on the
                # first model; it is the countermodel, whatever failed
                report.countermodel = evidence
            elif failures and report.countermodel is None:
                report.countermodel = {
                    "model": model.to_doc(), "state": failures[0].state,
                    "formula": render(failures[0].formula),
                    "note": failures[0].note}
        if certify:
            certificates.checked += ev.certificates.checked
            certificates.mismatches.extend(ev.certificates.mismatches)
    return SuiteReport(params, reports, certificates)
