"""Validity laboratory: random and exhaustive model generation, bounded
countermodel search, and the axiom/property suite.

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
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .checker import CertificateLog, Evaluator, _distinct_sets, _unions
from .formula import (
    And, Atom, Bot, CoalBox, CoalDia, Formula, Fragment, GroupBox, GroupDia,
    Hole, Iff, Imp, ImpCtx, Know, KnowCtx, Not, Or, PaBox, PaCtx, PaDia, Top,
    agents_of, atoms, conjoin, instantiate, parse, render, size, substitute,
)
from .model import (
    KripkeModel, PointedModel, _Quotient, _bisim_key, _refine_masks,
    _whole_quotient, validate,
)
from .translate import translate

__all__ = [
    "GenParams", "SearchHit", "ItemReport", "SuiteReport",
    "random_model", "enumerate_models", "set_partitions", "random_formula",
    "instantiation_pool", "find_countermodel", "axiom_suite",
    "suite_item_names", "canonical_item_name",
    "prop4_formula", "prop4_countermodel", "prop4_verifies", "train_model",
]


@dataclass(frozen=True)
class GenParams:
    """Bounds and seed for model generation and suite sampling."""

    max_states: int = 4
    agents: tuple = ("a", "b", "c")
    props: tuple = ("p", "q")
    seed: int = 0
    count: int = 200

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if not self.agents or not self.props:
            raise ValueError("agents and props must be non-empty")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "props", tuple(self.props))


def random_model(params: GenParams, index: int) -> KripkeModel:
    """Deterministic random model: a pure function of (seed, index)."""
    rng = random.Random(f"model:{params.seed}:{index}")
    n = rng.randint(1, params.max_states)
    states = tuple(f"s{i}" for i in range(n))
    partitions = {}
    for agent in params.agents:
        block_count = rng.randint(1, n)
        labels = list(range(block_count)) + [rng.randrange(block_count)
                                             for _ in range(n - block_count)]
        rng.shuffle(labels)
        blocks: Dict[int, set] = {}
        for s, lab in zip(states, labels):
            blocks.setdefault(lab, set()).add(s)
        ordered = []
        seen = set()
        for s, lab in zip(states, labels):
            if lab not in seen:
                seen.add(lab)
                ordered.append(frozenset(blocks[lab]))
        partitions[agent] = tuple(ordered)
    valuation = {p: frozenset(s for s in states if rng.random() < 0.5)
                 for p in params.props}
    return KripkeModel(states, params.agents, params.props, partitions, valuation)


def set_partitions(items: tuple) -> Iterator[list]:
    """All partitions of the items into non-empty blocks, deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _raw_models(n_agents: int, n_props: int, max_states: int) -> Iterator[tuple]:
    """Every model of 1..max_states states over `n_agents` agents and
    `n_props` propositions, as raw masks (state i is bit i): per state count
    n, one (n, partitions, candidates) triple. `partitions` lists the
    partitions of the n states in `set_partitions` order, each a tuple of
    block masks. `candidates` yields (parts, masks) pairs in enumeration
    order, lexicographic in parts + masks: `parts` holds each agent's
    partition as an index into `partitions`, `masks` each proposition's
    truth mask."""
    for n in range(1, max_states + 1):
        partitions = [tuple(sum(1 << i for i in block) for block in part)
                      for part in set_partitions(tuple(range(n)))]
        yield n, partitions, itertools.product(
            itertools.product(range(len(partitions)), repeat=n_agents),
            itertools.product(range(1 << n), repeat=n_props))


def _builder(agents: tuple, props: tuple, n: int,
             partitions: list) -> Callable[[tuple, tuple], KripkeModel]:
    """Builds the validated model of a raw n-state candidate of
    `_raw_models` straight from its masks, states named s0, s1, ... in
    order."""
    states = tuple(f"s{i}" for i in range(n))

    def build(parts: tuple, masks: tuple) -> KripkeModel:
        return KripkeModel._from_masks(
            states, agents, props,
            dict(zip(agents, [partitions[i] for i in parts])),
            dict(zip(props, masks)))

    return build


def _least_of_orbits(n: int, partitions: list,
                     candidates: Iterable[tuple]) -> Iterator[tuple]:
    """The raw n-state candidates that no non-identity permutation of the
    states maps to a lexicographically smaller (parts, masks). The image is
    itself a candidate, and an isomorphic one, so these are exactly the first
    candidate of each relabelling class in enumeration order.

    A permutation that maps the agents' parts to smaller parts prunes every
    valuation of them; one that maps them to larger parts prunes none; the
    ones that fix them are then tried on the masks."""
    index = {frozenset(part): i for i, part in enumerate(partitions)}
    tables = []  # per non-identity permutation: partition and mask images
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(([index[frozenset(image[b] for b in part)]
                        for part in partitions], image))
    last, fixing = None, None
    for parts, masks in candidates:
        if parts != last:
            last, fixing = parts, []
            for part_image, mask_image in tables:
                moved = tuple(part_image[i] for i in parts)
                if moved < parts:
                    fixing = None
                    break
                if moved == parts:
                    fixing.append(mask_image)
        if fixing is None or any(tuple(image[m] for m in masks) < masks
                                 for image in fixing):
            continue
        yield parts, masks


def enumerate_models(agents, props, max_states: int) -> Iterator[KripkeModel]:
    """Every model with 1..max_states states over the vocabulary, states named
    s0, s1, ... in order. Models are not identified up to renaming: each is
    yielded once per labelling, so an isomorphism class of n-state models
    appears up to n! times (`find_countermodel` walks the same order, prunes
    the relabellings and evaluates only the contracted candidates left, one
    per class). Intended for small exhaustive sweeps (max_states <= 3)."""
    agents = tuple(agents)
    props = tuple(props)
    for n, partitions, candidates in _raw_models(len(agents), len(props),
                                                 max_states):
        build = _builder(agents, props, n, partitions)
        for parts, masks in candidates:
            yield build(parts, masks)


def random_formula(rng: random.Random, agents, props, *,
                   frag: Fragment = Fragment.COGAL, max_depth: int = 3) -> Formula:
    """Random formula over the vocabulary, inside the given fragment."""
    agents = list(agents)
    props = list(props)

    def leaf():
        r = rng.random()
        if r < 0.08:
            return Top()
        atom = Atom(rng.choice(props))
        return atom if r < 0.62 else Not(atom)

    def group():
        k = rng.randint(1, len(agents)) if rng.random() < 0.9 else 0
        return frozenset(rng.sample(agents, k))

    def gen(depth):
        if depth <= 0 or rng.random() < 0.2:
            return leaf()
        kinds = ["not", "and", "or", "imp", "know", "know"]
        if frag >= Fragment.PAL:
            kinds += ["pabox", "padia"]
        if frag >= Fragment.GAL:
            kinds += ["gbox", "gdia"]
        if frag >= Fragment.COGAL:
            kinds += ["cbox", "cdia"]
        kind = rng.choice(kinds)
        if kind == "not":
            return Not(gen(depth - 1))
        if kind == "and":
            return And(gen(depth - 1), gen(depth - 1))
        if kind == "or":
            return Or(gen(depth - 1), gen(depth - 1))
        if kind == "imp":
            return Imp(gen(depth - 1), gen(depth - 1))
        if kind == "know":
            return Know(rng.choice(agents), gen(depth - 1))
        if kind == "pabox":
            return PaBox(gen(depth - 1), gen(depth - 1))
        if kind == "padia":
            return PaDia(gen(depth - 1), gen(depth - 1))
        if kind == "gbox":
            return GroupBox(group(), gen(depth - 1))
        if kind == "gdia":
            return GroupDia(group(), gen(depth - 1))
        if kind == "cbox":
            return CoalBox(group(), gen(depth - 1))
        return CoalDia(group(), gen(depth - 1))

    return gen(max_depth)


@lru_cache(maxsize=64)
def instantiation_pool(agents: tuple, props: tuple) -> tuple:
    """Canonical bounded pool of purely epistemic formulas over the
    vocabulary: literals, knowledge and nested knowledge of literals, and
    small conjunctions, so of weighted size at most 6 and modal depth at
    most 2."""
    literals: List[Formula] = [Top()]
    for p in props:
        literals += [Atom(p), Not(Atom(p))]
    know1 = [Know(a, lit) for a in agents for lit in literals]
    candidates: List[Formula] = []
    candidates += literals
    candidates += [And(x, y) for x in literals for y in literals]
    candidates += know1
    candidates += [Not(k) for k in know1]
    candidates += [Know(a, k) for a in agents for k in know1]
    candidates += [And(lit, k) for lit in literals for k in know1]
    candidates += [Know(a, And(x, y)) for a in agents
                   for x in literals for y in literals]
    out = []
    seen = set()
    for f in candidates:
        # repeated names in the vocabulary repeat candidates
        if f in seen:
            continue
        seen.add(f)
        out.append(f)
    out.sort(key=lambda f: (size(f), render(f)))
    return tuple(out)


@dataclass(frozen=True)
class SearchHit:
    """Falsifying instance found by countermodel search."""

    pointed: PointedModel
    assignment: dict


def find_countermodel(f: Formula, params: GenParams, *,
                      schematic: Iterable[str] = (),
                      pool: Optional[Iterable[Formula]] = None) -> Optional[SearchHit]:
    """Search for a pointed model falsifying the formula within bounds.

    Exhaustive over all models up to `max_states` states when that bound is
    at most 3, otherwise over `count` seeded random models. Atoms listed in
    `schematic` are instantiated with every combination from the pool.

    Truth is invariant under bisimulation and renaming, so a candidate whose
    quotient is isomorphic to that of an earlier candidate, which held
    everywhere, is skipped unevaluated: the first hit is the one a candidate
    by candidate search finds. The sampled branch names each model's class
    by `_bisim_key`. The exhaustive branch walks the raw candidates of
    `enumerate_models`: it drops relabellings of earlier candidates
    (`_least_of_orbits`), refines the rest from their masks, and builds and
    evaluates a model only for a contracted one, with no key. Among the
    orbit-least candidates, which come in order of state count, that skips
    exactly the ones whose class came earlier:
    - contracted implies new: two contracted models with isomorphic
      quotients are isomorphic, so an earlier candidate of the class would
      lie in this one's relabelling orbit, and the orbit test keeps only the
      first candidate of an orbit;
    - not contracted implies held: the quotient has m < n states and is a
      model over the same vocabulary, so its orbit-least relabelling came
      earlier among the m-state candidates; that candidate is contracted,
      so it was evaluated, and it held, or the search would have returned.
    """
    if params.max_states > 3 and params.count < 1:
        raise ValueError("the sampled search needs at least one model")
    schematic = tuple(schematic)
    agents = tuple(params.agents) + tuple(
        sorted(agents_of(f) - set(params.agents)))
    concrete_atoms = atoms(f) - set(schematic)
    props = tuple(params.props) + tuple(sorted(concrete_atoms - set(params.props)))
    pool = tuple(pool) if pool is not None else instantiation_pool(agents, props)
    if schematic and not pool:
        raise ValueError("schematic atoms need at least one pool formula")
    assignments = ([{}] if not schematic else
                   [dict(zip(schematic, combo))
                    for combo in itertools.product(pool, repeat=len(schematic))])
    instances = [(assignment, substitute(f, assignment))
                 for assignment in assignments]

    def refuted(model: KripkeModel) -> Optional[SearchHit]:
        ev = Evaluator(model)
        for assignment, g in instances:
            for state in model.states:
                if not ev.eval(state, g):
                    return SearchHit(PointedModel(model, state), dict(assignment))
        return None

    if params.max_states > 3:
        gen = GenParams(max_states=params.max_states, agents=agents,
                        props=props, seed=params.seed, count=params.count)
        held = set()
        for i in range(params.count):
            model = random_model(gen, i)
            key = _bisim_key(model)
            if key in held:
                continue
            hit = refuted(model)
            if hit is not None:
                return hit
            held.add(key)
        return None
    for n, partitions, candidates in _raw_models(len(agents), len(props),
                                                 params.max_states):
        build = _builder(agents, props, n, partitions)
        whole = (1 << n) - 1
        for parts, masks in _least_of_orbits(n, partitions, candidates):
            refined = _refine_masks([partitions[i] for i in parts], masks,
                                    whole)
            if len(refined[0][-1]) < n:  # not contracted: an earlier class
                continue
            model = build(parts, masks)
            _whole_quotient(model, refined)
            hit = refuted(model)
            if hit is not None:
                return hit
    return None


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
    out = []
    for r in range(len(agents) + 1):
        for combo in itertools.combinations(agents, r):
            out.append(frozenset(combo))
    return out


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


def _announcements(q: _Quotient, members: list) -> List[Formula]:
    """One realized announcement of the members per distinct choice set on
    the model's quotient (`_distinct_sets` over all unions of each member's
    classes, the empty one included): the first choice that yields it,
    members in model order, the last varying fastest, each one's unions by
    size, ties broken by class positions."""
    options = [_unions(q.classes[a], [(c & q.reps).bit_count()
                                      for c in q.classes[a]])
               for a in members]
    return [q.realize(zip(members, choice))
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
        q = _whole_quotient(model)

        def everywhere(f):
            return all(ev.eval(s, f) for s in model.states)

        groups = [g for g in _subsets(model.agents) if len(g) <= 2]
        for group in groups[:4]:
            own = _announcements(q, [a for a in model.agents if a in group])
            if coalition:
                other = _announcements(q, [a for a in model.agents
                                           if a not in group])
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
