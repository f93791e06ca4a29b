"""Model generation and bounded countermodel search: seeded random models
and formulas, the canonical instantiation pool, exhaustive enumeration of
small models, and `find_countermodel`, which evaluates one candidate per
class of models with isomorphic bisimulation quotients.

Everything is deterministic given (seed, parameters).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from .checker import Evaluator
from .formula import (
    And, Atom, CoalBox, CoalDia, Formula, Fragment, GroupBox, GroupDia, Imp,
    Know, Not, Or, PaBox, PaDia, Top, agents_of, atoms, render, size,
    substitute,
)
from .model import (
    KripkeModel, PointedModel, _Quotient, _bisim_key, _level0, _refine_masks,
)


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
        # blocks in order of their first state
        blocks: Dict[int, set] = {}
        for s, lab in zip(states, labels):
            blocks.setdefault(lab, set()).add(s)
        partitions[agent] = tuple(map(frozenset, blocks.values()))
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


def _mask_partitions(n: int) -> list:
    """The partitions of n states (state i is bit i) in `set_partitions`
    order, each a tuple of block masks."""
    return [tuple(sum(1 << i for i in block) for block in part)
            for part in set_partitions(tuple(range(n)))]


def _raw_models(n_agents: int, n_props: int, max_states: int) -> Iterator[tuple]:
    """Every model of 1..max_states states over `n_agents` agents and
    `n_props` propositions, as raw masks: per state count n, one
    (n, partitions, candidates) triple. `partitions` is
    `_mask_partitions(n)`. `candidates` yields (parts, masks) pairs in
    enumeration order, lexicographic in parts + masks: `parts` holds each
    agent's partition as an index into `partitions`, `masks` each
    proposition's truth mask."""
    for n in range(1, max_states + 1):
        partitions = _mask_partitions(n)
        yield n, partitions, itertools.product(
            itertools.product(range(len(partitions)), repeat=n_agents),
            itertools.product(range(1 << n), repeat=n_props))


def _classes(n: int, partitions: list, n_agents: int,
             n_props: int) -> Iterator[tuple]:
    """One raw n-state candidate of `_raw_models` per class of contracted
    n-state models, with its refinement: the contracted candidates that no
    non-identity permutation of the states maps to a lexicographically
    smaller (parts, masks), in enumeration order, as (parts, masks,
    refined), `refined` being `_refine_masks` of the candidate over all n
    states. A permuted candidate is itself a candidate, and an isomorphic
    one, so these are the first candidate of each relabelling orbit that
    are contracted.

    Parts first: a permutation that maps the agents' parts to smaller parts
    prunes every valuation of them unseen; one that maps them to larger
    parts prunes none; the ones that fix them, the stabiliser, are tried on
    the masks. The valuations that no permutation of a stabiliser maps to
    smaller masks are found once per stabiliser, and reused by every part
    triple it fixes. The refinement reads the truth masks only through their
    level-0 partition (the lemma of `_refine_masks`), so it is computed once
    per surviving parts and level-0 partition: the candidates of one such
    refinement group are yielded with one `refined` object, which lives
    until their parts are done."""
    whole = (1 << n) - 1
    index = {frozenset(part): i for i, part in enumerate(partitions)}
    tables = []  # per non-identity permutation: partition and mask images
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(([index[frozenset(image[b] for b in part)]
                        for part in partitions], image))
    # every truth-mask tuple in order, with the index of its level-0
    # partition (`_level0`)
    valuations = list(itertools.product(range(1 << n), repeat=n_props))
    level0: Dict[tuple, int] = {}
    level0_at = [level0.setdefault(tuple(_level0(masks, whole)), len(level0))
                 for masks in valuations]
    least: Dict[tuple, list] = {}  # per stabiliser: its orbit-least masks
    for parts in itertools.product(range(len(partitions)), repeat=n_agents):
        fixing = []
        for j, (part_image, _) in enumerate(tables):
            moved = tuple(part_image[i] for i in parts)
            if moved < parts:
                break
            if moved == parts:
                fixing.append(j)
        else:
            stabiliser = tuple(fixing)
            kept = least.get(stabiliser)
            if kept is None:
                images = [tables[j][1] for j in stabiliser]
                kept = least[stabiliser] = [
                    (masks, k) for masks, k in zip(valuations, level0_at)
                    if not any(tuple(image[m] for m in masks) < masks
                               for image in images)]
            classes = [partitions[i] for i in parts]
            groups = []  # per level-0 partition; None if not contracted
            for partition in level0:
                refined = _refine_masks(classes, partition, whole)
                groups.append(refined if len(refined[0][-1]) == n else None)
            for masks, k in kept:
                refined = groups[k]
                if refined is not None:
                    yield parts, masks, refined


def _builder(agents: tuple, props: tuple, n: int,
             partitions: list) -> Callable[[tuple, tuple], KripkeModel]:
    """Builds the validated model of a raw n-state candidate of
    `_raw_models` straight from its masks, states named s0, s1, ... in
    order. Candidates come grouped by parts, so the frame of their parts is
    validated when the parts change and shared until then (`_from_frame`)."""
    states = tuple(f"s{i}" for i in range(n))
    last = frame = None  # the last candidate's parts and their frame

    def build(parts: tuple, masks: tuple) -> KripkeModel:
        nonlocal last, frame
        if parts != last:
            last, frame = parts, KripkeModel._frame(
                states, agents, props,
                dict(zip(agents, [partitions[i] for i in parts])), states)
        return KripkeModel._from_frame(frame, dict(zip(props, masks)))

    return build


def _group_evaluators(agents: tuple, props: tuple,
                      n: int) -> Iterator[tuple]:
    """Each candidate of `_classes(n, ...)`, in order, as (parts, masks,
    ev): `ev` is the one evaluator of the candidate's refinement group,
    its truth masks swapped in (`Evaluator._revalue`).

    A group's first candidate gets a validated model (`_builder`), the
    group's whole quotient, built from the shared refinement, and an
    evaluator of it; the group's later candidates get no model. Every
    candidate's truth masks pass the checks a model's pass
    (`KripkeModel._checked_truth`), once per valuation of n states, before
    any group reads them. The candidates of a part triple switch between
    its groups, so each group's evaluator lives until its parts are done."""
    partitions = _mask_partitions(n)
    build = _builder(agents, props, n, partitions)
    whole = (1 << n) - 1
    states = tuple(f"s{i}" for i in range(n))
    truths = {masks: KripkeModel._checked_truth(
                  props, n, dict(zip(props, masks)), states)
              for masks in itertools.product(range(1 << n),
                                             repeat=len(props))}
    last = evaluators = None  # the last parts and their groups' evaluators
    for parts, masks, refined in _classes(n, partitions, len(agents),
                                          len(props)):
        if parts != last:
            # keyed by identity: a group's refinement is one object, alive
            # until its parts are done
            last, evaluators = parts, {}
        ev = evaluators.get(id(refined))
        if ev is None:
            model = build(parts, masks)
            vars(model)["_whole_quotient"] = _Quotient(model, whole, refined)
            ev = evaluators[id(refined)] = Evaluator(model)
        ev._revalue(truths[masks])
        yield parts, masks, ev


def enumerate_models(agents, props, max_states: int) -> Iterator[KripkeModel]:
    """Every model with 1..max_states states over the vocabulary, states named
    s0, s1, ... in order. Models are not identified up to renaming: each is
    yielded once per labelling, so an isomorphism class of n-state models
    appears up to n! times (`find_countermodel` walks the same order but
    meets only one contracted candidate per class). Intended for small
    exhaustive sweeps (max_states <= 3)."""
    agents = tuple(agents)
    props = tuple(props)
    for n, partitions, candidates in _raw_models(len(agents), len(props),
                                                 max_states):
        build = _builder(agents, props, n, partitions)
        for parts, masks in candidates:
            yield build(parts, masks)


_BINARY = {"and": And, "or": Or, "imp": Imp, "pabox": PaBox, "padia": PaDia}
_QUANTIFIERS = {"gbox": GroupBox, "gdia": GroupDia, "cbox": CoalBox,
                "cdia": CoalDia}


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
        if kind == "know":
            return Know(rng.choice(agents), gen(depth - 1))
        if kind in _QUANTIFIERS:
            return _QUANTIFIERS[kind](group(), gen(depth - 1))
        return _BINARY[kind](gen(depth - 1), gen(depth - 1))

    return gen(max_depth)


def instantiation_pool(agents: Iterable[str], props: Iterable[str]) -> tuple:
    """Canonical bounded pool of purely epistemic formulas over the
    vocabulary: literals, knowledge and nested knowledge of literals, and
    small conjunctions, so of weighted size at most 6 and modal depth at
    most 2. Any iterables of names will do; equal names give the one cached
    tuple."""
    return _pool(tuple(agents), tuple(props))


@lru_cache(maxsize=64)
def _pool(agents: tuple, props: tuple) -> tuple:
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
    # repeated names in the vocabulary repeat candidates
    out = list(dict.fromkeys(candidates))
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
    `schematic` are instantiated with every combination from the pool;
    they must be distinct atoms of the formula, or `ValueError` is raised.

    Truth is invariant under bisimulation and renaming, so a candidate whose
    quotient is isomorphic to that of an earlier candidate, which held
    everywhere, is skipped unevaluated: the first hit is the one a candidate
    by candidate search finds. The sampled branch names each model's class
    by `_bisim_key`. The exhaustive branch computes no key: per state count
    it walks `_classes`, which keeps, in the order of `enumerate_models`,
    the raw candidates that are orbit-least (no relabelling came earlier)
    and contracted, each with its refinement, and it evaluates only those.
    The candidates of one refinement group (part triple and level-0
    partition) are evaluated on one evaluator, which swaps in each one's
    truth masks, checked once per valuation (`_group_evaluators`); a model
    is built for each group's evaluator and for the hit. Among the
    orbit-least candidates, which come in order of state count, that skips
    exactly the ones whose class came earlier:
    - contracted implies new: two contracted models with isomorphic
      quotients are isomorphic, so an earlier candidate of the class would
      lie in this one's relabelling orbit, and only the first candidate of
      an orbit is orbit-least;
    - not contracted implies held: the quotient has m < n states and is a
      model over the same vocabulary, so its orbit-least relabelling came
      earlier among the m-state candidates; that candidate is contracted,
      so it was evaluated, and it held, or the search would have returned.
    """
    schematic = tuple(schematic)
    if len(set(schematic)) < len(schematic):
        raise ValueError("schematic atoms must be distinct")
    unknown = sorted(set(schematic) - atoms(f))
    if unknown:
        raise ValueError("schematic atoms not in the formula: "
                         + ", ".join(unknown))
    if params.max_states > 3 and params.count < 1:
        raise ValueError("the sampled search needs at least one model")
    # the names of the formula and of a given pool widen the vocabulary
    given = () if pool is None else tuple(pool)
    agents = tuple(params.agents) + tuple(sorted(
        agents_of(f).union(*map(agents_of, given)) - set(params.agents)))
    concrete_atoms = (atoms(f) - set(schematic)).union(*map(atoms, given))
    props = tuple(params.props) + tuple(sorted(concrete_atoms - set(params.props)))
    pool = given if pool is not None else instantiation_pool(agents, props)
    if schematic and not pool:
        raise ValueError("schematic atoms need at least one pool formula")
    assignments = ([{}] if not schematic else
                   [dict(zip(schematic, combo))
                    for combo in itertools.product(pool, repeat=len(schematic))])
    instances = [(assignment, substitute(f, assignment))
                 for assignment in assignments]

    def refuted(ev: Evaluator) -> Optional[tuple]:
        """The first (assignment, state) at which an instance fails."""
        for assignment, g in instances:
            for state in ev.model.states:
                if not ev.eval(state, g):
                    return assignment, state
        return None

    def hit(model: KripkeModel, found: tuple) -> SearchHit:
        assignment, state = found
        return SearchHit(PointedModel(model, state), dict(assignment))

    if params.max_states > 3:
        gen = replace(params, agents=agents, props=props)
        held = set()
        for i in range(params.count):
            model = random_model(gen, i)
            key = _bisim_key(model)
            if key in held:
                continue
            found = refuted(Evaluator(model))
            if found is not None:
                return hit(model, found)
            held.add(key)
        return None
    for n in range(1, params.max_states + 1):
        for parts, masks, ev in _group_evaluators(agents, props, n):
            found = refuted(ev)
            if found is not None:
                build = _builder(agents, props, n, _mask_partitions(n))
                return hit(build(parts, masks), found)
    return None
