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
from typing import Dict, Iterable, Iterator, List, Optional

from .checker import Evaluator, _check_names
from .formula import (
    And, Atom, CoalBox, CoalDia, Formula, Fragment, GroupBox, GroupDia, Imp,
    Know, Not, Or, PaBox, PaDia, Top, agents_of, atoms, render, size,
    substitute, _vocab_mask,
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
        if not 1 <= self.max_states <= 64:
            raise ValueError("max_states must be between 1 and 64")
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


def _classes(n: int, partitions: list, n_agents: int,
             n_props: int) -> Iterator[tuple]:
    """One raw n-state candidate per class of contracted n-state models,
    with its refinement. A raw candidate (parts, masks) holds each agent's
    partition as an index into `partitions` and each proposition's truth
    mask; `enumerate_models` is lexicographic in parts + masks. Yielded, in
    that order, are the contracted candidates that no non-identity
    permutation of the states maps to a smaller (parts, masks), as (parts,
    masks, refined), `refined` being `_refine_masks` of the candidate over
    all n states. A permuted candidate is itself a candidate, and an
    isomorphic one, so these are the first candidate of each relabelling
    orbit that are contracted.

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


def _groups(agents: tuple, props: tuple, n: int) -> Iterator[tuple]:
    """Each candidate of `_classes(n, ...)`, in order, as (parts, masks,
    ev, truth): `ev` is the one evaluator of the candidate's refinement
    group, `truth` the candidate's truth masks, for the reader to swap in.

    When the parts change, their frame is validated (`KripkeModel._frame`)
    and shared by their groups' models (`KripkeModel._from_frame`). A
    group's first candidate gets a model on it, the group's whole quotient,
    built from the shared refinement, and an evaluator of it; the group's
    later candidates get no model. Every candidate's truth masks pass the
    checks a model's pass (`KripkeModel._checked_truth`), once per
    valuation of n states, before any group reads them."""
    partitions = _mask_partitions(n)
    whole = (1 << n) - 1
    states = tuple(f"s{i}" for i in range(n))
    truths = {masks: KripkeModel._checked_truth(
                  props, n, dict(zip(props, masks)), states)
              for masks in itertools.product(range(1 << n),
                                             repeat=len(props))}
    last = None  # the parts that `frame` and `evaluators` belong to
    for parts, masks, refined in _classes(n, partitions, len(agents),
                                          len(props)):
        if parts != last:
            # keyed by identity: a group's refinement is one object, alive
            # until its parts are done
            last, evaluators = parts, {}
            frame = KripkeModel._frame(
                states, agents, props,
                dict(zip(agents, [partitions[i] for i in parts])), states)
        ev = evaluators.get(id(refined))
        if ev is None:
            model = KripkeModel._from_frame(frame, truths[masks])
            vars(model)["_whole_quotient"] = _Quotient(model, whole, refined)
            ev = evaluators[id(refined)] = Evaluator(model)
        yield parts, masks, ev, truths[masks]


# the exhaustive search's walks of the vocabulary (agents, props) searched
# last, by state count (`find_countermodel`); the bounds keep the 3-state
# walks over a, b, c and p, q (1,088 candidates, 105 evaluators), a, b, c
# and p, q, r (9,744, 105) and a, b, c, d and p, q (5,764, 487)
_WALKS: Dict[tuple, dict] = {}
_KEPT_CANDIDATES = 10_000
_KEPT_EVALUATORS = 512


def enumerate_models(agents, props, max_states: int) -> Iterator[KripkeModel]:
    """Every model with 1..max_states states over the vocabulary, states named
    s0, s1, ... in order. Models are not identified up to renaming: each is
    yielded once per labelling, so an isomorphism class of n-state models
    appears up to n! times (`find_countermodel` walks the same order but
    meets only one contracted candidate per class). Each tuple of the
    agents' partitions gets one frame (`KripkeModel._frame`), which its
    models share. Intended for small exhaustive sweeps (max_states <= 3)."""
    agents = tuple(agents)
    props = tuple(props)
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        for parts in itertools.product(_mask_partitions(n),
                                       repeat=len(agents)):
            frame = KripkeModel._frame(states, agents, props,
                                       dict(zip(agents, parts)), states)
            for masks in itertools.product(range(1 << n), repeat=len(props)):
                yield KripkeModel._from_frame(frame, dict(zip(props, masks)))


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
    partition) share one evaluator (`_groups`); a model is built for each
    group's evaluator and, from that model's class masks and the candidate's
    truth masks, for the hit. Each candidate is swapped in
    (`Evaluator._revalue`), read and dropped (`Evaluator._forget`). The
    walk depends only on the widened vocabulary, so the searches over it
    share it: per state count, the candidates read so far, which a later
    search replays, and the suspended `_groups` that builds the rest, which
    it resumes, up to `_KEPT_CANDIDATES` candidates and `_KEPT_EVALUATORS`
    evaluators. A search checks the walks out of `_WALKS`, which keeps the
    last vocabulary's, and puts them back when it returns, hit or none. One
    that raises drops them, so no walk cut short is read, and a search
    running at the same time builds its own. Among the orbit-least
    candidates, which come in order of state count, that skips exactly the
    ones whose class came earlier:
    - contracted implies new: two contracted models with isomorphic
      quotients are isomorphic, so an earlier candidate of the class would
      lie in this one's relabelling orbit, and only the first candidate of
      an orbit is orbit-least;
    - not contracted implies held: the quotient has m < n states and is a
      model over the same vocabulary, so its orbit-least relabelling came
      earlier among the m-state candidates; that candidate is contracted,
      so it was evaluated, and it held, or the search would have returned.

    Within a group, a candidate also skips each instance that an earlier
    candidate of the group held under the same values of the instance's
    atoms: the same truth masks at the positions of its atoms in the
    widened propositions, its *shape*. The search keeps this *held record*
    per part triple, as a set of (evaluator, shape, values) keys, and drops
    it when the walk leaves the triple (at most 60 candidates at 3 states).
    A candidate that the search passes held every instance, so a key says
    that every instance of its shape held; a failing candidate ends the
    search, so the first hit is unchanged. Proof that an instance's extent
    on the whole model is the same for two candidates of one group with
    equal values at its atoms: after `Evaluator._revalue`, the evaluator
    reads the valuation only through `_truth`, in three places:
    - at atoms, which are the instance's own;
    - when it refines a new restriction, which depends only on the group's
      shared level-0 partition (the lemma of `model._refine_masks`);
    - in the characteristic formulas, which only evidence reads: `refuted`
      builds none, and a search evaluator never certifies.
    An instance that mentions every proposition gets no record: no two
    candidates of one group share all their truth masks.
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
    # the default pool is built only for schematic atoms to read
    pool = (given if pool is not None or not schematic
            else instantiation_pool(agents, props))
    if schematic and not pool:
        raise ValueError("schematic atoms need at least one pool formula")
    assignments = ([{}] if not schematic else
                   [dict(zip(schematic, combo))
                    for combo in itertools.product(pool, repeat=len(schematic))])
    # each instance with its bindings checked once, and the positions of
    # its atoms in `props`: None where it mentions every proposition
    vocab = _vocab_mask(agents, props)
    position = {p: i for i, p in enumerate(props)}
    instances = []
    for assignment in assignments:
        g = substitute(f, assignment)
        _check_names(g, agents, props, vocab)
        shape = tuple(sorted(position[p] for p in atoms(g)))
        instances.append((assignment, g,
                          None if len(shape) == len(props) else shape))
    shapes = tuple({shape for _, _, shape in instances} - {None})

    def refuted(ev: Evaluator, held=()) -> Optional[tuple]:
        """The first (assignment, state) at which an instance fails: the
        lowest state, state i being bit i, outside the instance's extent on
        the whole model (`Evaluator._where`). The instances whose shape is
        in `held` are known to hold, and are not read."""
        whole = ev._root_quotient
        for assignment, g, shape in instances:
            if shape in held:
                continue
            failing = whole.kept & ~ev._where(whole.kept, g)
            if failing:
                return assignment, ev.model.states[
                    (failing & -failing).bit_length() - 1]
        return None

    def hit(model: KripkeModel, found: tuple) -> SearchHit:
        assignment, state = found
        return SearchHit(PointedModel(model, state), dict(assignment))

    def first_hit(walks: dict) -> Optional[SearchHit]:
        """The exhaustive search on `walks`, each state count's walk
        replayed and resumed, with each part triple's held record."""
        for n in range(1, params.max_states + 1):
            if n not in walks:
                walks[n] = [], set(), _groups(agents, props, n)
            read, evaluators, rest = walks[n]
            last = record = None
            for index, candidate in enumerate(itertools.chain(read, rest)):
                parts, masks, ev, truth = candidate
                if read is not None and index == len(read):
                    evaluators.add(ev)
                    if (len(read) < _KEPT_CANDIDATES
                            and len(evaluators) <= _KEPT_EVALUATORS):
                        read.append(candidate)
                    else:
                        del walks[n]
                        read = evaluators = None
                if parts != last:
                    last, record = parts, set()
                # the candidate's keys are recorded before it is read: if
                # it fails, the search returns and reads no record again
                held = set()
                for shape in shapes:
                    key = ev, shape, tuple([masks[i] for i in shape])
                    if key in record:
                        held.add(shape)
                    else:
                        record.add(key)
                ev._revalue(truth)
                found = refuted(ev, held)
                ev._forget()
                if found is not None:
                    return hit(KripkeModel._from_masks(
                        ev.model.states, agents, props,
                        ev.model._class_masks, truth), found)
        return None

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

    # checked out until the search returns, hit or none (see above); the
    # walks of another vocabulary are dropped
    walks = _WALKS.pop((agents, props), {})
    _WALKS.clear()
    found = first_hit(walks)
    _WALKS.clear()
    _WALKS[agents, props] = walks
    return found
