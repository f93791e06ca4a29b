"""Finite S5 epistemic models.

Validation of model documents, announcement updates, bisimulation
contraction by partition refinement, characteristic formulas on contracted
models, realization of announcement choices as epistemic formulas, and DOT
export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .formula import (
    Atom, Formula, Know, Not, Top,
    conjoin, disjoin, _require_ident, _vocab_mask,
)

__all__ = [
    "KripkeModel", "PointedModel", "ContractionMap", "ModelError",
    "validate", "load_model", "save_model", "bisim_contract",
    "is_contracted", "char_formula", "realize_choice", "to_dot",
]


class ModelError(ValueError):
    """Invalid model document or an operation violating a model precondition."""


def _unknown(mask: int, names: Sequence[str], n: int) -> str:
    """The lowest bit of a mask past the first n, named if `names` can."""
    past = mask >> n
    i = (past & -past).bit_length() - 1 + n
    return repr(names[i]) if i < len(names) else f"at bit {i}"


class KripkeModel:
    """Finite S5 model: ordered states, one partition per agent, valuation.

    State i is bit i, and the model is its name tuples (`states`, `agents`,
    `props`) and its int masks over the states: per agent the class masks
    of its partition (`_class_masks`) and the class mask at each state
    (`_class_at`), per proposition a truth mask (`_truth_masks`). It keeps
    none of the caller's containers. `partitions` and `valuation` are the
    same sets as frozensets of state names, derived from the masks when
    they are first read, however the model was built; `valuation` lists
    every declared proposition. Validation is `_frame` (states, names,
    partitions), then `_init_masks` (truth masks), where every construction
    ends.

    All collections iterate in document order. Instances are immutable and
    compared by identity; use `to_doc` for structural comparison.
    """

    def __init__(self, states: tuple, agents: tuple, props: tuple,
                 partitions: Mapping[str, tuple],
                 valuation: Mapping[str, frozenset]):
        if not all(isinstance(s, str) for s in states):
            raise ModelError("field 'states' must be a list of strings")
        position = {s: i for i, s in enumerate(states)}
        names = list(states)

        def mask(extent: Iterable[str], agent: Optional[str] = None) -> int:
            out = 0
            for s in extent:
                i = position.get(s)
                if i is None:  # unknown: a bit past the last state
                    i = len(names)
                    names.append(s)
                elif out >> i & 1 and agent is not None:
                    raise ModelError(f"partition block {list(extent)} of "
                                     f"agent {agent!r} repeats a state")
                out |= 1 << i
            return out

        class_masks = {agent: tuple(mask(block, agent) for block in blocks)
                       for agent, blocks in partitions.items()}
        truth_masks = {p: mask(extent) for p, extent in valuation.items()}
        self._init_masks(self._frame(states, agents, props, class_masks,
                                     names), truth_masks, names)

    @classmethod
    def _from_masks(cls, states: tuple, agents: tuple, props: tuple,
                    class_masks: Mapping[str, tuple],
                    truth_masks: Mapping[str, int]) -> "KripkeModel":
        """The model with the given states, per agent the tuple of its
        partition's block masks and per proposition its truth mask. It
        bypasses `__init__`: it builds no name-level set."""
        return cls._from_frame(
            cls._frame(states, agents, props, class_masks, states), truth_masks)

    @classmethod
    def _from_frame(cls, frame: dict, truth_masks: Mapping[str, int]
                    ) -> "KripkeModel":
        """The model on a frame `_frame` validated, sharing the frame's
        objects, which no model changes: only the truth masks are checked."""
        model = cls.__new__(cls)
        model._init_masks(frame, truth_masks, frame["states"])
        return model

    @staticmethod
    def _frame(states: tuple, agents: tuple, props: tuple,
               class_masks: Mapping[str, tuple], names: Sequence[str]) -> dict:
        """Check the invariants that do not read the valuation and return
        the model's attributes built from them, the names as tuples of its
        own: unique names, agents and propositions identifiers, every
        agent's blocks non-empty, inside the state range, pairwise disjoint
        and covering. `names` names the bits for error messages: the states,
        then any unknown state names the caller mapped past the last one."""
        states, agents, props = tuple(states), tuple(agents), tuple(props)
        position = {s: i for i, s in enumerate(states)}
        if not states:
            raise ModelError("empty model: the state set must be non-empty")
        if len(position) != len(states):
            raise ModelError("duplicate state identifiers")
        if len(set(agents)) != len(agents):
            raise ModelError("duplicate agent identifiers")
        if len(set(props)) != len(props):
            raise ModelError("duplicate proposition identifiers")
        try:
            for a in agents:
                _require_ident(a, "agent")
            for p in props:
                _require_ident(p, "proposition")
        except ValueError as exc:
            raise ModelError(str(exc)) from None
        if set(class_masks) != set(agents):
            raise ModelError("partitions must cover exactly the agent set")
        n = len(states)
        whole = (1 << n) - 1
        ordered = {}
        class_at = {}
        for agent in agents:
            blocks = class_masks[agent]
            at = [0] * n
            covered = 0
            for block in blocks:
                if not block:
                    raise ModelError(f"empty partition block for agent {agent!r}")
                if block >> n:
                    raise ModelError(f"partition of agent {agent!r} mentions "
                                     f"unknown state {_unknown(block, names, n)}")
                if block & covered:
                    first = _bits(block & covered)[0]
                    raise ModelError(f"overlapping partition blocks for agent "
                                     f"{agent!r} at state {states[first]!r}")
                covered |= block
                for i in _bits(block):
                    at[i] = block
            if covered != whole:
                missing = sorted(states[i] for i in _bits(whole ^ covered))
                raise ModelError(f"partition of agent {agent!r} does not cover "
                                 f"states {missing}")
            ordered[agent] = tuple(blocks)
            class_at[agent] = at
        return {"states": states, "agents": agents, "props": props,
                "_position": position, "_class_masks": ordered,
                "_class_at": class_at, "_vocab": _vocab_mask(agents, props),
                # per group (`Evaluator._members`) and per mask
                # (`Evaluator._states`)
                "_member_lists": {}, "_named_sets": {}}

    def _init_masks(self, frame: dict, truth_masks: Mapping[str, int],
                    names: Sequence[str]) -> None:
        """Check the truth masks against a validated frame (`_frame`) and
        adopt both (`_checked_truth`). Every construction ends here."""
        vars(self).update(frame, _truth_masks=self._checked_truth(
            frame["props"], len(frame["states"]), truth_masks, names))

    @staticmethod
    def _checked_truth(props: tuple, n: int, truth_masks: Mapping[str, int],
                       names: Sequence[str]) -> dict:
        """The truth masks of a model with these propositions and n states,
        checked, per proposition in order (0 where none is given): every
        proposition declared, every mask inside the state range. `names`
        names the bits for error messages, as in `_frame`."""
        truth = dict.fromkeys(props, 0)
        for prop, mask in truth_masks.items():
            if prop not in truth:
                raise ModelError(f"valuation mentions unknown proposition {prop!r}")
            if mask >> n:
                raise ModelError(f"valuation of {prop!r} mentions unknown "
                                 f"state {_unknown(mask, names, n)}")
            truth[prop] = mask
        return truth

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the vocabulary mask's bits differ between processes (`formula._bit`),
        # so an unpickled or copied model is validated and masked afresh
        return KripkeModel._from_masks, (self.states, self.agents, self.props,
                                         self._class_masks, self._truth_masks)

    def __repr__(self) -> str:
        return (f"KripkeModel(states={self.states!r}, agents={self.agents!r}, "
                f"props={self.props!r}, partitions={self.partitions!r}, "
                f"valuation={self.valuation!r})")

    @cached_property
    def partitions(self) -> Mapping[str, tuple]:
        """Per agent, the partition's blocks as frozensets of state names."""
        return {agent: tuple(self._named(b) for b in blocks)
                for agent, blocks in self._class_masks.items()}

    @cached_property
    def valuation(self) -> Mapping[str, frozenset]:
        """Per proposition, its truth set as a frozenset of state names."""
        return {p: self._named(m) for p, m in self._truth_masks.items()}

    @cached_property
    def _whole_quotient(self) -> "_Quotient":
        """The quotient of the whole model, built once per model: evaluators
        of the model, the public contraction API and `_bisim_key` share it.
        The exhaustive search stores the quotient of a model that refines
        alike in this slot (`vars(model)`) before the first read."""
        whole = (1 << len(self.states)) - 1
        return _Quotient(self, whole, _refine(self, whole))

    @cached_property
    def _chars(self) -> dict:
        """The whole quotient's characteristic formulas (`_Quotient.chars`)."""
        return self._whole_quotient.chars(self._truth_masks)

    @cached_property
    def _parts(self) -> dict:
        """The whole quotient's realized announcements (`_Quotient.part`
        on `_chars`), per (agent, union), as `Evaluator._part` fills it."""
        return {}

    def _named(self, mask: int) -> frozenset:
        """The names of the states in a mask."""
        names = self.states
        return frozenset(names[i] for i in _bits(mask))

    def class_of(self, agent: str, state: str) -> frozenset:
        """Equivalence class of the state under the agent's relation."""
        return self._named(self._class_at[agent][self._position[state]])

    def props_at(self, state: str) -> tuple:
        """Propositions true at the state, in document order."""
        i = self._position[state]
        return tuple(p for p, m in self._truth_masks.items() if m >> i & 1)

    def truth_set(self, prop: str) -> frozenset:
        return self._named(self._truth_masks.get(prop, 0))

    def update(self, keep: Iterable[str]) -> "KripkeModel":
        """Restriction to a non-empty subset of states.

        Partition blocks are intersected with the kept set (empty
        intersections dropped) and the valuation is restricted. Unused by
        the evaluator, which restricts masks; kept as the test oracle's
        restriction and because `perfbench/tracing.py` wraps it by name.
        """
        kept = frozenset(keep)
        if not kept:
            raise ModelError("update with an empty state set; an unsatisfied "
                             "announcement must be handled as vacuous truth")
        unknown = [s for s in kept if s not in self._position]
        if unknown:
            raise ModelError(f"update mentions unknown states {sorted(unknown)}")
        states = tuple(s for s in self.states if s in kept)
        partitions = {}
        for agent in self.agents:
            blocks = []
            for block in self.partitions[agent]:
                cut = block & kept
                if cut:
                    blocks.append(cut)
            partitions[agent] = tuple(blocks)
        valuation = {p: truth & kept for p, truth in self.valuation.items()}
        return KripkeModel(states, self.agents, self.props, partitions, valuation)

    def to_doc(self, designated: Optional[str] = None) -> dict:
        """JSON-ready document in the external model-file format."""
        names = self.states
        doc = {
            "agents": list(self.agents),
            "props": list(self.props),
            "states": list(names),
            "partitions": {
                agent: [[names[i] for i in _bits(b)] for b in blocks]
                for agent, blocks in self._class_masks.items()
            },
            "valuation": {p: [names[i] for i in _bits(m)]
                          for p, m in self._truth_masks.items()},
        }
        if designated is not None:
            doc["designated"] = designated
        return doc


@dataclass(frozen=True)
class PointedModel:
    model: KripkeModel
    point: str

    def __post_init__(self):
        if self.point not in self.model._position:
            raise ModelError(f"designated state {self.point!r} is not a state "
                             "of the model")


@dataclass(frozen=True, eq=False)
class ContractionMap:
    """Result of bisimulation contraction: quotient model plus the surjection
    from original states onto contracted states."""

    original: KripkeModel
    contracted: KripkeModel
    mapping: Mapping[str, str]


def validate(doc: dict) -> KripkeModel:
    """Build a model from a parsed document, checking the full invariant set."""
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    for field in ("agents", "props", "states", "partitions", "valuation"):
        if field not in doc:
            raise ModelError(f"model document is missing field {field!r}")
    for field in ("agents", "props", "states"):
        value = doc[field]
        if (not isinstance(value, list)
                or not all(isinstance(x, str) for x in value)):
            raise ModelError(f"field {field!r} must be a list of strings")
    if not isinstance(doc["partitions"], dict):
        raise ModelError("field 'partitions' must map agents to block lists")
    if not isinstance(doc["valuation"], dict):
        raise ModelError("field 'valuation' must map propositions to state lists")
    partitions = {}
    for agent, blocks in doc["partitions"].items():
        if (not isinstance(blocks, list)
                or not all(isinstance(b, list) for b in blocks)
                or not all(isinstance(s, str) for b in blocks for s in b)):
            raise ModelError(f"partition of agent {agent!r} must be a list of "
                             "blocks (lists of state ids)")
        partitions[agent] = blocks
    valuation = {}
    for prop, states in doc["valuation"].items():
        if (not isinstance(states, list)
                or not all(isinstance(s, str) for s in states)):
            raise ModelError(f"valuation of {prop!r} must be a list of state ids")
        valuation[prop] = frozenset(states)
    model = KripkeModel(tuple(doc["states"]), tuple(doc["agents"]),
                        tuple(doc["props"]), partitions, valuation)
    designated = doc.get("designated")
    if designated is not None and (not isinstance(designated, str)
                                   or designated not in model._position):
        raise ModelError(f"designated state {designated!r} is not a state "
                         "of the model")
    return model


def load_model(path) -> tuple:
    """Read a model file; returns (model, designated-or-None)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelError(f"model file {path}: {exc}") from exc
        except RecursionError:
            raise ModelError(f"model file {path}: nested too deeply") from None
    return validate(doc), doc.get("designated")


def save_model(path, model: KripkeModel, designated: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_doc(designated), handle, indent=2)
        handle.write("\n")


# --- bisimulation contraction -------------------------------------------------
#
# Contraction works on int masks over a model's states (state i is bit i, in
# document order). `_refine` computes the blocks; `_Quotient` names them.

def _bits(mask: int) -> list:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _refine(model: KripkeModel, kept: int) -> tuple:
    """Partition refinement of the model restricted to the states in `kept`:
    `_refine_masks` over the model's class and truth masks."""
    return _refine_masks(model._class_masks.values(),
                         model._truth_masks.values(), kept)


def _level0(truth_masks: Iterable, kept: int) -> list:
    """Level 0 of the refinement of `kept`: its states grouped by valuation
    (by the truth masks), as block masks in ascending order."""
    blocks = [kept]
    for truth in truth_masks:
        blocks = [part for b in blocks for part in (b & truth, b & ~truth)
                  if part]
    blocks.sort()
    return blocks


def _refine_masks(class_masks: Iterable, truth_masks: Iterable,
                  kept: int) -> tuple:
    """Partition refinement of the states in `kept`, given per agent the
    class masks of a partition and per proposition a truth mask.

    Returns (levels, classes). `levels` is the ladder of block-mask lists
    from valuation equality (level 0, sorted) down to the coarsest
    bisimulation: each level splits a block wherever two of its states'
    classes, for some agent, meet different blocks of the level before.
    `classes` holds, per agent in model order, the agent's classes in the
    quotient as saturated masks (the union of the blocks a class meets),
    deduplicated in partition order.

    A one-state `kept` is its own quotient: one block, one class per agent.
    `kept` must be non-empty.

    Lemma: the result reads the truth masks only through the partition of
    `kept` they induce (its states grouped by valuation). Level 0 is that
    partition, sorted (`_level0`), and every later level and the classes
    are computed from the class masks and the level before alone. So truth
    masks that induce the same partition give equal results; in particular
    the partition's own blocks, as truth masks, give the result of any
    valuation that induces it. A partition of all states fixes the one of
    every `kept`, so the exhaustive search shares all quotients among the
    candidates that induce it. The order of the levels' lists is read by no
    caller that depends on it: `_Quotient` sorts its blocks, and `chars` and
    `_bisim_key` read them through maps and ranks."""
    if not kept & (kept - 1):
        return [[kept]], [(kept,) for _ in class_masks]
    classes = [[cut for c in agent_classes if (cut := c & kept)]
               for agent_classes in class_masks]
    blocks = _level0(truth_masks, kept)
    levels = [blocks]
    while True:
        # only blocks of two or more states can split, or widen a class
        big = [b for b in blocks if b & (b - 1)]
        if not big:
            return levels, [tuple(agent_classes) for agent_classes in classes]
        saturated = []
        for agent_classes in classes:
            # classes that meet the same blocks fall into one group
            groups = {}
            for c in agent_classes:
                met = c
                for b in big:
                    if b & c:
                        met |= b
                groups[met] = groups.get(met, 0) | c
            saturated.append(groups)
        parts = big
        for groups in saturated:
            if len(groups) > 1:
                parts = [part for r in parts for g in groups.values()
                         if (part := r & g)]
        if len(parts) == len(big):
            return levels, [tuple(groups) for groups in saturated]
        blocks = [b for b in blocks if not b & (b - 1)] + parts
        levels.append(blocks)


def _bisim_key(model: KripkeModel) -> tuple:
    """Name-free key of the model's bisimulation quotient: two models over
    the same vocabulary get equal keys exactly when their quotients are
    isomorphic.

    Colour refinement over the final blocks of the model's refinement. A
    block's level-0 colour is its truth vector; at each later level, its own
    colour plus, per agent, the set of colours of the blocks in its class.
    Each level's colours are numbered by rank in sorted order, so the
    numbering is name-free too. The quotient is contracted, so the colours
    come apart; one round later, each block's truth vector and signature
    (own colour and per-agent colour sets, as bits of one int) spell out the
    quotient up to renaming."""
    q = model._whole_quotient
    blocks = q.levels[-1]
    n = len(blocks)
    truths = [0] * n
    for j, truth in enumerate(model._truth_masks.values()):
        for i, b in enumerate(blocks):
            if b & truth:
                truths[i] |= 1 << j
    around = []  # per agent, per block: the positions of its class's blocks
    for agent_classes in q.classes.values():
        at = [None] * n
        for c in agent_classes:
            inside = [i for i, b in enumerate(blocks) if b & c]
            for i in inside:
                at[i] = inside
        around.append(at)
    rank = {t: r for r, t in enumerate(sorted(set(truths)))}
    colour = [rank[t] for t in truths]
    while True:
        signatures = []
        for i in range(n):
            signature = 1 << colour[i]
            shift = n
            for at in around:
                for j in at[i]:
                    signature |= 1 << (colour[j] + shift)
                shift += n
            signatures.append(signature)
        if len(rank) == n:
            return tuple(sorted(zip(truths, signatures)))
        distinct = sorted(set(signatures))
        if len(distinct) == len(rank):
            raise AssertionError("the blocks of a contracted model must separate")
        rank = {s: r for r, s in enumerate(distinct)}
        colour = [rank[s] for s in signatures]


class _Quotient:
    """A restriction of a model to the states of a mask, contracted: the one
    form in which the evaluator and the contraction API hold it, and the one
    place where blocks get their names.

    Built from `_refine`'s result. `kept` is the restriction's state set and
    `levels` its refinement ladder. A block of the coarsest bisimulation is
    named by its lowest state, its rep: `blocks` lists (rep, block) pairs
    ordered by rep, `reps` is the mask of the reps, and `rep_of` maps each
    kept state to the rep of its block. `classes` holds each agent's classes,
    in model order, as unions of blocks. The contracted restriction's states
    are the reps, in ascending order.
    It holds no valuation, so models that refine `kept` alike may share it;
    `chars` reads the truth masks it is given, `decode` the valuation of the
    model it is given.
    `firsts` caches `first_sets` per group and `unions` each agent's class
    unions per (agent, class position) (`Evaluator._options`): structure
    too, so shared alike, by every evaluator that holds the quotient.
    """

    __slots__ = ("kept", "levels", "blocks", "reps", "rep_of", "classes",
                 "firsts", "unions")

    def __init__(self, model: KripkeModel, kept: int, refined: tuple):
        levels, classes = refined
        self.kept = kept
        self.levels = levels
        self.rep_of = list(range(len(model.states)))
        self.blocks = sorted(((b & -b).bit_length() - 1, b)
                             for b in levels[-1])
        self.reps = 0
        for rep, block in self.blocks:
            self.reps |= 1 << rep
            for i in _bits(block ^ 1 << rep):
                self.rep_of[i] = rep
        self.classes = dict(zip(model.agents, classes))
        self.firsts = {}
        self.unions = {}

    def reps_meeting(self, mask: int) -> int:
        """Reps of the blocks that meet a mask of kept states."""
        if self.reps == self.kept:
            return mask
        out = 0
        for i in _bits(mask):
            out |= 1 << self.rep_of[i]
        return out

    def first_sets(self, group: frozenset) -> list:
        """Each rep's first set for the group, at the rep's index: the
        intersection of the members' classes that hold the rep (the whole
        restriction for the empty group). Built once per group."""
        table = self.firsts.get(group)
        if table is None:
            table = [self.kept] * len(self.rep_of)
            for agent, agent_classes in self.classes.items():
                if agent in group:
                    for c in agent_classes:
                        for r in _bits(c & self.reps):
                            table[r] &= c
            self.firsts[group] = table
        return table

    def chars(self, truths: Mapping[str, int]) -> dict:
        """Rep -> characteristic formula: a purely epistemic formula whose
        extension in the contracted restriction is exactly the rep, where
        `truths` holds each proposition's truth mask, in model order, of a
        model that refines `kept` as this quotient says. Built from the
        ladder: two reps are told apart at the first level that separates
        them, by the first proposition in model order on which they differ
        (level 0) or else by the first agent in model order whose classes
        meet different blocks of the level before."""
        reps = self.reps
        # per level, rep -> its block; per agent, rep -> the reps of its class
        block_at = [{r: b for b in level for r in _bits(b & reps)}
                    for level in self.levels]
        peers = [(agent, {r: c & reps for c in agent_classes
                          for r in _bits(c & reps)})
                 for agent, agent_classes in self.classes.items()]
        memo = {}

        def delta(s, t):
            """Purely epistemic formula true at s and false at t."""
            out = memo.get((s, t))
            if out is not None:
                return out
            k = 0
            while block_at[k][s] == block_at[k][t]:
                k += 1
            if k == 0:
                p, truth = next((p, truth) for p, truth in truths.items()
                                if (truth >> s ^ truth >> t) & 1)
                out = Atom(p) if truth >> s & 1 else Not(Atom(p))
            else:
                prev = block_at[k - 1]
                for agent, at in peers:
                    met_s = {prev[u] for u in _bits(at[s])}
                    met_t = {prev[u] for u in _bits(at[t])}
                    if met_s != met_t:
                        break
                # one side's class meets a block the other's does not: take
                # the lowest such block, and the lowest rep of the class in it
                here, there, extra = ((s, t, met_s - met_t) if met_s - met_t
                                      else (t, s, met_t - met_s))
                inside = at[here] & min(extra, key=lambda b: b & -b)
                u = (inside & -inside).bit_length() - 1
                out = Know(agent, Not(conjoin(delta(u, v)
                                              for v in _bits(at[there]))))
                if here == s:
                    out = Not(out)
            memo[s, t] = out
            return out

        chars = {}
        for s in _bits(reps):
            parts = [delta(s, t) for t in _bits(reps) if t != s]
            chars[s] = conjoin(parts) if parts else Top()
        # the recursive closure refers to itself through its cell: emptying
        # the cell frees it without the cycle collector
        del delta
        return chars

    def part(self, chars: dict, agent: str, mask: int) -> Formula:
        """One member's announcement: that the agent knows the disjunction
        of the characteristic formulas (`chars`) of the reps in `mask`, a
        union of the agent's classes."""
        for c in self.classes[agent]:
            if c & mask and c & mask != c:
                raise ModelError(f"choice for agent {agent!r} is not a union "
                                 f"of that agent's equivalence classes")
        return Know(agent, disjoin(chars[r] for r in _bits(mask & self.reps)))

    def decode(self, model: KripkeModel) -> KripkeModel:
        """The contracted restriction of the model, states named by reps:
        the reps, in ascending order, re-indexed as bits 0, 1, ... of its
        masks."""
        order = _bits(self.reps)
        index = {r: j for j, r in enumerate(order)}

        def packed(mask):
            out = 0
            for r in _bits(mask & self.reps):
                out |= 1 << index[r]
            return out

        return KripkeModel._from_masks(
            tuple(model.states[r] for r in order), model.agents, model.props,
            {agent: tuple(packed(c) for c in agent_classes)
             for agent, agent_classes in self.classes.items()},
            {p: packed(truth) for p, truth in model._truth_masks.items()})


def is_contracted(model: KripkeModel) -> bool:
    """Whether no two distinct states are bisimilar."""
    return len(model._whole_quotient.blocks) == len(model.states)


def bisim_contract(model: KripkeModel) -> ContractionMap:
    """Quotient by the coarsest bisimulation respecting the valuation and all
    agent relations. Contracted states are named by their first original
    state in document order. An already contracted model is its own
    quotient, under the identity mapping."""
    quotient = model._whole_quotient
    names = model.states
    contracted = model if is_contracted(model) else quotient.decode(model)
    return ContractionMap(model, contracted,
                          {s: names[r] for s, r in zip(names, quotient.rep_of)})


# --- characteristic formulas ---------------------------------------------------

def _contracted(model: KripkeModel) -> dict:
    if not is_contracted(model):
        raise ModelError("model is not bisimulation-contracted; distinct "
                         "bisimilar states admit no distinguishing formula")
    return model._chars


def char_formula(model: KripkeModel, state: str) -> Formula:
    """Epistemic formula whose extension in a contracted model is exactly
    the given state."""
    if state not in model._position:
        raise ModelError(f"unknown state {state!r}")
    return _contracted(model)[model._position[state]]


def realize_choice(model: KripkeModel, w: str, group: Iterable[str],
                   choice: Mapping[str, frozenset]) -> Formula:
    """Joint announcement formula denoting the given choice: one knowledge
    conjunct per group member, each with extension exactly the member's set.

    Requires a contracted model; each member's set must be a union of that
    member's equivalence classes.
    """
    if w not in model._position:
        raise ModelError(f"unknown state {w!r}")
    members = frozenset(group)
    unknown = members - set(model.agents)
    if unknown:
        raise ModelError(f"choice mentions unknown agents {sorted(unknown)}")

    def masks():
        for agent in model.agents:
            if agent not in members:
                continue
            if agent not in choice:
                raise ModelError(f"choice is missing group member {agent!r}")
            mask = 0
            for s in choice[agent]:
                i = model._position.get(s)
                if i is None:
                    raise ModelError(f"choice for agent {agent!r} mentions "
                                     f"unknown states")
                mask |= 1 << i
            yield agent, mask

    q, chars = model._whole_quotient, _contracted(model)
    return conjoin(q.part(chars, agent, mask) for agent, mask in masks())


# --- DOT export -----------------------------------------------------------------

def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(model: KripkeModel) -> str:
    """Undirected DOT graph: one node per state labeled with its true
    propositions; one edge per non-reflexive related pair labeled with the
    agents that relate it. Reflexive edges are omitted."""
    lines = ["graph model {"]
    for s in model.states:
        props = " ".join(model.props_at(s))
        label = f"{s}: {props}" if props else s
        lines.append(f"  {_dot_quote(s)} [label={_dot_quote(label)}];")
    for i, s in enumerate(model.states):
        for j in range(i + 1, len(model.states)):
            t = model.states[j]
            agents = [a for a in model.agents if model._class_at[a][i] >> j & 1]
            if agents:
                lines.append(f"  {_dot_quote(s)} -- {_dot_quote(t)} "
                             f"[label={_dot_quote(','.join(agents))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
