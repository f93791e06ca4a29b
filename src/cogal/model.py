"""Finite S5 epistemic models.

Validation of model documents, announcement updates, bisimulation
contraction by partition refinement, characteristic formulas on contracted
models, realization of announcement choices as epistemic formulas, and DOT
export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .formula import (
    Atom, Formula, Know, Not, Top,
    conjoin, disjoin, _require_ident,
)

__all__ = [
    "KripkeModel", "PointedModel", "ContractionMap", "ModelError",
    "validate", "load_model", "save_model", "bisim_contract",
    "is_contracted", "char_formula", "realize_choice", "to_dot",
]


class ModelError(ValueError):
    """Invalid model document or an operation violating a model precondition."""


@dataclass(frozen=True, eq=False)
class KripkeModel:
    """Finite S5 model: ordered states, one partition per agent, valuation.

    All collections iterate in document order. Instances are immutable and
    compared by identity; use `to_doc` for structural comparison.
    """

    states: tuple
    agents: tuple
    props: tuple
    partitions: Mapping[str, tuple]
    valuation: Mapping[str, frozenset]

    def __post_init__(self):
        if not self.states:
            raise ModelError("empty model: the state set must be non-empty")
        position = {s: i for i, s in enumerate(self.states)}
        if len(position) != len(self.states):
            raise ModelError("duplicate state identifiers")
        if len(set(self.agents)) != len(self.agents):
            raise ModelError("duplicate agent identifiers")
        if len(set(self.props)) != len(self.props):
            raise ModelError("duplicate proposition identifiers")
        try:
            for a in self.agents:
                _require_ident(a, "agent")
            for p in self.props:
                _require_ident(p, "proposition")
        except ValueError as exc:
            raise ModelError(str(exc)) from None
        if set(self.partitions) != set(self.agents):
            raise ModelError("partitions must cover exactly the agent set")
        class_masks = {}
        class_at = {}
        for agent in self.agents:
            masks = []
            at = [0] * len(position)
            for block in self.partitions[agent]:
                if not block:
                    raise ModelError(f"empty partition block for agent {agent!r}")
                mask = 0
                for s in block:
                    i = position.get(s)
                    if i is None:
                        raise ModelError(f"partition of agent {agent!r} mentions "
                                         f"unknown state {s!r}")
                    if at[i]:
                        raise ModelError(f"overlapping partition blocks for agent "
                                         f"{agent!r} at state {s!r}")
                    mask |= 1 << i
                masks.append(mask)
                for s in block:
                    at[position[s]] = mask
            if not all(at):
                missing = sorted(s for s, i in position.items() if not at[i])
                raise ModelError(f"partition of agent {agent!r} does not cover "
                                 f"states {missing}")
            class_masks[agent] = tuple(masks)
            class_at[agent] = at
        truth_masks = dict.fromkeys(self.props, 0)
        for prop, extent in self.valuation.items():
            if prop not in truth_masks:
                raise ModelError(f"valuation mentions unknown proposition {prop!r}")
            for s in extent:
                if s not in position:
                    raise ModelError(f"valuation of {prop!r} mentions unknown "
                                     f"state {s!r}")
                truth_masks[prop] |= 1 << position[s]
        object.__setattr__(self, "_state_set", frozenset(position))
        # State i is bit i; every class and truth set as an int mask, and
        # per agent the class mask of each state.
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_class_masks", class_masks)
        object.__setattr__(self, "_class_at", class_at)
        object.__setattr__(self, "_truth_masks", truth_masks)

    def class_of(self, agent: str, state: str) -> frozenset:
        """Equivalence class of the state under the agent's relation."""
        names = self.states
        return frozenset(names[i] for i in
                         _bits(self._class_at[agent][self._position[state]]))

    def props_at(self, state: str) -> tuple:
        """Propositions true at the state, in document order."""
        return tuple(p for p in self.props
                     if state in self.valuation.get(p, frozenset()))

    def truth_set(self, prop: str) -> frozenset:
        return self.valuation.get(prop, frozenset())

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
        unknown = kept - self._state_set
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
        valuation = {p: self.valuation.get(p, frozenset()) & kept
                     for p in self.props}
        return KripkeModel(states, self.agents, self.props, partitions, valuation)

    def to_doc(self, designated: Optional[str] = None) -> dict:
        """JSON-ready document in the external model-file format."""
        doc = {
            "agents": list(self.agents),
            "props": list(self.props),
            "states": list(self.states),
            "partitions": {
                agent: [[s for s in self.states if s in block]
                        for block in self.partitions[agent]]
                for agent in self.agents
            },
            "valuation": {
                p: [s for s in self.states
                    if s in self.valuation.get(p, frozenset())]
                for p in self.props
            },
        }
        if designated is not None:
            doc["designated"] = designated
        return doc


@dataclass(frozen=True)
class PointedModel:
    model: KripkeModel
    point: str

    def __post_init__(self):
        if self.point not in self.model._state_set:
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
        partitions[agent] = tuple(frozenset(b) for b in blocks)
        for block, raw in zip(partitions[agent], blocks):
            if len(block) != len(raw):
                raise ModelError(f"partition block {raw} of agent {agent!r} "
                                 "repeats a state")
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
                                   or designated not in model._state_set):
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


def _refine_masks(class_masks: Iterable, truth_masks: Iterable,
                  kept: int) -> tuple:
    """Partition refinement of the states in `kept`, given per agent the
    class masks of a partition and per proposition a truth mask.

    Returns (levels, classes). `levels` is the ladder of block-mask lists
    from valuation equality (level 0) down to the coarsest bisimulation: each
    level splits a block wherever two of its states' classes, for some agent,
    meet different blocks of the level before. `classes` holds, per agent in
    model order, the agent's classes in the quotient as saturated masks (the
    union of the blocks a class meets), deduplicated in partition order."""
    classes = [[cut for c in agent_classes if (cut := c & kept)]
               for agent_classes in class_masks]
    blocks = [kept]
    for truth in truth_masks:
        blocks = [part for b in blocks for part in (b & truth, b & ~truth)
                  if part]
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
    q = _whole_quotient(model)
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
    """

    __slots__ = ("kept", "levels", "blocks", "reps", "rep_of", "classes",
                 "_names", "_truth", "_chars")

    def __init__(self, model: KripkeModel, kept: int, refined: tuple):
        levels, classes = refined
        self.kept = kept
        self.levels = levels
        self.blocks = sorted(((b & -b).bit_length() - 1, b) for b in levels[-1])
        self.reps = 0
        self.rep_of = list(range(len(model.states)))
        for rep, block in self.blocks:
            self.reps |= 1 << rep
            for i in _bits(block ^ 1 << rep):
                self.rep_of[i] = rep
        self.classes = dict(zip(model.agents, classes))
        self._names = model.states
        self._truth = model._truth_masks
        self._chars = None

    def reps_meeting(self, mask: int) -> int:
        """Reps of the blocks that meet a mask of kept states."""
        if self.reps == self.kept:
            return mask
        out = 0
        for i in _bits(mask):
            out |= 1 << self.rep_of[i]
        return out

    def chars(self) -> dict:
        """Rep -> characteristic formula: a purely epistemic formula whose
        extension in the contracted restriction is exactly the rep. Built
        once, from the ladder: two reps are told apart at the first level
        that separates them, by the first proposition in model order on
        which they differ (level 0) or else by the first agent in model
        order whose classes meet different blocks of the level before."""
        if self._chars is not None:
            return self._chars
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
                p, truth = next((p, truth) for p, truth in self._truth.items()
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

        self._chars = {}
        for s in _bits(reps):
            parts = [delta(s, t) for t in _bits(reps) if t != s]
            self._chars[s] = conjoin(parts) if parts else Top()
        return self._chars

    def realize(self, pairs: Iterable) -> Formula:
        """The announcement formula of a choice given as (agent, mask)
        pairs, each mask a union of the agent's classes: one knowledge
        conjunct per pair, in order, each the disjunction of the
        characteristic formulas of the reps in its mask."""
        parts = []
        for agent, mask in pairs:
            for c in self.classes[agent]:
                if c & mask and c & mask != c:
                    raise ModelError(f"choice for agent {agent!r} is not a union "
                                     f"of that agent's equivalence classes")
            chars = self.chars()
            parts.append(Know(agent, disjoin(chars[r]
                                             for r in _bits(mask & self.reps))))
        return conjoin(parts) if parts else Top()

    def decode(self) -> KripkeModel:
        """The contracted restriction as a model, states named by reps."""
        names, reps = self._names, self.reps

        def named(mask):
            return frozenset(names[i] for i in _bits(mask & reps))

        partitions = {agent: tuple(named(c) for c in agent_classes)
                      for agent, agent_classes in self.classes.items()}
        valuation = {p: named(truth) for p, truth in self._truth.items()}
        return KripkeModel(tuple(names[i] for i in _bits(reps)),
                           tuple(self.classes), tuple(self._truth),
                           partitions, valuation)


def _whole_quotient(model: KripkeModel, refined: Optional[tuple] = None
                    ) -> _Quotient:
    """The quotient of the whole model, built once per model: evaluators of
    the model, the public contraction API and `_bisim_key` share it and its
    characteristic formulas. `refined`, when given, is the model's
    refinement as `_refine_masks` computed it from the masks the model was
    built from; it spares refining the model again."""
    try:
        return model._whole_quotient
    except AttributeError:
        whole = (1 << len(model.states)) - 1
        quotient = _Quotient(model, whole, refined or _refine(model, whole))
        object.__setattr__(model, "_whole_quotient", quotient)
        return quotient


def is_contracted(model: KripkeModel) -> bool:
    """Whether no two distinct states are bisimilar."""
    return len(_whole_quotient(model).blocks) == len(model.states)


def bisim_contract(model: KripkeModel) -> ContractionMap:
    """Quotient by the coarsest bisimulation respecting the valuation and all
    agent relations. Contracted states are named by their first original
    state in document order. An already contracted model is its own
    quotient, under the identity mapping."""
    quotient = _whole_quotient(model)
    names = model.states
    contracted = model if is_contracted(model) else quotient.decode()
    return ContractionMap(model, contracted,
                          {s: names[r] for s, r in zip(names, quotient.rep_of)})


# --- characteristic formulas ---------------------------------------------------

def _contracted(model: KripkeModel) -> _Quotient:
    if not is_contracted(model):
        raise ModelError("model is not bisimulation-contracted; distinct "
                         "bisimilar states admit no distinguishing formula")
    return _whole_quotient(model)


def char_formula(model: KripkeModel, state: str) -> Formula:
    """Epistemic formula whose extension in a contracted model is exactly
    the given state."""
    if state not in model._state_set:
        raise ModelError(f"unknown state {state!r}")
    return _contracted(model).chars()[model._position[state]]


def realize_choice(model: KripkeModel, w: str, group: Iterable[str],
                   choice: Mapping[str, frozenset]) -> Formula:
    """Joint announcement formula denoting the given choice: one knowledge
    conjunct per group member, each with extension exactly the member's set.

    Requires a contracted model; each member's set must be a union of that
    member's equivalence classes.
    """
    if w not in model._state_set:
        raise ModelError(f"unknown state {w!r}")
    members = frozenset(group)
    unknown = members - set(model.agents)
    if unknown:
        raise ModelError(f"choice mentions unknown agents {sorted(unknown)}")
    quotient = _contracted(model)

    def masks():
        for agent in model.agents:
            if agent not in members:
                continue
            if agent not in choice:
                raise ModelError(f"choice is missing group member {agent!r}")
            chosen = frozenset(choice[agent])
            if chosen - model._state_set:
                raise ModelError(f"choice for agent {agent!r} mentions "
                                 f"unknown states")
            mask = 0
            for s in chosen:
                mask |= 1 << model._position[s]
            yield agent, mask

    return quotient.realize(masks())


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
