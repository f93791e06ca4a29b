"""Finite S5 epistemic models.

Validation of model documents, announcement updates, bisimulation
contraction by partition refinement, characteristic formulas on contracted
models, realization of announcement choices as epistemic formulas, and DOT
export.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .formula import (
    Atom, Formula, Know, Not, Top,
    conjoin, disjoin, _require_ident,
)

__all__ = [
    "KripkeModel", "PointedModel", "ContractionMap", "ModelError",
    "validate", "load_model", "save_model", "update", "bisim_contract",
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
        for a in self.agents:
            _require_ident(a, "agent")
        for p in self.props:
            _require_ident(p, "proposition")
        if set(self.partitions) != set(self.agents):
            raise ModelError("partitions must cover exactly the agent set")
        class_index = {}
        class_masks = {}
        class_at = {}
        for agent in self.agents:
            index = {}
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
                    if s in index:
                        raise ModelError(f"overlapping partition blocks for agent "
                                         f"{agent!r} at state {s!r}")
                    index[s] = block
                    mask |= 1 << i
                masks.append(mask)
                for s in block:
                    at[position[s]] = mask
            if len(index) != len(position):
                missing = sorted(set(position) - set(index))
                raise ModelError(f"partition of agent {agent!r} does not cover "
                                 f"states {missing}")
            class_index[agent] = index
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
        object.__setattr__(self, "_class_index", class_index)
        object.__setattr__(self, "_state_set", frozenset(position))
        # State i is bit i; every class and truth set as an int mask, and
        # per agent the class mask of each state.
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_class_masks", class_masks)
        object.__setattr__(self, "_class_at", class_at)
        object.__setattr__(self, "_truth_masks", truth_masks)

    def class_of(self, agent: str, state: str) -> frozenset:
        """Equivalence class of the state under the agent's relation."""
        return self._class_index[agent][state]

    def props_at(self, state: str) -> tuple:
        """Propositions true at the state, in document order."""
        return tuple(p for p in self.props
                     if state in self.valuation.get(p, frozenset()))

    def truth_set(self, prop: str) -> frozenset:
        return self.valuation.get(prop, frozenset())

    def update(self, keep: Iterable[str]) -> "KripkeModel":
        """Restriction to a non-empty subset of states.

        Partition blocks are intersected with the kept set (empty
        intersections dropped) and the valuation is restricted.
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
        except json.JSONDecodeError as exc:
            raise ModelError(f"model file {path}: {exc}") from exc
    return validate(doc), doc.get("designated")


def save_model(path, model: KripkeModel, designated: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_doc(designated), handle, indent=2)
        handle.write("\n")


def update(model: KripkeModel, keep: Iterable[str]) -> KripkeModel:
    return model.update(keep)


# --- bisimulation contraction -------------------------------------------------
#
# Contraction works on int masks over a model's states (state i is bit i, in
# document order). A block of the coarsest bisimulation is named after its
# lowest state, so block order by lowest bit is the document order of the
# contracted states.

def _bits(mask: int) -> list:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _refine(model: KripkeModel, kept: int) -> tuple:
    """Partition refinement of the model restricted to the states in `kept`.

    Returns (levels, classes). `levels` is the ladder of block-mask lists
    from valuation equality (level 0) down to the coarsest bisimulation: each
    level splits a block wherever two of its states' classes, for some agent,
    meet different blocks of the level before. `classes` holds, per agent in
    model order, the agent's classes in the quotient as saturated masks (the
    union of the blocks a class meets), deduplicated in partition order."""
    classes = [[cut for c in agent_classes if (cut := c & kept)]
               for agent_classes in model._class_masks.values()]
    blocks = [kept]
    for truth in model._truth_masks.values():
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


def _refinement(model: KripkeModel) -> tuple:
    """`_refine` over every state of the model, computed once per model."""
    try:
        return model._refinement
    except AttributeError:
        refined = _refine(model, (1 << len(model.states)) - 1)
        object.__setattr__(model, "_refinement", refined)
        return refined


def _bisim_key(model: KripkeModel) -> tuple:
    """Name-free key of the model's bisimulation quotient: two models over
    the same vocabulary get equal keys exactly when their quotients are
    isomorphic.

    Colour refinement over the final blocks of `_refinement`. A block's
    level-0 colour is its truth vector; at each later level, its own colour
    plus, per agent, the set of colours of the blocks in its class. Each
    level's colours are numbered by rank in sorted order, so the numbering is
    name-free too. The quotient is contracted, so the colours come apart;
    one round later, each block's truth vector and signature (own colour and
    per-agent colour sets, as bits of one int) spell out the quotient up to
    renaming."""
    levels, classes = _refinement(model)
    blocks = levels[-1]
    n = len(blocks)
    truths = [0] * n
    for j, truth in enumerate(model._truth_masks.values()):
        for i, b in enumerate(blocks):
            if b & truth:
                truths[i] |= 1 << j
    around = []  # per agent, per block: the positions of its class's blocks
    for agent_classes in classes:
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


def _quotient(model: KripkeModel, blocks: list, classes: list) -> KripkeModel:
    """The quotient named by lowest states, from `_refine`'s final blocks and
    classes; the model itself when every state is its own block."""
    if len(blocks) == len(model.states):
        return model
    reps = 0
    for b in blocks:
        reps |= b & -b
    names = model.states

    def decode(mask):
        return frozenset(names[i] for i in _bits(mask & reps))

    partitions = {agent: tuple(decode(c) for c in agent_classes)
                  for agent, agent_classes in zip(model.agents, classes)}
    valuation = {p: decode(truth) for p, truth in model._truth_masks.items()}
    return KripkeModel(tuple(names[i] for i in _bits(reps)), model.agents,
                       model.props, partitions, valuation)


def bisim_contract(model: KripkeModel) -> ContractionMap:
    """Quotient by the coarsest bisimulation respecting the valuation and all
    agent relations. Contracted states are named by their first original
    state in document order. An already contracted model is its own
    quotient, under the identity mapping."""
    levels, classes = _refinement(model)
    blocks = levels[-1]
    rep_of = [0] * len(model.states)
    for b in blocks:
        rep = model.states[(b & -b).bit_length() - 1]
        for i in _bits(b):
            rep_of[i] = rep
    return ContractionMap(model, _quotient(model, blocks, classes),
                          dict(zip(model.states, rep_of)))


def is_contracted(model: KripkeModel) -> bool:
    """Whether no two distinct states are bisimilar."""
    return len(_refinement(model)[0][-1]) == len(model.states)


# --- characteristic formulas ---------------------------------------------------

_CHAR_CACHE = weakref.WeakKeyDictionary()


def _char_table(model: KripkeModel) -> dict:
    try:
        return _CHAR_CACHE[model]
    except KeyError:
        pass
    if not is_contracted(model):
        raise ModelError("model is not bisimulation-contracted; distinct "
                         "bisimilar states admit no distinguishing formula")
    # per level, state -> block id, blocks numbered by lowest state
    levels = []
    for level in _refinement(model)[0]:
        ids = {}
        for k, b in enumerate(sorted(level, key=lambda b: b & -b)):
            for i in _bits(b):
                ids[model.states[i]] = k
        levels.append(ids)
    memo = {}

    def sep_level(s, t):
        for k, level in enumerate(levels):
            if level[s] != level[t]:
                return k
        raise AssertionError("contracted states must separate")

    def delta(s, t):
        """Purely epistemic formula true at s and false at t."""
        key = (s, t)
        if key in memo:
            return memo[key]
        k = sep_level(s, t)
        if k == 0:
            for p in model.props:
                extent = model.truth_set(p)
                if (s in extent) != (t in extent):
                    out = Atom(p) if s in extent else Not(Atom(p))
                    break
            else:
                raise AssertionError("level-0 separation must be propositional")
        else:
            prev = levels[k - 1]
            out = None
            for agent in model.agents:
                met_s = {prev[u] for u in model.class_of(agent, s)}
                met_t = {prev[u] for u in model.class_of(agent, t)}
                if met_s == met_t:
                    continue
                extra = sorted(met_s - met_t)
                if extra:
                    u = _first_in_block(model, agent, s, prev, extra[0])
                    inner = conjoin(delta(u, t2) for t2 in _ordered(model, model.class_of(agent, t)))
                    out = Not(Know(agent, Not(inner)))
                else:
                    extra = sorted(met_t - met_s)
                    u = _first_in_block(model, agent, t, prev, extra[0])
                    inner = conjoin(delta(u, s2) for s2 in _ordered(model, model.class_of(agent, s)))
                    out = Know(agent, Not(inner))
                break
            if out is None:
                raise AssertionError("separated states must differ for some agent")
        memo[key] = out
        return out

    table = {}
    for s in model.states:
        parts = [delta(s, t) for t in model.states if t != s]
        table[s] = conjoin(parts) if parts else Top()
    _CHAR_CACHE[model] = table
    return table


def _ordered(model, block):
    return [s for s in model.states if s in block]


def _first_in_block(model, agent, state, level, block_id):
    for u in _ordered(model, model.class_of(agent, state)):
        if level[u] == block_id:
            return u
    raise AssertionError("block id must be met by the class")


def char_formula(model: KripkeModel, state: str) -> Formula:
    """Epistemic formula whose extension in a contracted model is exactly
    the given state."""
    if state not in model._state_set:
        raise ModelError(f"unknown state {state!r}")
    return _char_table(model)[state]


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
    table = _char_table(model)  # also enforces contractedness
    parts = []
    for agent in model.agents:
        if agent not in members:
            continue
        if agent not in choice:
            raise ModelError(f"choice is missing group member {agent!r}")
        chosen = frozenset(choice[agent])
        if chosen - model._state_set:
            raise ModelError(f"choice for agent {agent!r} mentions unknown states")
        for block in model.partitions[agent]:
            if block & chosen and not block <= chosen:
                raise ModelError(f"choice for agent {agent!r} is not a union of "
                                 f"that agent's equivalence classes")
        body = disjoin(table[s] for s in model.states if s in chosen)
        parts.append(Know(agent, body))
    return conjoin(parts) if parts else Top()


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
        for t in model.states[i + 1:]:
            agents = [a for a in model.agents if t in model.class_of(a, s)]
            if agents:
                lines.append(f"  {_dot_quote(s)} -- {_dot_quote(t)} "
                             f"[label={_dot_quote(','.join(agents))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
