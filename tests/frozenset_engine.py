"""The frozenset evaluation engine that preceded the bitmask one, kept as a
test oracle.

Restrictions here are validated `KripkeModel`s built by `update` and
contracted by signature refinement over state names; choice sets are
frozensets of state names; characteristic formulas come from this module's
own refinement ladder. `tests/test_engine_differential.py` checks the
library's engine against it: truth, extensions, verdict documents with their
witness order and formulas, certificates and contraction maps.

Its choice layer (`class_unions`, `group_choices`, `choice_intersection`)
is the reference the tests read choices from: the engine's own enumerator,
`checker._unions` with `checker._distinct_sets`, works on masks only.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional

from cogal.checker import (
    AnnouncementChoice, CertificateLog, Verdict, _check_bound,
)
from cogal.formula import (
    And, Atom, Bot, CoalBox, CoalDia, Formula, GroupBox, GroupDia, Iff, Imp,
    Know, Not, Or, PaBox, PaDia, Top, _vocab_mask, conjoin, disjoin,
)
from cogal.model import ContractionMap, KripkeModel, ModelError

_TRIVIAL_RESPONSE = ((None, None),)


# --- contraction ---------------------------------------------------------------

def refinement_levels(model: KripkeModel) -> list:
    """Partition-refinement ladder: state -> block id per level, from
    valuation equality down to the coarsest bisimulation. Block ids are
    numbered by first appearance in document order."""
    signature = {s: model.props_at(s) for s in model.states}
    levels = [_blocks_by_signature(model.states, signature)]
    while True:
        current = levels[-1]
        signature = {
            s: (current[s],)
            + tuple(frozenset(current[t] for t in model.class_of(a, s))
                    for a in model.agents)
            for s in model.states
        }
        refined = _blocks_by_signature(model.states, signature)
        if len(set(refined.values())) == len(set(current.values())):
            return levels
        levels.append(refined)


def _blocks_by_signature(states, signature) -> dict:
    ids = {}
    out = {}
    for s in states:
        sig = signature[s]
        if sig not in ids:
            ids[sig] = len(ids)
        out[s] = ids[sig]
    return out


def bisim_contract(model: KripkeModel) -> ContractionMap:
    final = refinement_levels(model)[-1]
    if len(set(final.values())) == len(model.states):
        return ContractionMap(model, model, {s: s for s in model.states})
    rep_of_block = {}
    for s in model.states:
        rep_of_block.setdefault(final[s], s)
    mapping = {s: rep_of_block[final[s]] for s in model.states}
    reps = tuple(s for s in model.states if mapping[s] == s)
    partitions = {}
    for agent in model.agents:
        blocks = []
        seen = set()
        for block in model.partitions[agent]:
            image = frozenset(mapping[t] for t in block)
            if image not in seen:
                seen.add(image)
                blocks.append(image)
        partitions[agent] = tuple(blocks)
    valuation = {p: frozenset(mapping[s] for s in model.valuation.get(p, frozenset()))
                 for p in model.props}
    contracted = KripkeModel(reps, model.agents, model.props, partitions, valuation)
    return ContractionMap(model, contracted, mapping)


# --- characteristic formulas and realization -----------------------------------

def char_table(model: KripkeModel) -> dict:
    levels = refinement_levels(model)
    if len(set(levels[-1].values())) != len(model.states):
        raise ModelError("model is not bisimulation-contracted; distinct "
                         "bisimilar states admit no distinguishing formula")
    memo = {}

    def ordered(block):
        return [s for s in model.states if s in block]

    def first_in_block(agent, state, level, block_id):
        for u in ordered(model.class_of(agent, state)):
            if level[u] == block_id:
                return u
        raise AssertionError("block id must be met by the class")

    def delta(s, t):
        key = (s, t)
        if key in memo:
            return memo[key]
        k = next(k for k, level in enumerate(levels) if level[s] != level[t])
        if k == 0:
            for p in model.props:
                extent = model.truth_set(p)
                if (s in extent) != (t in extent):
                    out = Atom(p) if s in extent else Not(Atom(p))
                    break
        else:
            prev = levels[k - 1]
            for agent in model.agents:
                met_s = {prev[u] for u in model.class_of(agent, s)}
                met_t = {prev[u] for u in model.class_of(agent, t)}
                if met_s == met_t:
                    continue
                extra = sorted(met_s - met_t)
                if extra:
                    u = first_in_block(agent, s, prev, extra[0])
                    inner = conjoin(delta(u, t2) for t2 in ordered(model.class_of(agent, t)))
                    out = Not(Know(agent, Not(inner)))
                else:
                    extra = sorted(met_t - met_s)
                    u = first_in_block(agent, t, prev, extra[0])
                    inner = conjoin(delta(u, s2) for s2 in ordered(model.class_of(agent, s)))
                    out = Know(agent, Not(inner))
                break
        memo[key] = out
        return out

    table = {}
    for s in model.states:
        parts = [delta(s, t) for t in model.states if t != s]
        table[s] = conjoin(parts) if parts else Top()
    return table


def realize_choice(model: KripkeModel, w: str, group, choice) -> Formula:
    members = frozenset(group)
    table = char_table(model)
    parts = []
    for agent in model.agents:
        if agent not in members:
            continue
        chosen = frozenset(choice[agent])
        for block in model.partitions[agent]:
            if block & chosen and not block <= chosen:
                raise ModelError(f"choice for agent {agent!r} is not a union of "
                                 f"that agent's equivalence classes")
        parts.append(Know(agent, disjoin(table[s] for s in model.states
                                         if s in chosen)))
    return conjoin(parts) if parts else Top()


# --- choices ---------------------------------------------------------------------

def choice_intersection(model: KripkeModel, choice: AnnouncementChoice) -> frozenset:
    """Update set denoted by a choice: intersection of the per-agent sets,
    the full state set for the empty choice."""
    out = frozenset(model.states)
    for part in choice.values():
        out &= part
    return out


def class_unions(model: KripkeModel, agent: str, w: Optional[str] = None) -> list:
    """Unions of the agent's equivalence classes, ordered by increasing
    cardinality, ties broken by the positions of the blocks combined.

    With a state `w`, only the unions containing w's class: the extensions
    of what the agent can truthfully announce at w. Without, every union,
    the empty one included: the extensions of all the agent's knowledge
    formulas."""
    if agent not in model.partitions:
        raise ModelError(f"unknown agent {agent!r}")
    if w is not None and w not in model._state_set:
        raise ModelError(f"unknown state {w!r}")
    blocks = model.partitions[agent]
    if w is None:
        base = frozenset()
        free = list(enumerate(blocks))
    else:
        base = model.class_of(agent, w)
        free = [(i, b) for i, b in enumerate(blocks) if b != base]
    options = []
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            union = base
            for _, b in combo:
                union |= b
            options.append((len(union), tuple(i for i, _ in combo), union))
    options.sort(key=lambda item: (item[0], item[1]))
    return [union for _, _, union in options]


def group_choices(model: KripkeModel, w: Optional[str],
                  group) -> Iterator[AnnouncementChoice]:
    """Enumerate every truthful announcement choice of the group at w:
    per member, the unions of that member's classes containing w's class.
    Without a state, every choice: per member, every union of its classes,
    the empty one included. Deterministic order; agents iterate in model
    order with the last agent varying fastest. The empty group yields the
    single trivial choice."""
    if w is not None and w not in model._state_set:
        raise ModelError(f"unknown state {w!r}")
    group = frozenset(group)
    unknown = group - set(model.agents)
    if unknown:
        raise ModelError(f"group mentions unknown agents {sorted(unknown)}")
    members = [a for a in model.agents if a in group]
    option_lists = [class_unions(model, a, w) for a in members]
    for combo in itertools.product(*option_lists):
        yield dict(zip(members, combo))


# --- the evaluator -----------------------------------------------------------------

class _Entry:
    def __init__(self, serial, subset, model, fwd):
        self.serial = serial
        self.subset = subset
        self.model = model
        self.fwd = fwd
        back = {s: set() for s in model.states}
        for root_state, rep in fwd.items():
            back[rep].add(root_state)
        self.back = {s: frozenset(pre) for s, pre in back.items()}
        self.choice_sets = {}

    def pullback(self, contracted_states) -> frozenset:
        out = set()
        for s in contracted_states:
            out |= self.back[s]
        return frozenset(out)


class Evaluator:
    """Same public surface as `cogal.checker.Evaluator`: `eval`, `extension`,
    `check` and `certificates`."""

    def __init__(self, model: KripkeModel, *, certify: bool = False):
        self._root = model
        self._vocab = _vocab_mask(model.agents, model.props)
        self._entries: Dict[frozenset, _Entry] = {}
        self._memo = {}
        self.certify = certify
        self.certificates = CertificateLog()
        self._cert_seen = set()
        self._root_entry = self._entry(frozenset(model.states))

    def eval(self, state: str, f: Formula) -> bool:
        return self._eval(self._root_entry, self._start(state, f), f)

    def extension(self, f: Formula) -> frozenset:
        _check_bound(self._root, self._vocab, f)
        entry = self._root_entry
        return frozenset(s for s in self._root.states
                         if self._eval(entry, entry.fwd[s], f))

    def check(self, state: str, f: Formula) -> Verdict:
        if not isinstance(f, (GroupDia, CoalDia)):
            return Verdict(self.eval(state, f))
        entry = self._root_entry
        s = self._start(state, f)
        truth, won, defeat = self._quantify(entry, s, f)
        if won is not None:
            return Verdict(truth, witness_choice=self._pull_choice(entry, won),
                           witness_formula=realize_choice(
                               entry.model, s, f.group, won))
        if defeat is not None:
            opponents = frozenset(self._root.agents) - f.group
            return Verdict(truth,
                           refutation_choice=self._pull_choice(entry, defeat),
                           refutation_formula=realize_choice(
                               entry.model, s, opponents, defeat))
        return Verdict(truth)

    def _pull_choice(self, entry, choice):
        return {agent: entry.pullback(states) for agent, states in choice.items()}

    def _start(self, state: str, f: Formula) -> str:
        if state not in self._root._state_set:
            raise ModelError(f"unknown state {state!r}")
        _check_bound(self._root, self._vocab, f)
        return self._root_entry.fwd[state]

    def _entry(self, subset: frozenset) -> _Entry:
        entry = self._entries.get(subset)
        if entry is None:
            restricted = (self._root if subset == frozenset(self._root.states)
                          else self._root.update(subset))
            cm = bisim_contract(restricted)
            entry = _Entry(len(self._entries), subset, cm.contracted,
                           dict(cm.mapping))
            self._entries[subset] = entry
        return entry

    def _holds_after(self, entry, kept, state, body) -> bool:
        child = self._entry(entry.pullback(kept))
        root_rep = next(iter(entry.back[state] & child.subset))
        return self._eval(child, child.fwd[root_rep], body)

    def _choice_sets(self, entry, state, group):
        key = (state, group)
        cached = entry.choice_sets.get(key)
        if cached is not None:
            return cached
        model = entry.model
        members = [a for a in model.agents if a in group]
        partials = [(frozenset(model.states), {})]
        for agent in members:
            options = class_unions(model, agent, state)
            refined = []
            seen = set()
            for inter, rep in partials:
                for option in options:
                    cut = inter & option
                    if cut in seen:
                        continue
                    seen.add(cut)
                    refined.append((cut, {**rep, agent: option}))
            partials = refined
        if self.certify:
            for _, choice in partials:
                self._certify(entry, state, group, choice)
        entry.choice_sets[key] = partials
        return partials

    def _quantify(self, entry, state, f):
        goal = isinstance(f, (GroupDia, CoalDia))
        if isinstance(f, (CoalBox, CoalDia)):
            opponents = frozenset(entry.model.agents) - f.group
            responses = self._choice_sets(entry, state, opponents)
        else:
            responses = _TRIVIAL_RESPONSE
        defeat = None
        for i, (own, own_choice) in enumerate(
                self._choice_sets(entry, state, f.group)):
            for response, response_choice in responses:
                kept = own if response is None else own & response
                if self._holds_after(entry, kept, state, f.body) != goal:
                    if i == 0:
                        defeat = response_choice
                    break
            else:
                return goal, own_choice, None
        return not goal, None, defeat

    def _certify(self, entry, state, group, choice) -> None:
        key = (entry.serial, group, tuple(sorted(
            (a, tuple(sorted(s))) for a, s in choice.items())))
        if key in self._cert_seen:
            return
        self._cert_seen.add(key)
        self.certificates.checked += 1
        expected = frozenset(entry.model.states)
        for part in choice.values():
            expected &= part
        try:
            realized = realize_choice(entry.model, state, group, choice)
            got = frozenset(s for s in entry.model.states
                            if self._eval(entry, s, realized))
        except ModelError as exc:
            self.certificates.mismatches.append(
                (entry.subset, dict(choice), f"realization failed: {exc}"))
            return
        if got != expected:
            self.certificates.mismatches.append(
                (entry.subset, dict(choice),
                 f"extension {sorted(got)} != choice intersection {sorted(expected)}"))

    def _eval(self, entry, state, f) -> bool:
        key = (entry.serial, state, f)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._eval_raw(entry, state, f)
        return hit

    def _eval_raw(self, entry, state, f) -> bool:
        model = entry.model
        if isinstance(f, Atom):
            return state in model.truth_set(f.name)
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, Not):
            return not self._eval(entry, state, f.body)
        if isinstance(f, And):
            return (self._eval(entry, state, f.left)
                    and self._eval(entry, state, f.right))
        if isinstance(f, Or):
            return (self._eval(entry, state, f.left)
                    or self._eval(entry, state, f.right))
        if isinstance(f, Imp):
            return (not self._eval(entry, state, f.left)
                    or self._eval(entry, state, f.right))
        if isinstance(f, Iff):
            return (self._eval(entry, state, f.left)
                    == self._eval(entry, state, f.right))
        if isinstance(f, Know):
            # document order, as the mask engine visits the class: which
            # quantifiers get evaluated, and so certified, depends on it
            peers = model.class_of(f.agent, state)
            return all(self._eval(entry, t, f.body)
                       for t in model.states if t in peers)
        if isinstance(f, (PaBox, PaDia)):
            if not self._eval(entry, state, f.announce):
                return isinstance(f, PaBox)
            kept = frozenset(t for t in model.states
                             if self._eval(entry, t, f.announce))
            return self._holds_after(entry, kept, state, f.body)
        if isinstance(f, (GroupBox, GroupDia, CoalBox, CoalDia)):
            return self._quantify(entry, state, f)[0]
        raise TypeError(f"not a formula: {f!r}")
