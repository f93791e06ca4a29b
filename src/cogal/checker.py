"""Semantic evaluation of CoGAL formulas on finite S5 models.

The quantified announcement operators range over joint announcements of the
form "each group member announces something they know". On a bisimulation-
contracted finite model those announcements denote exactly the per-agent
unions of equivalence classes, so the evaluator enumerates such unions
instead of formulas. Models are contracted before evaluation and re-contracted
after every update so the enumeration stays complete at every nesting level;
`realize_choice` certifies each enumerated choice as an actual announcement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .formula import (
    And, Atom, Bot, CoalBox, CoalDia, Formula, GroupBox, GroupDia, Iff, Imp,
    Know, Not, Or, PaBox, PaDia, Top, agents_of, atoms, render, _mask,
    _vocab_mask,
)
from .model import (
    KripkeModel, ModelError, PointedModel, bisim_contract, realize_choice,
)

__all__ = [
    "AnnouncementChoice", "BindingError", "Verdict", "Evaluator",
    "eval_formula", "extension", "check", "group_choices",
    "choice_intersection", "class_unions",
]

# One set of states per group member; the joint announcement restricts the
# model to the intersection of the sets. An empty mapping is the trivial
# announcement of the empty group and denotes the full state set.
AnnouncementChoice = Dict[str, FrozenSet[str]]

# The one response a group quantifier leaves the other agents: no further
# restriction, and no choice to report.
_TRIVIAL_RESPONSE = ((None, None),)


class BindingError(ValueError):
    """Formula mentions agents or propositions the model does not declare."""


def _check_bound(model: KripkeModel, vocab: int, f: Formula) -> None:
    """Raise unless the model declares every name the formula mentions;
    `vocab` is the mask of the model's names."""
    if not _mask(f) & ~vocab:
        return
    bad_agents = sorted(agents_of(f) - set(model.agents))
    bad_props = sorted(atoms(f) - set(model.props))
    problems = []
    if bad_agents:
        problems.append("agents " + ", ".join(bad_agents))
    if bad_props:
        problems.append("propositions " + ", ".join(bad_props))
    raise BindingError("formula mentions unbound " + " and ".join(problems))


def choice_intersection(model: KripkeModel, choice: AnnouncementChoice) -> frozenset:
    """Update set denoted by a choice: intersection of the per-agent sets,
    the full state set for the empty choice."""
    out = frozenset(model.states)
    for part in choice.values():
        out &= part
    return out


def class_unions(model: KripkeModel, agent: str,
                 w: Optional[str] = None) -> List[frozenset]:
    """Unions of the agent's equivalence classes, ordered by increasing
    cardinality, ties broken by the positions of the blocks combined.

    With a state `w`, only the unions containing w's class: the extensions
    of what the agent can truthfully announce at w. Without, every union,
    the empty one included: the extensions of all the agent's knowledge
    formulas."""
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


def group_choices(model: KripkeModel, w: str, group) -> Iterator[AnnouncementChoice]:
    """Enumerate every truthful announcement choice of the group at w:
    per member, the unions of that member's classes containing w's class.
    Deterministic order; agents iterate in model order with the last agent
    varying fastest. The empty group yields the single trivial choice."""
    if w not in model._state_set:
        raise ModelError(f"unknown state {w!r}")
    members = [a for a in model.agents if a in frozenset(group)]
    option_lists = [class_unions(model, a, w) for a in members]
    for combo in itertools.product(*option_lists):
        yield dict(zip(members, combo))


@dataclass(frozen=True)
class Verdict:
    """Truth value with optional evidence for quantified top operators.

    For a true group or coalition diamond the witness is the first successful
    choice in enumeration order plus the announcement formula realizing it.
    For a false coalition diamond the refutation is an opponent choice
    defeating the first choice of the group. Choices are reported over the
    original model's states.
    """

    truth: bool
    witness_choice: Optional[AnnouncementChoice] = None
    witness_formula: Optional[Formula] = None
    refutation_choice: Optional[AnnouncementChoice] = None
    refutation_formula: Optional[Formula] = None

    def to_doc(self) -> dict:
        def choice_doc(choice):
            return {a: sorted(states) for a, states in sorted(choice.items())}

        doc = {"truth": self.truth, "witness": None, "refutation": None}
        if self.witness_choice is not None:
            doc["witness"] = {"choice": choice_doc(self.witness_choice),
                              "formula": render(self.witness_formula)}
        if self.refutation_choice is not None:
            doc["refutation"] = {"choice": choice_doc(self.refutation_choice),
                                 "formula": render(self.refutation_formula)}
        return doc


@dataclass
class CertificateLog:
    """Tally of realize-choice certificates checked during evaluation."""

    checked: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


class _Entry:
    """A reachable restriction of the root model, contracted on construction.

    `subset` is the kept set of *root* states; `fwd` maps each kept root
    state to its contracted representative.
    """

    __slots__ = ("serial", "subset", "model", "fwd", "back", "_choice_sets")

    def __init__(self, serial, subset, model, fwd):
        self.serial = serial
        self.subset = subset
        self.model = model
        self.fwd = fwd
        back = {s: set() for s in model.states}
        for root_state, rep in fwd.items():
            back[rep].add(root_state)
        self.back = {s: frozenset(pre) for s, pre in back.items()}
        self._choice_sets = {}

    def pullback(self, contracted_states) -> frozenset:
        out = set()
        for s in contracted_states:
            out |= self.back[s]
        return frozenset(out)


class Evaluator:
    """Evaluation engine for one root model.

    Holds the cache of contracted restrictions (keyed by the kept subset of
    root states) and a memo table keyed per restriction instance. Every
    restriction is contracted, so the quantifier rule enumerates exactly the
    announcements expressible there. With `certify=True` every distinct
    announcement choice enumerated by the quantifier rule is checked against
    its realizing formula.
    """

    def __init__(self, model: KripkeModel, *, memoize: bool = True,
                 certify: bool = False):
        self._root = model
        self._vocab = _vocab_mask(model.agents, model.props)
        self._entries: Dict[frozenset, _Entry] = {}
        self._memo: Optional[dict] = {} if memoize else None
        self.certify = certify
        self.certificates = CertificateLog()
        self._cert_seen = set()
        self._root_entry = self._entry(frozenset(model.states))

    @property
    def model(self) -> KripkeModel:
        return self._root

    # -- public API ------------------------------------------------------

    def eval(self, state: str, f: Formula) -> bool:
        """Truth of the formula at a state of the root model."""
        entry = self._root_entry
        return self._eval(entry, self._start(state, f), f)

    def extension(self, f: Formula) -> frozenset:
        """States of the root model satisfying the formula."""
        _check_bound(self._root, self._vocab, f)
        entry = self._root_entry
        return frozenset(s for s in self._root.states
                         if self._eval(entry, entry.fwd[s], f))

    def check(self, state: str, f: Formula) -> Verdict:
        """Evaluate and extract witness or refutation evidence for a
        quantified diamond at the top of the formula."""
        if not isinstance(f, (GroupDia, CoalDia)):
            return Verdict(self.eval(state, f))
        entry = self._root_entry
        s = self._start(state, f)
        truth, won, defeat = self._quantify(entry, s, f)
        if won is not None:
            return Verdict(truth,
                           witness_choice=self._pull_choice(entry, won),
                           witness_formula=realize_choice(
                               entry.model, s, f.group, won))
        if defeat is not None:
            opponents = frozenset(self._root.agents) - f.group
            return Verdict(truth,
                           refutation_choice=self._pull_choice(entry, defeat),
                           refutation_formula=realize_choice(
                               entry.model, s, opponents, defeat))
        return Verdict(truth)

    # -- internals ---------------------------------------------------------

    def _pull_choice(self, entry: _Entry, choice: AnnouncementChoice) -> AnnouncementChoice:
        return {agent: entry.pullback(states) for agent, states in choice.items()}

    def _start(self, state: str, f: Formula) -> str:
        """Contracted root state for a public query, after checking the
        state and the formula's bindings."""
        if state not in self._root._state_set:
            raise ModelError(f"unknown state {state!r}")
        _check_bound(self._root, self._vocab, f)
        return self._root_entry.fwd[state]

    def _entry(self, subset: frozenset) -> _Entry:
        entry = self._entries.get(subset)
        if entry is not None:
            return entry
        restricted = (self._root if subset == frozenset(self._root.states)
                      else self._root.update(subset))
        cm = bisim_contract(restricted)
        entry = _Entry(len(self._entries), subset, cm.contracted, dict(cm.mapping))
        self._entries[subset] = entry
        return entry

    def _descend(self, entry: _Entry, kept, state: str) -> Tuple[_Entry, str]:
        child = self._entry(entry.pullback(kept))
        root_rep = next(iter(entry.back[state] & child.subset))
        return child, child.fwd[root_rep]

    def _holds_after(self, entry: _Entry, kept: frozenset, state: str,
                     body: Formula) -> bool:
        child, new_state = self._descend(entry, kept, state)
        return self._eval(child, new_state, body)

    def _choice_sets(self, entry: _Entry, state: str, group: frozenset):
        """Distinct update sets achievable by the group at the state, each with
        a representative choice, in order of first appearance.

        Built agent by agent with deduplication of partial intersections:
        equal partial intersections have identical continuations, so this
        yields the same sets in the same first-seen order as enumerating the
        full product of per-agent options (`group_choices`), at a fraction
        of the cost. Each set's representative is the first product choice
        that yields it."""
        key = (state, group)
        cached = entry._choice_sets.get(key)
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
        entry._choice_sets[key] = partials
        return partials

    def _quantify(self, entry: _Entry, state: str, f: Formula):
        """The one rule for group and coalition quantifiers, a box being the
        dual of its diamond: the group wins with one of its choice sets if,
        under every response of its opponents, the body takes the goal value
        (true for diamonds, false for boxes). A group quantifier's only
        response is the trivial one.

        Returns (truth, won, defeat): the representative choice of the first
        winning set, or else of the first response that beats the first set.
        """
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

    def _certify(self, entry: _Entry, state: str, group: frozenset,
                 choice: AnnouncementChoice) -> None:
        key = (entry.serial, group, tuple(sorted(
            (a, tuple(sorted(s))) for a, s in choice.items())))
        if key in self._cert_seen:
            return
        self._cert_seen.add(key)
        self.certificates.checked += 1
        expected = choice_intersection(entry.model, choice)
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

    def _eval(self, entry: _Entry, state: str, f: Formula) -> bool:
        memo = self._memo
        if memo is not None:
            key = (entry.serial, state, f)
            hit = memo.get(key)
            if hit is not None:
                return hit
        value = self._eval_raw(entry, state, f)
        if memo is not None:
            memo[key] = value
        return value

    def _eval_raw(self, entry: _Entry, state: str, f: Formula) -> bool:
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
            return all(self._eval(entry, t, f.body)
                       for t in model.class_of(f.agent, state))
        if isinstance(f, PaBox):
            if not self._eval(entry, state, f.announce):
                return True
            kept = frozenset(t for t in model.states
                             if self._eval(entry, t, f.announce))
            return self._holds_after(entry, kept, state, f.body)
        if isinstance(f, PaDia):
            if not self._eval(entry, state, f.announce):
                return False
            kept = frozenset(t for t in model.states
                             if self._eval(entry, t, f.announce))
            return self._holds_after(entry, kept, state, f.body)
        if isinstance(f, (GroupBox, GroupDia, CoalBox, CoalDia)):
            return self._quantify(entry, state, f)[0]
        raise TypeError(f"not a formula: {f!r}")


def eval_formula(model: KripkeModel, state: str, f: Formula, **kwargs) -> bool:
    """Truth of the formula at a pointed model (fresh evaluator)."""
    return Evaluator(model, **kwargs).eval(state, f)


def extension(model: KripkeModel, f: Formula, **kwargs) -> frozenset:
    """All states of the model satisfying the formula (fresh evaluator)."""
    return Evaluator(model, **kwargs).extension(f)


def check(pointed: PointedModel, f: Formula, **kwargs) -> Verdict:
    """Evaluate at the pointed model and extract witness or refutation."""
    return Evaluator(pointed.model, **kwargs).check(pointed.point, f)
