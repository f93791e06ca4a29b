"""Semantic evaluation of CoGAL formulas on finite S5 models.

The quantified announcement operators range over joint announcements of the
form "each group member announces something they know". On a bisimulation-
contracted finite model those announcements denote exactly the per-agent
unions of equivalence classes, so the evaluator enumerates such unions
instead of formulas. Models are contracted before evaluation, and every
update is contracted wherever a quantifier enumerates, so the enumeration
stays complete at every nesting level; `realize_choice` certifies each
enumerated choice as an actual announcement.

Inside the evaluator every set of states is an int mask over the root
model's states (state i is bit i, in document order), so restricting,
contracting and intersecting choices are bit operations on ints. A
contracted restriction is a `model._Quotient`, the form the public
contraction API reads too; witnesses, refutations and certificates are
realized from its masks, with no `KripkeModel` built. A restriction whose
body is purely epistemic is read through its parent's quotient instead
(`_Quotient.view`): truth is invariant under bisimulation, and only a
quantifier needs the contracted classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional

from .formula import (
    And, Atom, Bot, CoalBox, CoalDia, Formula, GroupBox, GroupDia, Iff, Imp,
    Know, Not, Or, PaBox, PaDia, Top, agents_of, atoms, conjoin, render,
    _mask,
)
from .model import (
    KripkeModel, ModelError, PointedModel, _Quotient, _refine_masks,
)

__all__ = [
    "AnnouncementChoice", "BindingError", "Verdict", "Evaluator",
    "eval_formula", "extension", "check",
]

# One set of states per group member; the joint announcement restricts the
# model to the intersection of the sets. An empty mapping is the trivial
# announcement of the empty group and denotes the full state set.
AnnouncementChoice = Dict[str, FrozenSet[str]]


class BindingError(ValueError):
    """Formula mentions agents or propositions the model does not declare."""


def _check_bound(model: KripkeModel, f: Formula) -> None:
    """Raise unless the model declares every name the formula mentions."""
    if not _mask(f) & ~model._vocab:
        return
    bad_agents = sorted(agents_of(f) - set(model.agents))
    bad_props = sorted(atoms(f) - set(model.props))
    problems = []
    if bad_agents:
        problems.append("agents " + ", ".join(bad_agents))
    if bad_props:
        problems.append("propositions " + ", ".join(bad_props))
    raise BindingError("formula mentions unbound " + " and ".join(problems))


def _unions(classes, sizes, anchor=None) -> list:
    """Unions of the class masks, ordered by increasing size (the sum of
    `sizes` over the classes combined), ties broken by the positions of the
    classes combined. With an anchor position, only the unions containing
    that class."""
    free = [i for i in range(len(classes)) if i != anchor]
    base, weight = (0, 0) if anchor is None else (classes[anchor], sizes[anchor])
    if not free:
        return [base]
    found = [(weight, base)]

    def extend(start, union, weight):
        # depth first: unions arrive in lexicographic order of the positions
        # combined, which the stable sort below keeps among equal sizes
        for j in range(start, len(free)):
            i = free[j]
            grown = union | classes[i]
            found.append((weight + sizes[i], grown))
            extend(j + 1, grown, weight + sizes[i])

    extend(0, base, weight)
    # the recursive closure refers to itself through its cell: emptying the
    # cell frees it without the cycle collector
    del extend
    found.sort(key=lambda item: item[0])
    return [union for _, union in found]


def _positive(f: Formula) -> bool:
    """Whether the formula is positive: built from atoms, negated atoms, top,
    bottom, `&`, `|`, `K`, `[chi] phi` with a negative announcement chi and
    `[G] phi`, where phi is positive and chi is the negation of a positive
    formula, an atom, top or bottom. Computed once per node, on first
    request, and stored on the node.

    Lemma (van Ditmarsch and Kooi, "The secret of my success", Synthese
    2006). Let phi be positive, M a model, w a state and S a set of M's
    states with w in S. If (M, w) |= phi, then (M|S, w) |= phi, where M|S
    is M restricted to S; the evaluator reads it at its contraction
    (`Evaluator._restriction`) or through the blocks of a coarser quotient
    (`_Quotient.view`), both bisimilar to it.

    Proof. Contraction first. The evaluator reads a restriction at its
    bisimulation contraction. The quotient map is a bisimulation, and truth
    is invariant under it: the quantifiers range over the extensions of
    announcement formulas, which are invariant too. So M|S may be read
    uncontracted, each quantifier ranging over the pullbacks of the unions
    of classes its contraction offers. The key step: an agent's classes in
    M|S are S intersected with its classes in M, so a union of its classes
    in M|S is S intersected with a union of its classes in M. A pullback of
    a union of the contraction's classes is such a union. So every choice
    set of a group at (M|S, w) is a subset of S that contains w, and
    restricting M|S to it is restricting M to it. Then by induction on phi:

    - A literal, top or bottom: the valuation at w does not change.
    - `&` and `|`: by induction.
    - `K a psi`: w's a-class in M|S is S intersected with its a-class in M.
      Every t in it satisfies psi in M, so in M|S by induction (t in S).
    - `[chi] psi`, chi negative: if chi fails at (M|S, w), the box holds.
      Otherwise chi holds at (M, w), since a negative formula that holds
      after a restriction held before it (induction on the positive formula
      it negates; a literal, top or bottom keeps its value). So psi holds at
      (M|T, w) with T the extension of chi in M. By the same argument, the
      extension U of chi in M|S is a subset of T, and it contains w. So
      (M|S)|U is (M|T)|U, and psi holds there by induction, applied to M|T.
    - `[G] psi`: the whole state set is a choice set of G (each member
      announces the union of all its classes), so psi holds at (M, w).
      Every choice set A of G at (M|S, w) is a subset of S containing w, and
      (M|S)|A is M|A, so psi holds there by induction. So [G] psi holds at
      (M|S, w).

    The case of `[G] psi` also shows that `[G] psi` is equivalent to psi
    when psi is positive. `Evaluator._deciding_group` turns the lemma into
    a rule that decides a quantifier with one announcement.
    """
    try:
        return f._positive
    except AttributeError:
        pass
    if isinstance(f, (Atom, Top, Bot)):
        out = True
    elif isinstance(f, Not):
        out = isinstance(f.body, Atom)
    elif isinstance(f, (And, Or)):
        out = _positive(f.left) and _positive(f.right)
    elif isinstance(f, (Know, GroupBox)):
        out = _positive(f.body)
    elif isinstance(f, PaBox):
        announce = f.announce
        out = (_positive(f.body)
               and (isinstance(announce, (Atom, Top, Bot))
                    or isinstance(announce, Not) and _positive(announce.body)))
    else:
        out = False
    # a lazily computed fact on an immutable, interned node, cached for as
    # long as the node lives
    object.__setattr__(f, "_positive", out)
    return out


# `Evaluator._deciding_group`'s rule on a node when it names the opponents
_OPPONENTS = object()


def _distinct_sets(kept: int, options: list) -> Iterator[tuple]:
    """The distinct sets `kept & m1 & ... & mk`, one mask from each list of
    `options`, each with the first choice (tuple of masks) that yields it in
    the product: lists in order, the last varying fastest; for a group, the
    members in model order, each one's unions by size, ties broken by class
    positions (`_unions`). No lists give `kept` and the empty choice. Depth
    first, skipping a partial intersection already seen at its level."""
    if not options:
        yield kept, ()
    else:
        yield from _walk(options, [set() for _ in options], 0, kept, ())


def _walk(options: list, seen: list, level: int, inter: int, rep: tuple):
    """`_distinct_sets` from a level on, below a partial intersection and
    its choice; `seen` holds the cuts met so far at each level."""
    last = level == len(options) - 1
    met = seen[level]
    for option in options[level]:
        cut = inter & option
        if cut in met:
            continue
        met.add(cut)
        if last:
            yield cut, rep + (option,)
        else:
            yield from _walk(options, seen, level + 1, cut, rep + (option,))


class _ChoiceSets:
    """A group's choice sets at a state. `options` holds the members'
    option lists. The (set, representative) pairs are `_distinct_sets`
    over the options, memoised: the pairs built so far and the generator
    that builds the rest. Every iteration reads the pairs in the same
    order; a later one continues where the earliest stopped. The generator
    calls no evaluation, so it is never re-entered. `rest` is None once
    every set is built."""

    __slots__ = ("options", "found", "rest")

    def __init__(self, kept: int, options: list):
        self.options = options
        self.found = []
        self.rest = _distinct_sets(kept, options)

    def meet(self, kept: int) -> Iterator[tuple]:
        """The sets `kept & B` over the group's sets B, each with B's
        representative, in order of first appearance (repeats allowed):
        read off the sets when all are built (under `certify`, or once a
        scan has read them all), else walked by
        `_distinct_sets(kept, options)` without building them. For `kept`
        inside the restriction both give the same distinct sets in the same
        order, since `kept & B` is `kept & m1 & ... & mk` for B's choice."""
        if self.rest is None:
            return ((kept & built, choice) for built, choice in self.found)
        return _distinct_sets(kept, self.options)

    def __iter__(self):
        if self.rest is None:
            return iter(self.found)
        return self._read()

    def _read(self):
        found = self.found
        i = 0
        while True:
            if i == len(found):
                if self.rest is None:
                    return
                pair = next(self.rest, None)
                if pair is None:
                    self.rest = None
                    return
                found.append(pair)
            yield found[i]
            i += 1


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


# the verdicts without evidence, shared: a `Verdict` is frozen
_TRUE = Verdict(True)
_FALSE = Verdict(False)


@dataclass
class CertificateLog:
    """Tally of realize-choice certificates checked during evaluation."""

    checked: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


class Evaluator:
    """Evaluation engine for one root model.

    Holds the contracted restrictions reached so far, as `model._Quotient`s
    keyed by their kept masks of root states, and the caches kept per
    restriction: the memo table, the extents of the formulas read as
    announcements or realized, each agent's class unions, the choice sets,
    the characteristic formulas, each member's realized announcement and
    the certificates already checked. Every restriction on which a
    quantifier enumerates, or a body restricts further, is contracted, so
    the quantifier rule enumerates exactly the announcements expressible
    there; a purely epistemic body is read on a view of the parent's
    quotient (`_holds_after`). The memo's (kept, state) keys name a state
    of the restriction to `kept`, however it is read. With `certify=True`
    every distinct announcement choice enumerated by the quantifier rule
    is checked against its realizing formula. The valuation is read only
    through the truth masks `_truth`, which `_revalue` swaps for the
    exhaustive search.
    """

    def __init__(self, model: KripkeModel, *, certify: bool = False):
        self._root = model
        self._truth = model._truth_masks
        self._class_at = model._class_at
        self._agent_set = frozenset(model.agents)
        # the whole model's quotient is shared with every evaluator of it
        self._root_quotient = model._whole_quotient
        self._quotients: Dict[int, _Quotient] = {
            self._root_quotient.kept: self._root_quotient}
        self._views = {}
        self._memo = {}
        self._option_cache = {}
        self._choice_set_cache = {}
        self._char_tables = {}
        self._extents = {}
        self._parts = {}
        self._names = {}
        self.certify = certify
        self.certificates = CertificateLog()
        self._cert_seen = set()

    @property
    def model(self) -> KripkeModel:
        return self._root

    # -- public API ------------------------------------------------------

    def eval(self, state: str, f: Formula) -> bool:
        """Truth of the formula at a state of the root model."""
        return self._eval(self._root_quotient, self._start(state, f), f)

    def extension(self, f: Formula) -> frozenset:
        """States of the root model satisfying the formula."""
        _check_bound(self._root, f)
        return self._states(self._where(self._root_quotient, f))

    def check(self, state: str, f: Formula) -> Verdict:
        """Evaluate and extract witness or refutation evidence for a
        quantified diamond at the top of the formula: the group's first
        winning set, or for a false coalition diamond the first response
        that beats the group's first set. Only here is evidence computed;
        the evaluator itself stops at the truth value."""
        if not isinstance(f, (GroupDia, CoalDia)):
            return _TRUE if self.eval(state, f) else _FALSE
        q = self._root_quotient
        s = self._start(state, f)
        if self.certify or self._deciding_group(f) is None:
            # the scan that decides the truth also finds the witness
            won = self._winner(q, s, f)
        elif not self._eval(q, s, f):
            won = None
        elif _positive(f.body):
            # the first set is a winner when any set is (`_positive`)
            won = self._first_set(q, s, f.group)[1]
        else:
            won = self._winner(q, s, f)
        if won is not None:
            return Verdict(True,
                           witness_choice=self._choice(f.group, won),
                           witness_formula=self._realize(q, f.group, won))
        if isinstance(f, GroupDia):
            return _FALSE
        first = self._first_set(q, s, f.group)[0]
        opponents = self._agent_set - f.group
        # The opponents' first set is their first response, read off their
        # own classes with no enumeration of their unions. Past it, the first
        # losing cut of A0 comes with the first response in product order
        # that leaves it, which is the first response that beats A0.
        response, defeat = self._first_set(q, s, opponents)
        if self._holds_after(q, first & response, s, f.body):
            options = [self._options(q, a, s) for a in self._members(opponents)]
            defeat = next(choice for kept, choice
                          in _distinct_sets(first, options)
                          if not self._holds_after(q, kept, s, f.body))
        return Verdict(False,
                       refutation_choice=self._choice(opponents, defeat),
                       refutation_formula=self._realize(q, opponents, defeat))

    # -- internals ---------------------------------------------------------

    def _revalue(self, truth: Dict[str, int]) -> None:
        """Evaluate from now on the model with the root's frame and these
        truth masks (checked, per proposition in model order), which must
        refine every kept mask as the root's do: the exhaustive search
        evaluates all candidates of one refinement group on one evaluator
        (`search._group_evaluators`).

        The memo, the extents, the characteristic formulas and the realized
        parts read the valuation, so they are dropped, each in one step. The
        restrictions, views, option lists, choice sets and named state sets
        are structure only, by the lemma of `model._refine_masks`: a group's
        truth masks induce one partition of the states, so they refine
        every kept mask alike; they are kept. Every later read of the
        valuation goes through `_truth`: atoms, `K x p`, the refinement of a
        new restriction and the characteristic formulas. A certifying
        evaluator is refused: its certificates belong to one valuation."""
        if self.certify:
            raise ValueError("a certifying evaluator cannot be revalued")
        self._truth = truth
        self._memo = {}
        self._extents = {}
        self._char_tables = {}
        self._parts = {}

    def _realize(self, q: _Quotient, group, choice: tuple) -> Formula:
        """The announcement formula of a choice on the restriction: the
        conjunction of the members' parts (`_Quotient.part`), each realized
        once per restriction, agent and union. A part whose realization
        raises `ModelError` is not stored: every choice that needs it
        raises, and `_certify` records each."""
        parts = []
        for agent, mask in zip(self._members(group), choice):
            key = (q.kept, agent, mask)
            part = self._parts.get(key)
            if part is None:
                part = self._parts[key] = q.part(self._char_table(q), agent,
                                                 mask)
            parts.append(part)
        return conjoin(parts)

    def _char_table(self, q: _Quotient) -> dict:
        """The restriction's characteristic formulas. The whole quotient's
        are the model's cached ones while the evaluator reads the model's
        own truth masks."""
        chars = self._char_tables.get(q.kept)
        if chars is None:
            chars = self._char_tables[q.kept] = (
                self._root._chars if (q is self._root_quotient and
                                      self._truth is self._root._truth_masks)
                else q.chars(self._truth))
        return chars

    def _states(self, mask: int) -> frozenset:
        """The names of the states in a mask, named once per mask."""
        names = self._names.get(mask)
        if names is None:
            names = self._names[mask] = self._root._named(mask)
        return names

    def _members(self, group: frozenset) -> tuple:
        """The group's members in model order, listed once per frame."""
        lists = self._root._member_lists
        members = lists.get(group)
        if members is None:
            members = lists[group] = tuple(a for a in self._root.agents
                                           if a in group)
        return members

    def _choice(self, group: frozenset, masks: tuple) -> AnnouncementChoice:
        """A choice's masks (one per member, in model order) as state sets."""
        return {a: self._states(m) for a, m in zip(self._members(group), masks)}

    def _start(self, state: str, f: Formula) -> int:
        """Rep of a root state in the contracted root, after checking the
        state and the formula's bindings."""
        if state not in self._root._position:
            raise ModelError(f"unknown state {state!r}")
        _check_bound(self._root, f)
        return self._root_quotient.rep_of[self._root._position[state]]

    def _restriction(self, kept: int) -> _Quotient:
        q = self._quotients.get(kept)
        if q is None:
            q = self._quotients[kept] = _Quotient(
                self._root, kept, _refine_masks(
                    self._root._class_masks.values(), self._truth.values(),
                    kept))
        return q

    def _where(self, q: _Quotient, f: Formula) -> int:
        """The union of the restriction's blocks at which the formula holds:
        its extent, computed once per restriction and formula. It does not
        depend on the state asked about, so a sweep over the states reads
        each announcement's extent once."""
        key = (q.kept, f)
        out = self._extents.get(key)
        if out is None:
            out = 0
            for rep, block in q.blocks:
                if self._eval(q, rep, f):
                    out |= block
            self._extents[key] = out
        return out

    def _holds_after(self, q: _Quotient, kept: int, state: int,
                     body: Formula) -> bool:
        """Truth of the body at the state after restricting to `kept`, a
        union of the restriction's blocks containing the state: on the
        child's quotient when one is built, or when the body quantifies or
        announces; else on a view of q (`_Quotient.view`), at the state."""
        child = self._child(q, kept, body)
        return self._eval(child, child.rep_of[state], body)

    def _child(self, q: _Quotient, kept: int, body: Formula) -> _Quotient:
        """The restriction to `kept`, a union of q's blocks, on which to read
        the body: its quotient when the body quantifies or announces; else
        the one kept in `_views` for `kept`, on first reach the quotient if
        one is built (its reps merge more) or a view of q. A view serves
        every parent that reaches `kept`: its `rep_of` maps each kept state
        to a bisimilar kept one."""
        if not body._epistemic:
            return self._restriction(kept)
        child = self._views.get(kept)
        if child is None:
            child = self._views[kept] = (self._quotients.get(kept)
                                         or q.view(kept))
        return child

    def _options(self, q: _Quotient, agent: str, rep: int) -> list:
        """The agent's class unions containing the state's class, by size (a
        class weighs its number of blocks), ties broken by class positions
        (`_unions`); computed once per restriction and class."""
        classes = q.classes[agent]
        k = 0
        while not classes[k] >> rep & 1:
            k += 1
        key = (q.kept, agent, k)
        found = self._option_cache.get(key)
        if found is None:
            sizes = [(c & q.reps).bit_count() for c in classes]
            found = self._option_cache[key] = _unions(classes, sizes, k)
        return found

    def _first_set(self, q: _Quotient, state: int, group: frozenset):
        """The group's first choice set at the state and its representative:
        each member announces its own class, so the set is the intersection
        of the members' classes (the whole restriction for the empty group).
        Every choice set of the group at the state contains it."""
        kept, choice = q.kept, []
        for agent in self._members(group):
            for own in q.classes[agent]:
                if own >> state & 1:
                    break
            kept &= own
            choice.append(own)
        return kept, tuple(choice)

    def _choice_sets(self, q: _Quotient, state: int, group: frozenset):
        """Distinct update sets achievable by the group at the state, each with
        a representative choice, in order of first appearance: `_distinct_sets`
        over the members' options at the state.

        Memoised per restriction, state and group (`_ChoiceSets`): a loop
        that stops early builds no more sets than it read. Under `certify`
        every set is built and certified at once."""
        key = (q.kept, state, group)
        sets = self._choice_set_cache.get(key)
        if sets is None:
            options = [self._options(q, a, state) for a in self._members(group)]
            sets = self._choice_set_cache[key] = _ChoiceSets(q.kept, options)
            if self.certify:
                for _, choice in sets:
                    self._certify(q, group, choice)
        return sets

    def _deciding_group(self, f: Formula) -> Optional[frozenset]:
        """The group whose first set alone decides the quantifier, when its
        body is positive or the negation of a positive formula; else None.

        By `_positive`, a positive body that holds after a set holds after
        every smaller set containing the state. Every choice set of a group
        contains the group's first set, and the whole restriction is one
        of them. So over a positive body a diamond `<G>` or `<[G]>` holds
        iff the body holds after G's first set, `[G]` iff the body holds
        with no restriction (the empty group's first set), and `[<G>]` iff
        the body holds after the opponents' first set. A negative body
        takes the dual rule: `[G]` and `[<G>]` read G's first set, `<G>`
        no restriction and `<[G]>` the opponents' first set. In each case
        the quantifier's truth is the body's truth after that one set. The
        rule is stored on the node, as `_positive` is, and the opponents,
        the one group that depends on the model, as `_OPPONENTS`."""
        try:
            rule = f._decider
        except AttributeError:
            body = f.body
            if _positive(body):
                diamond = isinstance(f, (GroupDia, CoalDia))
            elif isinstance(body, Not) and _positive(body.body):
                diamond = isinstance(f, (GroupBox, CoalBox))
            else:
                diamond = None
            rule = (None if diamond is None else f.group if diamond
                    else frozenset() if isinstance(f, (GroupBox, GroupDia))
                    else _OPPONENTS)
            object.__setattr__(f, "_decider", rule)
        if rule is _OPPONENTS:
            return self._agent_set - f.group
        return rule

    def _quantify(self, q: _Quotient, state: int, f: Formula) -> bool:
        """The one rule for group and coalition quantifiers, a box being the
        dual of its diamond. Over a positive or negative body one set
        decides (`_deciding_group`); otherwise the group's choice sets are
        scanned (`_winner`). `certify` always scans, so that every set is
        certified."""
        if not self.certify:
            decider = self._deciding_group(f)
            if decider is not None:
                first = q.first_sets(decider)[state]
                return self._holds_after(q, first, state, f.body)
        won = self._winner(q, state, f)
        return (won is not None) == isinstance(f, (GroupDia, CoalDia))

    def _winner(self, q: _Quotient, state: int, f: Formula):
        """The representative choice of the group's first set that wins:
        under every response of the opponents, the body takes the goal value
        (true for diamonds, false for boxes). None when no set wins. A group
        quantifier has no opponents: its one response is the restriction.

        The body is read after A & B, for an own set A and a response B, and
        only that set matters. So the own sets are taken in order, and each
        is played against the distinct sets A & B in order of first
        appearance (`_ChoiceSets.meet`), with no list of responses built
        that was not built already. Each set reached keeps its verdict in a
        table for the call. The first of them is the *trace* A & B0, where
        B0, the opponents' first set, has each opponent announce its own
        class; an own set whose trace lost is dropped at one lookup.

        Lemma: if the body misses the goal after every trace, every own set
        loses. Proof: B0 is a response, and it defeats each own set. The
        own sets are `kept & U1 & ... & Uk`, one option Ui per member, and
        B0 lies inside `kept`; so the traces are the sets `B0 & U1 & ...
        & Uk`, which `_distinct_sets(B0, own options)` yields, each once, in
        the order of the own sets that leave them. So while the own sets
        are not all built and B0 is smaller than the restriction, the
        traces are walked first, and when none reaches the goal no own set
        is enumerated. (When B0 is the whole restriction, the traces are
        the own sets themselves.)

        Either way the scan evaluates the sets that a scan of every (own
        set, response) pair in order evaluates, in the same order, less the
        repeats. So under `certify`, where `_choice_sets` builds and
        certifies both groups' sets, the certificates are that scan's."""
        goal = isinstance(f, (GroupDia, CoalDia))
        first = q.kept
        if isinstance(f, (CoalBox, CoalDia)):
            responses = self._choice_sets(q, state, self._agent_set - f.group)
            # B0, `_first_set`: each option list starts with the own class
            for member_options in responses.options:
                first &= member_options[0]
        else:
            responses = None
        owns = self._choice_sets(q, state, f.group)
        body = f.body
        children = self._views if body._epistemic else self._quotients
        verdicts = {}
        # `_holds_after`, inlined behind the table in the three loops below,
        # with `_child`'s lookup: they are the evaluator's hottest
        if owns.rest is not None and first != q.kept:
            for trace, _ in _distinct_sets(first, owns.options):
                child = children.get(trace) or self._child(q, trace, body)
                won = verdicts[trace] = (
                    self._eval(child, child.rep_of[state], body) == goal)
                if won:
                    break
            else:
                return None
        for own, own_choice in owns:
            trace = own & first
            won = verdicts.get(trace)
            if won is None:
                child = children.get(trace) or self._child(q, trace, body)
                won = verdicts[trace] = (
                    self._eval(child, child.rep_of[state], body) == goal)
            if not won:
                continue
            if responses is None:
                return own_choice
            for kept, _ in responses.meet(own):
                won = verdicts.get(kept)
                if won is None:
                    child = children.get(kept) or self._child(q, kept, body)
                    won = verdicts[kept] = (
                        self._eval(child, child.rep_of[state], body) == goal)
                if not won:
                    break
            else:
                return own_choice
        return None

    def _certify(self, q: _Quotient, group: frozenset, choice: tuple) -> None:
        """Check that the formula realizing the choice holds exactly on the
        choice's set; record a mismatch, or a realization that fails."""
        key = (q.kept, group, choice)
        if key in self._cert_seen:
            return
        self._cert_seen.add(key)
        self.certificates.checked += 1
        expected = q.kept
        for part in choice:
            expected &= part
        try:
            got = self._where(q, self._realize(q, group, choice))
        except ModelError as exc:
            problem = f"realization failed: {exc}"
        else:
            if got == expected:
                return
            problem = (f"extension {sorted(self._states(got))} != choice "
                       f"intersection {sorted(self._states(expected))}")
        self.certificates.mismatches.append(
            (self._states(q.kept), self._choice(group, choice), problem))

    def _eval(self, q: _Quotient, state: int, f: Formula) -> bool:
        """Truth of the formula at a rep of the restriction. Dispatch is on
        the node's class by `is`, in order of how often a suite pass meets
        each class. Atoms, top, bottom and negations cost less to compute
        than to look up, so they bypass the memo, and knowledge of an atom
        is not stored in it; every other node is memoised per (restriction,
        rep, formula). A negation adds no frame of its own."""
        cls = f.__class__
        if cls is Not:
            return not self._eval(q, state, f.body)
        if cls is Atom:
            return self._truth[f.name] >> state & 1 == 1
        if cls is Top:
            return True
        if cls is Bot:
            return False
        memo = self._memo
        key = (q.kept, state, f)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if cls is Imp:
            hit = (not self._eval(q, state, f.left)
                   or self._eval(q, state, f.right))
        elif cls is And:
            hit = (self._eval(q, state, f.left)
                   and self._eval(q, state, f.right))
        elif cls is Know:
            # the agent's class in the restriction: its root class, cut
            # down to the kept states
            seen = self._class_at[f.agent][state] & q.kept
            body = f.body
            if body.__class__ is Atom:
                # one mask test, cheaper than the memo entry it would take:
                # every kept state of the class satisfies the atom. Tested
                # here, not before the lookup, where every other node would
                # pay for the test
                return not seen & ~self._truth[body.name]
            # the reps of the blocks the class meets
            peers = q.reps_meeting(seen)
            hit = True
            while peers:
                low = peers & -peers
                if not self._eval(q, low.bit_length() - 1, body):
                    hit = False
                    break
                peers ^= low
        elif (cls is CoalDia or cls is GroupBox or cls is CoalBox
              or cls is GroupDia):
            hit = self._quantify(q, state, f)
        elif cls is PaDia or cls is PaBox:
            if self._eval(q, state, f.announce):
                hit = self._holds_after(q, self._where(q, f.announce),
                                        state, f.body)
            else:
                hit = cls is PaBox
        elif cls is Iff:
            hit = (self._eval(q, state, f.left)
                   == self._eval(q, state, f.right))
        elif cls is Or:
            hit = (self._eval(q, state, f.left)
                   or self._eval(q, state, f.right))
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = hit
        return hit


def eval_formula(model: KripkeModel, state: str, f: Formula, **kwargs) -> bool:
    """Truth of the formula at a pointed model (fresh evaluator)."""
    return Evaluator(model, **kwargs).eval(state, f)


def extension(model: KripkeModel, f: Formula, **kwargs) -> frozenset:
    """All states of the model satisfying the formula (fresh evaluator)."""
    return Evaluator(model, **kwargs).extension(f)


def check(pointed: PointedModel, f: Formula, **kwargs) -> Verdict:
    """Evaluate at the pointed model and extract witness or refutation."""
    return Evaluator(pointed.model, **kwargs).check(pointed.point, f)
