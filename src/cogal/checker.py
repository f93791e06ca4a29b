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
realized from its masks, with no `KripkeModel` built. A purely epistemic
formula is read only as an extent, the kept states where it holds
(`Evaluator._where`), on the restriction itself: truth is invariant under
bisimulation, and only a quantifier needs the contracted classes.
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
    if _mask(f) & ~model._vocab:
        _check_names(f, model.agents, model.props, model._vocab)


def _check_names(f: Formula, agents, props, vocab: int) -> None:
    """Raise unless the agents and propositions, of which `vocab` is the
    `_vocab_mask`, hold every name the formula mentions."""
    if not _mask(f) & ~vocab:
        return
    bad_agents = sorted(agents_of(f) - set(agents))
    bad_props = sorted(atoms(f) - set(props))
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
    (`Evaluator._restriction`), bisimilar to it, or, where phi is purely
    epistemic, on M|S itself (`Evaluator._where`).

    Proof. Contraction first. Where a quantifier enumerates, the evaluator
    reads a restriction at its bisimulation contraction. The quotient map
    is a bisimulation, and truth is invariant under it: the quantifiers
    range over the extensions of announcement formulas, which are invariant
    too. So M|S may be read uncontracted, each quantifier ranging over the
    pullbacks of the unions of classes its contraction offers. The key
    step: an agent's classes in M|S are S intersected with its classes in
    M, so a union of its classes in M|S is S intersected with a union of
    its classes in M. A pullback of a union of the contraction's classes is
    such a union. So every choice set of a group at (M|S, w) is a subset of
    S that contains w, and restricting M|S to it is restricting M to it.
    Then by induction on phi:

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
    restriction: the memo table, the extents computed a set at a time
    (`_where`), the choice sets, the characteristic formulas, each
    member's realized announcement and, when certifying, the choices
    already certified. Each agent's class unions live on the quotient
    (`_Quotient.unions`), with its first sets. What the whole model's
    quotient realizes under the model's own valuation lives with the
    model, for every evaluator of it: the characteristic formulas
    (`KripkeModel._chars`) and the members' announcements
    (`KripkeModel._parts`); the names of state sets live with the frame.
    A purely epistemic formula is read only as its extent on the kept
    states (`_where`); a restriction on which any other formula is read is
    contracted, so the quantifier rule enumerates exactly the announcements
    expressible there. With `certify=True` every distinct announcement
    choice enumerated by the quantifier rule is checked against its
    realizing formula. The valuation is read only through the truth masks
    `_truth`, which `_revalue` swaps for each candidate of the exhaustive
    search.
    """

    def __init__(self, model: KripkeModel, *, certify: bool = False):
        self._root = model
        self._truth = model._truth_masks
        self._class_at = model._class_at
        self._agent_set = frozenset(model.agents)
        # the whole model's quotient is shared with every evaluator of it,
        # and with it its first sets and option lists
        self._root_quotient = model._whole_quotient
        self._quotients: Dict[int, _Quotient] = {
            self._root_quotient.kept: self._root_quotient}
        self._memo = {}
        self._choice_set_cache = {}
        self._char_tables = {}
        self._extents = {}
        self._parts = {}
        self.certify = certify
        self.certificates = CertificateLog()
        self._cert_seen = set() if certify else frozenset()

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
        return self._states(self._where(self._root_quotient.kept, f))

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
        if self._deciding_group(f) is None:
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
        first = q.first_sets(f.group)[s]
        opponents = self._agent_set - f.group
        # The opponents' first set is their first response, read off their
        # own classes with no enumeration of their unions. Past it, the first
        # losing cut of A0 comes with the first response in product order
        # that leaves it, which is the first response that beats A0.
        response, defeat = self._first_set(q, s, opponents)
        if self._holds_after(first & response, s, f.body):
            defeat = next(choice for kept, choice
                          in self._choice_sets(q, s, opponents).meet(first)
                          if not self._holds_after(kept, s, f.body))
        return Verdict(False,
                       refutation_choice=self._choice(opponents, defeat),
                       refutation_formula=self._realize(q, opponents, defeat))

    # -- internals ---------------------------------------------------------

    def _revalue(self, truth: Dict[str, int]) -> None:
        """Evaluate from now on the model with the root's frame and these
        truth masks (checked, per proposition in model order), which must
        refine every kept mask as the root's do: the exhaustive search
        evaluates all candidates of one refinement group on one evaluator
        (`search.find_countermodel`), and a later search over the same
        vocabulary reads the same evaluators again.

        What an earlier reading left is dropped (`_forget`). The restrictions,
        with their option lists (`_Quotient.unions`), and the choice sets are
        structure only, by the lemma of `model._refine_masks`: a group's
        truth masks induce one partition of the states, so they refine every
        kept mask alike; they read no formula either, so they are kept, for
        the next candidate and the next search. Every later read of the
        valuation goes through `_truth`: atoms, the refinement of a new
        restriction, the characteristic formulas and the realized parts.
        Those of the whole quotient are the model's only while `_truth` is
        the model's own masks (`_reads_model`), so a revalued evaluator
        writes none of the model's tables. A certifying evaluator is
        refused: its certificates belong to one valuation."""
        if self.certify:
            raise ValueError("a certifying evaluator cannot be revalued")
        self._truth = truth
        if self._memo or self._extents or self._char_tables or self._parts:
            self._forget()

    def _forget(self) -> None:
        """Drops what read the valuation, each in one step: the memo, the
        extents, the characteristic formulas and the realized parts. The
        exhaustive search drops them once per candidate, after reading it,
        so the evaluators of a walk it keeps hold no formula's results."""
        self._memo = {}
        self._extents = {}
        self._char_tables = {}
        self._parts = {}

    def _realize(self, q: _Quotient, group, choice: tuple) -> Formula:
        """The announcement formula of a choice on the restriction: the
        conjunction of the members' parts (`_part`)."""
        return conjoin([self._part(q, agent, mask)
                        for agent, mask in zip(self._members(group), choice)])

    def _part(self, q: _Quotient, agent: str, mask: int) -> Formula:
        """One member's announcement on the restriction (`_Quotient.part`),
        realized once per restriction, agent and union; the whole
        quotient's are the model's table (`KripkeModel._parts`) while the
        evaluator reads the model's own truth masks (`_reads_model`). A
        part whose realization raises `ModelError` is not stored: every
        choice that needs it raises, and `_certify` records each."""
        parts = self._parts.get(q.kept)
        if parts is None:
            parts = self._parts[q.kept] = (
                self._root._parts if self._reads_model(q) else {})
        part = parts.get((agent, mask))
        if part is None:
            part = parts[agent, mask] = q.part(self._char_table(q), agent,
                                               mask)
        return part

    def _char_table(self, q: _Quotient) -> dict:
        """The restriction's characteristic formulas. The whole quotient's
        are the model's cached ones (`KripkeModel._chars`) while the
        evaluator reads the model's own truth masks (`_reads_model`)."""
        chars = self._char_tables.get(q.kept)
        if chars is None:
            chars = self._char_tables[q.kept] = (
                self._root._chars if self._reads_model(q)
                else q.chars(self._truth))
        return chars

    def _reads_model(self, q: _Quotient) -> bool:
        """Whether the restriction is the whole model read under the
        model's own valuation, so that what it realizes is the model's."""
        return (q is self._root_quotient
                and self._truth is self._root._truth_masks)

    def _states(self, mask: int) -> frozenset:
        """The names of the states in a mask, named once per mask and frame
        (the model's `_named_sets`)."""
        named = self._root._named_sets
        names = named.get(mask)
        if names is None:
            names = named[mask] = self._root._named(mask)
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

    def _where(self, kept: int, f: Formula) -> int:
        """The kept states at which the formula holds on the restriction to
        `kept`: its extent, computed a set at a time, node by node, memoised
        per (kept, formula). It reads the restriction itself, uncontracted,
        so `kept` may be any set of states: `K a phi` keeps a's root
        classes, cut to the kept states, inside phi's extent, and an
        announcement reads its body on its own extent. Only a quantifier
        fetches the contracted restriction (`_restriction`). One that one
        set decides (`_deciding_group`) reads its body on each first set,
        and the first sets partition the kept states. The empty group's
        first set is `kept` at every rep (`_Quotient.first_sets`), so a
        quantifier that it decides has its body's extent on `kept`, read
        with no quotient fetched: `[G] phi` with phi positive, `<G> phi`
        with phi the negation of a positive formula, and the coalition
        forms whose opponents are empty. Any other quantifier
        is read by `_eval` at each block's rep, and so, under `certify`, is
        every node that is not purely epistemic: a connective read a set at
        a time reads both operands everywhere, so it would certify choices
        that the per-state reads never reach."""
        cls = f.__class__
        if cls is Not:
            return kept & ~self._where(kept, f.body)
        if cls is Atom:
            return self._truth[f.name] & kept
        if cls is Top:
            return kept
        if cls is Bot:
            return 0
        key = (kept, f)
        out = self._extents.get(key)
        if out is not None:
            return out
        if self.certify and not f._epistemic:
            pass  # read per block, below
        elif cls is And:
            out = self._where(kept, f.left)
            if out:
                out &= self._where(kept, f.right)
        elif cls is Or:
            out = self._where(kept, f.left)
            if out != kept:
                out |= self._where(kept, f.right)
        elif cls is Imp:
            out = kept & ~self._where(kept, f.left)
            if out != kept:
                out |= self._where(kept, f.right)
        elif cls is Iff:
            out = ~(self._where(kept, f.left)
                    ^ self._where(kept, f.right)) & kept
        elif cls is Know:
            body = self._where(kept, f.body)
            out = 0
            for c in self._root._class_masks[f.agent]:
                cut = c & kept
                if cut & body == cut:
                    out |= cut
        elif cls is PaDia or cls is PaBox:
            told = self._where(kept, f.announce)
            out = told and self._where(told, f.body)
            if cls is PaBox:
                out |= kept & ~told
        else:
            decider = self._deciding_group(f)
            if decider is None:
                pass  # read per block, below
            elif not decider:
                out = self._where(kept, f.body)
            else:
                firsts, left, out = (
                    self._restriction(kept).first_sets(decider), kept, 0)
                while left:
                    # the lowest state left is its block's rep
                    first = firsts[(left & -left).bit_length() - 1]
                    out |= self._where(first, f.body)
                    left &= ~first
        if out is None:
            q, out = self._restriction(kept), 0
            for rep, block in q.blocks:
                if self._eval(q, rep, f):
                    out |= block
        self._extents[key] = out
        return out

    def _holds_after(self, kept: int, state: int, body: Formula) -> bool:
        """Truth of the body at the state after restricting to `kept`: a bit
        of its extent when it is purely epistemic, else read at the state's
        rep in the restriction's quotient."""
        if body._epistemic:
            return self._where(kept, body) >> state & 1 == 1
        child = self._restriction(kept)
        return self._eval(child, child.rep_of[state], body)

    def _options(self, q: _Quotient, agent: str, rep: int) -> list:
        """The agent's class unions containing the state's class, by size (a
        class weighs its number of blocks), ties broken by class positions
        (`_unions`); computed once per quotient, agent and class, and kept
        on the quotient (`_Quotient.unions`), so every evaluator that holds
        it reads them."""
        classes = q.classes[agent]
        k = 0
        while not classes[k] >> rep & 1:
            k += 1
        key = (agent, k)
        found = q.unions.get(key)
        if found is None:
            sizes = [(c & q.reps).bit_count() for c in classes]
            found = q.unions[key] = _unions(classes, sizes, k)
        return found

    def _first_set(self, q: _Quotient, state: int, group: frozenset):
        """The group's first choice set at the rep and its representative:
        each member announces its own class, so the set is the rep's entry
        of `_Quotient.first_sets` and the choice is the members' own
        classes. Every choice set of the group at the rep contains it."""
        choice = []
        for agent in self._members(group):
            for own in q.classes[agent]:
                if own >> state & 1:
                    break
            choice.append(own)
        return q.first_sets(group)[state], tuple(choice)

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
        body is positive or the negation of a positive formula; else None,
        as always under `certify`, so that `_winner` certifies every set.

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
        if self.certify:
            return None
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
        class (`_Quotient.first_sets`); a set whose trace lost is dropped.

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
        if isinstance(f, (CoalBox, CoalDia)):
            opponents = self._agent_set - f.group
            responses = self._choice_sets(q, state, opponents)
            first = q.first_sets(opponents)[state]
        else:
            responses, first = None, q.kept
        owns = self._choice_sets(q, state, f.group)
        body = f.body
        verdicts = {}
        if owns.rest is not None and first != q.kept:
            for trace, _ in _distinct_sets(first, owns.options):
                won = verdicts[trace] = (
                    self._holds_after(trace, state, body) == goal)
                if won:
                    break
            else:
                return None
        for own, own_choice in owns:
            trace = own & first
            won = verdicts.get(trace)
            if won is None:
                won = verdicts[trace] = (
                    self._holds_after(trace, state, body) == goal)
            if not won:
                continue
            if responses is None:
                return own_choice
            for kept, _ in responses.meet(own):
                won = verdicts.get(kept)
                if won is None:
                    won = verdicts[kept] = (
                        self._holds_after(kept, state, body) == goal)
                if not won:
                    break
            else:
                return own_choice
        return None

    def _certify(self, q: _Quotient, group: frozenset, choice: tuple) -> None:
        """Check that the formula realizing the choice holds exactly on the
        choice's set, the intersection of its parts' extents (`_part`);
        record a mismatch, or a realization that fails."""
        key = (q.kept, group, choice)
        if key in self._cert_seen:
            return
        self._cert_seen.add(key)
        self.certificates.checked += 1
        expected = got = q.kept
        for part in choice:
            expected &= part
        try:
            for agent, mask in zip(self._members(group), choice):
                got &= self._where(q.kept, self._part(q, agent, mask))
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
        than to look up, so they bypass the memo, and a negation adds no
        frame of its own. Any other purely epistemic node is one bit of its
        extent on the kept states (`_where`); every other node is memoised
        per (restriction, rep, formula). A quantifier reads its body after
        the one set that decides it (`_deciding_group`), or else `_winner`."""
        cls = f.__class__
        if cls is Not:
            return not self._eval(q, state, f.body)
        if cls is Atom:
            return self._truth[f.name] >> state & 1 == 1
        if cls is Top:
            return True
        if cls is Bot:
            return False
        if f._epistemic:
            return self._where(q.kept, f) >> state & 1 == 1
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
            # the reps of the blocks the class meets
            peers = q.reps_meeting(seen)
            hit = True
            while peers:
                low = peers & -peers
                if not self._eval(q, low.bit_length() - 1, f.body):
                    hit = False
                    break
                peers ^= low
        elif (cls is CoalDia or cls is GroupBox or cls is CoalBox
              or cls is GroupDia):
            decider = self._deciding_group(f)
            if decider is not None:
                hit = self._holds_after(q.first_sets(decider)[state], state,
                                        f.body)
            else:
                hit = ((self._winner(q, state, f) is not None)
                       == (cls is GroupDia or cls is CoalDia))
        elif cls is PaDia or cls is PaBox:
            if self._eval(q, state, f.announce):
                hit = self._holds_after(self._where(q.kept, f.announce),
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
