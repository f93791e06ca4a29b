"""Compilation of public-announcement formulas into the announcement-free
epistemic language.

The rewrite system peels announcement operators by the standard reduction
equivalences (atom, negation, conjunction, knowledge, composition). Each
rewrite strictly decreases a multiplicative weight, which guarantees
termination; the additive size measure does not decrease on the composition
rewrite, so the weight below charges an announcement multiplicatively.
"""

from __future__ import annotations

from .formula import (
    And, Atom, Formula, Fragment, Know, Not, PaBox, Top,
    fragment, normalize, _parts, _rebuild,
)

__all__ = ["translate"]


def _weight(f: Formula) -> int:
    """Termination measure on primitive-form formulas; announcements weigh
    (4 + weight(announcement)) * weight(body)."""
    if isinstance(f, (Atom, Top)):
        return 1
    if isinstance(f, Not):
        return 1 + _weight(f.body)
    if isinstance(f, Know):
        return 1 + _weight(f.body)
    if isinstance(f, And):
        return 1 + max(_weight(f.left), _weight(f.right))
    if isinstance(f, PaBox):
        return (4 + _weight(f.announce)) * _weight(f.body)
    raise TypeError(f"not in the announcement-free/PAL primitive fragment: {f!r}")


def _imp(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def _step(f: PaBox) -> Formula:
    """One reduction rewrite of an announcement, by the shape of its body.
    The result weighs less than `f` (see `_weight`)."""
    announce, body = f.announce, f.body
    if isinstance(body, (Atom, Top)):
        return _imp(announce, body)
    if isinstance(body, Not):
        return _imp(announce, Not(PaBox(announce, body.body)))
    if isinstance(body, And):
        return And(PaBox(announce, body.left), PaBox(announce, body.right))
    if isinstance(body, Know):
        return _imp(announce, Know(body.agent, PaBox(announce, body.body)))
    if isinstance(body, PaBox):
        return PaBox(And(announce, PaBox(announce, body.announce)), body.body)
    raise TypeError(f"announcement body outside PAL: {body!r}")


def _t(f: Formula, memo: dict) -> Formula:
    """The rewrite of a node, memoised per node in `memo`: nodes are
    hash-consed, so a subformula met twice in one call is rewritten once.
    One frame per nesting level, so no comprehension."""
    out = memo.get(f)
    if out is None:
        if isinstance(f, PaBox):
            out = _t(_step(f), memo)
        elif isinstance(f, (Atom, Top, Not, And, Know)):
            parts = []
            for g in _parts(f):
                parts.append(_t(g, memo))
            out = _rebuild(f, parts)
        else:
            raise TypeError(f"not in the PAL primitive fragment: {f!r}")
        memo[f] = out
    return out


def translate(f: Formula) -> Formula:
    """Equivalent announcement-free formula for a PAL input.

    The input is normalized to primitive connectives first; the result is in
    primitive form and has the same extension in every model. Group and
    coalition operators are rejected: no such reduction exists for them.
    """
    frag = fragment(f)
    if frag not in (Fragment.EL, Fragment.PAL):
        raise ValueError("translation is defined for the announcement fragment "
                         f"only; input is in {frag.name}")
    return _t(normalize(f), {})
