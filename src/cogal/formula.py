"""Syntax of coalition and group announcement logic (CoGAL).

Formula AST nodes, the ASCII concrete syntax (parser and renderer),
language-fragment classification, size and announcement-depth measures,
and necessity forms (formula contexts with a single hole).
"""

from __future__ import annotations

import itertools
import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass
from enum import IntEnum
from typing import Iterable, Mapping

__all__ = [
    "Formula", "Atom", "Top", "Bot", "Not", "And", "Or", "Imp", "Iff",
    "Know", "PaBox", "PaDia", "GroupBox", "GroupDia", "CoalBox", "CoalDia",
    "NecessityForm", "Hole", "ImpCtx", "KnowCtx", "PaCtx",
    "Fragment", "ParseError",
    "parse", "render", "normalize", "resugar", "fragment",
    "is_group_announcement", "size", "depth_pa", "depth_ca", "order_lt",
    "instantiate", "substitute", "atoms", "agents_of", "conjuncts",
    "conjoin", "disjoin",
]

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")
_RESERVED = frozenset({"top", "bot"})


# Names that passed `_require_ident`. Only exact `str` objects are looked
# up, so no other type reaches the set and no lookup needs a hash of an
# arbitrary object; entries are only ever added.
_ACCEPTED = set()


def _require_ident(name: str, role: str) -> None:
    if type(name) is str and name in _ACCEPTED:
        return
    if not isinstance(name, str) or not _IDENT_RE.fullmatch(name) or name in _RESERVED:
        raise ValueError(f"invalid {role} name {name!r}: expected [a-z][a-z0-9_]* "
                         f"other than the reserved words 'top' and 'bot'")
    if type(name) is str:
        _ACCEPTED.add(name)


# Vocabulary registry: each ("p", proposition) or ("a", agent) name gets
# one bit the first time a node or a model mentions it, so a node's
# vocabulary is an int mask. The registry is process-wide because masks of
# any formula and any model must be comparable; entries are only ever
# added. A racing first mention may draw an index that is never used, but
# `setdefault` keeps one bit per name, and the index is decodable before
# any mask can carry it. Bit order and `str` hashes differ between
# processes, so nodes pickle through their constructor (`__reduce__`).
_PROP, _AGENT = "p", "a"
_VOCAB_BITS: dict = {}
_VOCAB_KEYS: dict = {}
_next_index = itertools.count()


def _bit(key: tuple) -> int:
    bit = _VOCAB_BITS.get(key)
    if bit is None:
        index = next(_next_index)
        _VOCAB_KEYS[index] = key
        bit = _VOCAB_BITS.setdefault(key, 1 << index)
    return bit


def _vocab_mask(agents: Iterable[str] = (), props: Iterable[str] = ()) -> int:
    """Mask of the given agent and proposition names, comparable with the
    `_mask` every formula node carries."""
    mask = 0
    for name in agents:
        mask |= _bit((_AGENT, name))
    for name in props:
        mask |= _bit((_PROP, name))
    return mask


# Node fields that hold names rather than subnodes, and the names' kind.
_VOCAB_FIELDS = {"name": _PROP, "agent": _AGENT, "group": _AGENT}


def _not_a_formula(value) -> TypeError:
    return TypeError(f"not a formula: {value!r}")


# Interning table: one entry per live node, keyed by `(cls, *fields)`. A
# subnode in a key hashes and compares by identity (nodes take `__eq__`
# and `__hash__` from `object`), so no lookup walks a formula. An entry is
# a weak reference that carries its key; when its node dies, the callback
# removes the entry unless it already maps to a live node. Every step is
# one dict operation in C (`_remove_dead_weakref`, the helper behind
# `weakref.WeakValueDictionary`, deletes a key only while it maps to a dead
# reference), so threads that build the same formula at once get one node.
_TABLE: dict = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)


# bound as defaults: a callback can run at interpreter exit, after the
# module's globals are cleared
def _drop(entry, _remove=_remove_dead_weakref, _table=_TABLE):
    _remove(_table, entry.key)


def _intern(key, node):
    """Store the new `node` under `key`, or return the node that another
    thread stored there first. A dead entry whose callback has not run yet
    is removed, and the insert retried."""
    entry = _Entry(node, _drop)
    entry.key = key
    while True:
        found = _TABLE.setdefault(key, entry)
        if found is entry:
            return node
        other = found()
        if other is not None:
            return other
        _remove_dead_weakref(_TABLE, key)


def _constructor(cls, names: tuple):
    """The `__new__` of a node class: check the node's names (a group is
    first coerced to a frozenset), then its subnodes, then return the live
    node with the same class and fields, or else build one and store its
    `_mask`, and `_epistemic` = False if a subnode is not purely epistemic
    and the class leaves the fact to the node. Names are checked before
    subnodes, so a bad name raises `ValueError` whatever the subnode. One
    variant per field shape (none, a name, one subnode, two subnodes, a
    name and a subnode), so building a node runs no loop over its fields.
    A node without fields is built once."""
    # not through `__dict__`, which would give each node a dict object
    setter, blank, get = object.__setattr__, object.__new__, _TABLE.get
    kind = _VOCAB_FIELDS.get(names[0]) if names else None
    # whether the node's `_epistemic` follows its subnodes': not for an
    # announcement, a quantifier or a necessity form (false in the class)
    derived = getattr(cls, "_epistemic", False)
    role = "proposition" if kind == _PROP else "agent"
    shape = (len(names), kind is not None)

    if shape == (0, False):
        unit = blank(cls)
        setter(unit, "_mask", 0)

        def __new__(cls):
            return unit

    elif shape == (1, True):
        (field,) = names

        def __new__(cls, value):
            _require_ident(value, role)
            key = (cls, value)
            entry = get(key)
            node = entry and entry()
            if node is None:
                node = blank(cls)
                setter(node, field, value)
                setter(node, "_mask", _bit((kind, value)))
                node = _intern(key, node)
            return node

    elif shape == (1, False):
        (field,) = names

        def __new__(cls, body):
            try:
                mask = body._mask
            except AttributeError:
                raise _not_a_formula(body) from None
            key = (cls, body)
            entry = get(key)
            node = entry and entry()
            if node is None:
                node = blank(cls)
                setter(node, field, body)
                setter(node, "_mask", mask)
                if derived and not body._epistemic:
                    setter(node, "_epistemic", False)
                node = _intern(key, node)
            return node

    elif shape == (2, False):
        first, second = names

        def __new__(cls, left, right):
            try:
                mask = left._mask | right._mask
            except AttributeError:
                bad = right if hasattr(left, "_mask") else left
                raise _not_a_formula(bad) from None
            key = (cls, left, right)
            entry = get(key)
            node = entry and entry()
            if node is None:
                node = blank(cls)
                setter(node, first, left)
                setter(node, second, right)
                setter(node, "_mask", mask)
                if derived and not (left._epistemic and right._epistemic):
                    setter(node, "_epistemic", False)
                node = _intern(key, node)
            return node

    elif shape == (2, True):
        label, sub = names
        single = label != "group"

        def __new__(cls, value, body):
            if single:
                _require_ident(value, role)
            else:
                value = frozenset(value)
                for member in value:
                    _require_ident(member, role)
            try:
                mask = body._mask
            except AttributeError:
                raise _not_a_formula(body) from None
            key = (cls, value, body)
            entry = get(key)
            node = entry and entry()
            if node is None:
                if single:
                    mask |= _bit((kind, value))
                else:
                    for member in value:
                        mask |= _bit((kind, member))
                node = blank(cls)
                setter(node, label, value)
                setter(node, sub, body)
                setter(node, "_mask", mask)
                if derived and not body._epistemic:
                    setter(node, "_epistemic", False)
                node = _intern(key, node)
            return node

    else:
        raise TypeError(f"no node shape for the fields {names} of {cls.__name__}")
    # the fields' names as parameter names, so nodes build by keyword too
    # (as `dataclasses.replace` does)
    code = __new__.__code__
    __new__.__code__ = code.replace(
        co_varnames=("cls",) + names + code.co_varnames[1 + len(names):])
    __new__.__qualname__ = f"{cls.__name__}.__new__"
    return __new__


def _node_reduce(self):
    return self.__class__, tuple([getattr(self, n) for n in self._field_names])


def _node(cls):
    """Frozen dataclass node, interned: its constructor returns the live
    node with the same class and fields if there is one (`_constructor`),
    so structurally equal nodes are one object, and equality and hashing
    are `object`'s identity. The table holds nodes weakly, so a formula no
    one refers to is freed.

    `_mask` is the vocabulary, the atoms and agents the node mentions (see
    `_vocab_mask`): the OR of the subnodes' masks and the node's own name,
    agent or group, computed once when the node is built. `_epistemic` is
    whether the node is purely epistemic, with no announcement and no
    quantifier in it: true in `Formula`, false in the classes of
    announcements, quantifiers and necessity forms, and stored false on a
    node built over a subnode that is not, so the many purely epistemic
    nodes store nothing.
    Nodes pickle and copy through their constructor (`_node_reduce`), so
    an unpickled or copied node is the interned one, with facts rebuilt in
    the receiving process."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    # `repr` and the frozen setters come from the base class, written once
    # rather than generated per class
    cls = dataclass(eq=False, init=False, repr=False)(cls)
    cls.__new__ = _constructor(cls, names)
    cls._field_names = names
    cls.__reduce__ = _node_reduce
    return cls


class Formula:
    """Base class for formula nodes; values are immutable and interned, so
    equal formulas are one object."""

    _epistemic = True  # see `_node`

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Imp(self, other)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._field_names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@_node
class Atom(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Know(Formula):
    agent: str
    body: Formula


@_node
class PaBox(Formula):
    """Public announcement box: after a truthful announcement, the body holds."""
    announce: Formula
    body: Formula
    _epistemic = False


@_node
class PaDia(Formula):
    """Public announcement diamond: the announcement is truthful and the body holds after it."""
    announce: Formula
    body: Formula
    _epistemic = False


@_node
class GroupBox(Formula):
    """After every joint truthful announcement by the group, the body holds."""
    group: frozenset
    body: Formula
    _epistemic = False


@_node
class GroupDia(Formula):
    """Some joint truthful announcement by the group makes the body hold."""
    group: frozenset
    body: Formula
    _epistemic = False


@_node
class CoalBox(Formula):
    """For every announcement by the group, the other agents have a simultaneous
    response after which the body holds."""
    group: frozenset
    body: Formula
    _epistemic = False


@_node
class CoalDia(Formula):
    """The group has an announcement after which the body holds no matter what
    the other agents announce simultaneously."""
    group: frozenset
    body: Formula
    _epistemic = False


_GROUPED = (GroupBox, GroupDia, CoalBox, CoalDia)


def _parts(f: Formula) -> tuple:
    """The node's subformulas, in field order."""
    if isinstance(f, (Atom, Top, Bot)):
        return ()
    if isinstance(f, (Not, Know, GroupBox, GroupDia, CoalBox, CoalDia)):
        return (f.body,)
    if isinstance(f, (And, Or, Imp, Iff)):
        return (f.left, f.right)
    if isinstance(f, (PaBox, PaDia)):
        return (f.announce, f.body)
    raise _not_a_formula(f)


def _rebuild(f: Formula, parts) -> Formula:
    """A node of f's class with f's agent or group over new subformulas,
    given in `_parts` order; a leaf is returned as it is. Callers gather
    the new parts in a plain loop: before Python 3.12 a comprehension runs
    in a frame of its own, which would halve the nesting depth they reach."""
    if isinstance(f, Know):
        return Know(f.agent, *parts)
    if isinstance(f, _GROUPED):
        return type(f)(f.group, *parts)
    return type(f)(*parts) if parts else f


def _mask(f: Formula) -> int:
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return f._mask


def _names(f: Formula, kind: str) -> frozenset:
    mask = _mask(f)
    out = []
    while mask:
        low = mask & -mask
        key = _VOCAB_KEYS[low.bit_length() - 1]
        if key[0] == kind:
            out.append(key[1])
        mask ^= low
    return frozenset(out)


def atoms(f: Formula) -> frozenset:
    """All proposition names occurring in the formula."""
    return _names(f, _PROP)


def agents_of(f: Formula) -> frozenset:
    """All agent names occurring in the formula, including group members."""
    return _names(f, _AGENT)


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace atoms by formulas; names missing from the mapping are kept."""
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    parts = []
    for g in _parts(f):
        parts.append(substitute(g, mapping))
    return _rebuild(f, parts)


def conjuncts(f: Formula) -> list:
    """Flatten a conjunction tree into its leaves (associativity only)."""
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


def conjoin(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty input yields top."""
    out = None
    for p in parts:
        out = p if out is None else And(out, p)
    return Top() if out is None else out


def disjoin(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty input yields bot."""
    out = None
    for p in parts:
        out = p if out is None else Or(out, p)
    return Bot() if out is None else out


# --- fragments -------------------------------------------------------------

class Fragment(IntEnum):
    EL = 0
    PAL = 1
    GAL = 2
    COGAL = 3


def fragment(f: Formula) -> Fragment:
    """Smallest sublanguage containing the formula."""
    worst = Fragment.EL
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (CoalBox, CoalDia)):
            return Fragment.COGAL
        if isinstance(g, (GroupBox, GroupDia)):
            worst = max(worst, Fragment.GAL)
        elif isinstance(g, (PaBox, PaDia)):
            worst = max(worst, Fragment.PAL)
        stack.extend(_parts(g))
    return worst


def is_group_announcement(f: Formula, group: Iterable[str]) -> bool:
    """Whether f is a joint announcement for the group: one purely epistemic
    knowledge conjunct per member, up to associativity of conjunction.

    The empty group announces the empty conjunction, i.e. exactly top.
    """
    members = frozenset(group)
    if not members:
        return isinstance(f, Top)
    seen = set()
    for part in conjuncts(f):
        if not isinstance(part, Know) or part.agent not in members:
            return False
        if part.agent in seen:
            return False
        if not part.body._epistemic:
            return False
        seen.add(part.agent)
    return seen == members


# --- normal form and measures ----------------------------------------------

def normalize(f: Formula) -> Formula:
    """Expand derived connectives into the primitive set
    {atom, top, ~, &, K, [.]., [G], [<G>]} via the standard abbreviations."""
    if isinstance(f, Bot):
        return Not(Top())
    parts = []
    for g in _parts(f):
        parts.append(normalize(g))
    if isinstance(f, Or):
        return Not(And(Not(parts[0]), Not(parts[1])))
    if isinstance(f, (Imp, Iff)):
        left, right = parts
        imp = Not(And(left, Not(right)))
        return imp if isinstance(f, Imp) else And(imp, Not(And(right, Not(left))))
    if isinstance(f, PaDia):
        return Not(PaBox(parts[0], Not(parts[1])))
    if isinstance(f, (GroupDia, CoalDia)):
        box = GroupBox if isinstance(f, GroupDia) else CoalBox
        return Not(box(f.group, Not(parts[0])))
    return _rebuild(f, parts)


def _measures(f: Formula) -> tuple:
    """(coalition depth, group depth, size) of a primitive-form formula.
    Each depth counts nested quantifiers of its kind, the other kind being
    transparent; an announcement adds the depths of both its parts. Size
    charges an announcement triple for its body."""
    if isinstance(f, (Atom, Top)):
        return 0, 0, 1
    if isinstance(f, (Not, Know, GroupBox, CoalBox)):
        ca, pa, n = _measures(f.body)
        return ca + isinstance(f, CoalBox), pa + isinstance(f, GroupBox), n + 1
    if isinstance(f, (And, PaBox)):
        left, right = _parts(f)
        (ca, pa, n), (ca2, pa2, n2) = _measures(left), _measures(right)
        if isinstance(f, And):
            return max(ca, ca2), max(pa, pa2), n + n2 + 1
        return ca + ca2, pa + pa2, n + 3 * n2
    raise TypeError(f"not in primitive form: {f!r}")


def size(f: Formula) -> int:
    """Weighted size; announcements charge triple for their body. Derived
    connectives are expanded before measuring."""
    return _measures(normalize(f))[2]


def depth_pa(f: Formula) -> int:
    """Nesting depth of group-announcement quantifiers (announcement prefixes
    add the depths of both parts)."""
    return _measures(normalize(f))[1]


def depth_ca(f: Formula) -> int:
    """Nesting depth of coalition-announcement quantifiers; group quantifiers
    are transparent."""
    return _measures(normalize(f))[0]


def order_lt(f: Formula, g: Formula) -> bool:
    """Strict well-founded order: lexicographic on (coalition depth,
    group depth, size)."""
    return _measures(normalize(f)) < _measures(normalize(g))


# --- necessity forms ---------------------------------------------------------

class NecessityForm:
    """Formula context with exactly one hole, closed under implication tails,
    knowledge operators, and announcement prefixes."""

    _epistemic = False  # not a formula: `Evaluator._eval` rejects it
    __repr__ = Formula.__repr__
    __setattr__ = Formula.__setattr__
    __delattr__ = Formula.__delattr__


@_node
class Hole(NecessityForm):
    pass


@_node
class ImpCtx(NecessityForm):
    premise: Formula
    tail: NecessityForm


@_node
class KnowCtx(NecessityForm):
    agent: str
    tail: NecessityForm


@_node
class PaCtx(NecessityForm):
    announce: Formula
    tail: NecessityForm


def instantiate(form: NecessityForm, f: Formula) -> Formula:
    """Replace the hole of the context with the given formula."""
    if isinstance(form, Hole):
        return f
    if isinstance(form, ImpCtx):
        return Imp(form.premise, instantiate(form.tail, f))
    if isinstance(form, KnowCtx):
        return Know(form.agent, instantiate(form.tail, f))
    if isinstance(form, PaCtx):
        return PaBox(form.announce, instantiate(form.tail, f))
    raise TypeError(f"not a necessity form: {form!r}")


# --- concrete syntax ---------------------------------------------------------

class ParseError(ValueError):
    """Malformed concrete syntax; carries position and the expected tokens."""

    def __init__(self, message: str, line: int, column: int,
                 expected: Iterable[str] = ()):
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
        text = f"{message} at line {line}, column {column}"
        if self.expected:
            text += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(text)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(rf"[^\S\n]*(?:(\n)|(<->|->|[~&|()\[\]<>{{}},K])"
                       rf"|({_IDENT_RE.pattern})|(\S))")


def _tokenize(text: str) -> list:
    """One scan of `_TOKEN_RE`, each match any whitespace but a newline and
    then a newline, an operator or bracket (its own kind), a name ("ident"
    unless reserved) or an unknown character. Columns count from 1."""
    tokens = []
    line, start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 1:
            line, start = line + 1, m.end()
            continue
        value, column = m[group], m.start(group) - start + 1
        if group == 4:
            raise ParseError(f"unknown operator or character {value!r}",
                             line, column)
        kind = "ident" if group == 3 and value not in _RESERVED else value
        tokens.append(_Token(kind, value, line, column))
    tokens.append(_Token("eof", "", line, len(text) - start + 1))
    return tokens


_UNARY_START = ("'~'", "'K'", "'['", "'<'", "'('", "identifier", "'top'", "'bot'")


# Precedence levels, tighter binds higher.
_P_IFF, _P_IMP, _P_OR, _P_AND, _P_UNARY, _P_ATOM = 1, 2, 3, 4, 5, 6

# Binary operators by token: node class, precedence, right associative.
# Any other token ends an operand's expression, binding loosest of all.
_BINARY = {"<->": (Iff, _P_IFF, True), "->": (Imp, _P_IMP, True),
           "|": (Or, _P_OR, False), "&": (And, _P_AND, False)}
_END = (None, 0, False)

# Tokens that open a nesting level where an operand is expected.
_PREFIX = frozenset({"~", "K", "[", "<", "("})

# How many operators and brackets may wait on the parser's stack at once.
_MAX_NESTING = 1000


class _Parser:
    """Operator-precedence parsing over an explicit stack, so nesting costs
    no Python frames, and a formula nested too deeply fails at the same
    token whatever the caller's own stack depth.

    The stack holds, innermost last, what still waits for an operand:
    ("pre", cls, args) a prefix operator, built as cls(*args, operand);
    ("bin", cls, prec, left) a binary operator and its left operand;
    ("open", close, cls) a parenthesis (cls None) or an announcement's
    brackets, whose formula becomes cls's announcement. No entry is pushed
    past `_MAX_NESTING`."""

    def __init__(self, tokens: list):
        self._toks = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._toks[self._pos]

    def _advance(self) -> _Token:
        tok = self._toks[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.value!r}" if tok.kind != "eof"
                             else "unexpected end of input",
                             tok.line, tok.column, (what,))
        return self._advance()

    @staticmethod
    def _room(stack: list, tok: _Token) -> None:
        """Raises at `tok` when the stack is full."""
        if len(stack) == _MAX_NESTING:
            raise ParseError("formula nested too deeply", tok.line, tok.column)

    def parse(self) -> Formula:
        stack = []
        while True:
            # an operand starts: its prefix operators and brackets, then an atom
            tok = self._peek()
            if tok.kind in _PREFIX:
                self._room(stack, tok)
                self._advance()
                if tok.kind == "~":
                    stack.append(("pre", Not, ()))
                elif tok.kind == "K":
                    agent = self._expect("ident", "agent name").value
                    stack.append(("pre", Know, (agent,)))
                elif tok.kind == "(":
                    stack.append(("open", ")", None))
                else:
                    stack.append(self._bracketed(tok.kind == "["))
                continue
            if tok.kind == "ident":
                f = Atom(tok.value)
            elif tok.kind == "top":
                f = Top()
            elif tok.kind == "bot":
                f = Bot()
            else:
                raise ParseError(f"unexpected {tok.value!r}" if tok.kind != "eof"
                                 else "unexpected end of input",
                                 tok.line, tok.column, _UNARY_START)
            self._advance()
            # the operand is whole: build what waited for it, up to the next
            # binary operator, or to the end of its brackets or of the input
            while True:
                while stack and stack[-1][0] == "pre":
                    _, cls, args = stack.pop()
                    f = cls(*args, f)
                tok = self._peek()
                cls, prec, right = _BINARY.get(tok.kind, _END)
                while (stack and stack[-1][0] == "bin"
                       and (stack[-1][2] > prec
                            or stack[-1][2] == prec and not right)):
                    _, left_cls, _, left = stack.pop()
                    f = left_cls(left, f)
                if cls is not None:
                    self._room(stack, tok)
                    self._advance()
                    stack.append(("bin", cls, prec, f))
                    break
                if not stack:
                    if tok.kind != "eof":
                        raise ParseError(f"unexpected trailing {tok.value!r}",
                                         tok.line, tok.column, ("end of input",))
                    return f
                _, close, cls = stack.pop()
                self._expect(close, f"'{close}'")
                if cls is not None:
                    # an announcement: its body follows
                    stack.append(("pre", cls, (f,)))
                    break

    def _group(self) -> frozenset:
        self._expect("{", "'{'")
        names = []
        if self._peek().kind == "ident":
            names.append(self._advance().value)
            while self._peek().kind == ",":
                self._advance()
                names.append(self._expect("ident", "agent name").value)
        self._expect("}", "'}'")
        return frozenset(names)

    def _bracketed(self, box: bool) -> tuple:
        """The stack entry of a box (already past '[') or a diamond (already
        past '<'): of a group `[G]`, of a coalition `[<G>]`, or of an
        announcement, whose formula comes next."""
        close, inner_open, inner_close = ("]", "<", ">") if box else (">", "[", "]")
        if self._peek().kind == "{":
            group = self._group()
            self._expect(close, f"'{close}'")
            return "pre", GroupBox if box else GroupDia, (group,)
        start = self._pos
        try:
            self._expect(inner_open, f"'{inner_open}'")
            group = self._group()
            self._expect(inner_close, f"'{inner_close}'")
            self._expect(close, f"'{close}'")
        except ParseError:
            # not a coalition: the brackets hold an announcement
            self._pos = start
            return "open", close, PaBox if box else PaDia
        return "pre", CoalBox if box else CoalDia, (group,)


def parse(text: str) -> Formula:
    """Parse the ASCII surface syntax into a formula AST."""
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse()
    except RecursionError:
        # a backstop: the parser keeps its nesting on its own stack, but a
        # caller may call it with next to no frames left
        tok = parser._peek()
        raise ParseError("formula nested too deeply", tok.line, tok.column) from None


# The brackets around each bracketed operator's announcement or group,
# split in half into the opening and the closing part.
_BRACKETS = {PaBox: "[]", PaDia: "<>", GroupBox: "[]", GroupDia: "<>",
             CoalBox: "[<>]", CoalDia: "<[]>"}


def _render(f: Formula, minimum: int) -> str:
    if isinstance(f, Atom):
        text, prec = f.name, _P_ATOM
    elif isinstance(f, Top):
        text, prec = "top", _P_ATOM
    elif isinstance(f, Bot):
        text, prec = "bot", _P_ATOM
    elif isinstance(f, Not):
        text, prec = "~" + _render(f.body, _P_UNARY), _P_UNARY
    elif isinstance(f, Know):
        text, prec = f"K {f.agent} " + _render(f.body, _P_UNARY), _P_UNARY
    elif type(f) in _BRACKETS:
        brackets = _BRACKETS[type(f)]
        half = len(brackets) // 2
        inner = (_render(f.announce, 0) if isinstance(f, (PaBox, PaDia))
                 else "{" + ",".join(sorted(f.group)) + "}")
        text = (brackets[:half] + inner + brackets[half:] + " "
                + _render(f.body, _P_UNARY))
        prec = _P_UNARY
    elif isinstance(f, And):
        text = _render(f.left, _P_AND) + " & " + _render(f.right, _P_AND + 1)
        prec = _P_AND
    elif isinstance(f, Or):
        text = _render(f.left, _P_OR) + " | " + _render(f.right, _P_OR + 1)
        prec = _P_OR
    elif isinstance(f, Imp):
        text = _render(f.left, _P_IMP + 1) + " -> " + _render(f.right, _P_IMP)
        prec = _P_IMP
    elif isinstance(f, Iff):
        text = _render(f.left, _P_IFF + 1) + " <-> " + _render(f.right, _P_IFF)
        prec = _P_IFF
    else:
        raise TypeError(f"not a formula: {f!r}")
    if prec < minimum:
        return "(" + text + ")"
    return text


def render(f: Formula) -> str:
    """Minimal-parenthesis surface syntax; reparsing yields the same AST."""
    return _render(f, 0)


def resugar(f: Formula) -> Formula:
    """Display aid: fold `~(x & ~y)` back into `x -> y` and `~top` into `bot`,
    bottom-up. Semantics-preserving."""
    parts = []
    for g in _parts(f):
        parts.append(resugar(g))
    if isinstance(f, Not):
        (body,) = parts
        if isinstance(body, Top):
            return Bot()
        if isinstance(body, And) and isinstance(body.right, Not):
            return Imp(body.left, body.right.body)
    return _rebuild(f, parts)
