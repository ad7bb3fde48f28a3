"""Reference Sequitur: the linked-symbol object graph.

The straightforward rendering of Nevill-Manning & Witten's SEQUITUR:
every grammar position is a :class:`Terminal`, :class:`NonTerminal` or
:class:`Guard` object in a circular doubly-linked list per rule, and
the digram index is keyed by ``(kind, token)`` tuples.
:class:`repro.grammar.sequitur.Sequitur` keeps the same grammar in
parallel integer arrays; its rules (ids, reference counts, right-hand
sides and expansions) must equal this one's rule for rule.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

__all__ = ["Guard", "LinkedSequitur", "NonTerminal", "Rule", "Symbol", "Terminal"]


class Symbol:
    """Base node of a rule's right-hand side linked list."""

    __slots__ = ("prev", "next")

    def __init__(self) -> None:
        self.prev: Optional[Symbol] = None
        self.next: Optional[Symbol] = None

    # -- linked-list plumbing -------------------------------------------------

    def insert_after(self, symbol: "Symbol") -> None:
        """Splice *symbol* into the list directly after ``self``."""
        symbol.prev = self
        symbol.next = self.next
        if self.next is not None:
            self.next.prev = symbol
        self.next = symbol

    def unlink(self) -> None:
        """Remove ``self`` from its list (pointers of neighbours fixed up)."""
        if self.prev is not None:
            self.prev.next = self.next
        if self.next is not None:
            self.next.prev = self.prev
        self.prev = None
        self.next = None

    # -- digram identity ------------------------------------------------------

    def key(self):  # noqa: ANN201 - heterogeneous key
        """Hashable identity used in the digram index."""
        raise NotImplementedError

    def is_guard(self) -> bool:
        """True for the guard sentinel."""
        return False

    def is_nonterminal(self) -> bool:
        """True for rule references."""
        return False


class Terminal(Symbol):
    """A terminal token (one SAX word)."""

    __slots__ = ("token",)

    def __init__(self, token: str) -> None:
        super().__init__()
        self.token = token

    def key(self) -> tuple[str, str]:
        """Hashable identity used by the digram index."""
        return ("t", self.token)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Terminal({self.token!r})"


class NonTerminal(Symbol):
    """A reference to a rule; increments the rule's use count while linked."""

    __slots__ = ("rule",)

    def __init__(self, rule: Rule) -> None:
        super().__init__()
        self.rule = rule
        rule.refcount += 1

    def release(self) -> None:
        """Drop the reference (called when this symbol is removed)."""
        self.rule.refcount -= 1

    def key(self) -> tuple[str, int]:
        """Hashable identity used by the digram index."""
        return ("r", self.rule.rule_id)

    def is_nonterminal(self) -> bool:
        """True for rule references."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NonTerminal(R{self.rule.rule_id})"


class Guard(Symbol):
    """Sentinel owned by each rule; never part of a digram."""

    __slots__ = ("rule",)

    def __init__(self, rule: Rule) -> None:
        super().__init__()
        self.rule = rule
        self.prev = self
        self.next = self

    def key(self) -> tuple[str, int]:
        """Hashable identity used by the digram index."""
        return ("g", self.rule.rule_id)

    def is_guard(self) -> bool:
        """True for the guard sentinel."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Guard(R{self.rule.rule_id})"


class Rule:
    """A context-free rule: ``R<i> -> s1 s2 ... sk``.

    The right-hand side is a circular doubly-linked list anchored at a
    guard sentinel. ``refcount`` counts how many :class:`NonTerminal`
    symbols currently reference the rule; Sequitur's *rule utility*
    constraint inlines any rule whose refcount drops to 1.
    """

    __slots__ = ("rule_id", "guard", "refcount")

    def __init__(self, rule_id: int) -> None:
        self.rule_id = rule_id
        self.refcount = 0
        self.guard = Guard(self)

    # -- structure ------------------------------------------------------------

    @property
    def first(self) -> Symbol:
        """First RHS symbol."""
        assert self.guard.next is not None
        return self.guard.next

    @property
    def last(self) -> Symbol:
        """Last RHS symbol."""
        assert self.guard.prev is not None
        return self.guard.prev

    def is_empty(self) -> bool:
        """True when the RHS holds no symbols."""
        return self.guard.next is self.guard

    def symbols(self) -> Iterator[Symbol]:
        """Iterate the right-hand side symbols (guard excluded)."""
        node = self.guard.next
        while node is not None and node is not self.guard:
            yield node
            node = node.next

    def append(self, symbol: Symbol) -> None:
        """Append a symbol at the end of the RHS."""
        self.guard.prev.insert_after(symbol)

    def __len__(self) -> int:
        return sum(1 for _ in self.symbols())

    # -- expansion ------------------------------------------------------------

    def expansion(self) -> list[str]:
        """The terminal token sequence this rule ultimately derives."""
        out: list[str] = []
        self._expand_into(out)
        return out

    def _expand_into(self, out: list[str]) -> None:
        for symbol in self.symbols():
            if isinstance(symbol, Terminal):
                out.append(symbol.token)
            elif isinstance(symbol, NonTerminal):
                symbol.rule._expand_into(out)

    def rhs_string(self) -> str:
        """Human-readable right-hand side, e.g. ``'aba R2 R2'``."""
        parts: list[str] = []
        for symbol in self.symbols():
            if isinstance(symbol, Terminal):
                # Tokens may be SAX words or integer token ids.
                parts.append(str(symbol.token))
            elif isinstance(symbol, NonTerminal):
                parts.append(f"R{symbol.rule.rule_id}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Rule(R{self.rule_id} -> {self.rhs_string()})"


class LinkedSequitur:
    """Object-graph Sequitur: one linked symbol per grammar position."""

    def __init__(self) -> None:
        self._digrams: dict[tuple, Symbol] = {}
        self._next_id = 1
        self.start = Rule(0)
        self._rules: dict[int, Rule] = {0: self.start}
        self._tokens_fed = 0

    # -- public API ------------------------------------------------------------

    def feed(self, token: str) -> None:
        """Append one token to the input and restore the invariants."""
        terminal = Terminal(token)
        self.start.append(terminal)
        self._tokens_fed += 1
        prev = terminal.prev
        if prev is not None and not prev.is_guard():
            self._check(prev)

    def feed_all(self, tokens: Iterable[str]) -> "LinkedSequitur":
        """Feed every token of an iterable; returns self."""
        for token in tokens:
            self.feed(token)
        return self

    def rules(self) -> list[Rule]:
        """All live rules, the start rule first, then by creation order."""
        return [self._rules[rid] for rid in sorted(self._rules)]

    def non_start_rules(self) -> list[Rule]:
        """All live rules except the start rule R0."""
        return [rule for rule in self.rules() if rule.rule_id != 0]

    @property
    def tokens_fed(self) -> int:
        """Number of tokens consumed so far."""
        return self._tokens_fed

    def expansion(self, rule: Rule) -> list[str]:
        """Terminal token sequence a rule derives."""
        return rule.expansion()

    def grammar_size(self) -> int:
        """Total number of right-hand-side symbols across live rules."""
        return sum(len(rule) for rule in self.rules())

    def to_string(self) -> str:
        """Printable grammar, GrammarViz style."""
        lines = [f"R{rule.rule_id} -> {rule.rhs_string()}" for rule in self.rules()]
        return "\n".join(lines)

    # -- digram index ------------------------------------------------------------

    @staticmethod
    def _digram_key(symbol: Symbol) -> tuple:
        assert symbol.next is not None
        return (symbol.key(), symbol.next.key())

    def _forget_digram(self, symbol: Symbol) -> None:
        """Remove the digram starting at *symbol* if it is the indexed copy."""
        if symbol.is_guard() or symbol.next is None or symbol.next.is_guard():
            return
        key = self._digram_key(symbol)
        if self._digrams.get(key) is symbol:
            del self._digrams[key]

    # -- core operations ---------------------------------------------------------

    def _check(self, symbol: Symbol) -> bool:
        """Enforce digram uniqueness for the digram starting at *symbol*.

        Returns True when the digram already existed in the index.
        """
        if symbol.is_guard() or symbol.next is None or symbol.next.is_guard():
            return False
        key = self._digram_key(symbol)
        found = self._digrams.get(key)
        if found is None:
            self._digrams[key] = symbol
            return False
        if found.next is not symbol:  # ignore the overlapping occurrence
            self._match(symbol, found)
        return True

    def _remove_symbol(self, symbol: Symbol) -> None:
        """Unlink *symbol*, clearing the digram entries it participated in."""
        prev = symbol.prev
        # Digram (prev, symbol) dies with the unlink.
        if prev is not None and not prev.is_guard() and not symbol.is_guard():
            key = (prev.key(), symbol.key())
            if self._digrams.get(key) is prev:
                del self._digrams[key]
        # Digram (symbol, next) dies too.
        self._forget_digram(symbol)
        symbol.unlink()
        if isinstance(symbol, NonTerminal):
            symbol.release()

    def _substitute(self, symbol: Symbol, rule: Rule) -> None:
        """Replace the digram at *symbol* with a reference to *rule*."""
        prev = symbol.prev
        assert prev is not None and symbol.next is not None
        second = symbol.next
        self._remove_symbol(symbol)
        self._remove_symbol(second)
        reference = NonTerminal(rule)
        prev.insert_after(reference)
        if not self._check(prev):
            self._check(reference)

    @staticmethod
    def _copy(symbol: Symbol) -> Symbol:
        if isinstance(symbol, Terminal):
            return Terminal(symbol.token)
        if isinstance(symbol, NonTerminal):
            return NonTerminal(symbol.rule)
        raise TypeError(f"cannot copy {symbol!r}")

    def _match(self, new: Symbol, existing: Symbol) -> None:
        """A digram occurs twice: rewrite with an existing or new rule."""
        existing_prev = existing.prev
        existing_next = existing.next
        assert existing_prev is not None and existing_next is not None
        if (
            existing_prev.is_guard()
            and existing_next.next is not None
            and existing_next.next.is_guard()
        ):
            # The existing occurrence is the entire RHS of a rule: reuse it.
            rule = existing_prev.rule  # type: ignore[attr-defined]
            self._substitute(new, rule)
        else:
            rule = Rule(self._next_id)
            self._next_id += 1
            self._rules[rule.rule_id] = rule
            rule.append(self._copy(new))
            assert new.next is not None
            rule.append(self._copy(new.next))
            self._substitute(existing, rule)
            self._substitute(new, rule)
            self._digrams[self._digram_key(rule.first)] = rule.first
        # Rule utility: the two symbols just removed matched *rule*'s RHS,
        # so any reference count that dropped to one belongs to a rule
        # referenced from one of *rule*'s endpoints. Inline those.
        first = rule.first
        if isinstance(first, NonTerminal) and first.rule.refcount == 1:
            self._expand(first)
        last = rule.last
        if isinstance(last, NonTerminal) and last.rule.refcount == 1:
            self._expand(last)

    def _expand(self, symbol: NonTerminal) -> None:
        """Inline the single remaining use of ``symbol.rule`` and delete it."""
        rule = symbol.rule
        left = symbol.prev
        right = symbol.next
        assert left is not None and right is not None
        first = rule.first
        last = rule.last
        if rule.is_empty():  # pragma: no cover - cannot happen for 2+-symbol rules
            self._remove_symbol(symbol)
            del self._rules[rule.rule_id]
            return
        # Clear digram entries around the reference being replaced.
        if not left.is_guard():
            key = (left.key(), symbol.key())
            if self._digrams.get(key) is left:
                del self._digrams[key]
        self._forget_digram(symbol)
        symbol.release()
        # Splice the rule body in place of the reference.
        left.next = first
        first.prev = left
        last.next = right
        right.prev = last
        del self._rules[rule.rule_id]
        # Index the freshly created digram at the seam (canonical Sequitur
        # indexes only the right seam; the left seam is re-checked lazily).
        if not last.is_guard() and not right.is_guard():
            self._digrams[(last.key(), right.key())] = last
