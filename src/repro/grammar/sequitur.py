"""Sequitur: linear-time context-free grammar induction.

A faithful port of Nevill-Manning & Witten's SEQUITUR (1997), the
grammar inducer RPM uses to discover recurrent SAX-word patterns. The
algorithm appends tokens to the start rule one at a time while
maintaining two invariants:

* **digram uniqueness** — no pair of adjacent symbols appears more than
  once in the grammar; a repeated digram is rewritten as a rule;
* **rule utility** — every rule is referenced at least twice; a rule
  whose reference count drops to one is inlined and deleted.

Tokens here are whole SAX *words* (e.g. ``'abc'``), not characters, so
one input position corresponds to one sliding-window subsequence.

Every grammar position is a node id into three parallel integer lists,
``prev``/``next``/``val``: each rule's right-hand side is a circular
doubly-linked list closed by a *guard* node. A node's value encodes
what it holds — ``2·t`` for terminal ``t`` (tokens are mapped to dense
ids on entry; tokens equal under ``==`` are one terminal), ``2·r + 1``
for a reference to rule ``r``, and ``~r`` (negative) for rule ``r``'s
guard — so a digram is one integer key, ``(val_a << 32) + val_b``, and
no symbol object is ever allocated. Nodes are never reused: a deleted
rule's guard keeps pointing at the body it had, exactly as the
linked-object formulation leaves it, which some rewrites read.
"""

from __future__ import annotations

from typing import Hashable, Iterable

__all__ = ["Rule", "Sequitur", "induce_grammar"]


class Rule:
    """Read-only view of one grammar rule: ``R<i> -> s1 s2 ... sk``.

    ``refcount`` counts the references to the rule currently in the
    grammar; Sequitur's *rule utility* constraint inlines any rule whose
    count drops to 1.
    """

    __slots__ = ("_grammar", "rule_id")

    def __init__(self, grammar: "Sequitur", rule_id: int) -> None:
        self._grammar = grammar
        self.rule_id = rule_id

    @property
    def refcount(self) -> int:
        """Number of references to this rule in the grammar."""
        return self._grammar._refcount[self.rule_id]

    def expansion(self) -> list:
        """The terminal token sequence this rule ultimately derives."""
        return self._grammar._expand_tokens(self.rule_id)

    def rhs_string(self) -> str:
        """Human-readable right-hand side, e.g. ``'aba R2 R2'``."""
        tokens = self._grammar._tokens
        parts = []
        for value in self._grammar._rhs(self.rule_id):
            # Tokens may be SAX words or integer token ids.
            if value >= 0:
                parts.append(f"R{value >> 1}" if value & 1 else str(tokens[value >> 1]))
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Rule(R{self.rule_id} -> {self.rhs_string()})"


class Sequitur:
    """Incremental Sequitur grammar builder.

    Usage::

        g = Sequitur()
        for token in tokens:
            g.feed(token)
        rules = g.rules()          # all live rules (incl. the start rule R0)
        g.expansion(rule)          # terminal token sequence of a rule
    """

    def __init__(self) -> None:
        self._prev: list[int] = []
        self._next: list[int] = []
        self._val: list[int] = []
        #: Digram key -> node id of its indexed first symbol.
        self._digrams: dict[int, int] = {}
        #: Per rule id: its guard node, reference count, liveness.
        self._guard: list[int] = []
        self._refcount: list[int] = []
        self._live: list[bool] = []
        self._ids: dict[Hashable, int] = {}
        self._tokens: list = []
        self._tokens_fed = 0
        self._new_rule()
        self.start = Rule(self, 0)

    # -- public API ------------------------------------------------------------

    def feed(self, token: Hashable) -> None:
        """Append one token to the input and restore the invariants."""
        self.feed_all((token,))

    def feed_all(self, tokens: Iterable[Hashable]) -> "Sequitur":
        """Feed every token of an iterable; returns self."""
        ids, vocabulary = self._ids, self._tokens
        prev, nxt, val, digrams = self._prev, self._next, self._val, self._digrams
        guard = self._guard[0]
        fed = 0
        for token in tokens:
            tid = ids.get(token)
            if tid is None:
                tid = ids[token] = len(vocabulary)
                vocabulary.append(token)
            # Append a terminal node at the end of the start rule.
            last = prev[guard]
            node = len(val)
            value = 2 * tid
            prev.append(last)
            nxt.append(guard)
            val.append(value)
            nxt[last] = node
            prev[guard] = node
            fed += 1
            # _check(last), inlined: the new digram is (last, node).
            if val[last] >= 0:
                key = (val[last] << 32) + value
                found = digrams.get(key)
                if found is None:
                    digrams[key] = last
                elif nxt[found] != last:  # ignore the overlapping occurrence
                    self._match(last, found)
        self._tokens_fed += fed
        return self

    def rules(self) -> list[Rule]:
        """All live rules, the start rule first, then by creation order."""
        return [Rule(self, rid) for rid, live in enumerate(self._live) if live]

    def non_start_rules(self) -> list[Rule]:
        """All live rules except the start rule R0."""
        return self.rules()[1:]

    @property
    def tokens_fed(self) -> int:
        """Number of tokens consumed so far."""
        return self._tokens_fed

    def expansion(self, rule: Rule) -> list:
        """Terminal token sequence a rule derives."""
        return rule.expansion()

    def grammar_size(self) -> int:
        """Total number of right-hand-side symbols across live rules."""
        return sum(len(self._rhs(rid)) for rid, live in enumerate(self._live) if live)

    def to_string(self) -> str:
        """Printable grammar, GrammarViz style."""
        lines = [f"R{rule.rule_id} -> {rule.rhs_string()}" for rule in self.rules()]
        return "\n".join(lines)

    # -- node storage ----------------------------------------------------------

    def _node(self, value: int) -> int:
        """A fresh unlinked node holding ``value``."""
        self._prev.append(-1)
        self._next.append(-1)
        self._val.append(value)
        return len(self._val) - 1

    def _new_rule(self) -> int:
        """Create an empty rule (its guard linked to itself); returns its id."""
        rid = len(self._guard)
        guard = self._node(~rid)
        self._prev[guard] = guard
        self._next[guard] = guard
        self._guard.append(guard)
        self._refcount.append(0)
        self._live.append(True)
        return rid

    def _reference(self, rid: int) -> int:
        """A fresh node referring to rule ``rid`` (counted while it exists)."""
        self._refcount[rid] += 1
        return self._node(2 * rid + 1)

    def _link_after(self, node: int, new: int) -> None:
        """Splice ``new`` into the list directly after ``node``."""
        nxt = self._next[node]
        self._prev[new] = node
        self._next[new] = nxt
        if nxt != -1:
            self._prev[nxt] = new
        self._next[node] = new

    def _rhs(self, rid: int) -> list[int]:
        """Values of a rule's right-hand side, in order."""
        nxt, val = self._next, self._val
        guard = self._guard[rid]
        out = []
        node = nxt[guard]
        while node != -1 and node != guard:
            out.append(val[node])
            node = nxt[node]
        return out

    def _expand_tokens(self, rid: int) -> list:
        out: list = []
        tokens = self._tokens
        stack = [iter(self._rhs(rid))]
        while stack:
            for value in stack[-1]:
                if value < 0:
                    continue
                if value & 1:
                    stack.append(iter(self._rhs(value >> 1)))
                    break
                out.append(tokens[value >> 1])
            else:
                stack.pop()
        return out

    # -- digram index ------------------------------------------------------------

    def _forget_digram(self, node: int) -> None:
        """Remove the digram starting at ``node`` if it is the indexed copy."""
        val = self._val
        nxt = self._next[node]
        if val[node] < 0 or nxt == -1 or val[nxt] < 0:
            return
        key = (val[node] << 32) + val[nxt]
        if self._digrams.get(key) == node:
            del self._digrams[key]

    # -- core operations ---------------------------------------------------------

    def _check(self, node: int) -> bool:
        """Enforce digram uniqueness for the digram starting at ``node``.

        Returns True when the digram already existed in the index.
        """
        val = self._val
        nxt = self._next[node]
        if val[node] < 0 or nxt == -1 or val[nxt] < 0:
            return False
        key = (val[node] << 32) + val[nxt]
        found = self._digrams.get(key)
        if found is None:
            self._digrams[key] = node
            return False
        if self._next[found] != node:  # ignore the overlapping occurrence
            self._match(node, found)
        return True

    def _remove(self, node: int) -> None:
        """Unlink ``node``, clearing the digram entries it participated in."""
        prev, nxt, val = self._prev, self._next, self._val
        before = prev[node]
        # Digram (before, node) dies with the unlink.
        if before != -1 and val[before] >= 0 and val[node] >= 0:
            key = (val[before] << 32) + val[node]
            if self._digrams.get(key) == before:
                del self._digrams[key]
        # Digram (node, after) dies too.
        self._forget_digram(node)
        after = nxt[node]
        if before != -1:
            nxt[before] = after
        if after != -1:
            prev[after] = before
        prev[node] = nxt[node] = -1
        if val[node] >= 0 and val[node] & 1:
            self._refcount[val[node] >> 1] -= 1

    def _substitute(self, node: int, rid: int) -> None:
        """Replace the digram at ``node`` with a reference to rule ``rid``."""
        before = self._prev[node]
        second = self._next[node]
        self._remove(node)
        self._remove(second)
        reference = self._reference(rid)
        self._link_after(before, reference)
        if not self._check(before):
            self._check(reference)

    def _copy(self, node: int) -> int:
        value = self._val[node]
        if value < 0:
            raise TypeError(f"cannot copy the guard of rule R{~value}")
        if value & 1:
            return self._reference(value >> 1)
        return self._node(value)

    def _match(self, new: int, existing: int) -> None:
        """A digram occurs twice: rewrite with an existing or new rule."""
        prev, nxt, val = self._prev, self._next, self._val
        existing_prev = prev[existing]
        after = nxt[nxt[existing]]
        if val[existing_prev] < 0 and after != -1 and val[after] < 0:
            # The existing occurrence is the entire RHS of a rule: reuse it.
            rid = ~val[existing_prev]
            self._substitute(new, rid)
        else:
            rid = self._new_rule()
            guard = self._guard[rid]
            self._link_after(guard, self._copy(new))
            self._link_after(prev[guard], self._copy(nxt[new]))
            self._substitute(existing, rid)
            self._substitute(new, rid)
            first = nxt[guard]
            self._digrams[(val[first] << 32) + val[nxt[first]]] = first
        # Rule utility: the two symbols just removed matched the rule's
        # RHS, so any reference count that dropped to one belongs to a
        # rule referenced from one of its endpoints. Inline those.
        guard = self._guard[rid]
        first = nxt[guard]
        if val[first] >= 0 and val[first] & 1 and self._refcount[val[first] >> 1] == 1:
            self._expand(first)
        last = prev[guard]
        if val[last] >= 0 and val[last] & 1 and self._refcount[val[last] >> 1] == 1:
            self._expand(last)

    def _expand(self, node: int) -> None:
        """Inline the single remaining use of the rule ``node`` refers to."""
        prev, nxt, val = self._prev, self._next, self._val
        rid = val[node] >> 1
        left = prev[node]
        right = nxt[node]
        guard = self._guard[rid]
        first = nxt[guard]
        last = prev[guard]
        if first == guard:  # pragma: no cover - cannot happen for 2+-symbol rules
            self._remove(node)
            self._live[rid] = False
            return
        # Clear digram entries around the reference being replaced.
        if val[left] >= 0:
            key = (val[left] << 32) + val[node]
            if self._digrams.get(key) == left:
                del self._digrams[key]
        self._forget_digram(node)
        self._refcount[rid] -= 1
        # Splice the rule body in place of the reference. The deleted
        # rule's guard keeps its pointers, as the object form does.
        nxt[left] = first
        prev[first] = left
        nxt[last] = right
        prev[right] = last
        self._live[rid] = False
        # Index the freshly created digram at the seam (canonical Sequitur
        # indexes only the right seam; the left seam is re-checked lazily).
        if val[last] >= 0 and val[right] >= 0:
            self._digrams[(val[last] << 32) + val[right]] = last


def induce_grammar(tokens: Iterable[Hashable]) -> Sequitur:
    """Convenience one-shot induction over an iterable of tokens."""
    return Sequitur().feed_all(tokens)
