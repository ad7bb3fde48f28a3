import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grammar.sequitur import Sequitur, induce_grammar
from tests.sequitur_oracle import Guard, LinkedSequitur, NonTerminal, Rule, Terminal


def _rules(grammar):
    """Every live rule as (id, refcount, RHS string, expansion)."""
    return [
        (rule.rule_id, rule.refcount, rule.rhs_string(), rule.expansion())
        for rule in grammar.rules()
    ]


# The linked-symbol oracle's building blocks (tests/sequitur_oracle.py).
class TestSymbols:
    def test_insert_after_links(self):
        a, b, c = Terminal("a"), Terminal("b"), Terminal("c")
        a.insert_after(c)
        a.insert_after(b)
        assert a.next is b and b.next is c and c.prev is b and b.prev is a

    def test_unlink_repairs_neighbours(self):
        a, b, c = Terminal("a"), Terminal("b"), Terminal("c")
        a.insert_after(c)
        a.insert_after(b)
        b.unlink()
        assert a.next is c and c.prev is a

    def test_nonterminal_tracks_refcount(self):
        rule = Rule(1)
        ref = NonTerminal(rule)
        assert rule.refcount == 1
        ref.release()
        assert rule.refcount == 0

    def test_keys_distinguish_kinds(self):
        rule = Rule(3)
        assert Terminal("x").key() != NonTerminal(rule).key()
        assert Guard(rule).is_guard()


class TestRule:
    def test_append_and_iterate(self):
        rule = Rule(0)
        rule.append(Terminal("a"))
        rule.append(Terminal("b"))
        assert [s.token for s in rule.symbols()] == ["a", "b"]
        assert len(rule) == 2

    def test_empty_rule(self):
        assert Rule(0).is_empty()

    def test_expansion_recurses(self):
        inner = Rule(1)
        inner.append(Terminal("x"))
        inner.append(Terminal("y"))
        outer = Rule(0)
        outer.append(NonTerminal(inner))
        outer.append(Terminal("z"))
        assert outer.expansion() == ["x", "y", "z"]

    def test_rhs_string(self):
        inner = Rule(2)
        inner.append(Terminal("x"))
        outer = Rule(0)
        outer.append(Terminal("a"))
        outer.append(NonTerminal(inner))
        assert outer.rhs_string() == "a R2"


class TestSequitur:
    def test_paper_example(self):
        # §3.2.2 of the RPM paper: S = aba bac bac bac cab acc bac bac cab
        # after numerosity reduction = aba bac cab acc bac cab.
        g = induce_grammar("aba bac cab acc bac cab".split())
        rules = g.non_start_rules()
        assert len(rules) == 1
        assert rules[0].expansion() == ["bac", "cab"]

    def test_abcdbc(self):
        g = induce_grammar(list("abcdbcabcdbc"))
        assert g.start.expansion() == list("abcdbcabcdbc")
        expansions = {tuple(r.expansion()) for r in g.non_start_rules()}
        assert ("b", "c") in expansions

    def test_derivation_is_exact(self):
        tokens = list("peter piper picked a peck of pickled peppers")
        g = induce_grammar(tokens)
        assert g.start.expansion() == tokens

    def test_no_rules_for_unique_tokens(self):
        g = induce_grammar(["a", "b", "c", "d"])
        assert g.non_start_rules() == []

    def test_single_token(self):
        g = induce_grammar(["x"])
        assert g.start.expansion() == ["x"]

    def test_empty_input(self):
        g = Sequitur()
        assert g.start.expansion() == []
        assert g.tokens_fed == 0

    def test_rule_utility_invariant(self):
        rnd = random.Random(1)
        for _ in range(100):
            tokens = [rnd.choice("abcde") for _ in range(rnd.randint(1, 120))]
            g = induce_grammar(tokens)
            for rule in g.non_start_rules():
                assert rule.refcount >= 2

    def test_every_rule_is_a_repeat(self):
        rnd = random.Random(2)
        for _ in range(100):
            tokens = [rnd.choice(["aa", "bb", "cc"]) for _ in range(rnd.randint(1, 100))]
            g = induce_grammar(tokens)
            joined = " ".join(tokens)
            for rule in g.non_start_rules():
                needle = " ".join(rule.expansion())
                assert joined.count(needle) >= 2

    def test_derivation_random_fuzz(self):
        rnd = random.Random(3)
        for _ in range(200):
            tokens = [rnd.choice("abc") for _ in range(rnd.randint(1, 200))]
            g = induce_grammar(tokens)
            assert g.start.expansion() == tokens

    def test_compression_on_repetitive_input(self):
        tokens = ["w", "x", "y", "z"] * 100
        g = induce_grammar(tokens)
        assert g.grammar_size() < len(tokens) / 4

    def test_grammar_size_counts_symbols(self):
        g = induce_grammar(["a", "b"])
        assert g.grammar_size() == 2

    def test_to_string_mentions_all_rules(self):
        g = induce_grammar(list("abcabcabc"))
        text = g.to_string()
        assert text.startswith("R0 ->")
        for rule in g.non_start_rules():
            assert f"R{rule.rule_id} ->" in text

    def test_rules_sorted_start_first(self):
        g = induce_grammar(list("xyxyxzxz"))
        rules = g.rules()
        assert rules[0].rule_id == 0
        assert [r.rule_id for r in rules] == sorted(r.rule_id for r in rules)

    def test_feed_all_returns_self(self):
        g = Sequitur()
        assert g.feed_all("ab") is g


def _runs(alphabet):
    """Token lists built from runs, so ``aaaa…`` overlaps are common."""
    run = st.tuples(st.sampled_from(alphabet), st.integers(1, 9))
    return st.lists(run, max_size=40).map(
        lambda runs: [token for token, count in runs for _ in range(count)]
    )


class TestParityWithLinkedOracle:
    """The integer-array grammar equals the object graph rule for rule."""

    @given(st.integers(1, 4).flatmap(lambda k: _runs("abcd"[:k])))
    @settings(max_examples=300, deadline=None)
    def test_runs_over_small_alphabets(self, tokens):
        fast, oracle = induce_grammar(tokens), LinkedSequitur().feed_all(tokens)
        assert _rules(fast) == _rules(oracle)
        assert fast.grammar_size() == oracle.grammar_size()
        assert fast.to_string() == oracle.to_string()

    @given(st.lists(st.sampled_from(["aab", "abc", "ccb", "R1", "b"]), max_size=150))
    @settings(max_examples=150, deadline=None)
    def test_string_tokens(self, tokens):
        assert _rules(induce_grammar(tokens)) == _rules(LinkedSequitur().feed_all(tokens))

    @given(st.lists(st.integers(0, 2), max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_integer_tokens(self, tokens):
        assert _rules(induce_grammar(tokens)) == _rules(LinkedSequitur().feed_all(tokens))

    def test_random_streams(self):
        # Left-seam digrams (never indexed on inlining) only matter on
        # longer streams; a few hundred random ones reach that case.
        rnd = random.Random(0)
        for _ in range(600):
            alphabet = "abcd"[: rnd.randint(1, 4)]
            tokens = [rnd.choice(alphabet) for _ in range(rnd.randint(1, 300))]
            assert _rules(induce_grammar(tokens)) == _rules(LinkedSequitur().feed_all(tokens))

    def test_long_single_token_run(self):
        for n in range(1, 70):
            tokens = ["a"] * n
            assert _rules(induce_grammar(tokens)) == _rules(LinkedSequitur().feed_all(tokens))

    def test_feed_one_at_a_time_matches_feed_all(self):
        rnd = random.Random(4)
        tokens = [rnd.choice("ab") for _ in range(400)]
        g = Sequitur()
        for token in tokens:
            g.feed(token)
        assert _rules(g) == _rules(induce_grammar(tokens))
        assert g.tokens_fed == len(tokens)
