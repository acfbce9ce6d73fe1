"""Property-based tests (hypothesis) for the domain algebra.

These pin the formal requirements of Section 4.1: Π must be computable
by folding an associative/commutative combine, splits must conserve
value, and partitionable operators must commute with Π on any grouping
of the fragment multiset.
"""

from collections import Counter

from hypothesis import given, strategies as st

from repro.core.domain import (
    CounterDomain,
    MoneyDomain,
    TokenSetDomain,
    check_partitionable,
)
from repro.core.operators import BoundedDecrement, Increment

counters = st.integers(min_value=0, max_value=10_000)
fragments_lists = st.lists(counters, min_size=1, max_size=12)

tokens = st.dictionaries(st.sampled_from("abcdef"),
                         st.integers(min_value=0, max_value=20),
                         max_size=6).map(lambda d: +Counter(d))


class TestCounterProperties:
    domain = CounterDomain()

    @given(counters, counters)
    def test_split_conserves_and_bounds(self, value, want):
        granted, remainder = self.domain.split(value, want)
        assert granted + remainder == value
        assert 0 <= granted <= want
        assert remainder >= 0

    @given(counters, counters)
    def test_split_is_maximal(self, value, want):
        granted, _ = self.domain.split(value, want)
        assert granted == min(value, want)

    @given(fragments_lists)
    def test_pi_invariant_under_grouping(self, fragments):
        # Collapse any prefix/suffix grouping: Π must not change.
        groupings = []
        for cut in range(1, len(fragments)):
            groupings.append([fragments[:cut], fragments[cut:]])
        groupings.append([[value] for value in fragments])
        assert check_partitionable(self.domain, fragments, groupings)

    @given(counters, counters)
    def test_deficit_covers_coherence(self, value, need):
        deficit = self.domain.deficit(value, need)
        assert self.domain.covers(self.domain.combine(value, deficit),
                                  need)
        if self.domain.covers(value, need):
            assert deficit == 0

    @given(fragments_lists, counters)
    def test_increment_commutes_with_pi(self, fragments, amount):
        # f(Π(b)) == Π(b') with f applied to one fragment (Section 4.1).
        domain = self.domain
        operator = Increment(amount)
        direct = operator.apply(domain, domain.pi(fragments)).value
        modified = list(fragments)
        modified[0] = operator.apply(domain, modified[0]).value
        assert domain.pi(modified) == direct

    @given(fragments_lists, counters)
    def test_effective_decrement_commutes_with_pi(self, fragments, amount):
        domain = self.domain
        operator = BoundedDecrement(amount)
        application = operator.apply(domain, fragments[0])
        if not application.effective:
            return  # ineffective applications are no-ops by definition
        modified = [application.value] + list(fragments[1:])
        assert domain.pi(modified) == domain.pi(fragments) - amount

    @given(fragments_lists)
    def test_redistribution_preserves_pi(self, fragments):
        # Moving value between two fragments is a redistribution
        # operator h: Π(h(b)) == Π(b).
        domain = self.domain
        total = domain.pi(fragments)
        moved, remainder = domain.split(fragments[0], fragments[0] // 2)
        redistributed = [remainder] + list(fragments[1:])
        redistributed[-1] = domain.combine(redistributed[-1], moved)
        assert domain.pi(redistributed) == total

    @given(counters)
    def test_subtracting_a_value_from_itself_leaves_zero(self, value):
        # A migration ships a whole fragment through DvPSite.ship, which
        # writes subtract(v, v) as the fragment left behind.
        for domain in (self.domain, MoneyDomain()):
            assert domain.subtract(value, value) == domain.zero()
            assert domain.is_zero(domain.subtract(value, value))


class TestTokenProperties:
    domain = TokenSetDomain()

    @given(tokens, tokens)
    def test_split_conserves(self, value, want):
        granted, remainder = self.domain.split(value, want)
        assert self.domain.combine(granted, remainder) == value
        assert self.domain.covers(want, granted)

    @given(tokens, tokens)
    def test_combine_commutative(self, a, b):
        assert self.domain.combine(a, b) == self.domain.combine(b, a)

    @given(tokens, tokens, tokens)
    def test_combine_associative(self, a, b, c):
        left = self.domain.combine(self.domain.combine(a, b), c)
        right = self.domain.combine(a, self.domain.combine(b, c))
        assert left == right

    @given(tokens, tokens)
    def test_deficit_covers_coherence(self, value, need):
        deficit = self.domain.deficit(value, need)
        assert self.domain.covers(self.domain.combine(value, deficit),
                                  need)

    @given(st.lists(tokens, min_size=1, max_size=6))
    def test_pi_invariant_under_grouping(self, fragments):
        groupings = [[[fragment] for fragment in fragments],
                     [fragments]]
        assert check_partitionable(self.domain, fragments, groupings)

    @given(tokens)
    def test_subtracting_a_value_from_itself_leaves_zero(self, value):
        assert self.domain.subtract(value, value) == self.domain.zero()
        assert self.domain.is_zero(self.domain.subtract(value, value))
