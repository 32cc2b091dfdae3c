"""Seed-free keys for exhaustive searches.

A search over ``n`` inputs with ``n! <= perm_budget`` enumerates every
permutation lexicographically and never reads its seed, so the cache key
and the permutation sample carry seed 0 for it; a sampled search keeps
its seed.  The resynthesis passes run with seeds ``seed + pass_no``, so
these keys are what lets pass 2 reuse pass 1's exhaustive searches.
"""

import pytest

from repro.comparison import (
    identification_cache,
    identification_key,
    identify_comparison,
    search_seed,
)
from repro.comparison import identify as identify_mod

#: A 4-input comparison function (ON set = minterms 3..9) and a 6-input
#: function with a sampled search at the paper's budget (6! > 200).
TABLE4 = sum(1 << m for m in range(3, 10))
TABLE6 = sum(1 << m for m in range(5, 40))
VARS4 = ("a", "b", "c", "d")
VARS6 = ("a", "b", "c", "d", "e", "f")


@pytest.fixture
def fresh_cache():
    cache = identification_cache()
    cache.clear()
    hits, misses, searches = cache.hits, cache.misses, cache.searches
    yield lambda: (cache.hits - hits, cache.misses - misses,
                   cache.searches - searches)
    cache.clear()


class TestSearchSeed:
    @pytest.mark.parametrize("n,budget", [(1, 1), (3, 6), (4, 24), (5, 200)])
    def test_exhaustive_sizes_read_no_seed(self, n, budget):
        assert search_seed(n, budget, 17) == 0

    @pytest.mark.parametrize("n,budget", [(4, 23), (6, 200), (7, 200)])
    def test_sampled_sizes_keep_the_seed(self, n, budget):
        assert search_seed(n, budget, 17) == 17


class TestIdentificationKeys:
    def test_exhaustive_pass_one_search_is_a_pass_two_hit(self, fresh_cache):
        base_seed = 101
        first = identify_comparison(TABLE4, VARS4, seed=base_seed + 1)
        assert fresh_cache() == (0, 1, 1)
        second = identify_comparison(TABLE4, VARS4, seed=base_seed + 2)
        assert fresh_cache() == (1, 1, 1)
        assert first == second and first.exhaustive

    def test_two_seeds_give_two_keys_for_a_sampled_search(self, fresh_cache):
        one = identification_key(TABLE6, 6, 200, True, 1, 6)
        two = identification_key(TABLE6, 6, 200, True, 2, 6)
        assert one != two
        identify_comparison(TABLE6, VARS6, seed=1)
        identify_comparison(TABLE6, VARS6, seed=2)
        assert fresh_cache() == (0, 2, 2)
        assert len(identification_cache()) == 2

    def test_exhaustive_keys_agree_across_seeds(self):
        keys = {identification_key(TABLE4, 4, 200, True, s, 6)
                for s in range(5)}
        assert keys == {(TABLE4, 4, 200, True, 0, 6)}


class TestPermutationSample:
    def test_one_sample_per_size_for_exhaustive_searches(self, monkeypatch):
        monkeypatch.setattr(identify_mod, "_PERM_CACHE", {})
        samples = {identify_mod._permutation_sample(4, 200, s)
                   for s in range(6)}
        assert len(samples) == 1
        assert list(identify_mod._PERM_CACHE) == [(4, 200, 0)]

    def test_sampled_sizes_keep_one_sample_per_seed(self, monkeypatch):
        monkeypatch.setattr(identify_mod, "_PERM_CACHE", {})
        for s in range(3):
            identify_mod._permutation_sample(6, 200, s)
        assert sorted(identify_mod._PERM_CACHE) == [
            (6, 200, 0), (6, 200, 1), (6, 200, 2)]
