import numpy as np
import pytest

from stoseg.rng import GOLDEN, MASK64, SplitMix64, derive_seed, mix64


def reference_stream(seed, n):
    # textbook sequential form: state += GOLDEN, output = mix(state)
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + GOLDEN) & MASK64
        out.append(mix64(state))
    return out


class TestSplitMix64:
    def test_known_vectors_seed_zero(self):
        # published outputs of SplitMix64 for seed 0
        s = SplitMix64(0)
        assert s.next_u64() == 0xE220A8397B1DCDAF
        assert s.next_u64() == 0x6E789E6AA1B965F4
        assert s.next_u64() == 0x06C45D188009454F

    def test_vectorized_matches_sequential(self):
        for seed in (0, 1, 123456789, 2**64 - 1):
            bulk = SplitMix64(seed).u64_array(64).tolist()
            assert bulk == reference_stream(seed, 64)

    def test_mixed_scalar_and_bulk_draws_share_the_stream(self):
        a = SplitMix64(7)
        first = [a.next_u64() for _ in range(3)]
        rest = a.u64_array(5).tolist()
        assert first + rest == reference_stream(7, 8)

    def test_uniform_range(self):
        u = SplitMix64(3).uniform_array(10000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_normal_is_deterministic_and_roughly_standard(self):
        z1 = SplitMix64(11).normal_array((5000,))
        z2 = SplitMix64(11).normal_array((5000,))
        np.testing.assert_array_equal(z1, z2)
        assert abs(z1.mean()) < 0.06
        assert abs(z1.std() - 1.0) < 0.05

    def test_normal_odd_length_prefix_of_even(self):
        odd = SplitMix64(5).normal_array((7,))
        even = SplitMix64(5).normal_array((8,))
        np.testing.assert_array_equal(odd, even[:7])

    def test_shuffle_is_a_permutation_and_deterministic(self):
        items = list(range(100))
        a, b = items.copy(), items.copy()
        SplitMix64(42).shuffle(a)
        SplitMix64(42).shuffle(b)
        assert a == b
        assert sorted(a) == items
        assert a != items  # astronomically unlikely to be identity

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 12345678901234567])
    def test_scalar_draws_equal_array_draws(self, seed):
        n = 64
        raw = SplitMix64(seed).u64_array(n)
        rng = SplitMix64(seed)
        draws = [rng.next_u64() for _ in range(n)]
        assert all(type(d) is int for d in draws) and draws == raw.tolist()
        rng = SplitMix64(seed)
        uniforms = [rng.uniform() for _ in range(n)]
        assert all(type(u) is float for u in uniforms)
        assert np.array(uniforms).tobytes() == SplitMix64(seed).uniform_array(n).tobytes()
        for bound in (1, 7, 2**40 + 3):
            rng = SplitMix64(seed)
            assert [rng.below(bound) for _ in range(n)] == (raw % np.uint64(bound)).tolist()

    def test_below_bounds(self):
        rng = SplitMix64(9)
        vals = [rng.below(17) for _ in range(500)]
        assert min(vals) >= 0 and max(vals) < 17
        assert len(set(vals)) == 17  # all residues show up


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_tags_decorrelate(self):
        seeds = {derive_seed(0, t) for t in range(100)}
        assert len(seeds) == 100
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)

    def test_first_output_known_answer(self):
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
