"""`philox_doubles` against the numpy generator it reproduces."""

import math

import numpy as np
import pytest

from blenderforge.rng import philox_doubles, philox_rng

#: seeds that take one or two 32-bit words, and values above 2^63 that the
#: mask folds
SEEDS = (0, 1, -1, 2**32 - 1, 2**32, 2**63 - 1, 2**63 + 5, 2**64 - 1)
#: disc indices, then indices of two words and ones the mask folds
INDICES = (*range(300), 2**32, 2**32 + 1, 2**40 + 3, 2**63 - 1, 2**63 + 5, 2**64 - 1, -1)


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_generator_bit_for_bit(seed):
    first, second = philox_doubles(seed, INDICES)
    low, high = -0.0375, 0.0412
    two_pi = 2.0 * math.pi
    for j, i in enumerate(INDICES):
        # the center takes the first draw and the phase the second
        rng = philox_rng(seed, i)
        assert float(rng.uniform(low, high)) == low + (high - low) * first[j]
        assert float(rng.uniform(0.0, two_pi)) == two_pi * second[j]
        # a fixed center leaves the first draw to the phase
        assert float(philox_rng(seed, i).uniform(0.0, two_pi)) == two_pi * first[j]
        rng = philox_rng(seed, i)
        assert (rng.random(), rng.random()) == (first[j], second[j])


def test_draws_of_no_index():
    first, second = philox_doubles(7, [])
    assert first.shape == second.shape == (0,)
    assert first.dtype == np.float64
