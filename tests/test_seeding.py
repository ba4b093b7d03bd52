"""`tasks.trial_rngs` against the per-trial SeedSequence path it replaces."""

import numpy as np
import pytest

import isingcert.tasks as tasks
from rng_reference import trial_rng


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 1])
@pytest.mark.parametrize("key", [(), (1,), (2,), (3,)])
def test_trial_rngs_match_seed_sequences(seed, key):
    for trials in ([], [4], range(0, 300, 7), [2**32 - 1]):
        rngs = list(tasks.trial_rngs(seed, trials, *key))
        assert len(rngs) == len(trials)
        for t, rng in zip(trials, rngs):
            assert rng.bit_generator.state == trial_rng(seed, t, *key).bit_generator.state
        # and they draw alike
        for t, rng in zip(trials, rngs):
            assert rng.random() == trial_rng(seed, t, *key).random()


@pytest.mark.parametrize("trials, key", [([2**32], ()), ([0, 2**40], (1,)), ([3], (2**32,)),
                                         ([-1], ())])
def test_index_past_one_spawn_word_raises(trials, key):
    # SeedSequence would take two words for it; the bulk path takes one
    with pytest.raises(ValueError, match="32-bit spawn word"):
        tasks.trial_rngs(0, trials, *key)


def test_strided_seed_row_gives_another_state():
    # PCG64 reads the raw buffer of what generate_state returns: the seed
    # words must come as C-contiguous rows, which a strided view is not
    words = tasks._seed_words(5, range(3), (1,))
    expected = trial_rng(5, 1, 1).bit_generator.state
    assert np.random.PCG64(tasks._SeedWords(words[1])).state == expected
    strided = np.repeat(words, 2, axis=1)[:, ::2]
    assert np.array_equal(strided, words) and not strided[1].flags.c_contiguous
    assert np.random.PCG64(tasks._SeedWords(strided[1])).state != expected
