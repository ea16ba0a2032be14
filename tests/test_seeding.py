"""Batch seed derivation against numpy's own SeedSequence.

The oracle is numpy itself: each child generator's seed state and first
draws must equal those of ``SeedSequence(entropy, spawn_key=prefix + key)``.
If numpy ever changes its hash, these tests fail.  The next tests pin two
draw identities of numpy's Generator that the engine's streams rely on, and
the last ones its draws without replacement: ``choice_masks`` must give
``Generator.choice``'s picks from the same streams' raw words.
"""

import random

import numpy as np
import pytest

from vnom import InputError
from vnom.seeding import (_state_class, child_generators, child_seed, choice_masks, choice_words,
                          generator)

ENTROPIES = [0, 3, 7919, 2**63 - 1, 2**100 + 17, [5, 2**40, 0, 17, 2**32 - 1]]
PREFIXES = [(), (11, 2**33 + 5)]  # the second takes three words


def random_keys(n, width, seed):
    """Keys of ``width`` ints below 2**32, some small and some near the top."""
    rnd = random.Random(seed)
    pick = (lambda: rnd.randrange(2**32), lambda: rnd.randrange(2**32 - 40, 2**32),
            lambda: rnd.randrange(40))
    return [tuple(rnd.choice(pick)() for _ in range(width)) for _ in range(n)]


def assert_matches_numpy(entropy, prefix, keys):
    base = np.random.SeedSequence(entropy, spawn_key=prefix)
    rngs = child_generators(base, keys)
    for key in keys:
        rng = next(rngs)
        want = np.random.SeedSequence(entropy, spawn_key=prefix + key)
        got_state = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert got_state.tolist() == want.generate_state(4, np.uint64).tolist(), key
        first = np.random.default_rng(want)
        assert rng.integers(2**63, size=4).tolist() == first.integers(2**63, size=4).tolist()
        assert rng.random(3).tolist() == first.random(3).tolist()
    assert next(rngs, None) is None


@pytest.mark.parametrize("entropy", ENTROPIES, ids=["0", "3", "7919", "2^63-1", "2^100+17", "list"])
@pytest.mark.parametrize("prefix", PREFIXES, ids=["no-prefix", "prefix"])
def test_child_generators_match_numpy_seed_sequences(entropy, prefix):
    # one call per key width, each with the extreme words 0 and 2**32 - 1
    for width in range(1, 5):
        keys = [(0,) * width, (2**32 - 1,) * width] + random_keys(50, width, 7 + width)
        assert_matches_numpy(entropy, prefix, keys)


@pytest.mark.parametrize("prefix", PREFIXES, ids=["no-prefix", "prefix"])
def test_single_word_keys_match_numpy_seed_sequences(prefix):
    # keys below 2**32 throughout, as the replicate and trial loops make them
    keys = [(o, r, k) for o in range(7) for r in (0, 1, 2**32 - 1) for k in range(3)]
    assert_matches_numpy(3, prefix, keys)


def test_same_streams_as_child_seed():
    keys = [(m, 2, rep, stream) for m in (4, 40) for rep in range(3) for stream in (0, 1)]
    # child_seed's children hash with numpy's default pool, whatever the base's
    for seed in (0, 7919, child_seed(5, 1), np.random.SeedSequence(5, pool_size=8)):
        for key, rng in zip(keys, child_generators(seed, keys)):
            assert rng.permutation(50).tolist() == \
                generator(child_seed(seed, *key)).permutation(50).tolist()


def test_generators_are_built_lazily():
    # an iterator, not a list: a block holds one generator at a time
    rngs = child_generators(3, [(i,) for i in range(1000)])
    assert iter(rngs) is rngs
    assert isinstance(next(rngs), np.random.Generator)


def test_bad_seeds_and_keys_rejected():
    with pytest.raises(InputError):
        child_generators(-1, [(0,)])
    with pytest.raises(InputError):
        child_generators(3, [(1, -2)])
    with pytest.raises(InputError):
        child_generators(3, [(1,), (-2, 5, 7)])
    bad_keys = [[(1,), (2, 5, 7)],  # ragged
                [(1, 2), (3,)],
                [()], [(), ()],  # empty
                [(0,), (2**32,)], [(2**32 - 1, 2**70)],  # beyond one word
                [(1.0,)], [("1",)]]
    for keys in bad_keys:
        with pytest.raises(InputError, match="seed keys"):
            child_generators(3, keys)
    assert list(child_generators(3, [])) == []


def test_precomputed_state_from_a_strided_row():
    # PCG64 seeds from a state row's memory as it lies; a strided view with
    # the right values must still give the seed's own stream
    state = np.random.SeedSequence(3).generate_state(4, np.uint64)
    strided = np.repeat(state, 2)[::2]
    assert not strided.flags.c_contiguous and strided.tolist() == state.tolist()
    rng = np.random.Generator(np.random.PCG64(_state_class()(strided)))
    want = np.random.default_rng(np.random.SeedSequence(3))
    assert rng.integers(2**63, size=8).tolist() == want.integers(2**63, size=8).tolist()


@pytest.mark.parametrize("k", [0, 1, 2, 179, 70_000])
def test_permutation_is_a_range_shuffled_in_place(k):
    # the tie-break rows of experiments._replicate_values and
    # importance._draw_instances are ranges shuffled in place as row views of
    # a 2-D array, in place of Generator.permutation: same values, same draws
    rows = np.empty((3, k), dtype=np.int64)
    rows[:] = np.arange(k)
    rng, want = np.random.default_rng(k), np.random.default_rng(k)
    rng.shuffle(rows[1])
    assert np.array_equal(rows[1], want.permutation(k))
    assert np.array_equal(rows[[0, 2]], np.broadcast_to(np.arange(k), (2, k)))
    assert rng.random() == want.random()  # the streams stay in step


@pytest.mark.parametrize("size", [0, 1, 179, 16_836])
def test_random_into_a_row_draws_as_random_of_its_size(size):
    # importance._draw_instances draws each instance's edge uniforms into its row
    rows = np.zeros((3, size))
    rng, want = np.random.default_rng(size), np.random.default_rng(size)
    rng.random(out=rows[1])
    assert np.array_equal(rows[1], want.random(size))
    assert not rows[[0, 2]].any()
    assert rng.random() == want.random()


def choice_picks(seeds, m, m_prime):
    """(raw words, masks of choice's picks), one row per seed of a fresh stream."""
    words = np.empty((len(seeds), choice_words(m_prime)), dtype=np.uint64)
    want = np.zeros((len(seeds), m), dtype=bool)
    for row, seed in enumerate(seeds):
        words[row] = generator(seed).bit_generator.random_raw(words.shape[1])
        want[row, generator(seed).choice(m, size=m_prime, replace=False)] = True
    return words, want


def redrawn_rows(words, m, m_prime):
    """The rows choice_masks hands to choice, and its masks with a stream
    whose every draw picks the top m_prime positions."""
    rows = []

    def stream(row):
        rows.append(int(row))
        return StubChoice(np.arange(m - m_prime, m))

    return rows, choice_masks(words, m, m_prime, stream)


class StubChoice:
    def __init__(self, picks):
        self.picks = picks

    def choice(self, m, size, replace):
        return self.picks


@pytest.mark.parametrize("m,m_prime,redrawn", [
    (2, 1, []), (10, 1, []), (10, 5, []), (10, 9, []), (40, 30, []), (184, 92, []),
    (10_000, 250, []), (10_001, 200, [1852]), (10_001, 201, range(2000))])
def test_choice_masks_match_choice_draw_for_draw(m, m_prime, redrawn):
    # 2000 streams a shape.  A row is redrawn by choice after a rejected
    # bounded draw, with probability below m_prime * m / 2**32 (0.47 rows in
    # 2000 at m = 10 001), or at every row of a tail-shuffle shape
    # (m > 10 000 and m_prime > m // 50)
    seeds = [child_seed(m, m_prime, key) for key in range(2000)]
    words, want = choice_picks(seeds, m, m_prime)
    assert redrawn_rows(words, m, m_prime)[0] == list(redrawn)
    assert np.array_equal(choice_masks(words, m, m_prime, lambda row: generator(seeds[row])), want)
    # choice over an array of ids picks the same positions
    ids = np.arange(m) * 7 + 3
    assert sorted(generator(seeds[0]).choice(ids, m_prime, replace=False)) == ids[want[0]].tolist()


def test_rejected_words_are_redrawn():
    # a zero half at bound j + 1 = 6 leaves 0, below 2**32 % 6 = 4: numpy
    # draws again, so the row is redrawn; at bound 8 (a power of two) nothing is rejected
    assert 2**32 % 6 == 4
    for m, m_prime, rows in [(6, 1, [0]), (8, 1, []), (7, 2, [0]), (16, 1, [])]:
        words = np.zeros((1, choice_words(m_prime)), dtype=np.uint64)
        redrawn, picks = redrawn_rows(words, m, m_prime)
        assert redrawn == rows, (m, m_prime)
        assert picks[0].nonzero()[0].tolist() == (list(range(m - m_prime, m)) if rows else
                                                  list(range(m_prime)))
    # at bound 6 a leftover of exactly the threshold 4 is kept, and 2 is not;
    # bound 5 keeps the low half 1 (leftover 5), whose pick is 0
    kept, rejected = (4 + 2 * 2**32) // 6, (2 + 2**32) // 6
    assert (kept * 6 % 2**32, rejected * 6 % 2**32) == (4, 2)
    words = np.array([[1 | kept << 32], [1 | rejected << 32]], dtype=np.uint64)
    redrawn, picks = redrawn_rows(words, 6, 2)
    assert redrawn == [1]
    assert picks[0].nonzero()[0].tolist() == [0, kept * 6 >> 32]
    redrawn, picks = redrawn_rows(np.empty((0, 1), dtype=np.uint64), 6, 2)
    assert redrawn == [] and picks.shape == (0, 6)


def test_rejection_redraws_from_the_next_half():
    # at bound 2**23 + 1 numpy rejects a half with probability near 1/512;
    # a rejected stream's pick comes from its next half, as Lemire's loop draws it
    bound = 2**23 + 1
    threshold = 2**32 % bound
    found = 0
    for key in range(4000):
        word = int(generator(child_seed(9, key)).bit_generator.random_raw())
        low, high = word & 0xFFFFFFFF, word >> 32
        if low * bound % 2**32 >= threshold:
            continue
        found += 1
        assert redrawn_rows(np.array([[word]], dtype=np.uint64), bound, 1)[0] == [0]
        assert high * bound % 2**32 >= threshold  # a second rejection would need a third half
        pick = generator(child_seed(9, key)).choice(bound, size=1, replace=False)
        assert pick.tolist() == [high * bound >> 32]
    assert found >= 2
