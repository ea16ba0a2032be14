"""Seed discipline for all randomized operations.

Every randomized function takes a seed that is either a non-negative int or a
``numpy.random.SeedSequence``; the samplers also take a
``numpy.random.Generator``, which they draw on in place.  Derived streams
(per replicate, per sweep cell, per screening block) are obtained by
extending the seed's spawn key with integer coordinates, so results are
independent of execution order and worker count.

Many children of one seed are derived in one batch by
:func:`child_generators`.  It carries numpy's ``SeedSequence`` hash on from
the seed's ``pool``, where numpy hashed the seed's own words, over all the
children's keys at once, so each of its generators draws exactly the stream
of ``generator(child_seed(seed, *key))``.  Its keys are tuples of one length,
at least 1, of ints below 2**32.  PCG64 seeds from a precomputed state row's
memory as it lies, so the rows are handed over C-contiguous: a strided row
with the same values would seed a different stream.

:func:`choice_masks` mirrors a second numpy algorithm, the one behind
``Generator.choice(m, m_prime, replace=False)``: Floyd's sampling (Bentley &
Floyd 1987) over Lemire's bounded 32-bit integers (Lemire 2019).  It turns
the raw 64-bit words of many streams, one stream a row, into the masks of
their picks at once, so each stream costs one ``random_raw`` call in place of
one ``choice`` call; the rare rows and shapes it does not mirror it hands to
``choice`` itself.
"""

from __future__ import annotations

import operator
from functools import cache

import numpy as np

from .errors import InputError

# numpy's SeedSequence hash (bit_generator.pyx, after O'Neill's seed_seq);
# every default_rng(seed) stream is defined by it, so numpy keeps it fixed
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4  # child_seed keeps numpy's default pool size
_PCG64_WORDS = 4  # PCG64 seeds from generate_state(4, np.uint64)
KEY_VALUES = _MASK32 + 1  # a key word of child_generators lies in 0..KEY_VALUES-1
# Generator.choice without replacement shuffles a whole range's tail in place
# of Floyd's sampling beyond these (_generator.pyx)
_TAIL_SHUFFLE_POP, _TAIL_SHUFFLE_SHARE = 10_000, 50


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Normalize an int (or SeedSequence) into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise InputError("seed must be a non-negative integer")
        return np.random.SeedSequence(int(seed))
    raise InputError(f"seed must be an int or SeedSequence, got {type(seed).__name__}")


def child_seed(seed, *key: int) -> np.random.SeedSequence:
    """Derive a child seed keyed by integer coordinates.

    Pure function of (seed, key): unlike ``SeedSequence.spawn`` it does not
    mutate the parent, so any worker can derive any child independently.
    """
    base = as_seed_sequence(seed)
    spawn_key = tuple(base.spawn_key) + tuple(int(k) for k in key)
    return np.random.SeedSequence(entropy=base.entropy, spawn_key=spawn_key)


def generator(seed) -> np.random.Generator:
    """A fresh PCG64 generator for the given seed; a Generator is returned
    as it is, to be drawn on in place."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(as_seed_sequence(seed))


def child_generators(seed, keys):
    """One generator per key, lazily: the i-th draws exactly the stream of
    ``generator(child_seed(seed, *keys[i]))``.

    The keys are tuples of one length, at least 1, of ints in 0..2**32-1, as
    every replicate, trial and sample loop makes them; others raise
    :class:`InputError`.  The children's states come from one vectorized pass
    of the tail of the ``SeedSequence`` hash, made when this is called, into
    one C-contiguous (children x 4) table whose rows seed PCG64; each
    generator is built only when the returned iterator reaches it.  The pass
    has a fixed cost of over a hundred microseconds, so batch a few dozen keys
    or more.
    """
    base = as_seed_sequence(seed)
    words = _key_table(keys)
    if base.pool_size != _POOL_SIZE:  # child_seed's children hash with numpy's default pool
        base = child_seed(base)
    # the words in the pool; a child pads its run entropy to the pool size with
    # zeros, as numpy's pool set-up does for a short entropy
    n_words = max(_POOL_SIZE, _n_words(base.entropy)) + _n_words(base.spawn_key)
    states = np.ascontiguousarray(_pcg64_states(base.pool, n_words, words.T))
    state_class = _state_class()
    return (np.random.Generator(np.random.PCG64(state_class(row))) for row in states)


def _key_table(keys) -> np.ndarray:
    """(children x words) uint32 table of the keys; see child_generators."""
    if len(keys) == 0:
        return np.empty((0, 1), dtype=np.uint32)
    try:
        table = np.array(keys)
    except ValueError:  # keys of different lengths
        table = np.array(())
    if not (table.ndim == 2 and table.size and table.dtype.kind in "iu"
            and table.min() >= 0 and table.max() <= _MASK32):
        raise InputError("seed keys must be tuples of one length >= 1 of ints in 0..2**32-1")
    return table.astype(np.uint32)


def _n_words(value) -> int:
    """How many uint32 words numpy makes of a non-negative int (one for 0) or
    of a sequence of them: the entropy and spawn key of a SeedSequence."""
    if isinstance(value, (int, np.integer)):
        return max(1, -(-operator.index(value).bit_length() // 32))
    return sum(map(_n_words, value))


def _pcg64_states(pool: np.ndarray, n_words: int, keys: np.ndarray) -> np.ndarray:
    """(children x 4) uint64 PCG64 seed states, ``generate_state(4, np.uint64)``
    of each child, row by row of numpy's hash at once: ``pool`` holds the
    ``n_words`` words hashed before a child's key, a column of the (words x
    children) ``keys``.  numpy steps its hash constant once per hashmix, 4
    times a word: 4 for the pool set-up, 12 for the all-pairs mix and 4 a
    word beyond the pool, which is all a key mixes in here."""
    const = _INIT_A * pow(_MULT_A, 4 * n_words, _MASK32 + 1) & _MASK32

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = list(pool[:, None])  # one-element rows, broadcast against the children
    for word in keys:  # entropy beyond the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = np.empty((2 * _PCG64_WORDS, keys.shape[1]), dtype=np.uint32)
    const = _INIT_B
    for i in range(len(out)):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        out[i] = value ^ (value >> _XSHIFT)
    # each uint64 is two consecutive uint32 words, low word first
    return (out[1::2].astype(np.uint64) << np.uint64(32) | out[::2]).T


def choice_words(m_prime: int) -> int:
    """Raw 64-bit words holding the m_prime 32-bit draws of one choice."""
    return (m_prime + 1) // 2


def choice_masks(words: np.ndarray, m: int, m_prime: int, stream) -> np.ndarray:
    """The (rows x m) masks of the positions that ``choice(m, m_prime,
    replace=False)`` picks from the streams whose first :func:`choice_words`
    raw words are the rows of the uint64 ``words``; 1 <= m_prime < m < 2**32.

    numpy draws each pick k = 0..m_prime-1 as a bounded integer in 0..j,
    j = m - m_prime + k, from the next 32-bit half of the stream, low half
    first, and takes j when the value is already picked (Floyd).  The value
    is ``(x * (j + 1)) >> 32`` for the half x (Lemire), unless the product's
    low half, the leftover, falls below ``2**32 % (j + 1)``: numpy then
    rejects x and draws again.  The picks are then shuffled, which moves no
    mask bit.  A row with a rejection (probability below m_prime * m / 2**32)
    and every row of a shape numpy samples by shuffling a range's tail
    (m > 10 000 and m_prime > m // 50) are drawn by ``choice`` itself, on
    ``stream(row)``: a fresh generator of that row's stream."""
    # each word's low half, then its high half, by mask and shift: any byte order
    halves = np.stack((words & np.uint64(_MASK32), words >> np.uint64(32)), axis=-1)
    halves = halves.reshape(len(words), 2 * words.shape[1])
    bounds = np.arange(m - m_prime + 1, m + 1, dtype=np.uint64)  # j + 1 per pick
    products = halves[:, :m_prime] * bounds
    thresholds = np.uint64(KEY_VALUES) % bounds
    redrawn = ((products & np.uint64(_MASK32)) < thresholds).any(axis=1)
    if m > _TAIL_SHUFFLE_POP and m_prime > m // _TAIL_SHUFFLE_SHARE:
        redrawn[:] = True
    values = (products >> np.uint64(32)).astype(np.intp)
    picks = np.zeros((len(words), m), dtype=bool)
    rows = np.arange(len(words))
    for k, j in enumerate(range(m - m_prime, m)):
        value = values[:, k]
        value[picks[rows, value]] = j
        picks[rows, value] = True
    for row in redrawn.nonzero()[0]:
        picks[row] = False
        picks[row, stream(row).choice(m, size=m_prime, replace=False)] = True
    return picks


@cache
def _state_class():
    """The seed-sequence type handing PCG64 one precomputed state; defined on
    first use, so that importing vnom does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedState(ISeedSequence):
        def __init__(self, words):
            # PCG64 seeds from the row's memory as it lies, whatever its strides
            self.words = np.ascontiguousarray(words, dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, np.dtype(dtype)) != (_PCG64_WORDS, np.dtype(np.uint64)):
                raise ValueError("a precomputed state serves PCG64 seeding alone")
            return self.words

    return PrecomputedState
