"""Kidney-egg random graphs and the exact distributions of the nomination scores.

The model places a block of ``m`` red vertices inside an ``n``-vertex graph.
Each unordered vertex pair draws one of {no edge, red edge, green edge}: pairs
with both endpoints red use the probability vector ``s``, all other pairs use
``p``.  A uniformly random ``m_prime``-subset of the red vertices is
identified (observed red); every other vertex is occluded.

Draw order for a given seed is fixed: red set, then identified subset, then
one uniform variate per vertex pair in lexicographic pair order.  Samples are
therefore bit-identical across serial and parallel execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateConditioningError, InputError
from .graph import GREEN, OCCLUDED, RED, AttributedGraph
from .nomination import score_counts
from .seeding import child_seed, generator


@dataclass(frozen=True)
class Simplex3:
    """A point of the 2-simplex: (no-edge, red-edge, green-edge) probabilities.

    Inputs whose coordinates sum to more than 1e-6 away from 1 are rejected as
    likely typos; anything closer is normalized exactly.
    """

    q0: float
    q1: float
    q2: float

    def __post_init__(self):
        q = (float(self.q0), float(self.q1), float(self.q2))
        if not np.isfinite(q).all():
            raise InputError(f"simplex coordinates must be finite, got {q}")
        if any(x < 0 for x in q):
            raise InputError(f"simplex coordinates must be non-negative, got {q}")
        total = sum(q)
        if abs(total - 1.0) > 1e-6:
            raise InputError(f"simplex coordinates sum to {total!r}, expected 1")
        object.__setattr__(self, "q0", q[0] / total)
        object.__setattr__(self, "q1", q[1] / total)
        object.__setattr__(self, "q2", q[2] / total)

    @classmethod
    def of(cls, value) -> "Simplex3":
        if isinstance(value, Simplex3):
            return value
        q = tuple(value)
        if len(q) != 3:
            raise InputError("expected three probabilities (no edge, red, green)")
        return cls(*q)

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2])

    @property
    def edge_prob(self) -> float:
        return self.q1 + self.q2


@dataclass(frozen=True)
class KidneyEggParams:
    """Full generative specification (n, p, m, s; m_prime)."""

    n: int
    m: int
    m_prime: int
    p: Simplex3
    s: Simplex3

    def __post_init__(self):
        object.__setattr__(self, "p", Simplex3.of(self.p))
        object.__setattr__(self, "s", Simplex3.of(self.s))
        if not (self.n > self.m > self.m_prime >= 1):
            raise InputError(
                f"need n > m > m_prime >= 1, got n={self.n}, m={self.m}, m_prime={self.m_prime}")


@dataclass(frozen=True)
class PMF:
    """Probability mass function on the integers 0..len(probs)-1."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise InputError("PMF needs a non-empty 1-d probability vector")
        if probs.min() < -1e-12:
            raise InputError("PMF probabilities must be non-negative")
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"PMF sums to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))

    def __len__(self) -> int:
        return len(self.probs)

    @property
    def support(self) -> np.ndarray:
        return np.arange(len(self.probs))

    def prob(self, k: int) -> float:
        if 0 <= k < len(self.probs):
            return float(self.probs[k])
        return 0.0

    def convolve(self, other: "PMF") -> "PMF":
        # np.convolve multiplies out the full support product, which is exact
        # up to float rounding; supports here never exceed n.
        return PMF(np.convolve(self.probs, other.probs))


def binomial_pmf(trials: int, prob: float) -> PMF:
    """Binomial(trials, prob) mass vector on 0..trials, in O(trials) floats.

    A ratio recurrence from the mode: pmf[mode] = 1, upward by the cumulative
    product of pmf[k+1]/pmf[k] = (n-k)/(k+1) * p/(1-p) and downward by that of
    its inverse, then normalized by an fsum.  Every factor is at most 1, so
    nothing overflows; far tails underflow to 0.  Against exact rational
    arithmetic (n <= 300, eleven probabilities from 1e-6 to 0.999) the largest
    absolute error is 1.6e-16 and the relative error on masses above 1e-3 is
    3.4e-15.
    """
    if trials < 0:
        raise InputError("trials must be >= 0")
    if not 0.0 <= prob <= 1.0:
        raise InputError("prob must lie in [0, 1]")
    n = trials
    probs = np.zeros(n + 1)
    if prob in (0.0, 1.0):
        probs[0 if prob == 0.0 else n] = 1.0
        return PMF(probs)
    mode = min(n, int((n + 1) * prob))
    k = np.arange(n, dtype=np.float64)
    ratio = (n - k) / (k + 1) * (prob / (1.0 - prob))  # pmf[k+1] / pmf[k]
    probs[mode] = 1.0
    probs[mode + 1:] = np.cumprod(ratio[mode:])
    probs[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return PMF(probs / math.fsum(probs))


def tv_distance(a: PMF, b: PMF) -> float:
    """Total variation distance between two PMFs, the shorter padded with zeros."""
    pa = np.zeros(max(len(a), len(b)))
    pb = np.zeros_like(pa)
    pa[:len(a)] = a.probs
    pb[:len(b)] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())


def empirical_pmf(values) -> PMF:
    """Empirical distribution of a sample of non-negative integers."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        raise InputError("cannot build an empirical PMF from no samples")
    counts = np.bincount(values)
    return PMF(counts / values.size)


@lru_cache(maxsize=16)
def _pairs(n: int):
    """Read-only (u, v) arrays of all pairs u < v in lexicographic order."""
    iu, iv = np.triu_indices(n, k=1)
    iu.flags.writeable = iv.flags.writeable = False
    return iu, iv


def sample_kidney_egg(params: KidneyEggParams, seed) -> AttributedGraph:
    """Draw one attributed graph from the model.

    The red set is a uniform m-subset of the vertices; the identified set is
    a uniform m_prime-subset of the red set; each pair's edge attribute is
    drawn from its class vector with cumulative thresholds in the order
    (no edge, red, green).
    """
    rng = generator(seed)
    n, m, mp = params.n, params.m, params.m_prime
    red = np.sort(rng.choice(n, size=m, replace=False))
    identified = np.sort(rng.choice(red, size=mp, replace=False))

    truth = np.full(n, GREEN, dtype=np.int8)
    truth[red] = RED
    observed = np.full(n, OCCLUDED, dtype=np.int8)
    observed[identified] = RED

    iu, iv = _pairs(n)  # lexicographic pair order
    u = rng.random(iu.size)
    p, s = params.p, params.s
    present = u >= p.q0
    # red-red pairs use s instead: the pair (a, b), a < b, sits at this offset
    ra, rb = _pairs(m)
    a, b = red[ra], red[rb]
    pos = a * n - a * (a + 1) // 2 + b - a - 1
    ur = u[pos]
    red_present = ur >= s.q0
    present[pos] = red_present
    # one pass finds the edges; attributes are computed for them alone
    idx = present.nonzero()[0]
    attr = 1 + (u[idx] >= p.q0 + p.q1)
    attr[idx.searchsorted(pos[red_present])] = 1 + (ur[red_present] >= s.q0 + s.q1)
    # pair order is already canonical (u < v, lexicographic)
    return AttributedGraph._from_canonical(n, iu[idx], iv[idx], attr, truth, observed,
                                           k_edge_attrs=2)


def _is_red(vertex_class) -> bool:
    """Whether a candidate of ``vertex_class`` is red; RED and GREEN are the
    only classes a candidate can have."""
    if vertex_class not in (RED, GREEN):
        raise InputError(f"vertex_class must be RED or GREEN, got {vertex_class!r}")
    return vertex_class == RED


def context_score_pmf(params: KidneyEggParams, vertex_class) -> PMF:
    """Exact distribution of the context score (identified neighbors) for a
    candidate of the given true class: Binomial(m_prime, own-class edge prob)."""
    own = params.s if _is_red(vertex_class) else params.p
    return binomial_pmf(params.m_prime, own.edge_prob)


def content_score_pmf(params: KidneyEggParams, vertex_class) -> PMF:
    """Exact distribution of the content score (incident red edges).

    Green: Binomial(n-1, p1).  Red candidate: the independent sum of
    Binomial(m-1, s1) red-block edges and Binomial(n-m, p1) outside edges.
    """
    n, m = params.n, params.m
    if _is_red(vertex_class):
        return binomial_pmf(m - 1, params.s.q1).convolve(binomial_pmf(n - m, params.p.q1))
    return binomial_pmf(n - 1, params.p.q1)


def content_given_context_pmf(params: KidneyEggParams, vertex_class, c: int) -> PMF:
    """Exact conditional distribution of the content score given context score c.

    Green: Bin(c, p1/(p1+p2)) + Bin(n-1-m_prime, p1).
    Red:   Bin(c, s1/(s1+s2)) + Bin(m-1-m_prime, s1) + Bin(n-m, p1).
    All sums are of independent binomials, convolved exactly.
    """
    red = _is_red(vertex_class)
    n, m, mp = params.n, params.m, params.m_prime
    if not 0 <= c <= mp:
        raise InputError(f"context score c must lie in 0..{mp}, got {c}")
    own = params.s if red else params.p
    if c > 0 and own.edge_prob == 0.0:
        raise DegenerateConditioningError(
            "conditioning on a positive context score under zero edge probability")
    ratio = 0.0 if c == 0 else own.q1 / own.edge_prob
    first = binomial_pmf(c, ratio)
    if not red:
        return first.convolve(binomial_pmf(n - 1 - mp, params.p.q1))
    rest = binomial_pmf(m - 1 - mp, params.s.q1).convolve(binomial_pmf(n - m, params.p.q1))
    return first.convolve(rest)


def content_pmf_from_conditionals(params: KidneyEggParams, vertex_class) -> PMF:
    """Mix the conditional content distributions over the context marginal.

    Internal cross-check: the result must equal ``content_score_pmf`` exactly
    (up to float rounding), for both classes.
    """
    ctx = context_score_pmf(params, vertex_class)
    out = np.zeros(params.n)  # content score is at most n-1
    for c, w in enumerate(ctx.probs):
        if w == 0.0:
            continue
        cond = content_given_context_pmf(params, vertex_class, c)
        out[:len(cond)] += w * cond.probs
    last = int(np.flatnonzero(out > 0)[-1])  # total mass is 1, so non-empty
    return PMF(out[:last + 1])


def empirical_score_pmfs(params: KidneyEggParams, n_samples: int, seed):
    """Sampled distributions of the context and content scores.

    Draws ``n_samples`` graphs; in each, records the scores of one green
    vertex and one red candidate (the lowest-id representative of each class;
    both exist because n > m > m_prime).  Returns a nested dict
    ``{"green"|"red": {"context": PMF, "content": PMF}}``.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    base = child_seed(seed)
    vals = {("green", "context"): [], ("green", "content"): [],
            ("red", "context"): [], ("red", "content"): []}
    for i in range(n_samples):
        g = sample_kidney_egg(params, child_seed(base, i))
        t0_all, t1_all = score_counts(g.n, g.edge_u, g.edge_v, g.edge_attr == RED,
                                      g.observed == RED)
        green_v = int(np.flatnonzero(g.truth == GREEN)[0])
        red_v = int(g.red_candidates()[0])
        vals[("green", "context")].append(t0_all[green_v])
        vals[("green", "content")].append(t1_all[green_v])
        vals[("red", "context")].append(t0_all[red_v])
        vals[("red", "content")].append(t1_all[red_v])
    return {
        cls: {kind: empirical_pmf(vals[(cls, kind)]) for kind in ("context", "content")}
        for cls in ("green", "red")
    }

