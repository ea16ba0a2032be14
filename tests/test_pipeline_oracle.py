"""The whole Monte Carlo pipeline against exact expected metrics.

The oracle shares no code with vnom.  It enumerates every edge configuration
of a five-vertex kidney-egg model, weights each by its probability and
averages MRR and MAP over every tie-break order of the candidates.  The model
is exchangeable in the vertices, so the red set is fixed to {0..m-1} and the
identified set to {0..m'-1}; the sampler draws both at random and must agree
in expectation.  ``gamma_surface`` and a ``run_sweep`` cell, sampling and
ranking the same model at fixed seeds, must lie within 3 se of the oracle.
"""

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import pytest

from vnom import KidneyEggParams, SweepSpec, gamma_surface, run_sweep

N = 5
PAIRS = list(itertools.combinations(range(N), 2))  # 10 pairs, 3**10 configurations
P = (0.5, 0.2, 0.3)  # (no edge, red edge, green edge) of pairs with a green end
S = (0.2, 0.5, 0.3)  # the same for pairs of two red vertices
GAMMAS = (0.0, 0.5, 1.0)
REPLICATES = 3000


def score_distribution(m, m_prime):
    """{candidate (context, content) pairs: probability} over all configurations."""
    dist = defaultdict(float)
    for config in itertools.product(range(3), repeat=len(PAIRS)):
        prob = 1.0
        context, content = [0] * N, [0] * N
        for (u, v), attr in zip(PAIRS, config):
            prob *= (S if v < m else P)[attr]  # u < v, so both are red iff v < m
            if attr:
                context[u] += v < m_prime
                context[v] += u < m_prime
            if attr == 1:
                content[u] += 1
                content[v] += 1
        dist[tuple(zip(context[m_prime:], content[m_prime:]))] += prob
    return dist


@lru_cache(maxsize=None)
def tie_averaged_metrics(levels, red):
    """(RR, AP) averaged over every tie-break order of the candidates, the
    i-th at fused level ``levels[i]`` (0 the highest) and red iff ``red[i]``."""
    perms = list(itertools.permutations(range(len(levels))))
    rr = ap = Fraction(0)
    for perm in perms:  # perm[i] is candidate i's place in the tie-break order
        order = sorted(range(len(levels)), key=lambda i: (levels[i], perm[i]))
        hits = [Fraction(j + 1, rank + 1)
                for j, rank in enumerate(r for r, c in enumerate(order) if red[c])]
        rr += hits[0]
        ap += sum(hits) / len(hits)
    return rr / len(perms), ap / len(perms)


def exact_metrics(dist, m, m_prime):
    """{gamma: (E[MRR], E[MAP])} of the five-vertex model whose candidate
    scores have the distribution ``dist``."""
    red = tuple(c < m for c in range(m_prime, N))
    out = {}
    for gamma in GAMMAS:
        g = Fraction(gamma)
        mrr = map_ = 0.0
        for scores, prob in dist.items():
            fused = [(1 - g) * t0 + g * t1 for t0, t1 in scores]
            distinct = sorted(set(fused), reverse=True)
            rr, ap = tie_averaged_metrics(tuple(distinct.index(f) for f in fused), red)
            mrr += prob * float(rr)
            map_ += prob * float(ap)
        out[gamma] = (mrr, map_)
    return out


@pytest.fixture(scope="module", params=[(3, 1), (3, 2)], ids=["m=3,m'=1", "m=3,m'=2"])
def model(request):
    m, m_prime = request.param
    dist = score_distribution(m, m_prime)
    return m, m_prime, dist, exact_metrics(dist, m, m_prime)


def assert_within_3_se(table, exact):
    for criterion, col in (("mrr", 0), ("map", 1)):
        for gamma in GAMMAS:
            want = exact[gamma][col]
            got, se = table.value(criterion, gamma), table.value(criterion, gamma, se=True)
            assert abs(got - want) <= 3 * se, (criterion, gamma, got, want, se)


def test_oracle_weights_sum_to_one_and_fusion_matters(model):
    _, _, dist, exact = model
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    # the three gammas must be told apart, or the 3-se checks would prove little
    assert len({round(exact[gamma][1], 3) for gamma in GAMMAS}) == 3


def test_gamma_surface_matches_the_oracle(model):
    m, m_prime, _, exact = model
    table = gamma_surface(KidneyEggParams(N, m, m_prime, P, S), GAMMAS, 1, REPLICATES, 20)
    assert_within_3_se(table, exact)


def test_sweep_cell_matches_the_oracle(model):
    m, m_prime, _, exact = model
    spec = SweepSpec(n=N, p=P, s=S, m_values=(m,), gamma_grid=GAMMAS, replicates=REPLICATES,
                     master_seed=21, m_prime_values=(m_prime,))
    (cell,) = run_sweep(spec).cells
    assert_within_3_se(cell.table, exact)
