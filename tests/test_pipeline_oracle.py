"""The whole Monte Carlo pipeline against exact expected metrics.

The oracle shares no code with vnom.  It enumerates every edge configuration
of a five-vertex kidney-egg model, weights each by its probability and
averages S@1, MRR, MAP and AP^y (y <= 2) over every tie-break order of the
candidates.  The model is exchangeable in the vertices, so the red set is
fixed to {0..m-1} and the identified set to {0..m'-1}; the sampler draws both
at random and must agree in expectation.  ``gamma_surface`` and a
``run_sweep`` cell, sampling and ranking the same model at fixed seeds, must
lie within 3 se of the oracle.
"""

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import pytest

from vnom import KidneyEggParams, SweepSpec, gamma_surface, run_sweep
from vnom.experiments import _best_gamma

N = 5
PAIRS = list(itertools.combinations(range(N), 2))  # 10 pairs, 3**10 configurations
P = (0.5, 0.2, 0.3)  # (no edge, red edge, green edge) of pairs with a green end
S = (0.2, 0.5, 0.3)  # the same for pairs of two red vertices
# red pairs mostly carry green edges, so content misleads and context leads:
# gamma = 0 beats gamma = 1 by tens of se, where the cases above favour content
CONTEXT_LED = ((0.6, 0.3, 0.1), (0.1, 0.1, 0.8))
GAMMAS = (0.0, 0.5, 1.0)
Y_MAX = 2
REPLICATES = 3000


def score_distribution(m, m_prime, p, s):
    """{candidate (context, content) pairs: probability} over all configurations."""
    dist = defaultdict(float)
    for config in itertools.product(range(3), repeat=len(PAIRS)):
        prob = 1.0
        context, content = [0] * N, [0] * N
        for (u, v), attr in zip(PAIRS, config):
            prob *= (s if v < m else p)[attr]  # u < v, so both are red iff v < m
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
    """{criterion: value} averaged over every tie-break order of the
    candidates, the i-th at fused level ``levels[i]`` (0 the highest) and red
    iff ``red[i]``; AP^y is keyed by y, for y up to Y_MAX or the red count."""
    perms = list(itertools.permutations(range(len(levels))))
    totals = defaultdict(Fraction)
    for perm in perms:  # perm[i] is candidate i's place in the tie-break order
        order = sorted(range(len(levels)), key=lambda i: (levels[i], perm[i]))
        hits = [Fraction(j + 1, rank + 1)
                for j, rank in enumerate(r for r, c in enumerate(order) if red[c])]
        totals["s_at_1"] += int(red[order[0]])
        totals["mrr"] += hits[0]
        totals["map"] += sum(hits) / len(hits)
        for y in range(1, min(Y_MAX, len(hits)) + 1):
            totals[y] += sum(hits[:y]) / y
    return {key: total / len(perms) for key, total in totals.items()}


def exact_metrics(dist, m, m_prime):
    """{gamma: {criterion: expectation}} of the five-vertex model whose
    candidate scores have the distribution ``dist``; AP^y is keyed by y."""
    red = tuple(c < m for c in range(m_prime, N))
    out = {}
    for gamma in GAMMAS:
        g = Fraction(gamma)
        expected = defaultdict(float)
        for scores, prob in dist.items():
            fused = [(1 - g) * t0 + g * t1 for t0, t1 in scores]
            distinct = sorted(set(fused), reverse=True)
            levels = tuple(distinct.index(f) for f in fused)
            for key, value in tie_averaged_metrics(levels, red).items():
                expected[key] += prob * float(value)
        out[gamma] = dict(expected)
    return out


@lru_cache(maxsize=None)
def solved(m, m_prime, p, s):
    """(score distribution, exact metrics) of one model."""
    dist = score_distribution(m, m_prime, p, s)
    return dist, exact_metrics(dist, m, m_prime)


@lru_cache(maxsize=None)
def surface(m, m_prime, p, s):
    return gamma_surface(KidneyEggParams(N, m, m_prime, p, s), GAMMAS,
                         min(Y_MAX, m - m_prime), REPLICATES, 20)


@pytest.fixture(scope="module",
                params=[(3, 1, P, S), (3, 2, P, S), (3, 1, *CONTEXT_LED)],
                ids=["m=3,m'=1", "m=3,m'=2", "m=3,m'=1,context-led"])
def model(request):
    return (*request.param, *solved(*request.param))


def columns(table):
    """(criterion, y, oracle key) of every column of a metric table."""
    return ([(criterion, None, criterion) for criterion in ("s_at_1", "mrr", "map")]
            + [("ap_y", y, y) for y in table.y_values])


def assert_within_3_se(table, exact):
    for criterion, y, key in columns(table):
        for gamma in GAMMAS:
            want = exact[gamma][key]
            got = table.value(criterion, gamma, y)
            se = table.value(criterion, gamma, y, se=True)
            assert abs(got - want) <= 3 * se, (criterion, y, gamma, got, want, se)


def test_oracle_weights_sum_to_one_and_fusion_matters(model):
    *_, dist, exact = model
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    # the three gammas must be told apart, or the 3-se checks would prove little
    assert len({round(exact[gamma]["map"], 3) for gamma in GAMMAS}) == 3


def test_gamma_surface_matches_the_oracle(model):
    m, m_prime, p, s, _, exact = model
    table = surface(m, m_prime, p, s)
    assert table.y_values == tuple(range(1, min(Y_MAX, m - m_prime) + 1))
    assert_within_3_se(table, exact)


def test_swapped_weights_would_move_the_context_led_surface_6_se():
    # swapping the weights, (1-gamma, gamma) -> (gamma, 1-gamma), swaps the
    # gamma = 0 and gamma = 1 rows; here they differ by at least 6 se in
    # every column, so the 3-se check above cannot miss that mutant
    _, exact = solved(3, 1, *CONTEXT_LED)
    table = surface(3, 1, *CONTEXT_LED)
    for criterion, y, key in columns(table):
        se = max(table.value(criterion, gamma, y, se=True) for gamma in (0.0, 1.0))
        assert abs(exact[0.0][key] - exact[1.0][key]) >= 6 * se, (criterion, y)


def test_sweep_cell_matches_the_oracle(model):
    m, m_prime, p, s, _, exact = model
    spec = SweepSpec(n=N, p=p, s=s, m_values=(m,), gamma_grid=GAMMAS, replicates=REPLICATES,
                     master_seed=21, m_prime_values=(m_prime,))
    (cell,) = run_sweep(spec).cells
    assert_within_3_se(cell.table, exact)


def test_gamma_star_picks_a_gamma_within_3_se_of_the_exact_best(model):
    # gamma* is picked off the surface's means as sweep cells pick it, so the
    # surface's se at its pick is the se of the estimate it maximised
    m, m_prime, p, s, _, exact = model
    table = surface(m, m_prime, p, s)
    picked = _best_gamma(GAMMAS, table.column("map"))
    se = table.value("map", picked, None, se=True)
    best = max(exact[gamma]["map"] for gamma in GAMMAS)
    assert best - exact[picked]["map"] <= 3 * se, (picked, best, exact[picked]["map"], se)
