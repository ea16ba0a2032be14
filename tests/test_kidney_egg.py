"""Model sampling and exact score distributions."""

from fractions import Fraction
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnom import (GREEN, OCCLUDED, RED, AttributedGraph, DegenerateConditioningError,
                  InputError, KidneyEggParams, PMF, Simplex3, binomial_pmf,
                  content_given_context_pmf, content_pmf_from_conditionals, content_score_pmf,
                  context_score_pmf, empirical_score_pmfs, sample_kidney_egg, tv_distance)
from vnom.seeding import generator

PAPER_P = Simplex3(0.6, 0.2, 0.2)
PAPER_S = Simplex3(0.4, 0.4, 0.2)


def padded(pmf, length):
    out = np.zeros(length)
    out[:len(pmf)] = pmf.probs
    return out


class TestSimplex3:
    def test_normalizes_tiny_drift(self):
        s = Simplex3(0.5, 0.25, 0.25 + 1e-9)
        assert s.q0 + s.q1 + s.q2 == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(InputError):
            Simplex3(0.5, 0.25, 0.3)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            Simplex3(1.2, -0.1, -0.1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), st.integers(0, 2),
           st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def test_rejects_non_finite(self, coords, slot, bad):
        coords[slot] = bad
        with pytest.raises(InputError, match="finite"):
            Simplex3(*coords)


class TestKidneyEggParams:
    def test_chain_constraint(self):
        with pytest.raises(InputError):
            KidneyEggParams(10, 10, 2, PAPER_P, PAPER_S)
        with pytest.raises(InputError):
            KidneyEggParams(10, 4, 4, PAPER_P, PAPER_S)
        with pytest.raises(InputError):
            KidneyEggParams(10, 4, 0, PAPER_P, PAPER_S)

    def test_accepts_sequences(self):
        params = KidneyEggParams(10, 4, 2, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        assert params.p.q1 == 0.2


class TestSampleKidneyEgg:
    def test_zero_edge_probability_gives_empty_graph(self):
        params = KidneyEggParams(12, 5, 2, (1, 0, 0), (1, 0, 0))
        g = sample_kidney_egg(params, 3)
        assert g.num_edges == 0

    def test_all_red_gives_complete_red_graph(self):
        params = KidneyEggParams(9, 4, 1, (0, 1, 0), (0, 1, 0))
        g = sample_kidney_egg(params, 3)
        assert g.num_edges == comb(9, 2)
        assert (g.edge_attr == RED).all()

    def test_counts_match_params(self):
        params = KidneyEggParams(30, 10, 4, PAPER_P, PAPER_S)
        g = sample_kidney_egg(params, 17)
        assert g.num_red == 10
        assert g.num_identified == 4
        assert set(g.identified_set()) <= set(g.red_set())

    def test_equal_seeds_bit_identical(self):
        params = KidneyEggParams(40, 10, 3, PAPER_P, PAPER_S)
        a = sample_kidney_egg(params, 99)
        b = sample_kidney_egg(params, 99)
        assert a == b

    def test_different_seeds_differ(self):
        params = KidneyEggParams(40, 10, 3, PAPER_P, PAPER_S)
        counts = {sample_kidney_egg(params, s).num_edges for s in range(6)}
        assert len(counts) > 1

    def test_mean_edge_count(self):
        # E[|E|] = C(m,2)(s1+s2) + (C(n,2)-C(m,2))(p1+p2); the oracle is the
        # independent-edge expectation computed here from the parameters.
        params = KidneyEggParams(184, 40, 10, PAPER_P, PAPER_S)
        expected = comb(40, 2) * 0.6 + (comb(184, 2) - comb(40, 2)) * 0.4
        assert expected == pytest.approx(6890.4)
        counts = [sample_kidney_egg(params, np.random.SeedSequence(entropy=4, spawn_key=(i,))).num_edges
                  for i in range(300)]
        assert np.mean(counts) == pytest.approx(expected, rel=0.02)


def reference_sample(params, seed):
    """The sampler as first written: the same draws, with every pair's
    thresholds built by np.where over np.triu_indices."""
    rng = generator(seed)
    n, m, mp = params.n, params.m, params.m_prime
    red = np.sort(rng.choice(n, size=m, replace=False))
    identified = np.sort(rng.choice(red, size=mp, replace=False))
    truth = np.full(n, GREEN, dtype=np.int8)
    truth[red] = RED
    observed = np.full(n, OCCLUDED, dtype=np.int8)
    observed[identified] = RED
    iu, iv = np.triu_indices(n, k=1)
    u = rng.random(iu.size)
    is_red_pair = (truth[iu] == RED) & (truth[iv] == RED)
    c0 = np.where(is_red_pair, params.s.q0, params.p.q0)
    c1 = c0 + np.where(is_red_pair, params.s.q1, params.p.q1)
    attr = (u >= c0).astype(np.int64) + (u >= c1)
    present = attr > 0
    return AttributedGraph(n, iu[present], iv[present], attr[present], truth, observed)


class TestSamplerOracle:
    @pytest.mark.parametrize("n,m,mp,p,s", [
        (184, 40, 30, PAPER_P, PAPER_S),
        (3, 2, 1, PAPER_P, PAPER_S),
        (25, 2, 1, (0.5, 0.3, 0.2), (0.1, 0.5, 0.4)),
        (30, 8, 3, PAPER_P, (1, 0, 0)),
        (30, 8, 3, PAPER_P, (0, 1, 0)),
        (30, 8, 3, (1, 0, 0), PAPER_S),
        (40, 39, 7, (0.3, 0.3, 0.4), (0.2, 0.2, 0.6)),
        (20, 6, 2, (0, 0.5, 0.5), (0, 0.3, 0.7)),  # every pair present
        (20, 6, 2, (0, 0.5, 0.5), PAPER_S),  # every pair but red-red ones present
        (30, 8, 3, PAPER_P, (0, 0, 1)),  # every red-red pair a green edge
        (30, 8, 3, (0.6, 0, 0.4), PAPER_S),  # p's two thresholds equal
        (12, 11, 10, (0.5, 0.2, 0.3), (0.1, 0.6, 0.3)),  # m = n - 1
    ])
    def test_matches_reference_sampler(self, n, m, mp, p, s):
        params = KidneyEggParams(n, m, mp, p, s)
        for seed in range(200):
            got, want = sample_kidney_egg(params, seed), reference_sample(params, seed)
            assert got == want and got.edge_attr.dtype == want.edge_attr.dtype
            assert got.edge_u.dtype == got.edge_v.dtype == got.edge_attr.dtype == np.int64


def exact_binomial(n, p):
    fp = Fraction(p)
    return [comb(n, k) * fp ** k * (1 - fp) ** (n - k) for k in range(n + 1)]


class TestBinomialPMF:
    @pytest.mark.parametrize("p", [1 / 3, 0.1, 0.2 / 0.3, 1e-6, 0.999, 0.5])
    def test_matches_exact_rationals(self, p):
        for n in range(61):
            got = binomial_pmf(n, p).probs
            assert len(got) == n + 1
            err = max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact_binomial(n, p)))
            assert err <= Fraction(1, 10 ** 15), (n, float(err))

    @pytest.mark.parametrize("p", [0.2, 1 / 3, 1e-4, 0.9999])
    def test_large_n_is_finite_and_normalized(self, p):
        n = 100_000
        probs = binomial_pmf(n, p).probs
        assert np.isfinite(probs).all() and len(probs) == n + 1
        assert abs(fsum(probs) - 1.0) < 1e-12
        mean = fsum(np.arange(n + 1) * probs)
        assert abs(mean - n * p) <= 1e-9 * n * p


class TestPMF:
    def test_rejects_bad_sum(self):
        with pytest.raises(InputError):
            PMF(np.array([0.5, 0.4]))

    def test_binomial_edge_cases(self):
        for p in (0.0, 0.3, 1.0):
            assert binomial_pmf(0, p).probs.tolist() == [1.0]
        for n in (1, 4, 60):
            assert binomial_pmf(n, 0.0).probs.tolist() == [1.0] + [0.0] * n
            assert binomial_pmf(n, 1.0).probs.tolist() == [0.0] * n + [1.0]

    def test_two_trial_binomial(self):
        pmf = binomial_pmf(2, 0.5)
        assert pmf.probs.tolist() == pytest.approx([0.25, 0.5, 0.25])

    def test_tv_distance_disjoint_point_masses(self):
        a = PMF(np.array([1.0]))
        b = PMF(np.array([0.0, 1.0]))
        assert tv_distance(a, b) == 1.0


class TestContextScorePMF:
    def test_green_binomial_values(self):
        # Bin(5, 0.4): P[0] = 0.6^5
        params = KidneyEggParams(20, 8, 5, PAPER_P, PAPER_S)
        pmf = context_score_pmf(params, GREEN)
        assert len(pmf) == 6
        assert pmf.prob(0) == pytest.approx(0.6 ** 5, rel=1e-12)

    def test_red_binomial(self):
        # Bin(5, s1+s2) = Bin(5, 0.6)
        params = KidneyEggParams(20, 8, 5, PAPER_P, PAPER_S)
        pmf = context_score_pmf(params, RED)
        assert pmf.prob(5) == pytest.approx(0.6 ** 5, rel=1e-12)

    def test_zero_edge_prob_point_mass(self):
        params = KidneyEggParams(20, 8, 5, (1, 0, 0), (1, 0, 0))
        for cls in (RED, GREEN):
            pmf = context_score_pmf(params, cls)
            assert pmf.prob(0) == 1.0


class TestContentScorePMF:
    def test_green_small_binomial(self):
        params = KidneyEggParams(3, 2, 1, (0.5, 0.5, 0.0), (0.5, 0.5, 0.0))
        pmf = content_score_pmf(params, GREEN)
        assert pmf.probs.tolist() == pytest.approx([0.25, 0.5, 0.25])

    def test_red_zero_rates_point_mass(self):
        params = KidneyEggParams(10, 4, 2, (1, 0, 0), (0.5, 0, 0.5))
        pmf = content_score_pmf(params, RED)
        assert pmf.prob(0) == 1.0

    def test_red_hand_convolution(self):
        # n=5, m=3: Bin(2, 0.5) * Bin(2, 0.25); P[0] = 0.25 * 0.5625
        params = KidneyEggParams(5, 3, 1, (0.75, 0.25, 0.0), (0.5, 0.5, 0.0))
        pmf = content_score_pmf(params, RED)
        assert pmf.prob(0) == pytest.approx(0.25 * 0.5625, rel=1e-12)
        assert len(pmf) == 5

    def test_sums_to_one(self):
        params = KidneyEggParams(50, 12, 4, PAPER_P, PAPER_S)
        for cls in (RED, GREEN):
            assert content_score_pmf(params, cls).probs.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("vertex_class", [-1, 0, 3, 7])
@pytest.mark.parametrize("score_pmf", [
    context_score_pmf, content_score_pmf,
    lambda params, vertex_class: content_given_context_pmf(params, vertex_class, 0),
], ids=["context", "content", "content_given_context"])
def test_score_pmfs_reject_a_class_other_than_red_or_green(score_pmf, vertex_class):
    params = KidneyEggParams(20, 8, 5, PAPER_P, PAPER_S)
    with pytest.raises(InputError, match="RED or GREEN"):
        score_pmf(params, vertex_class)


class TestContentGivenContext:
    def test_green_c0_drops_first_term(self):
        params = KidneyEggParams(10, 4, 2, PAPER_P, PAPER_S)
        cond = content_given_context_pmf(params, GREEN, 0)
        direct = binomial_pmf(10 - 1 - 2, 0.2)
        assert np.allclose(cond.probs, direct.probs, atol=1e-12)

    def test_green_full_context_with_no_green_edges(self):
        # p2=0 makes the thinning ratio 1: first term is a point mass at c
        params = KidneyEggParams(10, 4, 2, (0.8, 0.2, 0.0), (0.6, 0.4, 0.0))
        cond = content_given_context_pmf(params, GREEN, 2)
        shifted = binomial_pmf(7, 0.2)
        assert cond.prob(0) == 0.0
        assert cond.prob(1) == 0.0
        assert np.allclose(cond.probs[2:], shifted.probs, atol=1e-12)

    def test_green_hand_convolution(self):
        # n=6, m_prime=2, c=1: Bin(1, 0.5) * Bin(3, 0.25)
        params = KidneyEggParams(6, 3, 2, (0.5, 0.25, 0.25), (0.4, 0.3, 0.3))
        cond = content_given_context_pmf(params, GREEN, 1)
        expected = np.convolve([0.5, 0.5], [27 / 64, 27 / 64, 9 / 64, 1 / 64])
        assert np.allclose(cond.probs, expected, atol=1e-12)

    def test_c_out_of_range(self):
        params = KidneyEggParams(10, 4, 2, PAPER_P, PAPER_S)
        with pytest.raises(InputError):
            content_given_context_pmf(params, GREEN, 3)

    def test_degenerate_conditioning(self):
        params = KidneyEggParams(10, 4, 2, (1, 0, 0), (0.5, 0.25, 0.25))
        with pytest.raises(DegenerateConditioningError):
            content_given_context_pmf(params, GREEN, 1)

    def test_conditional_matches_sampled_frequencies(self):
        # green vertex, condition on context score 1; oracle: sampling
        params = KidneyEggParams(6, 3, 2, (0.5, 0.25, 0.25), (0.4, 0.3, 0.3))
        cond = content_given_context_pmf(params, GREEN, 1)
        hits = []
        for i in range(30_000):
            emp = sample_kidney_egg(params, np.random.SeedSequence(entropy=8, spawn_key=(i,)))
            green_v = int(np.flatnonzero(emp.truth == GREEN)[0])
            nbrs = emp.neighbors(green_v)
            t0 = int(np.count_nonzero(emp.observed[nbrs] == RED))
            if t0 == 1:
                t1 = int(np.count_nonzero(emp.incident_attrs(green_v) == RED))
                hits.append(t1)
        emp_pmf = PMF(np.bincount(hits, minlength=len(cond)) / len(hits))
        assert tv_distance(emp_pmf, cond) < 0.03


class TestMarginalConsistency:
    @pytest.mark.parametrize("cls", [RED, GREEN])
    def test_mixture_reproduces_marginal(self, cls):
        params = KidneyEggParams(20, 8, 3, PAPER_P, PAPER_S)
        direct = content_score_pmf(params, cls)
        mixed = content_pmf_from_conditionals(params, cls)
        length = max(len(direct), len(mixed))
        assert np.abs(padded(direct, length) - padded(mixed, length)).max() < 1e-9

    @pytest.mark.parametrize("cls", [RED, GREEN])
    def test_mixture_with_skewed_vectors(self, cls):
        params = KidneyEggParams(15, 6, 5, (0.1, 0.7, 0.2), (0.05, 0.05, 0.9))
        direct = content_score_pmf(params, cls)
        mixed = content_pmf_from_conditionals(params, cls)
        length = max(len(direct), len(mixed))
        assert np.abs(padded(direct, length) - padded(mixed, length)).max() < 1e-9


class TestEmpiricalAgreement:
    def test_sampled_scores_match_analytic_pmfs(self):
        # smoke-scale version of the analytic-equivalence gate (full scale in
        # the acceptance suite)
        params = KidneyEggParams(20, 8, 3, PAPER_P, PAPER_S)
        emp = empirical_score_pmfs(params, 15_000, 51)
        assert tv_distance(emp["green"]["context"], context_score_pmf(params, GREEN)) < 0.03
        assert tv_distance(emp["red"]["context"], context_score_pmf(params, RED)) < 0.03
        assert tv_distance(emp["green"]["content"], content_score_pmf(params, GREEN)) < 0.03
        assert tv_distance(emp["red"]["content"], content_score_pmf(params, RED)) < 0.03
