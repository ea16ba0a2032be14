"""Evaluation metrics against brute-force oracles."""

import hashlib
import itertools
from fractions import Fraction
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnom import (InputError, NoRedCandidatesError, Ranking, aggregate_reports, chance_baseline,
                  evaluate_ranking, precision_at)
from vnom.metrics import MetricTable, _harmonic_span, mask_metrics, report_from_mask


def ranking_of(ids):
    """A ranking whose order is exactly ``ids`` (descending synthetic scores)."""
    ids = list(ids)
    scores = np.arange(len(ids), 0, -1, dtype=float)
    return Ranking(np.array(ids), scores, ())


def brute_force_ap(order, truth):
    hits, total = 0, 0.0
    for i, v in enumerate(order, start=1):
        if v in truth:
            hits += 1
            total += hits / i
    return total / len(truth)


def brute_force_ap_y(order, truth, y):
    hits, total = 0, 0.0
    for i, v in enumerate(order, start=1):
        if v in truth:
            hits += 1
            total += hits / i
            if hits == y:
                break
    return total / y


def random_mask_stacks(count=300, seed=20261018):
    """(masks, y_values) stacks: 1-120 orderings of 2-200 candidates with the
    same red count, and every y <= min(4, reds)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, n = int(rng.integers(1, 121)), int(rng.integers(2, 201))
        n_red = int(rng.integers(1, n + 1))
        base = np.arange(n) < n_red
        yield rng.permuted(np.tile(base, (rows, 1)), axis=1), tuple(range(1, min(4, n_red) + 1))


# sha256 of mask_metrics over random_mask_stacks(), recorded from the
# cumsum-over-every-position kernel before it read precisions off red positions
MASK_METRICS_DIGEST = "56c7770884033a7490135c288ba74f79db207a1fa527881e22542c748ea937a1"


class TestMaskMetrics:
    def test_random_stacks_match_recorded_digest(self):
        digest = hashlib.sha256()
        for masks, y_values in random_mask_stacks():
            out = mask_metrics(masks, y_values)
            assert out.dtype == np.float64 and out.shape == (len(masks), 3 + len(y_values))
            digest.update(out.tobytes())
        assert digest.hexdigest() == MASK_METRICS_DIGEST

    @pytest.mark.parametrize("masks", [[[1, 0], [1, 1], [0, 0]], [[1, 1, 0], [0, 1, 0]]])
    def test_rows_with_different_red_counts_rejected(self, masks):
        # the first holds the right total of reds, so reshaping alone would not notice
        with pytest.raises(InputError):
            mask_metrics(np.array(masks, dtype=bool))

    def test_rows_match_brute_force(self):
        for masks, y_values in random_mask_stacks(count=40):
            out = mask_metrics(masks, y_values)
            for mask, row in zip(masks[:10], out):
                order, truth = range(mask.size), set(np.flatnonzero(mask).tolist())
                assert row[0] == mask[0]
                assert row[1] == brute_force_ap_y(order, truth, 1)
                assert row[2] == pytest.approx(brute_force_ap(order, truth), rel=1e-12)
                for y, value in zip(y_values, row[3:]):
                    assert value == pytest.approx(brute_force_ap_y(order, truth, y), rel=1e-12)


class TestSuccessAt1:
    def test_top_red(self):
        assert evaluate_ranking(ranking_of([3, 1, 2]), {3}).s_at_1 == 1

    def test_top_green(self):
        assert evaluate_ranking(ranking_of([3, 1, 2]), {1, 2}).s_at_1 == 0

    def test_empty_truth_rejected(self):
        with pytest.raises(NoRedCandidatesError):
            evaluate_ranking(ranking_of([1, 2]), set())

    def test_truth_outside_candidates_rejected(self):
        with pytest.raises(InputError):
            evaluate_ranking(ranking_of([1, 2]), {9})

    def test_chance_rate_under_random_rankings(self):
        rng = np.random.default_rng(0)
        n, reds, trials = 10, {0, 1, 2}, 4000
        wins = sum(evaluate_ranking(ranking_of(rng.permutation(n)), reds).s_at_1
                   for _ in range(trials))
        assert wins / trials == pytest.approx(0.3, abs=0.03)


class TestReciprocalRank:
    def test_first_position(self):
        assert evaluate_ranking(ranking_of([5, 6, 7]), {5}).rr == 1.0

    def test_fourth_position(self):
        assert evaluate_ranking(ranking_of([1, 2, 3, 4]), {4}).rr == 0.25

    def test_enumerated_expectation(self):
        # N=4, one red: E[RR] = (1 + 1/2 + 1/3 + 1/4)/4
        values = [evaluate_ranking(ranking_of(perm), {0}).rr
                  for perm in itertools.permutations(range(4))]
        assert np.mean(values) == pytest.approx((1 + 1 / 2 + 1 / 3 + 1 / 4) / 4)


class TestPrecisionAt:
    def test_rank_one(self):
        assert precision_at(ranking_of([1, 2]), {1}, 1) == 1.0

    def test_two_of_four(self):
        assert precision_at(ranking_of([1, 2, 3, 4]), {1, 3}, 4) == 0.5

    def test_full_depth_equals_prevalence(self):
        r = ranking_of(range(8))
        assert precision_at(r, {0, 5, 6}, 8) == pytest.approx(3 / 8)

    def test_rank_bounds(self):
        with pytest.raises(InputError):
            precision_at(ranking_of([1, 2]), {1}, 0)
        with pytest.raises(InputError):
            precision_at(ranking_of([1, 2]), {1}, 3)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert evaluate_ranking(ranking_of([1, 2, 3, 4]), {1, 2}).ap == 1.0

    def test_alternating(self):
        # (red, green, red, green): (1 + 2/3)/2
        assert evaluate_ranking(ranking_of([1, 2, 3, 4]), {1, 3}).ap == pytest.approx(5 / 6)

    def test_single_red_last(self):
        n = 7
        assert evaluate_ranking(ranking_of(range(n)), {n - 1}).ap == pytest.approx(1 / n)

    def test_reversed_perfect_closed_form(self):
        # all reds at the very end: AP = (1/R) sum_j j/(N-R+j), checked by
        # brute force for every N <= 10
        for n in range(2, 11):
            for r in range(1, n):
                truth = set(range(n - r, n))
                closed = sum(j / (n - r + j) for j in range(1, r + 1)) / r
                assert evaluate_ranking(ranking_of(range(n)), truth).ap == pytest.approx(closed)
                assert brute_force_ap(list(range(n)), truth) == pytest.approx(closed)

    def test_relabeling_invariance(self):
        order = [4, 0, 3, 1, 2]
        truth = {0, 2}
        shift = {v: v + 100 for v in order}
        a = evaluate_ranking(ranking_of(order), truth).ap
        b = evaluate_ranking(ranking_of([shift[v] for v in order]),
                             {shift[v] for v in truth}).ap
        assert a == b


class TestAveragePrecisionAtY:
    def test_full_y_equals_ap(self):
        rep = evaluate_ranking(ranking_of([1, 2, 3, 4, 5]), {2, 4}, (2,))
        assert rep.ap_y[2] == rep.ap

    def test_hand_example(self):
        # (red, green, red, green, red), y=2 -> (1 + 2/3)/2
        rep = evaluate_ranking(ranking_of([1, 2, 3, 4, 5]), {1, 3, 5}, (2,))
        assert rep.ap_y[2] == pytest.approx(5 / 6)

    def test_y1_is_reciprocal_rank(self):
        r = ranking_of([9, 8, 7, 6])
        for truth in ({8}, {7, 6}, {9, 6}):
            rep = evaluate_ranking(r, truth, (1,))
            assert rep.ap_y[1] == rep.rr

    def test_y_out_of_range(self):
        with pytest.raises(InputError):
            evaluate_ranking(ranking_of([1, 2]), {1}, (2,))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_y1_identity_on_random_rankings(self, data):
        n = data.draw(st.integers(2, 12))
        order = data.draw(st.permutations(range(n)))
        n_red = data.draw(st.integers(1, n))
        rep = evaluate_ranking(ranking_of(order), set(order[:n_red]), (1,))
        assert rep.ap_y[1] == rep.rr


class TestEvaluateRanking:
    def test_matches_individual_metrics(self):
        order = [3, 1, 4, 1 + 4, 9, 2, 6]
        truth = {4, 9, 6}
        rep = evaluate_ranking(ranking_of(order), truth, y_values=(1, 2, 3))
        assert rep.s_at_1 == 0
        assert rep.rr == 1 / 3
        assert rep.ap == pytest.approx(brute_force_ap(order, truth), rel=1e-12)
        assert rep.ap_y == pytest.approx({y: brute_force_ap_y(order, truth, y)
                                          for y in (1, 2, 3)}, rel=1e-12)

    def test_report_from_mask_matches(self):
        order = [5, 2, 8, 1]
        truth = {2, 1}
        mask = np.array([v in truth for v in order])
        a = report_from_mask(mask, (1, 2))
        b = evaluate_ranking(ranking_of(order), truth, (1, 2))
        assert a == b


class TestAggregateReports:
    def test_means_and_standard_errors(self):
        reports = [evaluate_ranking(ranking_of([1, 2, 3]), truth)
                   for truth in ({1}, {2}, {3})]
        agg = aggregate_reports({0.5: reports})
        assert agg.value("s_at_1", 0.5) == pytest.approx(1 / 3)
        assert agg.value("mrr", 0.5) == pytest.approx((1 + 1 / 2 + 1 / 3) / 3)
        assert agg.replicates == 3
        values = np.array([1, 1 / 2, 1 / 3])
        assert agg.value("mrr", 0.5, se=True) == pytest.approx(values.std(ddof=1) / np.sqrt(3))

    def test_single_replicate_has_nan_se(self):
        agg = aggregate_reports({0.5: [evaluate_ranking(ranking_of([1, 2]), {1})]})
        assert np.isnan(agg.value("map", 0.5, se=True))

    def test_ap_y_columns_and_nan_equality(self):
        reports = {g: [evaluate_ranking(ranking_of([1, 2, 3]), {2, 3}, (1, 2))]
                   for g in (0.0, 1.0)}
        table = aggregate_reports(reports)
        assert table.y_values == (1, 2)
        assert table.value("ap_y", 1.0, 1) == table.value("mrr", 1.0) == 1 / 2
        assert table.value("ap_y", 0.0, 2) == table.value("map", 0.0) == (1 / 2 + 2 / 3) / 2
        assert table == aggregate_reports(reports)  # NaN standard errors in both

    @pytest.mark.parametrize("criterion,y", [("ap", None), ("map", 1), ("ap_y", None),
                                             ("ap_y", 3)])
    def test_unknown_column_rejected(self, criterion, y):
        table = aggregate_reports({0.5: [evaluate_ranking(ranking_of([1, 2, 3]), {2, 3},
                                                          (1, 2))]})
        with pytest.raises(InputError):
            table.column(criterion, y)

    @pytest.mark.parametrize("replicates", [1, 4])
    def test_stacked_table_rows_are_their_own_tables(self, replicates):
        # (3 partitions x 3 gammas x columns x replicates), as importance
        # trials stack them: as many partitions as gammas, so a gamma index
        # landing on the partition axis would read another partition's row
        grid, y_values = (0.0, 0.5, 1.0), (1, 2)
        values = np.random.default_rng(3).random((3, len(grid), 5, replicates))
        stacked = MetricTable.fold(grid, values, y_values)
        assert stacked.replicates == replicates
        for i in range(len(values)):
            alone = MetricTable.fold(grid, values[i], y_values)
            for criterion, y in [("s_at_1", None), ("mrr", None), ("map", None),
                                 ("ap_y", 1), ("ap_y", 2)]:
                for se in (False, True):
                    column = stacked.column(criterion, y, se=se)
                    assert column.shape == (len(values), len(grid))
                    np.testing.assert_array_equal(column[i], alone.column(criterion, y, se=se))

    @pytest.mark.parametrize("reports", [{}, {0.5: []}, {0.0: [1], 1.0: [1, 1]}])
    def test_empty_or_ragged_reports_rejected(self, reports):
        report = evaluate_ranking(ranking_of([1, 2]), {1})
        with pytest.raises(InputError):
            aggregate_reports({g: [report] * len(reps) for g, reps in reports.items()})


def bestgen_map(n, r):
    """Bestgen's closed form of the chance MAP, in exact arithmetic."""
    harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
    return (Fraction(r - 1, n - 1) * (n - harmonic) + harmonic) / n


def enumerated_baselines(n, r):
    """Every chance metric by enumerating the red-position sets, exactly."""
    totals = {"s_at_1": Fraction(0), "mrr": Fraction(0), "map": Fraction(0)}
    ap_y = {y: Fraction(0) for y in range(1, r + 1)}
    count = 0
    for positions in itertools.combinations(range(n), r):
        count += 1
        hits = [Fraction(j + 1, p + 1) for j, p in enumerate(positions)]
        totals["s_at_1"] += int(positions[0] == 0)
        totals["mrr"] += hits[0]
        totals["map"] += sum(hits) / r
        for y in ap_y:
            ap_y[y] += sum(hits[:y]) / y
    return ({c: v / count for c, v in totals.items()},
            {y: v / count for y, v in ap_y.items()})


class TestChanceBaseline:
    def test_s_at_1_exact(self):
        assert chance_baseline(10, 3, "s_at_1") == pytest.approx(0.3)

    def test_mrr_enumeration(self):
        value = chance_baseline(4, 1, "mrr")
        assert value == pytest.approx((1 + 1 / 2 + 1 / 3 + 1 / 4) / 4)
        assert value == pytest.approx(0.5208333333, abs=1e-9)

    def test_map_enumeration(self):
        value = chance_baseline(3, 1, "map")
        assert value == pytest.approx((1 + 1 / 2 + 1 / 3) / 3)

    def test_matches_permutation_brute_force(self):
        # oracle: average the metric over every permutation of the candidates
        for n, r in ((5, 2), (6, 3), (4, 4)):
            perms = list(itertools.permutations(range(n)))
            truth = set(range(r))
            reports = [evaluate_ranking(ranking_of(p), truth) for p in perms]
            for criterion, field in (("mrr", "rr"), ("map", "ap")):
                brute = np.mean([getattr(rep, field) for rep in reports])
                assert chance_baseline(n, r, criterion) == pytest.approx(brute)

    def test_matches_fraction_enumeration_up_to_12_candidates(self):
        for n in range(1, 13):
            for r in range(1, n + 1):
                exact, ap_y = enumerated_baselines(n, r)
                for criterion, value in exact.items():
                    assert abs(chance_baseline(n, r, criterion) - float(value)) <= 1e-12
                for y, value in ap_y.items():
                    assert chance_baseline(n, r, "ap_y", y=y) == pytest.approx(
                        float(value), rel=1e-15, abs=0)

    def test_ap_y_requires_y(self):
        with pytest.raises(InputError):
            chance_baseline(5, 2, "ap_y")
        value = chance_baseline(5, 2, "ap_y", y=1)
        assert value == pytest.approx(chance_baseline(5, 2, "mrr"))

    def test_large_case_map_is_bestgen_closed_form(self):
        # C(300, 5) red-position sets: too many to enumerate, exact anyway
        value = chance_baseline(300, 5, "map")
        assert value == pytest.approx(float(bestgen_map(300, 5)), abs=1e-15)
        # the mean over j of E[j / X_j], X_j negative-hypergeometric
        n, r = 300, 5
        by_rank = sum(Fraction(j * comb(k - 1, j - 1) * comb(n - k, r - j), k)
                      for j in range(1, r + 1) for k in range(j, n - r + j + 1))
        assert value == pytest.approx(float(by_rank / (r * comb(n, r))), abs=1e-15)
        assert chance_baseline(183, 3, "map") == pytest.approx(0.0422776, abs=1e-7)
        assert chance_baseline(183, 3, "map") == pytest.approx(float(bestgen_map(183, 3)),
                                                               abs=1e-15)

    @pytest.mark.parametrize("n,r", [(300, 5), (2000, 3)])
    def test_large_case_mrr_is_the_rank_sum(self, n, r):
        # E[1/X_1] summed over the first red's rank k, P(X_1 = k) = C(n-k, r-1) / C(n, r)
        by_rank = sum(Fraction(comb(n - k, r - 1), k) for k in range(1, n - r + 2)) / comb(n, r)
        value = chance_baseline(n, r, "mrr")
        assert value == pytest.approx(float(by_rank), rel=1e-15, abs=0)
        assert chance_baseline(n, r, "ap_y", y=1) == value

    @pytest.mark.parametrize("n,r", [(300, 5), (2000, 3)])
    @pytest.mark.parametrize("y", [2, 3])
    def test_large_case_ap_y_is_the_rank_sum(self, n, r, y):
        # the mean over j <= y of E[j / X_j], summed over the j-th red's rank k,
        # P(X_j = k) = C(k-1, j-1) C(n-k, r-j) / C(n, r)
        by_rank = sum(Fraction(j * comb(k - 1, j - 1) * comb(n - k, r - j), k)
                      for j in range(1, y + 1) for k in range(j, n - r + j + 1))
        exact = by_rank / (y * comb(n, r))
        assert chance_baseline(n, r, "ap_y", y=y) == pytest.approx(float(exact), rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [1000, 1024, 1025, 1026, 2049, 10**4, 123_457, 10**6])
    def test_harmonic_sums_are_the_fsum_on_both_sides_of_the_cutoff(self, n):
        # past _HARMONIC_TERMS terms a harmonic span takes H_n's asymptotic series
        def fsum_span(lo):
            return fsum(1.0 / k for k in range(lo, n + 1))

        for lo in sorted({1, 2, 3, 1023, 1024, 1025, 1026, n // 2, n - 1025, n - 1024, n}):
            if 1 <= lo <= n:
                want = fsum_span(lo)
                assert abs(_harmonic_span(lo, n) - want) <= 2 * np.spacing(want), lo
        harmonic = fsum_span(1)
        for r in (1, 3, n // 2):
            slope = (r - 1) / (n - 1)
            by_fsum = {"map": (slope * (n - harmonic) + harmonic) / n,
                       "mrr": r * fsum_span(r) / (n - r + 1)}
            for criterion, want in by_fsum.items():
                got = chance_baseline(n, r, criterion)
                assert abs(got - want) <= 2 * np.spacing(want), (r, criterion)

    def test_large_case_s_at_1_is_prevalence(self):
        assert chance_baseline(300, 5, "s_at_1") == 5 / 300
        assert chance_baseline(30, 3, "map") == pytest.approx(float(bestgen_map(30, 3)),
                                                              abs=1e-15)

    def test_bounds_validation(self):
        with pytest.raises(InputError):
            chance_baseline(3, 0, "map")
        with pytest.raises(InputError):
            chance_baseline(3, 4, "map")
        with pytest.raises(InputError):
            chance_baseline(3, 2, "recall")


class TestMetricCorrelation:
    def test_map_and_mrr_order_gammas_consistently(self):
        # across the standard sweep grid (three identification ratios, m from
        # 8 to 40), the gamma ordering induced by MAP agrees with the MRR
        # ordering in at least 90% of configurations; disagreements happen
        # only where two gammas are statistically tied
        from vnom import KidneyEggParams
        from vnom.experiments import _replicate_values

        grid = (0.0, 0.5, 1.0)
        configs = []
        for ratio in (0.25, 0.5, 0.75):
            for m in (8, 12, 16, 20, 24, 28, 32, 36, 40):
                mp = max(1, min(int(np.floor(ratio * m + 0.5)), m - 1))
                configs.append(KidneyEggParams(184, m, mp,
                                               (0.6, 0.2, 0.2), (0.4, 0.4, 0.2)))
        agree = 0
        for ci, params in enumerate(configs):
            table = MetricTable.fold(grid, _replicate_values(params, grid, 78, (ci,), 400))
            by_map = sorted(grid, key=lambda g: table.value("map", g))
            by_mrr = sorted(grid, key=lambda g: table.value("mrr", g))
            agree += by_map == by_mrr
        assert agree >= 0.9 * len(configs)
