"""The frozen-record contract every vnom result and parameter type keeps:
field-wise construction, equality, hashing, repr, immutability and pickling."""

import pickle

import numpy as np
import pytest

from vnom import (PMF, EstimatedRates, InputError, KidneyEggParams, MetricTable, Partition,
                  Ranking, ScreeningResult, ScreeningThresholds, Simplex3, SweepSpec, TopicMap,
                  generate_surrogate, sample_kidney_egg)
from vnom.experiments import CellResult
from vnom.graph import GREEN, RED

SPEC = SweepSpec(40, (0.8, 0.1, 0.1), (0.4, 0.3, 0.3), (6, 12), (0.0, 0.5, 1.0), 3, 7, 0.5)
TABLE = MetricTable((0.0, 1.0), (), np.array([[1.0, 0.5, 0.5], [0.0, 0.25, 0.3]]),
                    np.full((2, 3), np.nan), 1)
SCREENED = ScreeningResult(np.array([[1, 4]]), np.array([[RED, GREEN, GREEN]], dtype=np.int8),
                           np.array([0.25]), np.array([0.5]), np.array([9]), 12)


class TestEquality:
    @pytest.mark.parametrize("make, same, other", [
        (Partition, (5, [1, 2]), (5, [1, 3])),
        (Partition, (5, [2, 1, 2]), (6, [1, 2])),
        (PMF, ([0.25, 0.75],), ([0.75, 0.25],)),
        (TopicMap, ([RED, GREEN],), ([GREEN, RED],)),
        (Ranking, ([3, 1], [2.0, 1.0], ()), ([1, 3], [2.0, 1.0], ())),
        (Ranking, ([3, 1], [2.0, 1.0], ()), ([3, 1], [2.0, 1.0], ((0, 2),))),
    ], ids=["Partition-ids", "Partition-n", "PMF", "TopicMap", "Ranking-order", "Ranking-ties"])
    def test_records_holding_arrays_compare_by_value(self, make, same, other):
        assert make(*same) == make(*same)
        assert make(*same) != make(*other) and make(*other) != make(*same)

    def test_tables_with_nan_errors_in_the_same_places_are_equal(self):
        twin = MetricTable(TABLE.gammas, (), TABLE.mean.copy(), TABLE.se.copy(), 1)
        assert twin == TABLE
        moved = TABLE.se.copy()
        moved[0, 0] = 0.1
        assert MetricTable(TABLE.gammas, (), TABLE.mean, moved, 1) != TABLE

    def test_records_of_different_types_never_compare_equal(self):
        assert ScreeningThresholds(0.1, 0.2) != (0.1, 0.2)
        assert (EstimatedRates(0.1, 0.2, 0.1, 0.2) == ScreeningThresholds(0.1, 0.2)) is False

    def test_a_record_with_an_array_field_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(Partition(5, [1, 2]))

    def test_equal_records_hash_equal(self):
        assert hash(Simplex3(0.5, 0.25, 0.25)) == hash(Simplex3(1 / 2, 1 / 4, 1 / 4))
        assert len({Simplex3(0.5, 0.25, 0.25), Simplex3(0.5, 0.25, 0.25)}) == 1


class TestConstruction:
    def test_fields_cannot_be_assigned_or_deleted(self):
        p = Partition(5, [1, 2])
        with pytest.raises(AttributeError):
            p.n = 6
        with pytest.raises(AttributeError):
            del p.red_ids
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p.n == 5

    def test_defaults(self):
        assert ScreeningThresholds() == ScreeningThresholds(0.1, 0.2)
        assert ScreeningThresholds(tau_p=0.5) == ScreeningThresholds(0.1, 0.5)
        assert SPEC.m_prime_values is None and SPEC.m_prime_ratio == 0.5

    def test_positional_and_keyword_construction_agree(self):
        keywords = SweepSpec(n=40, p=(0.8, 0.1, 0.1), s=(0.4, 0.3, 0.3), m_values=(6, 12),
                             gamma_grid=(0.0, 0.5, 1.0), replicates=3, master_seed=7,
                             m_prime_ratio=0.5)
        assert keywords == SPEC
        assert ScreeningResult(red_ids=SCREENED.red_ids, topic_labels=SCREENED.topic_labels,
                               delta_rho=np.array([0.25]), delta_p=np.array([0.5]),
                               draw_index=np.array([9]), attempts=12) == SCREENED
        assert EstimatedRates(0.1, 0.2, s1=0.3, s2=0.4) == EstimatedRates(0.1, 0.2, 0.3, 0.4)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((0.1, 0.2, 0.3, 0.4, 0.5), {}, "at most 4 arguments"),
        ((0.1, 0.2, 0.3), {}, "missing arguments: s2"),
        ((0.1,), {"p2": 0.2}, "missing arguments: s1, s2"),
        ((0.1, 0.2, 0.3, 0.4), {"q": 1}, "unexpected keyword argument 'q'"),
        ((0.1, 0.2, 0.3), {"p1": 0.4}, "multiple values for argument 'p1'"),
    ], ids=["extra", "missing", "missing-two", "unknown", "repeated"])
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            EstimatedRates(*args, **kwargs)

    def test_validation_still_runs(self):
        with pytest.raises(InputError, match="red_ids out of range"):
            Partition(3, [3])
        assert Partition(5, [3, 1, 3]).red_ids.tolist() == [1, 3]
        assert Simplex3.of((2e-7, 0.5, 0.5)).q0 < 1e-6


class TestPresentation:
    def test_repr_leaves_out_array_fields(self):
        assert repr(Partition(5, [1, 2])) == "Partition(n=5)"
        assert repr(TABLE) == "MetricTable(gammas=(0.0, 1.0), y_values=(), replicates=1)"
        assert repr(SCREENED) == "ScreeningResult(attempts=12)"

    @pytest.mark.parametrize("cls, first_line", [
        (Partition, "A two-way vertex partition: a red set and its green complement."),
        (MetricTable, "Means and standard errors over replicates, one row per gamma."),
        (SweepSpec, "A sweep over m (and derived m_prime) for fixed n, p, s."),
        (ScreeningResult, "A screen's accepted draws as columns, one row a draw in draw order:"),
    ])
    def test_class_docstrings_survive(self, cls, first_line):
        assert cls.__doc__.splitlines()[0] == first_line

    @pytest.mark.parametrize("record", [
        SPEC, CellResult(6, 3, TABLE, {"mrr": 0.5}), SCREENED, TABLE, Simplex3(0.5, 0.25, 0.25),
        ScreeningThresholds(), PMF([0.5, 0.5])])
    def test_pickle_round_trip(self, record):
        # the spawned worker pool pickles sweep specs, cell results and screened rows
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        with pytest.raises(AttributeError):
            copy.extra = 1


GRAPHS = [sample_kidney_egg(KidneyEggParams(12, 4, 2, Simplex3(0.5, 0.3, 0.2),
                                            Simplex3(0.2, 0.4, 0.4)), 3),
          generate_surrogate(12, 4, 0.3, group_size=4, group_density=0.5, seed=3)]


@pytest.mark.parametrize("g", GRAPHS, ids=["AttributedGraph", "TopicGraph"])
class TestGraphsKeepTheRecordContract:
    def test_fields_cannot_be_assigned_or_deleted(self, g):
        shown = repr(g)
        for name in ("n", "k_topics", "k_edge_attrs", "edge_u"):
            with pytest.raises(AttributeError):
                setattr(g, name, 99)
        with pytest.raises(AttributeError):
            del g.edge_v
        with pytest.raises(AttributeError):
            g.extra = 1
        assert repr(g) == shown and g.n == 12

    def test_pickle_round_trip(self, g):
        # the spawned worker pool pickles the topic graph of importance trials
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and type(copy) is type(g)
        with pytest.raises(AttributeError):
            copy.n = 3
