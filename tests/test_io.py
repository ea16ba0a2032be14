"""File formats, surrogate generation, serialization stability."""

import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnom import (GraphFormatError, InputError, KidneyEggParams, ScreeningThresholds, Simplex3,
                  generate_surrogate, read_attributed_graph, read_topic_graph,
                  sample_kidney_egg, screen_partitions, write_attributed_graph,
                  write_topic_graph)

from conftest import build_attributed, build_topic


class TestTopicGraphFile:
    def graph(self):
        return build_topic(4, [(0, 1, 3, np.array([0.25, 0.75])),
                               (1, 2, 1, np.array([1.0, 0.0]))], 2)

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "g.topics"
        g = self.graph()
        write_topic_graph(g, path)
        g1 = read_topic_graph(path)
        write_topic_graph(g1, tmp_path / "g2.topics")
        g2 = read_topic_graph(tmp_path / "g2.topics")
        assert g1 == g2
        assert g1.num_edges == g.num_edges
        assert np.allclose(g1.topic_probs, g.topic_probs)

    def test_unnamed_graph_round_trips_equal(self, tmp_path):
        # probabilities exact in 12 significant digits, so the file loses nothing
        g = build_topic(5, [(0, 1, 3, np.array([0.25, 0.75, 0.0])),
                            (1, 4, 2, np.array([0.125, 0.5, 0.375])),
                            (2, 3, 7, np.array([0.1, 0.2, 0.7]))], 3)
        path = tmp_path / "g.topics"
        write_topic_graph(g, path)
        assert g.vertex_names is None and "#vertex" not in path.read_text()
        assert read_topic_graph(path) == g

    def test_byte_stable_canonical_form(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_topic_graph(self.graph(), a)
        write_topic_graph(self.graph(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_relabeled_graphs_serialize_differently(self, tmp_path):
        g = self.graph()
        relabeled = build_topic(4, [(2, 3, 3, np.array([0.25, 0.75])),
                                    (1, 2, 1, np.array([1.0, 0.0]))], 2)
        a, b = tmp_path / "a", tmp_path / "b"
        write_topic_graph(g, a)
        write_topic_graph(relabeled, b)
        assert a.read_bytes() != b.read_bytes()

    def test_empty_edge_section(self, tmp_path):
        path = tmp_path / "empty.topics"
        path.write_text("#n=5\n#k=3\n")
        g = read_topic_graph(path)
        assert g.n == 5 and g.num_edges == 0 and g.k_topics == 3

    def test_bad_simplex_names_line(self, tmp_path):
        path = tmp_path / "bad.topics"
        path.write_text("#n=3\n#k=2\ne 0 1 1 0.5 0.3\n")
        with pytest.raises(GraphFormatError) as err:
            read_topic_graph(path)
        assert err.value.line == 3
        assert "0.8" in str(err.value)

    def test_small_drift_normalized(self, tmp_path):
        path = tmp_path / "drift.topics"
        path.write_text("#n=3\n#k=2\ne 0 1 1 0.5000001 0.5\n")
        g = read_topic_graph(path)
        assert g.topic_probs[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "dup.topics"
        path.write_text("#n=3\n#k=2\ne 0 1 1 0.5 0.5\ne 1 0 1 0.5 0.5\n")
        with pytest.raises(GraphFormatError) as err:
            read_topic_graph(path)
        assert err.value.line == 4

    def test_unknown_vertex_rejected(self, tmp_path):
        path = tmp_path / "unk.topics"
        path.write_text("#n=3\n#k=2\ne 0 9 1 0.5 0.5\n")
        with pytest.raises(GraphFormatError):
            read_topic_graph(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "mal.topics"
        path.write_text("#n=3\n#k=2\ne 0 1 1 0.5\n")
        with pytest.raises(GraphFormatError):
            read_topic_graph(path)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]), st.integers(0, 1))
    def test_non_finite_probability_rejected(self, tmp_path_factory, token, slot):
        probs = ["1", "0"]
        probs[slot] = token
        path = tmp_path_factory.mktemp("nonfinite") / "g.topics"
        path.write_text(f"#n=3\n#k=2\ne 0 1 1 0.5 0.5\ne 1 2 1 {' '.join(probs)}\n")
        with pytest.raises(GraphFormatError, match="non-finite") as err:
            read_topic_graph(path)
        assert err.value.line == 4

    def test_metadata_lines_ignored(self, tmp_path):
        path = tmp_path / "meta.topics"
        path.write_text("# anything: here\n#n=2\n#k=2\n# more metadata\ne 0 1 1 0.5 0.5\n")
        assert read_topic_graph(path).num_edges == 1


class TestReaderLimits:
    def test_message_count_at_the_int64_limit(self, tmp_path):
        path = tmp_path / "big.topics"
        path.write_text(f"#n=2\n#k=2\ne 0 1 {2 ** 63 - 1} 0.5 0.5\n")
        assert read_topic_graph(path).message_count.tolist() == [2 ** 63 - 1]
        path.write_text(f"#n=2\n#k=2\ne 0 1 {2 ** 63} 0.5 0.5\n")
        with pytest.raises(GraphFormatError, match="outside the int64 range") as err:
            read_topic_graph(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("reader,text,message", [
        (read_topic_graph, "#n=2000000\n#k=2\n#vertex 0 a\n", "symbol table misses vertex 1"),
        (read_attributed_graph, "#n=2000000\n#ke=2\nv 0 1 1\n",
         "missing vertex line for id 1"),
    ])
    def test_missing_id_found_without_listing_every_id(self, tmp_path, reader, text, message):
        # a header's n alone must not cost O(n) memory: the first gap is named
        # by a scan that stops there
        path = tmp_path / "sparse.graph"
        path.write_text(text)
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError) as err:
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 5_000_000


TOPIC_HEAD = "#n=3\n#k=2\ne 0 1 1 0.5 0.5\n"
ATTRIBUTED_HEAD = "#n=3\n#ke=2\nv 0 1 0\nv 1 2 0\nv 2 1 1\na 0 1 1\n"


class TestRecordErrors:
    """The graph constructors judge every record; the reader names its line
    with the message each rule has always had."""

    @pytest.mark.parametrize("reader,text,message", [
        (read_topic_graph, TOPIC_HEAD + "e 2 2 1 0.5 0.5\n", "line 4: self-loop"),
        (read_topic_graph, TOPIC_HEAD + "e 1 2 1 0.5 0.5\ne 1 0 1 0.5 0.5\n",
         "line 5: duplicate edge (0, 1)"),
        (read_topic_graph, TOPIC_HEAD + "e 0 3 1 0.5 0.5\n",
         "line 4: unknown vertex id in edge (0, 3)"),
        (read_topic_graph, TOPIC_HEAD + "e 1 2 0 0.5 0.5\n", "line 4: message count must be >= 1"),
        (read_topic_graph, TOPIC_HEAD + "e 1 2 1 nan 0.5\n", "line 4: non-finite topic probability"),
        (read_topic_graph, TOPIC_HEAD + "e 1 2 1 inf -inf\n",
         "line 4: non-finite topic probability"),
        (read_topic_graph, TOPIC_HEAD + "e 1 2 1 -0.5 1.5\n", "line 4: negative topic probability"),
        (read_topic_graph, TOPIC_HEAD + "e 1 2 1 0.5 0.25\n",
         "line 4: topic distribution sums to 0.75, expected 1"),
        (read_attributed_graph, ATTRIBUTED_HEAD + "a 2 2 1\n", "line 7: self-loop"),
        (read_attributed_graph, ATTRIBUTED_HEAD + "a 1 0 2\n", "line 7: duplicate edge (0, 1)"),
        (read_attributed_graph, ATTRIBUTED_HEAD + "a -1 2 1\n",
         "line 7: unknown vertex id in edge (-1, 2)"),
        (read_attributed_graph, ATTRIBUTED_HEAD + "a 1 2 3\n",
         "line 7: edge attribute must lie in 1..2"),
        (read_attributed_graph, "#n=2\n#ke=2\nv 0 1 0\nv 1 3 0\n",
         "line 4: truth label must be RED or GREEN"),
        (read_attributed_graph, "#n=2\n#ke=2\nv 0 1 0\nv 1 1 2\n",
         "line 4: observed label must be RED or OCCLUDED"),
        (read_attributed_graph, "#n=2\n#ke=2\nv 1 2 1\nv 0 1 1\n",
         "line 3: an identified vertex must be truly red"),
    ])
    def test_rejected_record_names_its_line(self, tmp_path, reader, text, message):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as err:
            reader(path)
        assert str(err.value) == message

    def test_first_failing_check_decides_between_bad_records(self, tmp_path):
        # syntax is checked in file order, records after the whole file is
        # read, rule by rule: a self-loop on line 4 is named before a message
        # count of 0 on line 3, and a malformed line 5 before both
        path = tmp_path / "bad.topics"
        path.write_text("#n=3\n#k=2\ne 0 1 0 0.5 0.5\ne 2 2 1 0.5 0.5\n")
        with pytest.raises(GraphFormatError, match="^line 4: self-loop$"):
            read_topic_graph(path)
        path.write_text("#n=3\n#k=2\ne 0 1 0 0.5 0.5\ne 2 2 1 0.5 0.5\ne 0 2 x 0.5 0.5\n")
        with pytest.raises(GraphFormatError, match="^line 5: malformed message count 'x'$"):
            read_topic_graph(path)


# traced peak of read_topic_graph on the bench corpus before the reader kept
# only numbers (a list of parsed rows and a set of seen pairs), measured by
# test_reading_the_bench_corpus_keeps_only_numbers itself
READ_PEAK_BEFORE = 864_539


def test_reading_the_bench_corpus_keeps_only_numbers(tmp_path):
    path = tmp_path / "corpus.topics"
    write_topic_graph(generate_surrogate(184, 32, seed=3), path)
    read_topic_graph(path)  # imports and caches warm
    tracemalloc.start()
    try:
        g = read_topic_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges == 824
    assert peak <= READ_PEAK_BEFORE, peak


class TestAttributedGraphFile:
    def test_round_trip(self, tmp_path):
        g = build_attributed(5, [(0, 1, 1), (1, 2, 2), (3, 4, 1)],
                             red={0, 1}, identified={0})
        path = tmp_path / "g.attr"
        write_attributed_graph(g, path)
        assert read_attributed_graph(path) == g

    def test_missing_vertex_line(self, tmp_path):
        path = tmp_path / "bad.attr"
        path.write_text("#n=3\n#ke=2\nv 0 1 1\nv 1 2 0\na 0 1 1\n")
        with pytest.raises(GraphFormatError):
            read_attributed_graph(path)

    def test_inconsistent_labels(self, tmp_path):
        path = tmp_path / "bad.attr"
        path.write_text("#n=2\n#ke=2\nv 0 2 1\nv 1 2 0\n")
        with pytest.raises(GraphFormatError):
            read_attributed_graph(path)


# sha256 of whole graph files, metadata lines included, as written before both
# formats shared one writer
GRAPH_FILE_DIGESTS = {
    "topic": "246c8fa3fcae44ba0a86729c8441a819cd5f1ace378fceaa846dfca3c88b5df9",
    "attributed": "8de702794cc44ca10da7ca249666c54ed5bda146b25618e456eaf6c4756ab67c",
}


def write_digest_graph(kind, path):
    if kind == "topic":  # the importance bench corpus
        write_topic_graph(generate_surrogate(seed=3), path, {"config": "x", "seed": 3})
    else:
        params = KidneyEggParams(40, 8, 3, Simplex3(0.6, 0.2, 0.2), Simplex3(0.4, 0.4, 0.2))
        write_attributed_graph(sample_kidney_egg(params, 7), path,
                               {"seed": 7, "model": "kidney-egg n=40"})


@pytest.mark.parametrize("kind", sorted(GRAPH_FILE_DIGESTS))
def test_graph_file_matches_recorded_digest(tmp_path, kind):
    path = tmp_path / "g.graph"
    write_digest_graph(kind, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GRAPH_FILE_DIGESTS[kind]


class TestGenerateSurrogate:
    def test_default_preset_shape(self):
        g = generate_surrogate(seed=5)
        assert g.n == 184
        assert g.k_topics == 32
        assert g.vertex_names is not None

    def test_density_concentrates(self):
        graphs = [generate_surrogate(seed=s) for s in range(25)]
        densities = [g.num_edges / comb(g.n, 2) for g in graphs]
        assert all(0.04 <= d <= 0.06 for d in densities)

    def test_near_zero_density(self):
        g = generate_surrogate(64, 8, 0.02, group_size=8, group_density=0.1,
                               tilt=0.3, seed=3)
        assert g.num_edges < 0.05 * (64 * 63 / 2)

    def test_deterministic(self):
        assert generate_surrogate(seed=9) == generate_surrogate(seed=9)

    # 1e19 messages lie past numpy's Poisson bound; at concentration 1e-3 some
    # edge's 32 gamma draws all underflow to 0, which no topic map can hold
    @pytest.mark.parametrize("knob,value", [
        pytest.param(knob, value, id=f"{value}-{knob}")
        for value in (np.nan, np.inf, -1.0) for knob in ("mean_extra_messages", "concentration")
    ] + [pytest.param("mean_extra_messages", 1e19, id="1e19-mean_extra_messages"),
         pytest.param("concentration", 1e-3, id="1e-3-concentration")])
    def test_non_finite_or_negative_rate_rejected(self, knob, value):
        with pytest.raises(InputError, match=knob):
            generate_surrogate(seed=9, **{knob: value})

    def test_screening_finds_acceptable_partitions(self):
        # the latent block must make the default thresholds attainable
        g = generate_surrogate(seed=42)
        res = screen_partitions(g, 10, ScreeningThresholds(0.1, 0.2), 20_000, 1)
        assert res.n_accepted >= 1

    def test_topic_count_checked_before_allocating(self):
        # 2^62 topics fail the bound; one (topics)-sized array would not fit
        with pytest.raises(InputError, match="topics"):
            generate_surrogate(k_topics=2**62, seed=1)

    def test_inconsistent_knobs_rejected(self):
        from vnom import InputError
        with pytest.raises(InputError):
            generate_surrogate(50, 8, 0.05, group_size=49, group_density=0.9, seed=0)


class TestResultSerialization:
    def test_sweep_csv_row_count_and_stability(self):
        from vnom import SweepSpec, run_sweep
        from vnom.io import data_section, sweep_to_csv, sweep_to_json, json_data_section

        spec = SweepSpec(n=20, p=(0.6, 0.2, 0.2), s=(0.4, 0.4, 0.2),
                         m_values=(4, 8), gamma_grid=(0.0, 0.5, 1.0),
                         replicates=3, master_seed=17, m_prime_ratio=0.25)
        result = run_sweep(spec)
        csv_a = sweep_to_csv(result)
        rows = [ln for ln in data_section(csv_a).splitlines() if ln]
        assert len(rows) == 1 + 2 * 3 * 3  # header + cells x gammas x criteria
        # metadata differs run to run (timestamp) but the data section is stable
        csv_b = sweep_to_csv(run_sweep(spec))
        assert data_section(csv_a) == data_section(csv_b)
        json_a = sweep_to_json(result)
        json_b = sweep_to_json(run_sweep(spec))
        assert json_data_section(json_a) == json_data_section(json_b)

    def test_sweep_csv_golden_file(self):
        # frozen tiny preset pinning the schema, the float formatting, and
        # the seeded RNG stream
        from vnom import SweepSpec, run_sweep
        from vnom.io import data_section, sweep_to_csv

        spec = SweepSpec(n=12, p=(0.6, 0.2, 0.2), s=(0.4, 0.4, 0.2), m_values=(4,),
                         gamma_grid=(0.0, 1.0), replicates=2, master_seed=7,
                         m_prime_ratio=0.25)
        golden = (
            "n,m,m_prime,p0,p1,p2,s0,s1,s2,gamma,criterion,mean,stderr,replicates\n"
            "12,4,1,0.6,0.2,0.2,0.4,0.4,0.2,0.0,s_at_1,0.5,0.5,2\n"
            "12,4,1,0.6,0.2,0.2,0.4,0.4,0.2,0.0,mrr,0.6666666666666666,0.3333333333333333,2\n"
            "12,4,1,0.6,0.2,0.2,0.4,0.4,0.2,0.0,map,0.5436507936507936,0.123015873015873,2\n"
            "12,4,1,0.6,0.2,0.2,0.4,0.4,0.2,1.0,s_at_1,1.0,0.0,2\n"
            "12,4,1,0.6,0.2,0.2,0.4,0.4,0.2,1.0,mrr,1.0,0.0,2\n"
            "12,4,1,0.6,0.2,0.2,0.4,0.4,0.2,1.0,map,0.8500000000000001,0.14999999999999997,2\n"
        )
        assert data_section(sweep_to_csv(run_sweep(spec))) == golden

    def test_rate_bins_csv(self):
        from vnom.io import data_section, rate_bins_csv
        from vnom import run_importance_trials

        g = generate_surrogate(seed=42)
        res = screen_partitions(g, 10, ScreeningThresholds(0.1, 0.2), 20_000, 1)
        trials = run_importance_trials(g, res.take(slice(25)), 5, (0.0, 1.0), 2, 3)
        text = rate_bins_csv(trials, {"seed": 1})
        rows = data_section(text).splitlines()
        assert rows[0] == "component,bin_lo,bin_hi,n_partitions,gamma,mean_mrr"
        parts = [r.split(",") for r in rows[1:]]
        assert {p[0] for p in parts} == {"p1", "p2", "s1", "s2"}
        # every partition lands in exactly one bin per component
        for comp in ("p1", "p2", "s1", "s2"):
            count = sum(int(p[3]) for p in parts if p[0] == comp and p[4] == "0.0")
            assert count == 25

    def test_rate_bin_mean_adds_left_to_right(self):
        from math import fsum

        from vnom import MetricTable, ScreeningResult, TrialsResult
        from vnom.io import data_section, rate_bins_csv
        from vnom.metrics import column_index

        # sixteen partitions in one bin of every component: 1.0, then fifteen
        # halves of an ulp, each lost against 1.0 left to right, while numpy's
        # running sums and fsum keep some
        mrr = [1.0] + [2.0**-53] * 15
        values = np.zeros((16, 1, 3, 1))
        values[:, 0, column_index("mrr"), 0] = mrr
        partitions = ScreeningResult(np.tile([0, 1], (16, 1)), np.ones((16, 2), dtype=np.int8),
                                     np.zeros(16), np.zeros(16), np.arange(16), 16)
        trials = TrialsResult({}, partitions, MetricTable.fold((0.5,), values),
                              np.full((16, 4), 0.1))
        left_to_right = sum(mrr) / 16
        assert len({left_to_right, float(np.sum(mrr)) / 16, fsum(mrr) / 16}) == 3
        rows = data_section(rate_bins_csv(trials, {"seed": 1})).splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["p1", "p2", "s1", "s2"]
        assert {row.split(",", 3)[3] for row in rows} == {f"16,0.5,{left_to_right!r}"}

    def test_trials_csv_has_fusion_rows(self):
        from vnom.io import data_section, trials_to_csv
        from vnom import run_importance_trials

        g = generate_surrogate(seed=42)
        res = screen_partitions(g, 10, ScreeningThresholds(0.1, 0.2), 20_000, 1)
        trials = run_importance_trials(g, res.take(slice(30)), 5, (0.0, 0.5, 1.0), 2, 3)
        text = trials_to_csv(res, trials, {"seed": 1})
        data = data_section(text)
        assert "fusion_advantage_mrr" in data
        assert data.splitlines()[0].startswith("bin_rho_lo,")
