"""Command-line surface: subcommands, exit codes, output schemas."""

import argparse
import hashlib
import json
import time
from datetime import datetime
from fractions import Fraction

import pytest

from vnom.cli import _COMMANDS, build_parser, main
from vnom.io import data_section, generate_surrogate, write_topic_graph


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A surrogate topic-graph corpus on which screening accepts partitions."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.topics"
    write_topic_graph(generate_surrogate(seed=11), path, {})
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "baseline", "--candidates", "4",
                               "--reds", "1", "--criterion", "mrr", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_validation_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "baseline", "--candidates", "3",
                               "--reds", "5", "--criterion", "mrr")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flag,value", [("--p0", "nan"), ("--s1", "inf")])
    def test_non_finite_model_rate_exits_1(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "surface", "--n", "20", "--m", "8",
                                 "--m-prime", "2", "--replicates", "2", "--seed", "1",
                                 flag, value)
        assert code == 1
        assert "finite" in err and out == ""

    def test_repeated_sweep_cell_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--m-list", "8,8", "--replicates", "2",
                                 "--gammas", "0,1", "--seed", "1")
        assert code == 1
        assert err.startswith("error:") and "(8, 2)" in err and out == ""

    @pytest.mark.parametrize("command", ["sweep", "importance"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exits_1(self, capsys, tmp_path, command, workers):
        extra = ["--graph", str(tmp_path / "unread.topics")] if command == "importance" else []
        code, _, err = run_cli(capsys, command, *extra, "--workers", workers, "--seed", "1")
        assert code == 1
        assert "--workers" in err

    @pytest.mark.parametrize("attempts", ["0", "-3"])
    def test_attempts_below_one_exits_1_before_reading(self, capsys, tmp_path, attempts):
        # refused by its flag's name before the graph is read: no such file exists
        code, out, err = run_cli(capsys, "importance", "--graph", str(tmp_path / "unread.topics"),
                                 "--attempts", attempts, "--seed", "1")
        assert code == 1
        assert err == f"error: --attempts must be >= 1, got {attempts}\n" and out == ""

    @pytest.mark.parametrize("flag,value", [("--bins", "nan"), ("--bins", "0"),
                                            ("--bins", "-0.1"), ("--bins", "inf"),
                                            ("--max-partitions", "-1"),
                                            ("--max-partitions", "0"),
                                            ("--tau-rho", "nan"), ("--tau-p", "nan")])
    def test_bad_importance_input_exits_1(self, capsys, tmp_path, corpus, flag, value):
        out = tmp_path / "trials.csv"
        code, _, err = run_cli(capsys, "importance", "--graph", str(corpus), "--m", "10",
                               "--m-prime", "5", "--attempts", "4096", "--replicates", "1",
                               "--max-partitions", "5", flag, value, "--seed", "1",
                               "--out", str(out))
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--bins", "0"), ("--bins", "nan"),
                                            ("--bins", "1e-320"), ("--gammas", "1.5"), ("--gammas", "nan"),
                                            ("--gammas", "0,0.5,0.5"), ("--gammas", ""),
                                            ("--m-prime", "99"), ("--m-prime", "10"),
                                            ("--m-prime", "0"), ("--replicates", "0")])
    @pytest.mark.parametrize("tau_p", ["0.2", "3"])  # some / no accepted partition
    def test_bad_trial_arguments_fail_before_screening(self, capsys, monkeypatch, corpus,
                                                       flag, value, tau_p):
        def screen_partitions(*args, **kwargs):
            raise AssertionError("screening ran")

        monkeypatch.setattr("vnom.cli.screen_partitions", screen_partitions)
        code, out, err = run_cli(capsys, "importance", "--graph", str(corpus), "--m", "10",
                                 "--m-prime", "5", "--tau-p", tau_p, flag, value,
                                 "--seed", "1")
        assert code == 1
        assert "error:" in err and "Traceback" not in err and out == ""

    def test_red_set_below_two_blames_m(self, capsys, corpus):
        # m' = 0 is out of range too, but only because m = 1 leaves it no room
        code, out, err = run_cli(capsys, "importance", "--graph", str(corpus), "--m", "1",
                                 "--m-prime", "0", "--seed", "1")
        assert code == 1 and out == ""
        assert "error: m=1 must be >= 2" in err
        assert "m_prime" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "importance", "surface"])
    def test_negative_seed_exits_1(self, capsys, corpus, command):
        extra = {"sweep": ["--m-list", "8", "--replicates", "2"],
                 "importance": ["--graph", str(corpus), "--attempts", "10"],
                 "surface": ["--n", "20", "--m", "8", "--m-prime", "2", "--replicates", "2"]}
        code, out, err = run_cli(capsys, command, *extra[command], "--seed", "-5")
        assert code == 1
        assert "error:" in err and "seed" in err and out == ""

    def test_negative_sample_count_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "analytic", "--n", "20", "--m", "8",
                                 "--m-prime", "2", "--samples", "-3")
        assert code == 1
        assert "error:" in err and "--samples" in err and out == ""

    @pytest.mark.parametrize("text,line", [
        ("#n=3\n#k=0\ne 0 1 1\n", 2),
        ("#n=3\n#k=1\ne 0 1 1 1.0\n", 2),
        ("#n=3\n#k=2\n#vertex 0 a\n#vertex 9 z\n", 4),
        ("#n=3\n#k=2\n#vertex -1 z\n", 3),
        ("#n=3\n#k=2\n#vertex 0 a\n#vertex 1 b\n#vertex 1 c\n#vertex 2 d\n", 5),
        ("#vertex 0 a\n#n=1\n#k=2\n", 1),
        ("#n=0\n#k=2\n", 1),
        ("#n=-1\n#k=2\n#vertex 0 a\n", 1),
        ("#n=3\n#k=2\ne 0 1 1 0.5 0.5\n#n=10\n", 4),
        ("#n=3\n#k=2\n#k=3\n", 3),
        ("#n=3\n#k=2\ne 0 1 100000000000000000000000000000 0.5 0.5\n", 3),  # count > int64
        ("#n=99999999999999999999\n#k=2\n", 1),
        ("#n=4611686018427387904\n#k=2\n", 1),  # fits int64, far beyond MAX_VERTICES
        ("#k=2\n#n=16777217\n", 2),  # MAX_VERTICES + 1
        (b"#n=3\n#k=2\n# \xff\xfe\ne 0 1 1 0.5 0.5\n", 3),  # not UTF-8
        ("#n=6\n#k=4611686018427387904\n", 2),  # fits int64, far beyond MAX_TOPICS
        ("#n=6\n#k=65537\n", 2),  # MAX_TOPICS + 1
        ("#n=3\n#k=2\ne 0 1 1 0.5 0.5\ne 2 2 1 0.5 0.5\n", 4),  # self-loop
        ("#n=3\n#k=2\ne 0 1 1 0.5 0.5\ne 1 2 1 0.5 0.5\ne 1 0 1 0.5 0.5\n", 5),  # reversed repeat
        ("#n=3\n#k=2\ne 0 1 1 0.5 0.5\ne 0 3 1 0.5 0.5\n", 4),  # endpoint >= n
        ("#n=3\n#k=2\ne 0 1 1 0.5 0.5\ne 1 2 1 -0.5 1.5\n", 4),  # negative probability
        ("#n=3\n#k=2\ne 0 1 1 0.5 0.5\ne 1 2 0 0.5 0.5\n", 4),  # message count 0
        ("#n=2\n#k=2\ne 0 1 1 1e308 1e308\n", 3),  # a row summing past the float range
    ])
    def test_malformed_topic_file_exits_1(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.topics"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run_cli(capsys, "importance", "--graph", str(path), "--seed", "1")
        assert code == 1
        assert f"error: line {line}:" in err and "Traceback" not in err and out == ""

    @pytest.mark.parametrize("text,line", [
        ("#n=2\n#ke=0\nv 0 1 0\nv 1 2 0\n", 2),
        ("#n=2\n#ke=2\nv 0 1 0\nv 1 2 0\nv 5 2 0\n", 5),
        ("#n=2\n#ke=2\nv 0 1 0\nv 0 2 0\nv 1 2 0\n", 4),
        ("v 0 1 0\n#n=1\n#ke=2\n", 1),
        ("#n=0\n#ke=2\n", 1),
        ("#n=-1\n#ke=2\nv 0 1 0\n", 1),
        ("#n=2\n#ke=2\nv 0 1 0\nv 1 2 0\n#n=10\n", 5),
        ("#n=2\n#ke=2\n#ke=3\n", 3),
        ("#n=2\n#ke=2\nv 0 1 0\nv 1 2 0\na 0 1 100000000000000000000000\n", 5),
        ("#n=2\n#ke=2\nv 0 9223372036854775808 0\nv 1 2 0\n", 3),  # truth label 2**63
        ("#n=99999999999999999999\n#ke=2\n", 1),
        ("#n=4611686018427387904\n#ke=2\n", 1),
        ("#ke=2\n#n=16777217\n", 2),
        (b"#n=2\n#ke=2\nv 0 1 0 \xff\xfe\nv 1 2 0\n", 3),  # not UTF-8
        ("#n=2\n#ke=2\nv 0 1 0\nv 1 2 0\na 1 1 1\n", 5),  # self-loop
        ("#n=2\n#ke=2\nv 0 1 0\nv 1 2 0\na 0 1 1\na 1 0 2\n", 6),  # duplicate edge
        ("#n=2\n#ke=2\nv 0 1 0\nv 1 2 0\na 0 2 1\n", 5),  # endpoint out of range
        ("#n=2\n#ke=2\nv 0 1 0\nv 1 2 0\na 0 1 3\n", 5),  # attribute above #ke=
        ("#n=2\n#ke=2\nv 0 3 0\nv 1 2 0\n", 3),  # truth label neither RED nor GREEN
        ("#n=2\n#ke=2\nv 0 1 0\nv 1 2 1\n", 4),  # identified but truly green
        ("#n=2\n#ke=2\nv 0 1 2\nv 1 2 0\n", 3),  # observed label neither RED nor OCCLUDED
        ("a 0 1 1\n#n=2\n#ke=2\nv 0 1 0\nv 1 2 0\n", 1),  # edge before the headers
        ("#n=2\n#ke=2\nv 0 257 0\nv 1 2 0\n", 3),  # truth label that int8 would wrap to RED
    ])
    def test_malformed_attributed_file_exits_1(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.attr"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run_cli(capsys, "estimate", "--graph", str(path))
        assert code == 1
        assert f"error: line {line}:" in err and "Traceback" not in err and out == ""

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_surrogate_message_rate_exits_1(self, capsys, tmp_path, value):
        out = tmp_path / "corpus.topics"
        code, _, err = run_cli(capsys, "surrogate", "--mean-extra-messages", value,
                               "--seed", "1", "--out", str(out))
        assert code == 1
        assert "error:" in err and "mean_extra_messages" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,error", [
        (["simulate", "--seed", "1"], "error: n must be at most 16777216"),
        (["surrogate", "--seed", "1", "--out"], "error: out of memory"),
        (["analytic", "--m", "8", "--m-prime", "3"], "error: n must be at most 16777216")],
        ids=["simulate", "surrogate", "analytic"])
    def test_allocation_beyond_any_address_space_exits_1(self, capsys, tmp_path, argv, error):
        # the first array sized by 10^17 vertices needs at least 10^17 bytes,
        # more than any 64-bit machine maps for a process (2^56 bytes at most),
        # so it fails on every machine before anything is touched; the model
        # commands name graph.MAX_VERTICES before that
        if argv[-1] == "--out":
            argv = [*argv, str(tmp_path / "corpus.topics")]
        code, out, err = run_cli(capsys, *argv, "--n", str(10**17))
        assert code == 1
        assert error in err and "Traceback" not in err and out == ""

    @pytest.mark.parametrize("argv", [["simulate", "--m", "4", "--m-prime", "2"], ["sweep"],
                                      ["surface"], ["analytic", "--m", "8", "--m-prime", "3"]],
                             ids=["simulate", "sweep", "surface", "analytic"])
    def test_vertex_count_beyond_graph_bound_exits_1(self, capsys, argv):
        # MAX_VERTICES + 1: rejected with the bound, before any pair table is made
        code, out, err = run_cli(capsys, *argv, "--n", "16777217", "--seed", "1")
        assert code == 1
        assert "error: n must be at most 16777216" in err and "Traceback" not in err
        assert out == ""

    def test_samples_beyond_the_key_range_exit_1(self, capsys):
        # sample i is seeded by the key (i,), whose word stops at 2**32 - 1:
        # rejected before the (samples x 2 x 2) score array is made
        code, out, err = run_cli(capsys, "analytic", "--n", "184", "--m", "40", "--m-prime", "10",
                                 "--samples", str(2**32 + 1), "--seed", "1")
        assert code == 1 and out == "" and "Traceback" not in err
        assert f"error: n_samples must lie in 1..2**32 (sample keys stop at 2**32 - 1), " \
               f"got {2**32 + 1}" in err

    @pytest.mark.parametrize("argv", [["sweep", "--m-list", "4"], ["surface"]],
                             ids=["sweep", "surface"])
    def test_replicates_beyond_the_key_range_exit_1(self, capsys, argv):
        # rejected before one key tuple per replicate is built
        code, out, err = run_cli(capsys, *argv, "--replicates", str(2**32 + 1), "--seed", "1")
        assert code == 1 and out == "" and "Traceback" not in err
        assert f"error: replicates must lie in 1..2**32 (replicate keys stop at 2**32 - 1), " \
               f"got {2**32 + 1}" in err

    def test_memory_error_without_text_names_only_the_cause(self, capsys, monkeypatch):
        def allocate(args):
            raise MemoryError()
        help_text, flags, _ = _COMMANDS["baseline"]
        monkeypatch.setitem(_COMMANDS, "baseline", (help_text, flags, allocate))
        code, out, err = run_cli(capsys, "baseline", "--candidates", "4", "--reds", "1",
                                 "--criterion", "mrr")
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_negative_top_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--m", "8",
                                 "--m-prime", "2", "--top", "-3", "--seed", "1")
        assert code == 1
        assert "error:" in err and "--top" in err and out == ""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "importance", "--graph",
                               str(tmp_path / "nope.topics"), "--seed", "1")
        assert code == 2


def run_full_parser(capsys, *argv):
    """``run_cli`` with every command's subparser built, as ``main`` handles its exit."""
    try:
        build_parser().parse_args(list(argv))
        code = None
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneCommandParser:
    @pytest.mark.parametrize("flag", ["--help", "--no-such-flag"])
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_texts_match_the_full_parser(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, flag)
        assert (code, out, err) == run_full_parser(capsys, command, flag)
        assert code == (0 if flag == "--help" else 1)
        if flag == "--help":
            assert out.startswith(f"usage: vnom {command} [-h]")

    @pytest.mark.parametrize("argv,code,text", [
        ([], 1, "error: the following arguments are required: command"),
        (["--help"], 0, "Command-line surface. Subcommands: simulate, sweep, surface, "
                        "importance, estimate, analytic, surrogate, baseline. Exit codes: 0 "
                        "success, 1 validation error or out of memory, 2 io error. "
                        "Randomized subcommands take --seed; when omitted a seed is generated "
                        "and printed to stderr so the run can be reproduced. "
                        "positional arguments:"),
        (["bogus"], 1, "error: argument command: invalid choice: 'bogus'"),
    ], ids=["none", "help", "unknown"])
    def test_without_a_command_every_command_is_listed(self, capsys, argv, code, text):
        result = run_cli(capsys, *argv)
        assert result == run_full_parser(capsys, *argv)
        assert result[0] == code
        shown = " ".join((result[1] + result[2]).split())
        assert text in shown
        assert "{simulate,sweep,surface,importance,estimate,analytic,surrogate,baseline}" in shown
        if argv == ["--help"]:
            assert all(help_text in shown for help_text, _, _ in _COMMANDS.values())

    @pytest.mark.parametrize("argv,built", [
        (["baseline", "--candidates", "4", "--reds", "1", "--criterion", "mrr"], ["baseline"]),
        (["--help"], list(_COMMANDS)),
        (["--seed", "1", "surface"], list(_COMMANDS)),
    ], ids=["command", "help", "option-first"])
    def test_only_the_named_command_is_built(self, capsys, monkeypatch, argv, built):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def recording(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
        run_cli(capsys, *argv)
        assert names == built


class TestBaseline:
    def test_mrr_enumeration_value(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--candidates", "4",
                               "--reds", "1", "--criterion", "mrr")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.5208333333333333)

    def test_large_case_is_exact_and_seedless(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--candidates", "400",
                               "--reds", "5", "--criterion", "map")
        assert code == 0
        doc = json.loads(out)  # no "seed:" line ahead of the document
        harmonic = sum(Fraction(1, k) for k in range(1, 401))
        exact = (Fraction(4, 399) * (400 - harmonic) + harmonic) / 400
        assert doc["value"] == pytest.approx(float(exact), abs=1e-15)
        for flag in ("--seed", "--mc-samples"):
            code, _, err = run_cli(capsys, "baseline", "--candidates", "400", "--reds", "5",
                                   "--criterion", "map", flag, "1")
            assert code == 1 and "unrecognized arguments" in err

    def test_half_red_map_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "baseline", "--candidates", "10000",
                               "--reds", "5000", "--criterion", "map")
        assert code == 0
        assert time.perf_counter() - start < 1.0
        assert 0.5 < json.loads(out)["value"] < 0.51

    def test_more_candidates_than_any_graph_exits_1_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "baseline", "--candidates", "1000000000",
                                 "--reds", "1", "--criterion", "map")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "16777216" in err and "1000000000" in err
        code, out, _ = run_cli(capsys, "baseline", "--candidates", "16777216",
                               "--reds", "16777216", "--criterion", "s_at_1")
        assert code == 0 and json.loads(out)["value"] == 1.0


class TestAnalytic:
    def test_pmf_columns_sum_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--n", "6", "--m", "3",
                               "--m-prime", "2", "--p0", "0.5", "--p1", "0.25",
                               "--p2", "0.25", "--s0", "0.4", "--s1", "0.3",
                               "--s2", "0.3")
        assert code == 0
        totals = {}
        for line in data_section(out).splitlines()[1:]:
            record, stat, cls, k, value = line.split(",")
            if record == "pmf":
                totals[(stat, cls)] = totals.get((stat, cls), 0.0) + float(value)
        assert totals
        for total in totals.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_tv_rows_when_sampling(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--n", "8", "--m", "3",
                               "--m-prime", "1", "--samples", "400", "--seed", "3")
        assert code == 0
        tv_rows = [ln for ln in data_section(out).splitlines() if ln.startswith("tv,")]
        assert len(tv_rows) == 4
        assert all(float(r.rsplit(",", 1)[1]) < 0.5 for r in tv_rows)


class TestSimulate:
    def test_report_and_graph_file(self, capsys, tmp_path):
        out_path = tmp_path / "sample.attr"
        code, out, _ = run_cli(capsys, "simulate", "--n", "30", "--m", "8",
                               "--m-prime", "3", "--seed", "7",
                               "--save-graph", str(out_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 7
        assert 0.0 <= doc["report"]["ap"] <= 1.0
        assert len(doc["top"]) == 10
        from vnom import read_attributed_graph
        g = read_attributed_graph(out_path)
        assert g.n == 30


class TestSweep:
    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--n", "20", "--m-list", "4,8", "--m-prime-ratio", "0.25",
                "--gammas", "0,0.5,1", "--replicates", "4", "--seed", "13"]
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert data_section(a.read_text()) == data_section(b.read_text())
        rows = data_section(a.read_text()).splitlines()
        assert rows[0] == ("n,m,m_prime,p0,p1,p2,s0,s1,s2,gamma,criterion,"
                           "mean,stderr,replicates")
        assert len(rows) == 1 + 2 * 3 * 3

    def test_workers_do_not_change_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--n", "20", "--m-list", "4,6,8", "--m-prime-ratio", "0.5",
                "--gammas", "0,1", "--replicates", "3", "--seed", "5"]
        assert run_cli(capsys, *args, "--workers", "1", "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--workers", "3", "--out", str(b))[0] == 0
        assert data_section(a.read_text()) == data_section(b.read_text())

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sweep", "--n", "20", "--m-list", "6",
                             "--m-prime-ratio", "0.5", "--gammas", "0,1",
                             "--replicates", "2", "--seed", "3",
                             "--format", "json", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["data"]["cells"][0]["m"] == 6
        assert doc["meta"]["config"]["master_seed"] == 3


    def test_p2_is_taken_normalized(self, capsys):
        # s2 is pinned to the normalized p2, so a p that Simplex3 accepts runs
        code, out, _ = run_cli(capsys, "sweep", "--n", "20", "--m-list", "6", "--gammas", "0,1",
                               "--replicates", "2", "--p2", "0.2000001", "--seed", "3",
                               "--format", "json")
        assert code == 0
        config = json.loads(out)["meta"]["config"]
        assert config["s"][2] == config["p"][2] == pytest.approx(0.2000001 / 1.0000001)


class TestSurface:
    def test_csv_rows(self, capsys, tmp_path):
        path = tmp_path / "surface.csv"
        code, _, _ = run_cli(capsys, "surface", "--n", "20", "--m", "8",
                             "--m-prime", "2", "--y-max", "2",
                             "--gammas", "0,0.5,1", "--replicates", "3",
                             "--seed", "2", "--out", str(path))
        assert code == 0
        rows = data_section(path.read_text()).splitlines()
        assert rows[0] == "criterion,y,gamma,mean,stderr,replicates"
        assert len(rows) == 1 + 2 * 3 + 3 + 3  # ap_y rows + mrr + map


class TestSurrogateAndImportance:
    def test_surrogate_emits_readable_corpus(self, capsys, tmp_path):
        path = tmp_path / "corpus.topics"
        code, out, _ = run_cli(capsys, "surrogate", "--seed", "11",
                               "--out", str(path))
        assert code == 0
        from vnom import read_topic_graph
        g = read_topic_graph(path)
        assert g.n == 184 and g.k_topics == 32

    def test_importance_pipeline_and_worker_determinism(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.topics"
        assert run_cli(capsys, "surrogate", "--seed", "11", "--out", str(corpus))[0] == 0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["importance", "--graph", str(corpus), "--m", "10", "--m-prime", "5",
                "--attempts", "20000", "--gammas", "0,0.5,1", "--replicates", "2",
                "--max-partitions", "60", "--seed", "21"]
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--workers", "3", "--out", str(b))[0] == 0
        assert data_section(a.read_text()) == data_section(b.read_text())
        rows = data_section(a.read_text()).splitlines()
        assert rows[0].startswith("bin_rho_lo,")
        assert len(rows) > 1

    def test_importance_with_no_acceptances_reports_rate(self, capsys, tmp_path, corpus):
        # the normal documents, with the screening counts and no bin or partition rows
        paths = {name: tmp_path / f"{name}.csv" for name in ("out", "partitions", "rates")}
        for path in paths.values():
            path.write_text("stale\n")
        args = ["importance", "--graph", str(corpus), "--m", "10", "--m-prime", "5",
                "--tau-p", "3", "--attempts", "500", "--seed", "1"]
        code, out, _ = run_cli(capsys, *args, "--out", str(paths["out"]),
                               "--partitions-out", str(paths["partitions"]),
                               "--rates-out", str(paths["rates"]))
        assert code == 0 and out == ""
        text = paths["out"].read_text()
        assert "# screening: attempts=500 accepted=0 acceptance_rate=0.0\n" in text
        assert data_section(text).splitlines() == [
            "bin_rho_lo,bin_rho_hi,bin_p_lo,bin_p_hi,n_partitions,n_reports,"
            "insufficient,gamma,criterion,mean,stderr"]
        for name in ("partitions", "rates"):
            assert len(data_section(paths[name].read_text()).splitlines()) == 1
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["screening"] == {"attempts": 500, "accepted": 0, "acceptance_rate": 0.0}
        assert data["bins"] == [] and data["partitions"] == []


def strict_json(text):
    """Parse ``text`` as standard JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    # non-finite numbers are written as null: one-replicate standard errors
    # in data, an infinite threshold in meta
    def test_single_replicate_sweep_and_surface(self, capsys):
        common = ["--n", "20", "--gammas", "0,1", "--replicates", "1", "--seed", "1",
                  "--format", "json"]
        code, out, _ = run_cli(capsys, "sweep", "--m-list", "6", *common)
        assert code == 0
        reports = strict_json(out)["data"]["cells"][0]["reports"]
        assert reports["0.0"]["mrr"]["stderr"] is None
        assert isinstance(reports["0.0"]["mrr"]["mean"], float)
        code, out, _ = run_cli(capsys, "surface", "--m", "6", "--m-prime", "2", *common)
        assert code == 0
        data = strict_json(out)["data"]
        assert data["mrr_stderr"] == [None, None] and None not in data["mrr_mean"]

    def test_importance_single_report_bins_and_infinite_threshold(self, capsys, corpus):
        args = ["importance", "--graph", str(corpus), "--m", "10", "--m-prime", "5",
                "--attempts", "4096", "--replicates", "1", "--max-partitions", "1",
                "--seed", "21", "--format", "json"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        (only_bin,) = strict_json(out)["data"]["bins"]
        assert only_bin["n_reports"] == 1
        assert only_bin["reports"]["0.5"]["map"]["stderr"] is None
        code, out, _ = run_cli(capsys, *args, "--tau-rho=-inf")
        assert code == 0
        assert strict_json(out)["meta"]["config"]["tau_rho"] is None
        code, out, _ = run_cli(capsys, *args[:-2], "--tau-rho=-inf")  # the CSV form
        assert code == 0
        config_line = next(line for line in out.splitlines() if line.startswith("# config: "))
        assert strict_json(config_line[len("# config: "):])["tau_rho"] is None


class TestEstimate:
    def test_rates_from_file(self, capsys, tmp_path):
        from vnom import KidneyEggParams, sample_kidney_egg, write_attributed_graph
        params = KidneyEggParams(30, 10, 3, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        g = sample_kidney_egg(params, 3)
        path = tmp_path / "g.attr"
        write_attributed_graph(g, path)
        code, out, _ = run_cli(capsys, "estimate", "--graph", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 10
        assert 0.0 <= doc["s1_hat"] <= 1.0

    def test_explicit_red_list(self, capsys, tmp_path):
        from conftest import build_attributed
        from vnom import write_attributed_graph
        g = build_attributed(6, [(0, 1, 1), (2, 3, 2)], red={0, 1}, identified=set())
        path = tmp_path / "g.attr"
        write_attributed_graph(g, path)
        code, out, _ = run_cli(capsys, "estimate", "--graph", str(path),
                               "--red", "0,1,2")
        assert code == 0
        assert json.loads(out)["m"] == 3

    def test_repeated_red_id_exits_1(self, capsys, tmp_path):
        from conftest import build_attributed
        from vnom import write_attributed_graph
        g = build_attributed(6, [(0, 1, 1), (2, 3, 2)], red={0, 1}, identified=set())
        path = tmp_path / "g.attr"
        write_attributed_graph(g, path)
        code, out, err = run_cli(capsys, "estimate", "--graph", str(path), "--red", "1,1,2")
        assert (code, out) == (1, "")
        assert err == "error: --red repeats a vertex id: '1,1,2'\n"


class TestSeedPrinting:
    def test_generated_seed_is_printed(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "12", "--m", "4",
                                 "--m-prime", "1")
        assert code == 0
        assert err.startswith("seed:")
        assert json.loads(out)["seed"] == int(err.split()[1])

    def test_generated_seed_leaves_stdout_document_intact(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "20", "--m-list", "6",
                                 "--gammas", "0,1", "--replicates", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["config"]["master_seed"] == int(err.split()[1])

    def test_generated_seed_is_recorded_and_reproduces_the_run(self, capsys, tmp_path):
        generated, rerun = tmp_path / "generated.csv", tmp_path / "rerun.csv"
        args = ["sweep", "--n", "20", "--m-list", "4,6", "--gammas", "0,1",
                "--replicates", "2"]
        code, _, err = run_cli(capsys, *args, "--out", str(generated))
        assert code == 0
        label, seed = err.split()
        assert label == "seed:" and 0 <= int(seed) < 2 ** 48
        text = generated.read_text()
        config = next(line for line in text.splitlines() if line.startswith("# config: "))
        assert json.loads(config.removeprefix("# config: "))["master_seed"] == int(seed)
        assert run_cli(capsys, *args, "--seed", seed, "--out", str(rerun)) == (0, "", "")
        assert data_section(rerun.read_text()) == data_section(text)


DOCUMENT_KINDS = {"sweep": "sweep", "surface": "surface", "importance": "importance",
                  "analytic": "analytic", "partitions": "importance-partitions",
                  "rates": "importance-rate-bins"}


def write_documents(directory, corpus) -> dict:
    """Every result document at small fixed seeds, keyed '<writer>.<format>'."""
    argv = {
        "sweep": ["sweep", "--n", "20", "--m-list", "4,8,30", "--gammas", "0,0.5,1",
                  "--replicates", "4", "--seed", "13"],
        "surface": ["surface", "--n", "20", "--m", "8", "--m-prime", "2", "--y-max", "2",
                    "--gammas", "0,0.5,1", "--replicates", "3", "--seed", "2"],
        "importance": ["importance", "--graph", str(corpus), "--m", "10", "--m-prime", "5",
                       "--attempts", "4096", "--replicates", "2", "--max-partitions", "30",
                       "--seed", "21"],
        "analytic": ["analytic", "--n", "8", "--m", "3", "--m-prime", "1",
                     "--samples", "400", "--seed", "3"],
    }
    paths = {}
    for command, args in argv.items():
        for fmt in ("csv", "json"):
            paths[f"{command}.{fmt}"] = directory / f"{command}.{fmt}"
            extra = []
            if command == "importance" and fmt == "csv":
                for side in ("partitions", "rates"):
                    paths[f"{side}.csv"] = directory / f"{side}.csv"
                    extra += [f"--{side}-out", str(paths[f"{side}.csv"])]
            assert main([*args, "--format", fmt, "--out", str(paths[f"{command}.{fmt}"]),
                         *extra]) == 0
    return {name: path.read_text() for name, path in paths.items()}


@pytest.fixture(scope="module")
def documents(tmp_path_factory, corpus):
    return write_documents(tmp_path_factory.mktemp("documents"), corpus)


# data-section sha256 of every writer x format above, as written before the
# writers shared one metadata envelope
DOCUMENT_DIGESTS = {
    "sweep.csv": "39156dc31d13464a5895e1cecba6345067c5bff1992106100dd963918ce44d93",
    "sweep.json": "9ec1a721cf1849db731d53a4cf1b0e2aff818baf6fa771855349d8d03c8c846d",
    "surface.csv": "69c445ca6624d40120c487a348a6f7fb09f2157abb368ffe160c0097ea404b9e",
    "surface.json": "071b5ced224d3f279dc23b05a979519967bddbdcacd9d2aa52cf067289ba5654",
    "importance.csv": "c9fd67c8cf0634f2ddeeb057dd4b66ef704b5b16c74ed929f57902eb0841efa5",
    "partitions.csv": "f685ec06fc1008c3aaa26d3b184af43460bd71717634ce365746bc19ffb935f1",
    "rates.csv": "9f8fa555313c0fb516e37057d8f41e40e394c81c1f261ea32c175f66c2627301",
    "importance.json": "4c1afbce815e969a73c78ad729fe8227ace6b5acf9eed148085ed3516d71027d",
    "analytic.csv": "210964910f01cc39bfdf424c3075cd6f568b8ed4ebe29d22d202225125424bec",
    "analytic.json": "c27e5c37ed40627ab74c78e59d2cad117b9f762483b668f42e8bdc4683af3ddf",
}


# importance edge cases on the same corpus: open density bar, unweighted
# profiles, the smallest red set, and more trial partitions than one trial
# block on two workers
IMPORTANCE_EDGE_CASES = {
    "tau_rho_inf": ["--tau-rho=-inf", "--attempts", "600", "--replicates", "2",
                    "--max-partitions", "40", "--seed", "5"],
    "unweighted": ["--unweighted-profiles", "--attempts", "4096", "--replicates", "2",
                   "--max-partitions", "30", "--seed", "6"],
    "m2": ["--m", "2", "--m-prime", "1", "--attempts", "4096", "--replicates", "2",
           "--max-partitions", "30", "--seed", "8"],
    "workers2": ["--attempts", "8192", "--replicates", "1", "--max-partitions", "150",
                 "--workers", "2", "--seed", "7"],
}


def importance_edge_digests(directory, corpus, case) -> dict:
    """Data-section sha256 of the main, partitions and rates CSVs of one case."""
    paths = {name: directory / f"{case}.{name}.csv" for name in ("main", "partitions", "rates")}
    argv = ["importance", "--graph", str(corpus), "--m", "10", "--m-prime", "5",
            *IMPORTANCE_EDGE_CASES[case], "--out", str(paths["main"]),
            "--partitions-out", str(paths["partitions"]), "--rates-out", str(paths["rates"])]
    assert main(argv) == 0
    return {name: hashlib.sha256(data_section(path.read_text()).encode("utf-8")).hexdigest()
            for name, path in paths.items()}


# data-section sha256 of each edge case, as written before screening counted
# red-internal edges from neighbour lists and trials ran in stacked blocks
IMPORTANCE_EDGE_DIGESTS = {
    "tau_rho_inf": {
        "main": "f1b617f7fc7a77c01649c794514b4c60e005f194997904100e6ff83730353871",
        "partitions": "240fd90c53588808ec8c824e73ac2cab729a95c22ad9e8426e297af7ef936dbb",
        "rates": "d8c439cc1fd3e4fe10943790b93ce0b275d594ad8501170695becef045a5140c",
    },
    "unweighted": {
        "main": "a309631ec67874559d5db9630a2d730f1e9bfe2498d2e99ede5e065adf54cf14",
        "partitions": "8c787798c4ac02afea45cb24e32bf3876c8ca7c62cf993497c8ce84e1bcbace8",
        "rates": "c30c9eb8d118f5bb6c59bb11c7b94aa861690d5381c43245726211b5157d5e6b",
    },
    "m2": {
        "main": "f264230ad4355228be9c6f116d4537cea3a1013ffddf5f47e5a141a5bcc77429",
        "partitions": "5cb6f245d4790fb1f3d5b0e1c20c7fb94eb773052fe0be8020d73fab429ca45f",
        "rates": "5ea73f55e418bc4e36649db8978f0395312d9ac33be04f500e77012ed8a26b14",
    },
    "workers2": {
        "main": "f07b383c829129da12fd44e296ca8506fe6b518b95ef8a17830d4ef11300a5d6",
        "partitions": "48a90e434f99c3d73da171ba2c63de27fc1720ad8a644137e39cb9f50e61bf68",
        "rates": "3b88863a92a7141824d9d286a7326e28b4777e6a4a55f1691baa222a2ee4020c",
    },
}


class TestResultDocuments:
    def test_data_sections_match_recorded_digests(self, documents):
        from vnom.io import json_data_section
        digests = {}
        for name, text in documents.items():
            data = json_data_section(text) if name.endswith(".json") else data_section(text)
            digests[name] = hashlib.sha256(data.encode("utf-8")).hexdigest()
        assert digests == DOCUMENT_DIGESTS

    @pytest.mark.parametrize("case", sorted(IMPORTANCE_EDGE_CASES))
    def test_importance_edge_cases_match_recorded_digests(self, tmp_path, corpus, case):
        assert importance_edge_digests(tmp_path, corpus, case) == IMPORTANCE_EDGE_DIGESTS[case]

    def test_every_document_carries_the_envelope(self, documents):
        for name, text in documents.items():
            kind = DOCUMENT_KINDS[name.split(".")[0]]
            if name.endswith(".json"):
                meta = json.loads(text)["meta"]
            else:
                lines = text.splitlines()
                assert lines[0] == f"# vnom {kind}"
                assert lines[1].startswith("# created: ") and lines[2].startswith("# config: ")
                meta = {"kind": kind, "created": lines[1][len("# created: "):],
                        "config": json.loads(lines[2][len("# config: "):])}
            assert set(meta) == {"kind", "created", "config"}, name
            assert meta["kind"] == kind
            assert datetime.fromisoformat(meta["created"]).tzinfo is not None
            assert isinstance(meta["config"], dict) and meta["config"], name
