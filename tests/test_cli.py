import csv
import functools
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirlap import (DirectedGraph, TrophicParams, gen_trophic_levels,
                    parse_edge_list, trophic_loglik, trophic_sample)
from dirlap.cli import GAMMA_FMT, LOGLIK_FMT, MAX_GRID_POINTS, main
from helpers import random_graph

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"
FOOD_WEB = FIXTURES / "food_web_scc.edges"
GOLDEN = FIXTURES / "golden"


def run(*args) -> int:
    return main([str(a) for a in args])


class TestCompareCommand:
    def test_food_web_periodic(self, tmp_path, capsys):
        code = run("compare", "--input", FOOD_WEB, "--out-dir", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "periodic" in out
        for name in ("report.txt", "summary.csv", "phases.csv", "levels.csv",
                     "likelihood_curve_prdrg.csv", "likelihood_curve_trophic.csv"):
            assert (tmp_path / name).exists(), name
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "dataset,nodes,edges,g,ln_ratio"
        dataset, nodes, edges, g, ratio = summary[1].split(",")
        assert dataset == "food_web_scc"
        assert (nodes, edges, g) == ("12", "28", "1/3")
        assert float(ratio) > 0
        report = (tmp_path / "report.txt").read_text()
        assert "verdict = periodic" in report
        assert "best_g = 1/3" in report
        assert report.count("gamma_at_lower_bound = false\n") == 2

    @pytest.mark.parametrize("command", [
        ["compare"],
        ["reorder", "--method", "magnetic", "--g", "1/3"],
        ["reorder", "--method", "trophic"],
    ], ids=["compare", "reorder-magnetic", "reorder-trophic"])
    def test_component_connectivity_not_recomputed(self, tmp_path, monkeypatch,
                                                   command):
        # the extracted component is connected by construction, so picking
        # it is the only connected_components run
        import dirlap.graphs as graphs
        runs = []
        original = graphs.connected_components

        def counted(*args, **kwargs):
            runs.append(kwargs["connection"])
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "connected_components", counted)
        assert run(*command, "--input", FOOD_WEB, "--out-dir", tmp_path) == 0
        assert runs == ["strong"]

    def test_phases_and_levels_cover_component(self, tmp_path):
        run("compare", "--input", FOOD_WEB, "--out-dir", tmp_path)
        phases = (tmp_path / "phases.csv").read_text().splitlines()
        levels = (tmp_path / "levels.csv").read_text().splitlines()
        assert phases[0] == "label,value" and levels[0] == "label,value"
        assert len(phases) == 13 and len(levels) == 13
        labels = {row.split(",")[0] for row in phases[1:]}
        assert "flatfish" in labels and "grouper" in labels

    def test_linear_input_gets_linear_verdict(self, tmp_path):
        graph_file = tmp_path / "chain.edges"
        code = run("generate", "--model", "trophic", "--clusters", 4,
                   "--cluster-size", 20, "--noise", 0.2, "--gamma", 5.0,
                   "--seed", 3, "--out", graph_file)
        assert code == 0
        out_dir = tmp_path / "out"
        assert run("compare", "--input", graph_file, "--out-dir", out_dir) == 0
        assert "verdict = linear" in (out_dir / "report.txt").read_text()

    def test_empty_file_exits_one(self, tmp_path):
        empty = tmp_path / "empty.edges"
        empty.write_text("")
        assert run("compare", "--input", empty, "--out-dir", tmp_path / "o") == 1

    def test_missing_file_exits_one(self, tmp_path):
        missing = tmp_path / "nope.edges"
        assert run("compare", "--input", missing, "--out-dir", tmp_path / "o") == 1

    def test_malformed_line_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b\njust_one\n")
        assert run("compare", "--input", bad, "--out-dir", tmp_path / "o") == 1
        assert "line 2" in capsys.readouterr().err

    # one node of this 3-cycle with a chord has a vanishing eigenvector
    # component at some rotation, which warns in both runs
    @pytest.mark.filterwarnings("ignore::dirlap.DegeneracyWarning")
    def test_weight_column_ignored_with_one_notice(self, tmp_path, capsys):
        # the same graph with and without a third column: one notice, and
        # the same bundle apart from report.txt's file line
        bundles, notices = {}, {}
        for name, text in (("weighted", "a b 0.5\nb c 0.3\nc a 0.2\na c 0.9\n"),
                           ("plain", "a b\nb c\nc a\na c\n")):
            (tmp_path / name).mkdir()
            graph_file = tmp_path / name / "g.edges"
            graph_file.write_text(text)
            out_dir = tmp_path / name / "out"
            assert run("compare", "--input", graph_file, "--out-dir", out_dir) == 0
            bundles[name] = {path.name: [line for line in path.read_text().splitlines()
                                         if not line.startswith("file = ")]
                             for path in out_dir.iterdir()}
            notices[name] = [line for line in capsys.readouterr().err.splitlines()
                             if "weight column" in line]
        assert notices == {"weighted": ["notice: ignored the weight column of 4 line(s); "
                                        "the graph is read as unweighted"],
                           "plain": []}
        assert bundles["weighted"] == bundles["plain"]

    def test_degenerate_component_exits_two(self, tmp_path):
        dag = tmp_path / "dag.edges"
        dag.write_text("a b\nb c\nc d\n")
        code = run("compare", "--input", dag, "--component", "scc",
                   "--out-dir", tmp_path / "o")
        assert code == 2

    def test_weighted_input_rejected(self, tmp_path, capsys):
        # compare has no --weighted flag: the models are for unweighted graphs
        weighted = tmp_path / "w.edges"
        weighted.write_text("a b 0.5\nb a 0.5\n")
        code = run("compare", "--input", weighted, "--weighted",
                   "--out-dir", tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error [arguments]: unrecognized arguments: --weighted"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore::dirlap.DegeneracyWarning")
    def test_auto_policy_falls_back_to_wcc(self, tmp_path, capsys):
        dag = tmp_path / "dag.edges"
        dag.write_text("a b\nb c\nc d\na c\na d\nb d\n")
        code = run("compare", "--input", dag, "--component", "auto",
                   "--out-dir", tmp_path / "o")
        assert code == 0
        assert "falling back" in capsys.readouterr().err
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "component_used = wcc" in report
        assert "verdict = linear" in report

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        # the pair-model sums cannot resolve gamma this large
        code = run("compare", "--input", FOOD_WEB, "--gamma-max", 1e9,
                   "--out-dir", tmp_path)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [analyze]:")

    def test_bad_flag_exits_one(self, tmp_path):
        assert run("compare", "--input", FOOD_WEB, "--out-dir", tmp_path,
                   "--component", "bogus") == 1

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run("compare", "--input", FOOD_WEB, "--out-dir", out) == 0
        for name in ("report.txt", "summary.csv", "phases.csv", "levels.csv",
                     "likelihood_curve_prdrg.csv", "likelihood_curve_trophic.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestArgumentErrors:
    """Bad numbers are refused before any input is read: exit 1 and one
    ``error [arguments]`` line, with no traceback."""

    @staticmethod
    def refused(capsys, *args):
        code = run(*args)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error [arguments]:"), err

    @pytest.mark.parametrize("command", [
        ["compare", "--out-dir", "o"],
        ["reorder", "--method", "magnetic", "--out-dir", "o"],
    ], ids=["compare", "reorder"])
    def test_zero_denominator_rotation(self, tmp_path, capsys, command):
        self.refused(capsys, *command, "--input", tmp_path / "missing.edges",
                     "--g-list", "1/2,1/0")

    # "--g=-1/3": argparse takes a bare "-1/3" for a flag, not a value
    @pytest.mark.parametrize("g", ["7/10", "0", "-1/3"])
    @pytest.mark.parametrize("command", [
        ["reorder", "--input", FOOD_WEB, "--method", "magnetic", "--out-dir", "o"],
        ["curve", "--input", FOOD_WEB, "--model", "prdrg", "--attributes", "a.csv",
         "--out", "c.csv"],
        ["generate", "--model", "prdrg", "--clusters", 2, "--cluster-size", 3,
         "--gamma", 1, "--out", "g.edges"],
    ], ids=["reorder", "curve", "generate"])
    def test_rotation_outside_range(self, tmp_path, monkeypatch, capsys, command, g):
        monkeypatch.chdir(tmp_path)
        self.refused(capsys, *command, f"--g={g}")
        assert not any(tmp_path.iterdir())

    def test_negative_seed(self, tmp_path, capsys):
        self.refused(capsys, "generate", "--model", "trophic", "--clusters", 2,
                     "--cluster-size", 3, "--gamma", 1, "--seed", -1,
                     "--out", tmp_path / "g.edges")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["compare", "--out-dir", "o"],
        ["curve", "--model", "trophic", "--attributes", "a.csv", "--out", "c.csv"],
    ], ids=["compare", "curve"])
    def test_reversed_gamma_range(self, capsys, command):
        self.refused(capsys, *command, "--input", "missing.edges",
                     "--gamma-min", 5, "--gamma-max", 1)

    # curve reads neither a component nor a rotation list
    @pytest.mark.parametrize("args", [
        ["compare", "--input", "missing.edges", "--out-dir", "o", "--bogus"],
        ["curve", "--input", "missing.edges", "--model", "trophic",
         "--attributes", "a.csv", "--out", "c.csv", "--g-list", "1/2,1/0"],
        ["curve", "--input", "missing.edges", "--model", "trophic",
         "--attributes", "a.csv", "--out", "c.csv", "--component", "wcc"],
    ], ids=["compare-bogus", "curve-g-list", "curve-component"])
    def test_unknown_flag(self, capsys, args):
        self.refused(capsys, *args)

    @pytest.mark.parametrize("args", [
        ["compare", "--out-dir", "o"],
        ["reorder", "--method", "trophic", "--out-dir", "o"],
        ["curve", "--model", "trophic", "--attributes", "a.csv", "--out", "c.csv"],
    ], ids=["compare", "reorder", "curve"])
    def test_missing_input(self, capsys, args):
        self.refused(capsys, *args)

    @pytest.mark.parametrize("args", [
        ["compare", "--input", "missing.edges", "--out-dir", "o",
         "--gamma-max", "inf"],
        ["generate", "--model", "prdrg", "--gamma", "nan"],
        ["generate", "--model", "prdrg", "--gamma", "inf"],
        ["generate", "--model", "trophic", "--gamma", "1", "--noise", "nan"],
        ["generate", "--model", "trophic", "--gamma", "1", "--noise", "inf"],
    ], ids=["gamma-max-inf", "gamma-nan", "gamma-inf", "noise-nan", "noise-inf"])
    def test_non_finite_number(self, tmp_path, capsys, args):
        if args[0] == "generate":
            args = args + ["--clusters", 2, "--cluster-size", 3,
                           "--out", tmp_path / "g.edges"]
        self.refused(capsys, *args)

    def test_grid_points_checked_before_reading(self, tmp_path, capsys):
        # the limit is checked as the flag is parsed: no run starts at it
        for points in (0, MAX_GRID_POINTS + 1):
            self.refused(capsys, "curve", "--input", FOOD_WEB, "--model", "trophic",
                         "--attributes", tmp_path / "missing.csv",
                         "--grid-points", points, "--out", tmp_path / "c.csv")

    @pytest.mark.parametrize("g", [None, "1/0", "x"], ids=["missing", "zero-denominator",
                                                          "malformed"])
    def test_prdrg_curve_rotation_checked_before_reading(self, tmp_path, capsys, g):
        args = ["curve", "--input", tmp_path / "missing.edges", "--model", "prdrg",
                "--attributes", tmp_path / "missing.csv", "--out", tmp_path / "c.csv"]
        self.refused(capsys, *args, *(["--g", g] if g else []))


class TestStrayFailures:
    """Failures outside the input stages still end in one error line and
    a documented exit code, with no traceback."""

    @pytest.mark.parametrize("args", [
        ["compare", "--input", FOOD_WEB, "--out-dir", "{blocked}/sub"],
        ["reorder", "--input", FOOD_WEB, "--method", "trophic",
         "--out-dir", "{blocked}/sub"],
        ["generate", "--model", "trophic", "--clusters", 2, "--cluster-size", 3,
         "--gamma", 1, "--out", "{blocked}/x.edges"],
        ["curve", "--input", FOOD_WEB, "--model", "trophic",
         "--attributes", GOLDEN / "levels.csv", "--out", "{blocked}/c.csv"],
    ], ids=["compare", "reorder", "generate", "curve"])
    def test_unwritable_output_path(self, tmp_path, capsys, args):
        blocked = tmp_path / "file"         # a file where a folder should be
        blocked.write_text("")
        code = run(*(str(a).replace("{blocked}", str(blocked)) for a in args))
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("error [")]
        assert len(errors) == 1 and errors[0].startswith("error [write]:"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 8.00 GiB"),
         "error [memory]: Unable to allocate 8.00 GiB"),
        (MemoryError(), "error [memory]: out of memory"),
    ], ids=["message", "bare"])
    def test_memory_error_exits_three(self, tmp_path, capsys, monkeypatch, exc, line):
        def exhausted(*args, **kwargs):
            raise exc
        monkeypatch.setattr("dirlap.cli.compare_models", exhausted)
        code = run("compare", "--input", FOOD_WEB, "--out-dir", tmp_path)
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [line]
        assert not any(tmp_path.iterdir())


class TestGoldenBundle:
    """The food web's bundle and two curves against fixtures/golden, written
    from the repository root by

        dirlap compare --input tests/fixtures/food_web_scc.edges --out-dir G
        dirlap curve --input tests/fixtures/food_web_scc.edges --model trophic \\
            --attributes G/levels.csv --out G/curve_trophic.csv
        dirlap curve --input tests/fixtures/food_web_scc.edges --model prdrg \\
            --g 1/3 --attributes G/phases.csv --out G/curve_prdrg.csv

    Each curve reads the golden attributes, so only phases.csv and
    levels.csv, 12 digits from the eigensolver and CG, may differ in a last
    digit on another BLAS; they are compared to 1e-9.
    """

    EXACT = ["report.txt", "summary.csv", "likelihood_curve_prdrg.csv",
             "likelihood_curve_trophic.csv", "curve_trophic.csv", "curve_prdrg.csv"]

    def test_bundle_matches_golden(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES.parent.parent)     # report.txt records the path
        edges = "tests/fixtures/food_web_scc.edges"
        assert run("compare", "--input", edges, "--out-dir", tmp_path) == 0
        for model, attributes, extra in (("trophic", "levels.csv", []),
                                         ("prdrg", "phases.csv", ["--g", "1/3"])):
            assert run("curve", "--input", edges, "--model", model, *extra,
                       "--attributes", GOLDEN / attributes,
                       "--out", tmp_path / f"curve_{model}.csv") == 0
        assert capsys.readouterr().err == ""
        for name in self.EXACT:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        for name in ("phases.csv", "levels.csv"):
            got = [row.split(",") for row in (tmp_path / name).read_text().splitlines()]
            want = [row.split(",") for row in (GOLDEN / name).read_text().splitlines()]
            assert got[0] == want[0] and [r[0] for r in got] == [r[0] for r in want]
            np.testing.assert_allclose([float(r[1]) for r in got[1:]],
                                       [float(r[1]) for r in want[1:]], rtol=0, atol=1e-9)


class TestGoldenGenerate:
    """``generate``'s three files for each model against fixtures/golden,
    written from the repository root by

        dirlap generate --model MODEL --clusters 3 --cluster-size 8 \\
            --noise 0.2 --gamma 3 --seed 7 \\
            --out tests/fixtures/golden/generate_MODEL.edges

    when each sampler still held an array over all pairs; the blocked
    samplers must draw the same graphs."""

    @pytest.mark.parametrize("model", ["prdrg", "trophic"])
    def test_files_match_golden(self, tmp_path, model):
        name = f"generate_{model}.edges"
        assert run("generate", "--model", model, "--clusters", 3, "--cluster-size", 8,
                   "--noise", 0.2, "--gamma", 3, "--seed", 7,
                   "--out", tmp_path / name) == 0
        for suffix in ("", ".meta", ".attributes.csv"):
            assert ((tmp_path / (name + suffix)).read_bytes()
                    == (GOLDEN / (name + suffix)).read_bytes()), suffix


class TestCsvLabels:
    """Labels holding a comma or a double quote survive every output file."""

    ODD = 'a,1 b\nb "q\n"q a,1\n'

    @staticmethod
    def read(path):
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))

    # the 3-cycle's bottom eigenvalue is double at g = 1/2 and g = 1/6
    @pytest.mark.filterwarnings("ignore::dirlap.DegeneracyWarning")
    def test_compare_then_curve_round_trip(self, tmp_path):
        edges = tmp_path / "odd,name.edges"
        edges.write_text(self.ODD, encoding="utf-8")
        out = tmp_path / "out"
        assert run("compare", "--input", edges, "--out-dir", out) == 0
        summary = self.read(out / "summary.csv")
        assert [len(row) for row in summary] == [5, 5]
        assert summary[1][0] == "odd,name"
        for name in ("phases.csv", "levels.csv"):
            rows = self.read(out / name)
            assert rows[0] == ["label", "value"]
            assert sorted(row[0] for row in rows[1:]) == ['"q', "a,1", "b"]
            assert all(len(row) == 2 for row in rows)
        curve = tmp_path / "curve.csv"
        assert run("curve", "--input", edges, "--model", "prdrg", "--g", "1/3",
                   "--attributes", out / "phases.csv", "--out", curve) == 0
        assert len(self.read(curve)) == 65
        assert run("reorder", "--input", edges, "--method", "trophic",
                   "--out-dir", out) == 0
        rows = self.read(out / "ordering.csv")
        assert sorted(row[0] for row in rows[1:]) == ['"q', "a,1", "b"]
        assert sorted(row[1] for row in rows[1:]) == ["0", "1", "2"]

    def test_plain_labels_are_not_quoted(self):
        from dirlap.cli import assignment_to_csv
        graph = parse_edge_list(FOOD_WEB.read_text()).graph
        values = np.linspace(0.0, 1.0, graph.n)
        assert assignment_to_csv(graph, values) == "label,value\n" + "".join(
            f"{graph.label(i)},{values[i]:.12g}\n" for i in range(graph.n))


class TestDegeneracyWarnings:
    def test_every_call_in_one_process_shows_the_warning(self, tmp_path):
        # a fresh interpreter, so the warning goes to stderr under Python's
        # default filters rather than to pytest's recorder
        edges = tmp_path / "odd.edges"
        edges.write_text(TestCsvLabels.ODD, encoding="utf-8")
        script = ("import sys\n"
                  "from dirlap.cli import main\n"
                  "for k in range(2):\n"
                  "    print('--- call', k, file=sys.stderr)\n"
                  "    main(['compare', '--input', sys.argv[1],\n"
                  "          '--out-dir', sys.argv[2] + str(k)])\n")
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else []))
        result = subprocess.run(
            [sys.executable, "-c", script, str(edges), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, check=True)
        calls = result.stderr.split("--- call")[1:]
        assert len(calls) == 2
        for text in calls:
            assert ("DegeneracyWarning: smallest eigenvalue has multiplicity 2"
                    in text)

    def test_warning_is_one_line_without_source(self, tmp_path):
        edges = tmp_path / "odd.edges"
        edges.write_text(TestCsvLabels.ODD, encoding="utf-8")
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else []))
        result = subprocess.run(
            [sys.executable, "-m", "dirlap.cli", "compare", "--input", str(edges),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, check=True)
        lines = result.stderr.splitlines()
        # g = 1/2 and g = 1/6 give a double bottom eigenvalue
        assert lines == ["DegeneracyWarning: smallest eigenvalue has multiplicity 2 "
                         "(gap < 1e-10); phase angles are not uniquely determined"] * 2
        assert ".py" not in result.stderr
        assert "smallest_eigenpair(" not in result.stderr


class TestReorderCommand:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_reordered_triples_match_csv_writer(self, weighted):
        # the columnar writer against rows sorted by (row, col) and written
        # by csv.writer, on a graph whose weights repeat
        from dirlap.cli import VALUE_FMT, _reordered_triples
        rng = np.random.default_rng(29)
        graph = random_graph(rng, 60, 0.2)
        if weighted:
            graph = DirectedGraph(graph.n, graph.edge_index,
                                  weights=rng.choice([0.25, 0.5, 1 / 3, 0.7],
                                                     graph.edge_count))
        perm = rng.permutation(graph.n)
        rank = np.empty(graph.n, dtype=int)
        rank[perm] = np.arange(graph.n)
        rows, cols = rank[graph.edge_index[:, 0]], rank[graph.edge_index[:, 1]]
        order = np.lexsort((cols, rows))
        values = (graph.edge_weights[order] if weighted
                  else np.ones(graph.edge_count))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["row", "col", "value"])
        writer.writerows(zip(rows[order].tolist(), cols[order].tolist(),
                             (VALUE_FMT % v for v in values.tolist())))
        assert _reordered_triples(graph, perm) == expected.getvalue()

    def test_trophic_single_edge(self, tmp_path):
        graph_file = tmp_path / "edge.edges"
        graph_file.write_text("a b\n")
        out = tmp_path / "o"
        code = run("reorder", "--input", graph_file, "--method", "trophic",
                   "--component", "wcc", "--out-dir", out)
        assert code == 0
        ordering = (out / "ordering.csv").read_text()
        assert ordering == "original_label,rank\na,0\nb,1\n"
        triples = (out / "reordered_adjacency.csv").read_text().splitlines()
        assert triples == ["row,col,value", "0,1,1"]

    def test_trophic_sorted_path_is_identity(self, tmp_path):
        graph_file = tmp_path / "path.edges"
        graph_file.write_text("a b\nb c\nc d\n")
        out = tmp_path / "o"
        assert run("reorder", "--input", graph_file, "--method", "trophic",
                   "--component", "wcc", "--out-dir", out) == 0
        rows = (out / "ordering.csv").read_text().splitlines()[1:]
        ranks = dict(row.split(",") for row in rows)
        assert ranks == {"a": "0", "b": "1", "c": "2", "d": "3"}

    def test_magnetic_with_explicit_rotation(self, tmp_path):
        out = tmp_path / "o"
        code = run("reorder", "--input", FOOD_WEB, "--method", "magnetic",
                   "--g", "1/3", "--out-dir", out)
        assert code == 0
        rows = (out / "ordering.csv").read_text().splitlines()[1:]
        assert len(rows) == 12

    def test_magnetic_cluster_recovery(self, tmp_path):
        # generated periodic clusters must end up circularly contiguous:
        # most same-cluster pairs within one cluster-width of ranks
        clusters, size = 5, 100
        graph_file = tmp_path / "p.edges"
        assert run("generate", "--model", "prdrg", "--clusters", clusters,
                   "--cluster-size", size, "--noise", 0.2, "--gamma", 5.0,
                   "--seed", 5, "--out", graph_file) == 0
        out = tmp_path / "o"
        assert run("reorder", "--input", graph_file, "--method", "magnetic",
                   "--g", f"1/{clusters}", "--component", "scc",
                   "--out-dir", out) == 0
        rows = (out / "ordering.csv").read_text().splitlines()[1:]
        rank = {label: int(r) for label, r in (row.split(",") for row in rows)}
        n = len(rank)
        assert n == clusters * size
        good = total = 0
        for c in range(clusters):
            members = [str(c * size + k) for k in range(size)]
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    d = abs(rank[members[a]] - rank[members[b]])
                    good += min(d, n - d) <= size
                    total += 1
        assert good / total >= 0.9


class TestGenerateCommand:
    def test_round_trips_and_sidecars(self, tmp_path):
        out = tmp_path / "g.edges"
        code = run("generate", "--model", "prdrg", "--clusters", 3,
                   "--cluster-size", 10, "--noise", 0.1, "--gamma", 2.0,
                   "--seed", 1, "--out", out)
        assert code == 0
        graph = parse_edge_list(out.read_text()).graph
        assert graph.n == 30
        meta = Path(str(out) + ".meta").read_text()
        assert "model = prdrg" in meta
        assert f"edges = {graph.edge_count}" in meta
        assert "g = " in meta
        attrs = Path(str(out) + ".attributes.csv").read_text().splitlines()
        assert attrs[0] == "label,value"
        assert len(attrs) == 31

    @pytest.mark.parametrize("model", ["trophic", "prdrg"])
    def test_single_node_graph(self, tmp_path, model):
        out = tmp_path / "one.edges"
        code = run("generate", "--model", model, "--clusters", 1,
                   "--cluster-size", 1, "--gamma", 1.0, "--seed", 0,
                   "--out", out)
        assert code == 0
        assert out.read_text() == ""
        assert "nodes = 1" in Path(str(out) + ".meta").read_text()

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            run("generate", "--model", "trophic", "--clusters", 3,
                "--cluster-size", 15, "--noise", 0.2, "--gamma", 4.0,
                "--seed", 9, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_parameters_exit_one(self, tmp_path):
        assert run("generate", "--model", "prdrg", "--clusters", 0,
                   "--cluster-size", 5, "--gamma", 1.0,
                   "--out", tmp_path / "x.edges") == 1


class TestCurveCommand:
    def _generated(self, tmp_path, model="trophic"):
        out = tmp_path / "g.edges"
        run("generate", "--model", model, "--clusters", 3, "--cluster-size", 15,
            "--noise", 0.2, "--gamma", 3.0, "--seed", 2, "--out", out)
        return out, Path(str(out) + ".attributes.csv")

    def test_single_point_grid(self, tmp_path):
        graph_file, attrs = self._generated(tmp_path)
        out = tmp_path / "curve.csv"
        code = run("curve", "--input", graph_file, "--model", "trophic",
                   "--attributes", attrs, "--grid-points", 1, "--out", out)
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "gamma,loglik,is_mle,is_density_match"
        assert len(rows) == 2

    def test_curve_peak_matches_mle_mark(self, tmp_path):
        graph_file, attrs = self._generated(tmp_path)
        out = tmp_path / "curve.csv"
        assert run("curve", "--input", graph_file, "--model", "trophic",
                   "--attributes", attrs, "--out", out) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        values = np.array([float(r[1]) for r in rows])
        mle_marks = [k for k, r in enumerate(rows) if r[2] == "1"]
        assert len(mle_marks) == 1
        assert abs(mle_marks[0] - int(np.argmax(values))) <= 1

    def test_density_mark_matches_direct_fit(self, tmp_path):
        from dirlap import fit_gamma_density
        from dirlap.models import _LevelModel
        graph_file, attrs_file = self._generated(tmp_path)
        out = tmp_path / "curve.csv"
        assert run("curve", "--input", graph_file, "--model", "trophic",
                   "--attributes", attrs_file, "--out", out) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        marks = [float(r[0]) for r in rows if r[3] == "1"]
        assert len(marks) == 1
        graph = parse_edge_list(graph_file.read_text()).graph
        attrs = np.array([float(line.split(",")[1]) for line
                          in attrs_file.read_text().splitlines()[1:]])
        direct = fit_gamma_density(
            lambda g: _LevelModel(attrs).expected_edges(g, derivatives=True),
            graph.edge_count)
        grid = np.geomspace(1e-3, 50.0, 64)
        assert abs(math.log(marks[0]) - math.log(direct)) \
            <= math.log(grid[1] / grid[0]) * 1.01

    def test_weighted_trophic_curve(self, tmp_path):
        # weights drawn from the level model's density at gamma = 3 by
        # inverting its CDF; the fit uses the density's analytic derivatives
        rng = np.random.default_rng(5)
        h = rng.uniform(0.0, 3.0, 40)
        src, dst = np.nonzero(rng.random((40, 40)) < 0.2)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        x = 3.0 * (h[dst] - h[src] - 1.0) ** 2
        u = rng.random(len(x))
        w = np.clip(-np.log1p(-u * -np.expm1(-x)) / x, 1e-6, 1 - 1e-6)
        graph_file = tmp_path / "w.edges"
        graph_file.write_text("".join(f"n{i} n{j} {float(v)!r}\n"
                                      for i, j, v in zip(src, dst, w)))
        attrs = tmp_path / "h.csv"
        attrs.write_text("label,value\n" + "".join(f"n{i},{float(v)!r}\n"
                                                    for i, v in enumerate(h)))
        out = tmp_path / "curve.csv"
        assert run("curve", "--input", graph_file, "--weighted", "--model", "trophic",
                   "--attributes", attrs, "--out", out) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        marks = [k for k, r in enumerate(rows) if r[2] == "1"]
        values = [float(r[1]) for r in rows]
        assert len(marks) == 1 and abs(marks[0] - int(np.argmax(values))) <= 1
        assert all(r[3] == "0" for r in rows)
        from dirlap import fit_gamma_mle
        from dirlap.models import _WeightedLevelModel
        graph = parse_edge_list(graph_file.read_text(), weighted=True).graph
        h_by_label = dict(zip((f"n{i}" for i in range(40)), h))
        fit = fit_gamma_mle(functools.partial(_WeightedLevelModel(
            [h_by_label[graph.label(i)] for i in range(graph.n)], graph).loglik,
            derivatives=True))
        assert not fit.at_upper_bound and not fit.at_lower_bound
        grid = np.geomspace(1e-3, 50.0, 64)
        assert marks[0] == int(np.argmin(np.abs(np.log(grid) - np.log(fit.gamma))))

    def test_prdrg_curve_needs_rotation(self, tmp_path):
        graph_file, attrs = self._generated(tmp_path, model="prdrg")
        assert run("curve", "--input", graph_file, "--model", "prdrg",
                   "--attributes", attrs, "--out", tmp_path / "c.csv") == 1

    def test_prdrg_curve_with_rotation(self, tmp_path):
        graph_file, attrs = self._generated(tmp_path, model="prdrg")
        out = tmp_path / "c.csv"
        assert run("curve", "--input", graph_file, "--model", "prdrg",
                   "--attributes", attrs, "--g", "1/3", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 65

    def test_prdrg_numerical_failure_exits_three(self, tmp_path, capsys):
        graph_file, attrs = self._generated(tmp_path, model="prdrg")
        capsys.readouterr()
        code = run("curve", "--input", graph_file, "--model", "prdrg",
                   "--attributes", attrs, "--g", "1/3", "--gamma-max", 1e9,
                   "--out", tmp_path / "c.csv")
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [analyze]:")

    def test_no_gamma_probed_twice(self, tmp_path, monkeypatch):
        # the table takes one plain probe per grid point and the fit its
        # own few derivative probes; neither kind repeats a gamma
        from dirlap.models import _PairModel
        plain, derivative = [], []
        loglik = _PairModel.loglik

        def counted(self, gamma, derivatives=False):
            (derivative if derivatives else plain).append(float(gamma))
            return loglik(self, gamma, derivatives)

        monkeypatch.setattr(_PairModel, "loglik", counted)
        graph_file, attrs = self._generated(tmp_path, model="prdrg")
        out = tmp_path / "c.csv"
        assert run("curve", "--input", graph_file, "--model", "prdrg",
                   "--attributes", attrs, "--g", "1/3", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 65
        np.testing.assert_array_equal(plain, np.geomspace(1e-3, 50.0, 64))
        assert 2 <= len(derivative) <= 15
        assert len(set(derivative)) == len(derivative)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
    @pytest.mark.parametrize("model", ["prdrg", "trophic"])
    def test_non_finite_attribute(self, tmp_path, capsys, model, value):
        graph_file, attrs = self._generated(tmp_path, model=model)
        rows = attrs.read_text().splitlines()
        label = rows[2].split(",")[0]
        rows[2] = f"{label},{value}"
        attrs.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run("curve", "--input", graph_file, "--model", model, "--g", "1/3",
                   "--attributes", attrs, "--out", tmp_path / "c.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [attributes]:"), err
        assert repr(label) in err[0]
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("model, value, accepted", [
        ("trophic", "1e75", True), ("trophic", "-1.0000001e75", False),
        ("trophic", "1e200", False), ("prdrg", "-1e6", True),
        ("prdrg", "1.000001e6", False), ("prdrg", "1e300", False)])
    def test_huge_attribute(self, tmp_path, capsys, model, value, accepted):
        # levels past 1e75 would overflow their squared gaps, and angles past
        # 1e6 lose the angle to float spacing; both bounds are accepted
        graph_file, attrs = self._generated(tmp_path, model=model)
        rows = attrs.read_text().splitlines()
        label = rows[2].split(",")[0]
        rows[2] = f"{label},{value}"
        attrs.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        # a RuntimeWarning fails the test (pyproject.toml's filterwarnings)
        code = run("curve", "--input", graph_file, "--model", model, "--g", "1/3",
                   "--attributes", attrs, "--out", tmp_path / "c.csv")
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("notice:")]
        if accepted:
            assert code == 0 and err == []
            return
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error [attributes]:"), err
        assert repr(label) in err[0] and "exceeds" in err[0]
        assert not (tmp_path / "c.csv").exists()

    def test_attribute_length_mismatch(self, tmp_path):
        graph_file, _ = self._generated(tmp_path)
        short = tmp_path / "short.csv"
        short.write_text("label,value\n0,1.0\n")
        assert run("curve", "--input", graph_file, "--model", "trophic",
                   "--attributes", short, "--out", tmp_path / "c.csv") == 1

    def test_repeated_label_refused(self, tmp_path, capsys):
        edges, attrs = tmp_path / "g.edges", tmp_path / "a.csv"
        edges.write_text("a b\nb c\nc a\n")
        attrs.write_text("a,0\nb,1\nc,2\nc,5\n")
        assert run("curve", "--input", edges, "--model", "trophic",
                   "--attributes", attrs, "--out", tmp_path / "c.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [attributes]:"), err
        assert "'c'" in err[0]
        assert not (tmp_path / "c.csv").exists()

    def test_node_named_label_is_not_a_header(self, tmp_path):
        # a first row `label,0` is the value of the node `label`
        edges, attrs = tmp_path / "g.edges", tmp_path / "a.csv"
        edges.write_text("label b\nb c\nc label\n")
        attrs.write_text("label,0\nb,1\nc,2\n")
        out = tmp_path / "c.csv"
        assert run("curve", "--input", edges, "--model", "trophic",
                   "--attributes", attrs, "--out", out) == 0
        graph = parse_edge_list(edges.read_text()).graph
        assert [graph.label(i) for i in range(3)] == ["label", "b", "c"]
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        grid = np.geomspace(1e-3, 50.0, 64)
        assert len(rows) == len(grid)
        for gamma, row in zip(grid, rows):
            assert row[0] == GAMMA_FMT % gamma
            assert row[1] == LOGLIK_FMT % trophic_loglik(
                graph, TrophicParams(np.array([0.0, 1.0, 2.0]), gamma))

    @pytest.mark.parametrize("header", ["label,value", "Label,level", "label"])
    def test_header_row_is_skipped(self, tmp_path, header):
        edges, attrs = tmp_path / "g.edges", tmp_path / "a.csv"
        edges.write_text("a b\nb c\nc a\n")
        attrs.write_text("a,0\nb,1\nc,2\n")
        plain = tmp_path / "plain.csv"
        assert run("curve", "--input", edges, "--model", "trophic",
                   "--attributes", attrs, "--out", plain) == 0
        attrs.write_text(f"{header}\na,0\nb,1\nc,2\n")
        out = tmp_path / "c.csv"
        assert run("curve", "--input", edges, "--model", "trophic",
                   "--attributes", attrs, "--out", out) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_generated_isolated_nodes_are_read(self, tmp_path, capsys):
        # at gamma = 20 this sample leaves a node without edges: the edge
        # list cannot show it, and the attributes file lists it
        out = tmp_path / "g.edges"
        assert run("generate", "--model", "trophic", "--clusters", 3,
                   "--cluster-size", 3, "--gamma", 20, "--seed", 0, "--out", out) == 0
        capsys.readouterr()
        curve = tmp_path / "curve.csv"
        assert run("curve", "--input", out, "--model", "trophic", "--attributes",
                   Path(str(out) + ".attributes.csv"), "--out", curve) == 0
        notices = [line for line in capsys.readouterr().err.splitlines()
                   if "isolated" in line]
        assert len(notices) == 1 and notices[0].startswith("notice: read 1 ")
        # the graph generate drew, by the same seeds
        attr_seed, edge_seed = np.random.SeedSequence(0).spawn(2)
        h = gen_trophic_levels(3, 3, 0.0, attr_seed)
        sampled = trophic_sample(TrophicParams(h, 20.0), edge_seed)
        assert sampled.n == 9 and parse_edge_list(out.read_text()).graph.n == 8
        rows = [row.split(",") for row in curve.read_text().splitlines()[1:]]
        grid = np.geomspace(1e-3, 50.0, 64)
        assert len(rows) == len(grid)
        for gamma, row in zip(grid, rows):
            assert row[1] == LOGLIK_FMT % trophic_loglik(sampled, TrophicParams(h, gamma))

    def test_density_range_printed_exactly(self, tmp_path, capsys):
        # the expected count at gamma = 1e-6 is 3 - 4.5e-6, so 3 is out of
        # range, and the printed bounds must say so
        edges, attrs = tmp_path / "g.edges", tmp_path / "a.csv"
        edges.write_text("a b\nb c\nc a\n")
        attrs.write_text("a,0\nb,1\nc,2\n")
        assert run("curve", "--input", edges, "--model", "trophic",
                   "--attributes", attrs, "--out", tmp_path / "c.csv") == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "observed edge count 3 outside" in err[0], err
        lower, upper = map(float, err[0].rpartition("[")[2].rstrip("]").split(", "))
        assert not lower <= 3 <= upper


class TestGenerateCompareWorkflow:
    """Generated periodic inputs must be judged periodic and generated
    linear inputs linear, across seeds (>= 95% of 20 each)."""

    @pytest.mark.slow
    def test_verdicts_across_seeds(self, tmp_path):
        periodic = linear = 0
        seeds = range(20)
        for seed in seeds:
            graph_file = tmp_path / f"p{seed}.edges"
            assert run("generate", "--model", "prdrg", "--clusters", 5,
                       "--cluster-size", 100, "--noise", 0.2, "--gamma", 5.0,
                       "--seed", seed, "--out", graph_file) == 0
            out = tmp_path / f"po{seed}"
            assert run("compare", "--input", graph_file, "--out-dir", out) == 0
            periodic += "verdict = periodic" in (out / "report.txt").read_text()
        for seed in seeds:
            graph_file = tmp_path / f"t{seed}.edges"
            assert run("generate", "--model", "trophic", "--clusters", 5,
                       "--cluster-size", 100, "--noise", 0.2, "--gamma", 5.0,
                       "--seed", seed, "--out", graph_file) == 0
            out = tmp_path / f"to{seed}"
            # linear chains are nearly acyclic: their largest strongly
            # connected piece is a tiny (often 3-4 node) cycle whose verdict
            # is rightly periodic, so analyze the weak component as the
            # published treatment of such networks does
            assert run("compare", "--input", graph_file, "--component", "wcc",
                       "--out-dir", out) == 0
            linear += "verdict = linear" in (out / "report.txt").read_text()
        assert periodic >= 19
        assert linear >= 19
