"""Random command lines and input files through ``dirlap.cli.main``.

Whatever the input, a run ends in a documented exit code (0-3) with at most
one ``error [`` line and no traceback.  A RuntimeWarning fails the test
(pyproject.toml's filterwarnings), and so does any exception that leaves
``main``.  A file that ``generate`` writes is one that ``curve`` reads.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dirlap.cli import main

LABELS = st.one_of(st.sampled_from(["a", "b", "c", "d", "1", "a,1", '"q', "label",
                                    "é", "x'y"]),
                   st.text(alphabet="ab1,\"'#%;.", min_size=1, max_size=3))
WEIGHTS = st.sampled_from(["0.5", "0.25", "1", "0", "-1", "nan", "x", "1e300"])

EDGE_LINES = st.one_of(
    st.tuples(LABELS, LABELS).map(" ".join),
    st.tuples(LABELS, LABELS, WEIGHTS).map(" ".join),
    LABELS.map(lambda u: f"{u} {u}"),                       # self-loop
    st.sampled_from(["# comment", "% comment", "", "   ", "lone"]),
)
EDGES = st.tuples(st.lists(EDGE_LINES, max_size=12), st.sampled_from(["\n", "\r\n"])
                  ).map(lambda parts: "".join(line + parts[1] for line in parts[0]))

VALUES = st.sampled_from(["0", "1.5", "-3", "2", "1e75", "2e75", "1e6", "1e300",
                          "nan", "inf", "x", ""])
ATTRIBUTES = st.tuples(
    st.booleans(),
    st.lists(st.tuples(LABELS, VALUES).map(lambda row: f'"{row[0]}",{row[1]}'),
             max_size=8),
).map(lambda parts: "".join(line + "\n" for line in
                            (["label,value"] if parts[0] else []) + parts[1]))

GAMMAS = st.sampled_from(["0", "1e-3", "0.5", "3", "50", "1e-300", "1e100", "1e101",
                          "1e308", "-1", "nan", "inf", "x"])
ROTATIONS = st.sampled_from(["1/2", "1/3", "0.25", "1/0", "0.7", "x"])
MODELS = st.sampled_from(["prdrg", "trophic", "kernel"])


def _flags(pool: dict) -> st.SearchStrategy:
    """A list of flag tokens: each flag of ``pool`` at most once, with a
    value drawn from its strategy (None: a bare switch), in any order."""
    def tokens(chosen):
        return st.tuples(*(st.just([flag]) if pool[flag] is None
                           else pool[flag].map(lambda v, f=flag: [f, v])
                           for flag in chosen)).map(lambda parts: sum(parts, []))
    return st.lists(st.sampled_from(sorted(pool)), unique=True, max_size=4).flatmap(tokens)


COMMON = {"--gamma-min": GAMMAS, "--gamma-max": GAMMAS, "--weighted": None,
          "--bogus": st.just("1")}
COMPONENT = {"--component": st.sampled_from(["scc", "wcc", "auto", "all"]),
             "--g-list": st.sampled_from(["1/2,1/3", "1/4", "1/0", ",", "0.5,x"])}

COMMANDS = st.one_of(
    _flags({**COMMON, **COMPONENT}).map(
        lambda flags: ["compare", "--input", "{edges}", "--out-dir", "{out}"] + flags),
    st.tuples(st.sampled_from(["magnetic", "trophic", "other"]),
              _flags({**COMMON, **COMPONENT, "--g": ROTATIONS})).map(
        lambda parts: ["reorder", "--input", "{edges}", "--out-dir", "{out}",
                       "--method", parts[0]] + parts[1]),
    st.tuples(MODELS,
              # sizes are small, or so large that no array can hold the
              # nodes: one between would be allocated
              _flags({"--clusters": st.sampled_from(["1", "2", "3", "0", "-1", "x",
                                                     "9" * 20, "9" * 400]),
                      "--cluster-size": st.sampled_from(["1", "2", "5", "0", "1.5",
                                                         "9" * 20]),
                      "--gamma": GAMMAS, "--g": ROTATIONS,
                      "--noise": st.sampled_from(["0", "0.2", "1e6", "1e75", "1e300",
                                                  "1e308", "-1", "nan"]),
                      "--seed": st.sampled_from(["0", "7", "-1", "9" * 30])})).map(
        lambda parts: ["generate", "--model", parts[0], "--out", "{out}/g.edges"]
        + parts[1]),
    st.tuples(MODELS,
              _flags({**COMMON, "--g": ROTATIONS,
                      "--grid-points": st.sampled_from(["1", "3", "0", "100001",
                                                        "9" * 400])})).map(
        lambda parts: ["curve", "--input", "{edges}", "--attributes", "{attributes}",
                       "--model", parts[0], "--out", "{out}/curve.csv"] + parts[1]),
)

GENERATE = ["generate", "--clusters", "3", "--out", "{out}/g.edges"]
CURVE = ["curve", "--input", "{edges}", "--attributes", "{attributes}",
         "--model", "trophic", "--out", "{out}/curve.csv"]
TROPHIC_EDGES = "a b\nb c\nc a\nc d\n"
TROPHIC_LEVELS = "label,value\na,0\nb,5\nc,10\nd,-5\n"
WIDE_LEVELS = "label,value\na,1e75\nb,-1e75\nc,0\nd,5e74\n"


def _run(argv: list[str]) -> tuple[int, list[str]]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, stderr.getvalue().splitlines()


def _assert_documented(code: int, err: list[str]):
    errors = [line for line in err if line.startswith("error [")]
    assert code in (0, 1, 2, 3), (code, err)
    assert len(errors) == (code != 0), err
    assert not any("Traceback" in line or "RuntimeWarning" in line for line in err), err


class TestCliFuzz:
    # a degeneracy warning is a notice on these tiny graphs, not a failure
    @pytest.mark.filterwarnings("default::dirlap.DegeneracyWarning")
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edges=EDGES, attributes=ATTRIBUTES, argv=COMMANDS)
    # the reproduced faults: generate wrote angles curve refuses, and
    # overflowing noise or decay rates printed RuntimeWarnings
    @example(edges="", attributes="",
             argv=GENERATE + ["--model", "prdrg", "--cluster-size", "4",
                              "--gamma", "3", "--noise", "1e300"])
    @example(edges="", attributes="",
             argv=GENERATE + ["--model", "trophic", "--cluster-size", "2",
                              "--gamma", "0", "--noise", "1e300"])
    @example(edges="", attributes="",
             argv=GENERATE + ["--model", "prdrg", "--cluster-size", "2",
                              "--gamma", "1e308"])
    @example(edges="", attributes="",
             argv=GENERATE + ["--model", "trophic", "--cluster-size", "2",
                              "--gamma", "1e308"])
    @example(edges=TROPHIC_EDGES, attributes=TROPHIC_LEVELS,
             argv=CURVE + ["--gamma-max", "1e308"])
    # a bisection between 1e-300 and a small rate underflowed to gamma = 0
    @example(edges=TROPHIC_EDGES, attributes=WIDE_LEVELS,
             argv=CURVE + ["--gamma-min", "1e-300", "--gamma-max", "1e100"])
    def test_every_run_ends_documented(self, edges, attributes, argv):
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            (folder / "in.edges").write_text(edges, encoding="utf-8")
            (folder / "attributes.csv").write_text(attributes, encoding="utf-8")
            (folder / "out").mkdir()
            paths = {"edges": folder / "in.edges", "attributes": folder / "attributes.csv",
                     "out": folder / "out"}
            argv = [token.format(**paths) for token in argv]
            code, err = _run(argv)
            _assert_documented(code, err)
            if argv[0] == "generate" and code == 0:
                self._curve_reads_generated(argv, folder / "out" / "g.edges")

    @staticmethod
    def _curve_reads_generated(argv: list[str], edges: Path):
        meta = edges.with_name(edges.name + ".meta").read_text()
        rotation = re.search(r"^g = (.*)$", meta, re.MULTILINE)
        model = argv[argv.index("--model") + 1]
        code, err = _run(["curve", "--input", str(edges), "--model", model,
                          "--attributes", str(edges) + ".attributes.csv",
                          "--grid-points", "3", "--out", str(edges.parent / "c.csv")]
                         + (["--g", rotation.group(1)] if rotation else []))
        _assert_documented(code, err)
        assert not any(line.startswith("error [attributes]") for line in err), err
