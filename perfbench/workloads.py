"""The benchmark's workloads: inputs made from the seed, the ``dirlap``
commands run on them, and the check each command's output must pass.

* ``periodic-1k``: ``compare`` and ``curve`` on one dense pair-model graph,
  where the likelihood layer does most of the work.
* ``sparse-1k``: a magnetic and a trophic ``reorder`` on sparse block
  graphs of n = 1000; no likelihood is evaluated, the dense spectral layer
  dominates.
* ``small-sweep``: ``compare`` on the bundled food web and on twelve small
  planted graphs, where fixed per-call costs dominate, plus one graph whose
  labels need CSV quoting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import Expect, InputGraph
from inputs import Planted, block_graph, edge_list_text, level_model, pair_model

GAMMA_MIN, GAMMA_MAX = 1e-3, 50.0      # dirlap's default decay-rate range
CURVE_POINTS = 64                      # dirlap curve's default grid

# small-sweep members: (model, clusters, cluster size); n runs 100..300 and
# every rotation 1/2 .. 1/6 is planted in some pair-model graph
SMALL_SWEEP = [("pair", 2, 50), ("level", 2, 60), ("pair", 3, 50),
               ("level", 3, 60), ("pair", 4, 50), ("level", 4, 55),
               ("pair", 5, 48), ("level", 5, 50), ("pair", 6, 45),
               ("level", 6, 46), ("pair", 3, 100), ("level", 5, 60)]

# a 3-cycle whose labels hold a comma and a double quote
ODD_LABELS_EDGES = 'a,1 b\nb "q\n"q a,1\n'


@dataclass
class Op:
    name: str
    argv: list[str]                    # for dirlap.cli.main; {out} = output path
    check: Callable[[Path], None]      # raises checks.CheckError
    known_fault: bool = False          # fails until a named program fault is fixed


def _by_label(graph: InputGraph, planted: Planted, values) -> np.ndarray | None:
    if values is None:
        return None
    index = {label: k for k, label in enumerate(planted.labels)}
    return np.asarray(values)[[index[label] for label in graph.labels]]


def write_input(folder: Path, name: str, planted: Planted, seed) -> tuple[Path, InputGraph, Expect]:
    path = folder / f"{name}.edges"
    text = edge_list_text(planted, seed)
    path.write_text(text, encoding="utf-8")
    graph = InputGraph.from_text(text)
    expect = Expect(angles=_by_label(graph, planted, planted.angles),
                    levels=_by_label(graph, planted, planted.levels),
                    blocks=_by_label(graph, planted, planted.blocks))
    return path, graph, expect


def _compare(name: str, path: Path, graph: InputGraph, component: str,
             expect: Expect, known_fault: bool = False) -> Op:
    argv = ["compare", "--input", str(path), "--out-dir", "{out}"]
    if component == "wcc":
        argv += ["--component", "wcc"]
    return Op(name, argv, partial(checks.check_compare, graph=graph,
                                  component=component, expect=expect),
              known_fault)


def periodic_1k(seed: int, folder: Path, root: Path) -> list[Op]:
    planted = pair_model(5, 200, gamma=5.0, noise=0.2, g=1 / 5, seed=[seed, 0])
    path, graph, expect = write_input(folder, "periodic", planted, [seed, 1])
    angles = folder / "periodic_angles.csv"
    angles.write_text("label,value\n" + "".join(
        f"{label},{float(a)!r}\n" for label, a in zip(planted.labels, planted.angles)))
    expect.verdict, expect.g_label = "periodic", "1/5"
    curve = Op("curve", ["curve", "--input", str(path), "--model", "prdrg",
                         "--g", "1/5", "--attributes", str(angles),
                         "--out", "{out}/curve.csv"],
               lambda out: checks.check_curve(out / "curve.csv", graph,
                                              expect.angles, 1 / 5, GAMMA_MIN,
                                              GAMMA_MAX, CURVE_POINTS))
    return [_compare("compare", path, graph, "scc", expect), curve]


def sparse_1k(seed: int, folder: Path, root: Path) -> list[Op]:
    ops = []
    for k, (method, cyclic, component) in enumerate(
            [("magnetic", True, "scc"), ("trophic", False, "wcc")]):
        planted = block_graph(5, 200, out_degree=8.0, forward_share=0.85,
                              cyclic=cyclic, seed=[seed, 2 * k])
        path, graph, expect = write_input(folder, method, planted, [seed, 2 * k + 1])
        argv = ["reorder", "--input", str(path), "--method", method,
                "--out-dir", "{out}"]
        argv += ["--g", "1/5"] if method == "magnetic" else ["--component", "wcc"]
        ops.append(Op(f"reorder-{method}", argv,
                      partial(checks.check_reorder, graph=graph,
                              component=component, method=method,
                              expect=expect)))
    return ops


def small_sweep(seed: int, folder: Path, root: Path) -> list[Op]:
    food_web = root / "tests" / "fixtures" / "food_web_scc.edges"
    graph = InputGraph.from_text(food_web.read_text(encoding="utf-8"))
    # the fixture's documented structure: three groups feeding round a cycle
    ops = [_compare("food-web", food_web, graph, "scc",
                    Expect(verdict="periodic", g_label="1/3"))]
    for k, (model, clusters, size) in enumerate(SMALL_SWEEP):
        if model == "pair":
            planted = pair_model(clusters, size, gamma=5.0, noise=0.2,
                                 g=1 / clusters, seed=[seed, 10 + k])
        else:
            planted = level_model(clusters, size, gamma=5.0, noise=0.2,
                                  seed=[seed, 10 + k])
        name = f"{model}-{clusters}x{size}"
        path, graph, expect = write_input(folder, name, planted, [seed, 40 + k])
        if model == "pair":
            expect.verdict, expect.g_label = "periodic", f"1/{clusters}"
        else:
            expect.verdict = "linear"
        ops.append(_compare(name, path, graph, "scc" if model == "pair" else "wcc",
                            expect))
    odd = folder / "odd_labels.edges"
    odd.write_text(ODD_LABELS_EDGES, encoding="utf-8")
    ops.append(_compare("odd-labels", odd, InputGraph.from_text(ODD_LABELS_EDGES),
                        "scc", Expect(), known_fault=True))
    return ops


WORKLOADS = {"periodic-1k": periodic_1k, "sparse-1k": sparse_1k,
             "small-sweep": small_sweep}
