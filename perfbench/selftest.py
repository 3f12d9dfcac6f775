"""Self-test of the output checks: each must pass the program's real output
and reject a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Runs small versions of every command the workloads use, then applies one
corruption at a time and expects a CheckError.  Exits 1 if any check lets
a corruption through or rejects a real output.
"""

from __future__ import annotations

import csv
import io
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from checks import CheckError, Expect
from run import SRC, WORK, program_env
from workloads import ODD_LABELS_EDGES, write_input
from inputs import block_graph, level_model, pair_model


def rows_of(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def write_rows(path: Path, rows: list[list[str]]):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    path.write_text(buffer.getvalue())


def edit_report(key: str, change):
    """Apply ``change`` to the value of ``section.name`` in report.txt."""
    section, name = key.split(".", 1)

    def corrupt(out: Path):
        lines, current = [], ""
        for line in (out / "report.txt").read_text().splitlines():
            if line.startswith("["):
                current = line[1:-1]
            elif current == section and line.startswith(f"{name} = "):
                line = f"{name} = {change(line.split(' = ', 1)[1])}"
            lines.append(line)
        (out / "report.txt").write_text("\n".join(lines) + "\n")
    return corrupt


def edit_csv(name: str, change):
    def corrupt(out: Path):
        path = out / name
        rows = rows_of(path)
        write_rows(path, [rows[0]] + change(rows[1:]))
    return corrupt


def rotate_column(rows, column=1):
    values = [r[column] for r in rows]
    values = values[1:] + values[:1]
    return [r[:column] + [v] + r[column + 1:] for r, v in zip(rows, values)]


def scale(factor):
    return lambda text: repr(float(text) * factor)


def permute_ordering(out: Path):
    """A consistent but unstructured ordering: both files agree."""
    order_rows = rows_of(out / "ordering.csv")
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(order_rows) - 1)
    order_rows = [order_rows[0]] + [[label, str(perm[int(rank)])]
                                    for label, rank in order_rows[1:]]
    write_rows(out / "ordering.csv", order_rows)
    adj = rows_of(out / "reordered_adjacency.csv")
    write_rows(out / "reordered_adjacency.csv",
               [adj[0]] + [[str(perm[int(r)]), str(perm[int(c)]), v]
                           for r, c, v in adj[1:]])


def move_mark(rows):
    k = next(i for i, r in enumerate(rows) if r[2] == "1")
    rows[k][2], rows[(k + 3) % len(rows)][2] = "0", "1"
    return rows


def perturb_top(rows):
    k = int(np.argmax([float(r[1]) for r in rows]))
    rows[k][1] = "%.5e" % (float(rows[k][1]) * (1 + 1e-3))
    return rows


def swap_ranks(rows):
    rows[0][1], rows[1][1] = rows[1][1], rows[0][1]
    return rows


def unquoted_label(rows):
    # what an unquoted label holding a comma reads back as
    return [[rows[0][0], "x", rows[0][1]]] + rows[1:]


def set_ratio(out: Path, ratio: float):
    text = "%.5e" % ratio
    edit_report("comparison.log_likelihood_ratio", lambda _: text)(out)
    edit_csv("summary.csv", lambda rows: [rows[0][:4] + [text]])(out)


def ratio_off(out: Path):
    """Ratio changed in report.txt and summary.csv alike."""
    ratio = float(checks.read_report(out / "report.txt")
                  ["comparison.log_likelihood_ratio"])
    set_ratio(out, ratio * (1 + 1e-4))


COMPARE_CORRUPTIONS = {
    "phases shuffled": edit_csv("phases.csv", rotate_column),
    "levels shuffled": edit_csv("levels.csv", rotate_column),
    "label split by a comma": edit_csv("levels.csv", unquoted_label),
    "pair loglik off by 1e-4": edit_report("magnetic.loglik", scale(1 + 1e-4)),
    "level loglik off by 1e-4": edit_report("trophic.loglik", scale(1 + 1e-4)),
    "ratio off by 1e-4": ratio_off,
    "level gamma off by 2%": edit_report("trophic.gamma_mle", scale(1.02)),
    "pair gamma off by 2%": edit_report("magnetic.gamma_mle", scale(1.02)),
    "verdict flipped": edit_report(
        "comparison.verdict",
        lambda v: "linear" if v == "periodic" else "periodic"),
    "summary nodes off": edit_csv(
        "summary.csv", lambda rows: [[rows[0][0], str(int(rows[0][1]) + 1)]
                                     + rows[0][2:]]),
}


def compare_corruptions(graph, component) -> dict:
    """Add one that needs the input: the level model's gamma moved 2% off
    its maximum, with the log-likelihood and ratio rewritten to match, so
    only the maximality check can object."""
    def level_gamma_off_maximum(out: Path):
        report = checks.read_report(out / "report.txt")
        nodes = graph.largest_component(component)
        labels = [graph.labels[k] for k in nodes]
        h = np.array([float(v) for _, v in checks.read_by_label(
            out / "levels.csv", ["label", "value"], labels)])
        src, dst = graph.induced(nodes)
        gamma = float(report["trophic.gamma_mle"]) * 1.02
        value = checks.LevelLoglik(len(nodes), src, dst, h)(gamma)
        ratio = float(report["magnetic.loglik"]) - value
        edit_report("trophic.gamma_mle", lambda _: repr(gamma))(out)
        edit_report("trophic.loglik", lambda _: repr(value))(out)
        set_ratio(out, ratio)
    return dict(COMPARE_CORRUPTIONS,
                **{"level gamma off its maximum": level_gamma_off_maximum})


def wrong_expectations(expect: Expect) -> dict:
    """Real output, planted structure misstated: the structure checks must
    object."""
    wrong = {}
    if expect.verdict is not None:
        wrong["planted verdict changed"] = replace(
            expect, verdict="linear" if expect.verdict == "periodic" else "periodic")
    if expect.g_label is not None:
        wrong["planted rotation changed"] = replace(expect, g_label="1/7")
    if expect.angles is not None:
        wrong["planted angles shuffled"] = replace(
            expect, angles=np.random.default_rng(0).permutation(expect.angles))
    if expect.levels is not None:
        wrong["planted levels shuffled"] = replace(
            expect, levels=np.random.default_rng(0).permutation(expect.levels))
    return wrong


REORDER_CORRUPTIONS = {
    "two ranks swapped": edit_csv("ordering.csv", swap_ranks),
    "an edge dropped": edit_csv("reordered_adjacency.csv", lambda rows: rows[1:]),
    "ordering without structure": permute_ordering,
}

CURVE_CORRUPTIONS = {
    "mle mark moved": edit_csv("curve.csv", move_mark),
    "top value off by 1e-3": edit_csv("curve.csv", perturb_top),
    "row dropped": edit_csv("curve.csv", lambda rows: rows[:-1]),
}


def dirlap(*argv):
    done = subprocess.run([sys.executable, "-m", "dirlap.cli", *map(str, argv)],
                          env=program_env(), capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"dirlap {argv[0]} failed: {done.stderr}")


def expect_all(name: str, out: Path, check, corruptions) -> int:
    failures = 0
    try:
        check(out)
        print(f"PASS {name}: real output accepted")
    except CheckError as exc:
        print(f"FAIL {name}: real output rejected: {exc}")
        failures += 1
    for label, corrupt in corruptions.items():
        copy = out.with_name(out.name + "-corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        corrupt(copy)
        try:
            check(copy)
            print(f"FAIL {name}: {label}: accepted")
            failures += 1
        except CheckError as exc:
            print(f"PASS {name}: {label}: rejected ({exc})")
    return failures


def expect_reject(name: str, check) -> int:
    try:
        check()
    except CheckError as exc:
        print(f"PASS {name}: rejected ({exc})")
        return 0
    print(f"FAIL {name}: accepted")
    return 1


def main() -> int:
    if not (SRC / "dirlap" / "cli.py").is_file():
        print(f"error: no dirlap sources under {SRC}", file=sys.stderr)
        return 2
    folder = WORK / "selftest"
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    failures = 0
    try:
        for name, planted, component in [
                ("compare pair", pair_model(3, 40, 5.0, 0.2, 1 / 3, 0), "scc"),
                ("compare level", level_model(3, 40, 5.0, 0.2, 1), "wcc")]:
            path, graph, expect = write_input(folder, name.split()[1], planted, 2)
            if planted.angles is not None:
                expect.verdict, expect.g_label = "periodic", "1/3"
            else:
                expect.verdict = "linear"
            out = folder / f"out-{name.split()[1]}"
            dirlap("compare", "--input", path, "--component", component,
                   "--out-dir", out)
            failures += expect_all(
                name, out, lambda o: checks.check_compare(o, graph, component, expect),
                compare_corruptions(graph, component))
            for label, wrong in wrong_expectations(expect).items():
                failures += expect_reject(
                    f"{name}: {label}",
                    lambda: checks.check_compare(out, graph, component, wrong))

        for method, cyclic, component in [("magnetic", True, "scc"),
                                          ("trophic", False, "wcc")]:
            path, graph, expect = write_input(
                folder, method, block_graph(5, 60, 8.0, 0.85, cyclic, 3), 4)
            out = folder / f"out-{method}"
            extra = ["--g", "1/5"] if cyclic else []
            dirlap("reorder", "--input", path, "--method", method,
                   "--component", component, *extra, "--out-dir", out)
            failures += expect_all(
                f"reorder {method}", out,
                lambda o: checks.check_reorder(o, graph, component, method, expect),
                REORDER_CORRUPTIONS)

        planted = pair_model(3, 40, 5.0, 0.2, 1 / 3, 5)
        path, graph, expect = write_input(folder, "curve", planted, 6)
        angles = folder / "angles.csv"
        write_rows(angles, [["label", "value"]] + [
            [label, repr(float(a))] for label, a in zip(planted.labels, planted.angles)])
        out = folder / "out-curve"
        dirlap("curve", "--input", path, "--model", "prdrg", "--g", "1/3",
               "--attributes", angles, "--out", out / "curve.csv")
        failures += expect_all(
            "curve", out,
            lambda o: checks.check_curve(o / "curve.csv", graph, expect.angles,
                                         1 / 3, 1e-3, 50.0, 64),
            CURVE_CORRUPTIONS)

        # the odd-label graph is rejected while labels go out unquoted
        odd = folder / "odd.edges"
        odd.write_text(ODD_LABELS_EDGES)
        out = folder / "out-odd"
        dirlap("compare", "--input", odd, "--out-dir", out)
        try:
            checks.check_compare(out, checks.InputGraph.from_text(ODD_LABELS_EDGES),
                                 "scc", Expect())
            print("NOTE odd labels: accepted (CSV quoting is fixed)")
        except CheckError as exc:
            print(f"NOTE odd labels: rejected ({exc})")
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    print(f"{failures} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
