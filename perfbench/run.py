"""Benchmark for dirlap: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload periodic-1k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the result holds the end-to-end
metrics ``run_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it
holds the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckError  # noqa: E402
from tracing import METRIC_UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 165.0        # a run must end within 180 s

IMPORT_PROBE = ("import time; t = time.perf_counter(); import dirlap.cli; "
                "print(repr(time.perf_counter() - t))")


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: with two, the first dense eigh in each fresh process
    # ran twice as long as the rest, and both threads compete with other load
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env) -> float:
    """Median time for a fresh interpreter to import dirlap."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_round(plan: dict, folder: Path, env, deadline: float) -> tuple[dict, float]:
    """Run one round in a fresh worker; return its result and peak RSS in MB.
    The worker is killed at ``deadline`` (a ``time.monotonic()`` value)."""
    folder.mkdir(parents=True)
    plan_path, result_path = folder / "plan.json", folder / "result.json"
    plan_path.write_text(json.dumps(plan))
    with open(folder / "worker.log", "w") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                 str(plan_path), str(result_path)],
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; "
                           f"see {folder / 'worker.log'}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def run_rounds(ops, traced: bool, seconds: float, folder: Path, env,
               deadline: float) -> tuple[list[dict], float]:
    """Whole rounds of ``ops``, one worker each: another round starts only
    while the rounds so far say it ends within ``seconds``; there is always
    one.  Returns the rounds' results and the largest peak RSS."""
    rounds, peaks = [], []
    started = time.monotonic()
    while True:
        out = folder / f"r{len(rounds)}"
        plan = {"src": str(SRC), "trace": traced,
                "ops": [[a.replace("{out}", str(out / op.name)) for a in op.argv]
                        for op in ops]}
        round_started = time.monotonic()
        result, peak = run_round(plan, out, env, deadline)
        result["wall"] = time.monotonic() - round_started
        rounds.append(result)
        peaks.append(peak)
        typical = statistics.median(r["wall"] for r in rounds)
        if time.monotonic() - started + typical > seconds:
            return rounds, max(peaks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dirlap" / "cli.py").is_file():
        print(f"error: no dirlap sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    # inputs take well under a second to make, so each run makes its own
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        (run_dir / "inputs").mkdir(parents=True)
        ops = WORKLOADS[args.workload](args.seed, run_dir / "inputs", ROOT)
        result = measure(args, ops, program_env(), run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, ops, env, run_dir: Path, deadline: float) -> dict:
    attempted = failed = 0
    correct = True
    outcomes = {}
    for traced in ([False, True] if args.trace else [False]):
        folder = run_dir / ("traced" if traced else "plain")
        rounds, peak_rss_mb = run_rounds(ops, traced, args.seconds, folder, env,
                                         deadline)
        for r, record in enumerate(rounds):
            for op, code in zip(ops, record["codes"]):
                attempted += 1
                problem = f"exit code {code}" if code != 0 else None
                if problem is None:
                    try:
                        op.check(folder / f"r{r}" / op.name)
                    except CheckError as exc:
                        problem = str(exc)
                    except Exception as exc:  # output too malformed to check
                        problem = f"{type(exc).__name__}: {exc}"
                if problem is not None:
                    failed += 1
                    correct &= op.known_fault
                    kind = "known fault" if op.known_fault else "FAILED"
                    print(f"{kind}: {op.name} round {r}: {problem}",
                          file=sys.stderr)
        outcomes[traced] = (rounds, peak_rss_mb)

    def run_s(rounds) -> float:
        return statistics.median(sum(r["times"]) for r in rounds)

    plain, peak_rss_mb = outcomes[False]
    if args.trace:
        traced = outcomes[True][0]
        per_round = [layer_metrics(r["spans"]) for r in traced]
        values = {name: statistics.median(m[name] for m in per_round)
                  for name in per_round[0]}
        values["trace.run_s"] = run_s(traced)
        values["trace.overhead_s"] = run_s(traced) - run_s(plain)
        units = dict(METRIC_UNITS, **{"trace.run_s": "s", "trace.overhead_s": "s"})
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
    else:
        metrics = {
            "run_s": {"value": run_s(plain), "unit": "s"},
            "setup_s": {"value": measure_setup(env), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
