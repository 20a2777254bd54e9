#!/usr/bin/env python3
"""crsail benchmark: whole training runs through the public harness.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pendulum-crsail --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1
    python3 perfbench/run.py --smoke

Each workload is a closed loop: one process runs one training run at a time
(`crsail.harness.run` with workers=1 into a throwaway directory, then
`load_records` and `summarize`). The benchmark seed picks a panel of training
seeds; the panel is run in order, and again from its start, until `--seconds`
have passed. Every run's outputs are checked; a failed check counts the run
as failed and makes the exit code non-zero.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
public functions of each module are timed from outside (see tracer.py) and
the per-layer metrics are printed. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A result file with
provenance is written to perfbench/out/. NOTES.md maps each metric to its
module and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


@dataclass(frozen=True)
class Workload:
    env: str
    strategy: str
    m: int
    max_steps: int       # scaled down from the nominal budget so a run takes seconds
    nominal_steps: int
    panel: int           # training seeds per benchmark seed
    must_converge: bool = False
    strategy_params: dict = field(default_factory=dict)


CRSAIL = {"alpha": 0.93, "k": 5, "backend": "brute"}
WORKLOADS = {
    "pendulum-crsail": Workload("pendulum", "crsail", 500, 2000, 10000, panel=6,
                                must_converge=True, strategy_params=CRSAIL),
    "pusher-crsail": Workload("pusher", "crsail", 2000, 2000, 5000, panel=4,
                              strategy_params=CRSAIL),
    "pusher-ensemble": Workload("pusher", "ensemble-variance", 500, 500, 2000, panel=8,
                                strategy_params={"ensemble_size": 5}),
}
SMOKE_STEPS = 1  # one training episode per run


# CSV column -> episode field; eval values are written with 17 digits, so
# every value must read back exactly.
CSV_FIELDS = {"episode": "episode", "steps_cum": "steps_cum", "queries_episode": "n_queries",
              "queries_cum": "queries_cum", "eval_mean": "eval_mean", "eval_std": "eval_std",
              "converged_flag": "converged_flag"}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class RunResult:
    seed: int
    run_s: float
    setup_s: float
    iter_s: list
    queries: int
    converged: bool
    fingerprint: str


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@dataclass
class Program:
    """The package under test, imported from this checkout."""

    harness: object
    trainer: object
    clock: "SetupClock"


def import_crsail() -> Program:
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "crsail" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no crsail sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crsail.harness as harness
    import crsail.trainer as trainer

    if Path(harness.__file__).resolve().parent != SRC / "crsail":
        raise SystemExit(f"benchmark: crsail imported from {harness.__file__}, not {SRC}")
    return Program(harness, trainer, SetupClock(harness))


def training_seeds(bench_seed: int, count: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(bench_seed).generate_state(count)]


class SetupClock:
    """Stamps entry into `trainer.train`, so set-up time is entry minus run start."""

    def __init__(self, harness):
        self.entered = None
        inner = harness.train

        @functools.wraps(inner)
        def train(*args, **kwargs):
            self.entered = time.perf_counter()
            return inner(*args, **kwargs)

        harness.train = train


def fingerprint(record) -> str:
    return json.dumps({
        "summary": record.summary,
        "threshold": record.threshold,
        "queries": [e.n_queries for e in record.episodes],
    }, sort_keys=True)


def check_outputs(prog: Program, wl: Workload, seed: int, record, outdir, max_steps,
                  must_converge: bool) -> None:
    harness = prog.harness
    loaded = harness.load_records(outdir)  # re-verifies each stored summary
    if len(loaded) != 1 or loaded[0].to_dict() != record.to_dict():
        raise CheckFailed("JSON record does not round-trip")
    base = os.path.join(outdir, harness.run_basename(wl.strategy, wl.m, seed))
    with open(base + ".csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if tuple(reader.fieldnames or ()) != tuple(prog.trainer.CSV_COLUMNS) \
            or not set(CSV_FIELDS) <= set(reader.fieldnames):
        raise CheckFailed(f"CSV columns {reader.fieldnames}")
    if len(rows) != len(record.episodes) or any(
            float(row[col]) != float(getattr(e, attr))
            for row, e in zip(rows, record.episodes) for col, attr in CSV_FIELDS.items()):
        raise CheckFailed("CSV rows do not match the episode series")
    summary = record.summary
    if summary["total_queries"] > summary["total_steps"]:
        raise CheckFailed("more queries than steps")
    if any(e.n_queries > e.length for e in record.episodes):
        raise CheckFailed("an episode has more queries than steps")
    if summary["total_steps"] < max_steps:
        raise CheckFailed("run stopped before its step budget")
    if record.config.get("seed") != seed or record.config.get("m") != wl.m:
        raise CheckFailed("record config does not name the run")
    table = harness.summarize(loaded)
    if (len(table) != 1 or table[0]["runs"] != 1
            or table[0]["total_queries_mean"] != summary["total_queries"]
            or table[0]["convergence_pct"] != (100.0 if summary["converged"] else 0.0)):
        raise CheckFailed(f"summarize disagrees with the record: {table}")
    if must_converge and not summary["converged"]:
        raise CheckFailed("run did not reach expert level")


def one_run(prog: Program, wl: Workload, seed: int, max_steps: int,
            must_converge: bool) -> RunResult:
    harness = prog.harness
    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="runs-", dir=OUT)
    try:
        config = harness.ExperimentConfig(
            env=wl.env, strategy=wl.strategy, seeds=[seed], m_values=[wl.m],
            output_dir=outdir, workers=1, max_steps=max_steps,
            strategy_params=dict(wl.strategy_params),
        )
        prog.clock.entered = None
        t0 = time.perf_counter()
        records, failures = harness.run(config)
        run_s = time.perf_counter() - t0
        if failures:
            raise CheckFailed(failures[0])
        if prog.clock.entered is None:
            raise RuntimeError("the run did not call crsail.harness.train; setup_s is unknown")
        record = records[0]
        check_outputs(prog, wl, seed, record, outdir, max_steps, must_converge)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return RunResult(seed, run_s, prog.clock.entered - t0, [e.wall_time for e in record.episodes],
                     record.summary["total_queries"], bool(record.summary["converged"]),
                     fingerprint(record))


def measure(prog: Program, wl: Workload, bench_seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    max_steps = SMOKE_STEPS if smoke else wl.max_steps
    must_converge = wl.must_converge and not smoke  # one episode is too few to converge
    panel = training_seeds(bench_seed, 1 if smoke else wl.panel)
    results, errors = [], []
    first: dict[int, str] = {}
    tried: list[int] = []
    attempted = failed = 0
    tracer = baseline = after = None

    def attempt(seed):
        nonlocal attempted, failed
        attempted += 1
        tried.append(seed)
        try:
            res = one_run(prog, wl, seed, max_steps, must_converge)
            if first.setdefault(seed, res.fingerprint) != res.fingerprint:
                raise CheckFailed("same seed gave a different run")
            return res
        except Exception as exc:  # a failing run is counted, the benchmark goes on
            failed += 1
            errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            print(f"FAILED seed {seed}:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    start = time.perf_counter()
    if trace:
        # Untraced runs of the first seed before and after the traced ones,
        # for the tracing overhead and as a check that tracing does not
        # change results.
        baseline = attempt(panel[0])
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        i = 0
        while True:
            res = attempt(panel[i % len(panel)])
            if res is not None:
                results.append(res)
            i += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    if trace or len(set(tried)) == len(tried):
        # Also when no seed came round twice: re-run the first one, untimed,
        # so every session checks determinism.
        after = attempt(panel[0])

    out = {"attempted": attempted, "failed": failed, "errors": errors,
           "panel": panel, "runs": [r.__dict__ for r in results]}
    if trace:
        mismatched, by_size = tracer.replay_novelty()
        for run in sorted(mismatched):
            failed += 1
            errors.append(f"traced run {run}: kdtree scores differ from brute force")
        out["failed"] = failed
        layers = tracer.per_layer(by_size)
        first_seed = [r.run_s for r in results if r.seed == panel[0]]
        untraced = [r.run_s for r in (baseline, after) if r is not None]
        # Fastest of each side: the repeats do identical work, so the slower
        # ones only add the host's contention.
        layers["trace_overhead"] = (min(first_seed) / min(untraced)
                                    if untraced and first_seed else 0.0)
        out["per_layer"] = layers
        out["tracer"] = tracer
        out["notes"] = tracer.notes
    out["end_to_end"] = end_to_end(results, attempted, failed)
    return out


def end_to_end(results, attempted, failed) -> dict:
    import numpy as np

    if not results:
        return {}
    iters = np.array([t for r in results for t in r.iter_s])
    first = {}
    for r in results:
        first.setdefault(r.seed, r)
    return {
        "run_s": statistics.median(r.run_s for r in results),
        "setup_s": statistics.median(r.setup_s for r in results),
        "iter_s.p50": float(np.percentile(iters, 50)),
        "iter_s.p95": float(np.percentile(iters, 95)),
        "iter_s.n": len(iters),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "expert_queries": statistics.mean(r.queries for r in first.values()),
        "converged_frac": statistics.mean(float(r.converged) for r in first.values()),
        "error_rate": failed / attempted,
    }


# Printed with the end-to-end metrics but not gated by BENCHMARK.json.
# run_s and iter_s.p50 sit between the fast and slow phases of a shared
# host, so across benchmark seeds they spread by 0.14-0.24 of their median,
# too close to the largest allowed bound; iter_s.p95 lands in the slow phase
# every session and spreads by 0.07-0.13. iter_s.n is the percentiles' sample
# count; expert_queries and converged_frac are fixed by the training seeds
# rather than by speed; error_rate is failed / attempted, 0 when correct.
EXTRA_UNITS = {"run_s": "s", "iter_s.p50": "s", "iter_s.n": "count",
               "expert_queries": "count", "converged_frac": "ratio", "error_rate": "ratio"}


def provenance(bench_seed: int, out: dict, why: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "crsail").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "bench_seed": bench_seed,
        "training_seeds": out["panel"],
        "why": why,
    }


def run_workload(prog: Program, spec: dict, name: str, bench_seed: int, seconds: float,
                 trace: bool, smoke: bool = False) -> dict:
    wl = WORKLOADS[name]
    out = measure(prog, wl, bench_seed, seconds, trace, smoke)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    measured = out["per_layer"] if trace else out["end_to_end"]
    metrics = {k: {"value": measured[k], "unit": u} for k, u in units.items() if k in measured}
    all_units = units if trace else units | EXTRA_UNITS

    print(f"== {name}: {wl.env}/{wl.strategy} M={wl.m} max_steps={wl.max_steps} "
          f"(nominal {wl.nominal_steps}), seed {bench_seed}, {out['attempted']} runs, "
          f"{out['failed']} failed, trace={int(trace)}")
    for key in units if trace else measured:
        if key in measured:
            print(f"  {key:<40} {measured[key]:>16.6g} {all_units[key]}")
    for note in out["errors"]:
        print(f"  error: {note}")
    for note in out.get("notes", []):
        print(f"  note: {note}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{bench_seed}-trace{int(trace)}"
    why = next((w["why"] for w in spec["workloads"] if w["name"] == name), "")
    result_file = {
        "workload": name, "workload_config": wl.__dict__,
        "provenance": provenance(bench_seed, out, why),
        "metrics": {k: {"value": v, "unit": all_units[k]} for k, v in measured.items()},
        "attempted": out["attempted"], "failed": out["failed"], "errors": out["errors"],
        "tracer_notes": out.get("notes", []), "runs": out["runs"],
    }
    if trace:
        out["tracer"].write_spans(f"{stem}-spans.csv")
    with open(f"{stem}.json", "w") as fh:
        json.dump(result_file, fh, indent=1)
        fh.write("\n")
    return {"correct": out["failed"] == 0 and len(metrics) == len(units),
            "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


def smoke(prog: Program, spec: dict) -> int:
    """Every workload, both modes, one short run each: all metrics printed with units."""
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from WORKLOADS", file=sys.stderr)
        return 1
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                result = run_workload(prog, spec, name, 0, 0, trace, smoke=True)
                print(json.dumps(result))
            text = buf.getvalue()
            printed = json.loads(text.strip().splitlines()[-1])
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = printed["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or f" {m['unit']}\n" not in text:
                    problems.append(f"{name} trace={int(trace)}: {m['name']} not printed")
            if not printed["correct"]:
                problems.append(f"{name} trace={int(trace)}: output checks failed")
            print(f"smoke {name} trace={int(trace)}: "
                  f"{len(printed['metrics'])} metrics, correct={printed['correct']}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: every workload at a one-episode budget")
    args = parser.parse_args(argv)
    spec = load_spec()
    prog = import_crsail()
    if args.smoke:
        return smoke(prog, spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(prog, spec, n, args.seed, seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
