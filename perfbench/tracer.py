"""Outside-in tracing of crsail's public functions.

The tracer replaces each traced function by a timing wrapper in every place
that looks it up (the importing module's global, or the class attribute for
methods), so no file of the package changes. Coarse calls (one or a few per
episode) are stored as spans ``(name, start, end, parent, self_s)``. Per-step
calls run tens of thousands of times per training run, so they are only
aggregated, to keep the overhead low: leaf calls (``envs.step``,
``policy.forward``, ...) as a call count and total time, and ``policy.act``,
which only wraps ``policy.forward``, as a call count. Self time is a call's
duration minus the time its traced children cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import replace

import numpy as np

# Index-size buckets for the novelty backend comparison: (label, upper bound).
NOVELTY_BUCKETS = (("lt1k", 1024), ("1k-2k", 2048), ("2k-4k", 4096), ("ge4k", None))

# Span name -> list of (module, attribute) places where callers look it up.
SPANS = {
    "harness.run": [("crsail.harness", "run")],
    "harness.run_single": [("crsail.harness", "run_single")],
    "harness.load_records": [("crsail.harness", "load_records")],
    "harness.summarize": [("crsail.harness", "summarize")],
    "harness.save_json": [("crsail.trainer.RunRecord", "save_json")],
    "harness.save_csv": [("crsail.trainer.RunRecord", "save_csv")],
    "trainer.train": [("crsail.harness", "train")],
    "trainer.build_initial_dataset": [("crsail.harness", "build_initial_dataset")],
    "core.evaluate_policy": [("crsail.harness", "evaluate_policy"),
                             ("crsail.trainer", "evaluate_policy")],
    "core.rollout": [("crsail.core", "rollout"), ("crsail.trainer", "rollout"),
                     ("crsail.conformal", "rollout")],
    "policy.behavioral_cloning": [("crsail.harness", "behavioral_cloning"),
                                  ("crsail.trainer", "behavioral_cloning"),
                                  ("crsail.policy", "behavioral_cloning")],
    "policy.update": [("crsail.trainer", "update")],
    "novelty.score_batch": [("crsail.conformal", "score_batch"),
                            ("crsail.strategies", "score_batch")],
    "conformal.calibrate_radius": [("crsail.harness", "calibrate_radius"),
                                   ("crsail.trainer", "calibrate_radius")],
    "conformal.collect_calibration": [("crsail.conformal", "collect_calibration")],
    "strategies.select_queries": [("crsail.trainer", "select_queries")],
    "strategies.label_queries": [("crsail.trainer", "label_queries")],
}

# Per-step leaf calls, timed in aggregate. Environment classes are those in
# crsail.envs with a `step`; expert classes are the other ones with an `act`.
LEAVES = {
    "policy.forward": [("crsail.policy.MLPPolicy", "forward")],
    "dataset.append": [("crsail.dataset.ExpertDataset", "append")],
}
COUNTED = {"policy.act": [("crsail.policy.MLPPolicy", "act")]}


def _resolve(path: str):
    """The imported module, or class inside one, named by a dotted path; else None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        obj = sys.modules.get(".".join(parts[:cut]))
        if obj is not None:
            for attr in parts[cut:]:
                obj = getattr(obj, attr, None)
            return obj
    return None


def _env_sites():
    envs = sys.modules.get("crsail.envs")
    steps, experts = [], []
    for obj in vars(envs).values() if envs is not None else ():
        if inspect.isclass(obj) and obj.__module__ == envs.__name__:
            if "step" in vars(obj):
                steps.append((obj, "step"))
            elif "act" in vars(obj):
                experts.append((obj, "act"))
    return {"envs.step": steps, "envs.expert_act": experts}


class Tracer:
    """Collects spans and per-step aggregates while installed."""

    def __init__(self):
        self.spans: list = []            # (name, start, end, parent, self_s, run)
        self.aggregates: dict = {}       # name -> [calls, total_s]
        self.counts: dict = {}           # name -> number
        self.novelty_calls: list = []    # captured score_batch inputs and outputs
        self.runs = 0
        self.notes: list = []            # sites not found, counters that failed
        self._stack: list = [[0.0, None]]
        self._undo: list = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for name, sites in SPANS.items():
            for owner, attr in sites:
                self._patch(_resolve(owner), attr, self._span_wrapper(name))
        leaves = {name: [(_resolve(o), a) for o, a in s] for name, s in LEAVES.items()}
        leaves.update(_env_sites())
        for name, pairs in leaves.items():
            for owner, attr in pairs:
                self._patch(owner, attr, self._leaf_wrapper(name))
        for name, sites in COUNTED.items():
            for owner, attr in sites:
                self._patch(_resolve(owner), attr, self._count_wrapper(name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, make_wrapper) -> None:
        # A site the package no longer has is skipped and noted, so a refactor
        # leaves a layer's metrics at 0 instead of breaking the traced run.
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.notes.append(f"not traced: {getattr(owner, '__name__', '?')}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    # -- wrappers -----------------------------------------------------------
    def _span_wrapper(self, name):
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)

        def make(fn):
            signature = inspect.signature(fn)
            spans, stack = self.spans, self._stack

            def wrapper(*args, **kwargs):
                parent = stack[-1][1]
                idx = len(spans)
                spans.append(None)
                frame = [0.0, idx]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    stack[-1][0] += t1 - t0
                    spans[idx] = (name, t0, t1, parent, t1 - t0 - frame[0], self.runs)
                if on_return is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        on_return(bound.arguments, result, t1 - t0)
                    except (AttributeError, KeyError, TypeError) as exc:
                        # A changed signature must not change the program's result.
                        note = f"counter for {name} failed: {type(exc).__name__}: {exc}"
                        if note not in self.notes:
                            self.notes.append(note)
                return result

            return wrapper

        return make

    def _leaf_wrapper(self, name):
        acc = self.aggregates.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack[-1][0] += dt
                    acc[0] += 1
                    acc[1] += dt

            return wrapper

        return make

    def _count_wrapper(self, name):
        acc = self.aggregates.setdefault(name, [0, 0.0])

        def make(fn):
            def wrapper(*args, **kwargs):
                acc[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- counters read from arguments and results ---------------------------
    def _count(self, name, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _on_harness_run_single(self, args, result, duration) -> None:
        self.runs += 1

    def _on_trainer_train(self, args, result, duration) -> None:
        record = result[1]
        self._count("trainer.iterations", len(record.episodes))
        self._count("dataset.rows_final", len(args["dataset"]) + record.summary["total_queries"])

    def _on_policy_behavioral_cloning(self, args, result, duration) -> None:
        self._count("policy.sgd_rows", args["config"].bc_epochs * len(args["dataset"]))

    def _on_policy_update(self, args, result, duration) -> None:
        config = args["config"]
        if not config.retrain_from_scratch:  # otherwise the inner cloning call counts
            epochs = args["epochs"] or config.update_epochs
            self._count("policy.sgd_rows", epochs * len(args["dataset"]))

    def _on_novelty_score_batch(self, args, result, duration) -> None:
        states = np.asarray(args["states"], dtype=np.float64)
        dataset = args["dataset"]
        self._count("novelty.pairs", len(states) * len(dataset) if states.size else 0)
        self.novelty_calls.append((self.runs, states, dataset.states, dataset.actions,
                                   dataset.standardizer, args["config"], result, duration))

    def _on_conformal_calibrate_radius(self, args, result, duration) -> None:
        self._count("conformal.n_cal", result.n_cal)

    def _on_strategies_select_queries(self, args, result, duration) -> None:
        self._count("strategies.visited", args["trajectory"].length)

    def _on_strategies_label_queries(self, args, result, duration) -> None:
        self._count("strategies.labels", len(args["queries"]))

    # -- replay and reduction ----------------------------------------------
    def replay_novelty(self) -> tuple[set, dict]:
        """Re-score every captured call with the kdtree backend.

        Returns the run indices whose results were not bit-equal and the
        per-backend self time by index-size bucket.
        """
        from crsail.dataset import ExpertDataset
        from crsail.novelty import score_batch

        mismatched_runs = set()
        by_size = {(b, label): 0.0 for b in ("brute", "kdtree") for label, _ in NOVELTY_BUCKETS}
        for run, states, points, actions, standardizer, config, result, duration in \
                self.novelty_calls:
            dataset = ExpertDataset(points, actions, standardizer)
            label = _bucket(len(points))
            t0 = time.perf_counter()
            other = score_batch(states, dataset, replace(config, backend="kdtree"))
            by_size[("kdtree", label)] += time.perf_counter() - t0
            by_size[(config.backend, label)] += duration
            if other.dtype != result.dtype or other.tobytes() != result.tobytes():
                mismatched_runs.add(run)
        return mismatched_runs, by_size

    def _span_table(self) -> dict:
        table = {}
        for name, t0, t1, _parent, self_s, _run in self.spans:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += self_s
        return table

    def _outermost_s(self, names, within=None) -> float:
        """Duration of `names` spans not nested in another of `names`.

        With `within`, only spans that run inside a `within` span count.
        """
        total = 0.0
        for name, t0, t1, parent, _self_s, _run in self.spans:
            if name not in names:
                continue
            inside = within is None
            while parent is not None and self.spans[parent][0] not in names:
                inside = inside or self.spans[parent][0] == within
                parent = self.spans[parent][3]
            if parent is None and inside:
                total += t1 - t0
        return total

    def per_layer(self, by_size: dict) -> dict:
        """Per-layer metrics as means per traced training run, plus ratios."""
        runs = max(self.runs, 1)
        spans = self._span_table()

        def span(name, col):
            return spans.get(name, [0, 0.0, 0.0])[col]

        def agg(name, col):
            return self.aggregates.get(name, [0, 0.0])[col]

        count = self.counts.get
        train_s = span("trainer.train", 1)
        novelty_s = span("novelty.score_batch", 1)
        sgd_s = self._outermost_s({"policy.behavioral_cloning", "policy.update"})

        def share(names):
            return self._outermost_s(names, "trainer.train") / train_s if train_s else 0.0

        per_run = {
            "envs.step.calls": agg("envs.step", 0),
            "envs.step.self_s": agg("envs.step", 1),
            "envs.expert_act.calls": agg("envs.expert_act", 0),
            "core.rollout.calls": span("core.rollout", 0),
            "core.rollout.self_s": span("core.rollout", 2),
            "core.evaluate_policy.total_s": span("core.evaluate_policy", 1),
            "policy.act.calls": agg("policy.act", 0),
            "policy.forward.self_s": agg("policy.forward", 1),
            "policy.update.total_s": span("policy.update", 1),
            "policy.behavioral_cloning.total_s": span("policy.behavioral_cloning", 1),
            "policy.sgd_rows": count("policy.sgd_rows", 0),
            "novelty.score_batch.calls": span("novelty.score_batch", 0),
            "novelty.score_batch.self_s": span("novelty.score_batch", 2),
            "novelty.pairs": count("novelty.pairs", 0),
            "conformal.calibrate_radius.total_s": span("conformal.calibrate_radius", 1),
            "conformal.n_cal": count("conformal.n_cal", 0),
            "strategies.select_queries.total_s": span("strategies.select_queries", 1),
            "strategies.label_queries.total_s": span("strategies.label_queries", 1),
            "dataset.append.calls": agg("dataset.append", 0),
            "dataset.append.self_s": agg("dataset.append", 1),
            "dataset.rows_final": count("dataset.rows_final", 0),
            "trainer.train.self_s": span("trainer.train", 2),
            "trainer.iterations": count("trainer.iterations", 0),
            "harness.persist_s": span("harness.save_json", 1) + span("harness.save_csv", 1),
            "harness.summarize_s": span("harness.summarize", 1),
        }
        for (backend, label), seconds in by_size.items():
            per_run[f"novelty.{backend}.self_s.{label}"] = seconds
        for backend in ("brute", "kdtree"):
            per_run[f"novelty.{backend}.self_s"] = sum(
                s for (b, _), s in by_size.items() if b == backend)
        metrics = {name: value / runs for name, value in per_run.items()}

        visited = count("strategies.visited", 0)
        metrics.update({
            "policy.sgd_rows_per_s": count("policy.sgd_rows", 0) / sgd_s if sgd_s else 0.0,
            "novelty.pairs_per_s": count("novelty.pairs", 0) / novelty_s if novelty_s else 0.0,
            "strategies.query_frac": count("strategies.labels", 0) / visited if visited else 0.0,
            "core.eval_share": share({"core.evaluate_policy"}),
            "trainer.rollout_share": share({"core.rollout"}),
            "trainer.bc_share": share({"policy.behavioral_cloning"}),
            "trainer.update_novelty_share": share({"policy.update", "novelty.score_batch"}),
        })
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,run,name,start_s,end_s,parent,self_s\n")
            for i, (name, t0, t1, parent, self_s, run) in enumerate(self.spans):
                fh.write(f"{i},{run},{name},{t0:.9f},{t1:.9f},"
                         f"{'' if parent is None else parent},{self_s:.9f}\n")


def _bucket(size: int) -> str:
    return next(label for label, upper in NOVELTY_BUCKETS if upper is None or size < upper)
