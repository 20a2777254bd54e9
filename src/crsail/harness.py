"""Configuration-driven experiment runner.

Config files are flat INI-style key=value text with one section per module.
The sections, keys and defaults are the dataclass fields: `ExperimentConfig`
for [experiment], [conformal] and [budget]; `StrategyConfig` (all but `kind`)
for [strategy]; `TrainConfig` for [train]; [env] is passed to the environment.
Each value is parsed by the type of its field.
Every run embeds its fully resolved config snapshot, so any output is
reproducible from its own header.
"""

from __future__ import annotations

import configparser
import math
import os
import traceback
import warnings
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from crsail.conformal import calibrate_radius
from crsail.core import evaluate_policy
from crsail.envs import make_env, make_expert
from crsail.exceptions import ConfigurationError
from crsail.policy import TrainConfig, behavioral_cloning
from crsail.strategies import StrategyConfig
from crsail.trainer import Budget, RunRecord, build_initial_dataset, train, write_csv

GRID_ONLY = ("seeds", "m_values", "output_dir", "workers")  # not part of a run's snapshot


def _convert(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


# field type -> (the types its values may take, what an error says a value must be)
_TYPES = {"list[int]": ((int,), "integers"), "int": ((int,), "an integer"),
          "float": ((int, float), "a number"), "bool": ((bool,), "true or false")}


def parse_value(key: str, kind: str, text: str):
    """The value of `key` (a config key section.key, or a sweep axis) by its field's type,
    read as `_convert` reads it, so an integer literal in a float field stays an int."""
    text = text.strip()
    if kind == "str":
        return text
    if kind == "int | None" and text == "":
        return None
    listed = kind == "list[int]"
    values = [_convert(tok) for tok in text.split(",") if tok.strip() != ""] if listed \
        else [_convert(text)]
    allowed, expected = _TYPES[kind.removesuffix(" | None")]
    if not all(type(v) in allowed for v in values):
        raise ConfigurationError(f"{key}: expected {expected}, got {text!r}")
    return values if listed else values[0]


def _format(value) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    return "" if value is None else str(value)


def _keys(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.name != "kind"]  # kind is [experiment] strategy


def _values(obj) -> dict:
    return {name: getattr(obj, name) for name in _keys(type(obj))}


def _section(name: str, typed=None, **kwargs):
    """A field held in section `name`; a dict field's values take `typed`'s field types."""
    return field(metadata={"section": name, "typed": typed}, **kwargs)


@dataclass
class ExperimentConfig:
    """One (M, seed) grid. Scalar fields are keys of their section (default
    [experiment]); each dict field holds a whole section. The strategy and
    train parameters are resolved against their dataclass defaults."""

    env: str = ""
    strategy: str = ""
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    m_values: list[int] = field(default_factory=lambda: [250, 500, 1000, 2000])
    output_dir: str = "runs"
    workers: int = 1
    eval_episodes: int = 20
    env_overrides: dict = _section("env", default_factory=dict)
    strategy_params: dict = _section("strategy", StrategyConfig, default_factory=dict)
    train_params: dict = _section("train", TrainConfig, default_factory=dict)
    m_cal: int = _section("conformal", default=30)
    recalibrate_every: int = _section("conformal", default=0)
    max_steps: int | None = _section("budget", default=10000)
    max_queries: int | None = _section("budget", default=None)

    def __post_init__(self):
        if not self.env:
            raise ConfigurationError("config must set experiment.env")
        if not self.strategy:
            raise ConfigurationError("config must set experiment.strategy")
        # episode counts of every run, the process count, the recalibration period
        for name, low in (("eval_episodes", 1), ("m_cal", 1), ("workers", 1),
                          ("recalibrate_every", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name, low in (("seeds", 0), ("m_values", 1)):  # the grid's axes
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"{name} must not be empty")
            if min(values) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {min(values)}")
        unknown = [f"strategy.{key}" for key in self.strategy_params
                   if key not in _keys(StrategyConfig)]
        unknown += [f"train.{key}" for key in self.train_params if key not in _keys(TrainConfig)]
        if unknown:
            raise ConfigurationError(f"unknown config key {unknown[0]}")
        # fail fast on an invalid strategy, training, budget or env before any run starts
        self.strategy_params = _values(self.make_strategy_config())
        self.train_params = _values(self.make_train_config())
        Budget(max_queries=self.max_queries, max_steps=self.max_steps)
        make_env(self.env, **self.env_overrides)

    @classmethod
    def from_parser(cls, parser: configparser.ConfigParser) -> "ExperimentConfig":
        kwargs: dict = {}
        layout = cls._layout()
        for section in parser.sections():
            if section not in layout:
                raise ConfigurationError(f"unknown config section [{section}]")
            holder = layout[section][0]
            if holder.type == "dict":  # the field holds the whole section
                typed = holder.metadata["typed"]
                types = {f.name: f.type for f in fields(typed)} if typed else {}
                values = kwargs.setdefault(holder.name, {})
            else:
                types, values = {f.name: f.type for f in layout[section]}, kwargs
            for key, val in parser.items(section):
                if holder.type == "dict" and val.strip() == "":
                    continue  # an empty value keeps the default
                if key in types:
                    values[key] = parse_value(f"{section}.{key}", types[key], val)
                elif holder.type == "dict":  # an [env] key, or one __post_init__ rejects
                    values[key] = _convert(val)
                else:
                    raise ConfigurationError(f"unknown config key {section}.{key}")
        return cls(**kwargs)

    @classmethod
    def _layout(cls) -> dict[str, list]:
        """INI section -> the fields it holds; a dict field holds a whole section."""
        layout: dict[str, list] = {}
        for f in fields(cls):
            layout.setdefault(f.metadata.get("section", "experiment"), []).append(f)
        return layout

    @classmethod
    def from_file(cls, path, overrides: list[str] | None = None) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigurationError(f"config file not found: {path}")
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigurationError(f"override must look like section.key=value: {item!r}")
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section.strip(), key.strip(), value.strip())
        return cls.from_parser(parser)

    def make_strategy_config(self) -> StrategyConfig:
        return StrategyConfig(kind=self.strategy, **self.strategy_params)

    def make_train_config(self) -> TrainConfig:
        return TrainConfig(**self.train_params)

    def resolved_text(self) -> str:
        """Fully resolved config in the same INI format it was read from."""
        lines = []
        for section, group in self._layout().items():
            if group[0].type == "dict":
                body = getattr(self, group[0].name)
            else:
                body = {f.name: getattr(self, f.name) for f in group}
            lines += [f"[{section}]", *(f"{k} = {_format(v)}" for k, v in body.items()), ""]
        return "\n".join(lines)

    def snapshot(self, m: int, seed: int) -> dict:
        """The per-run part of the config, as embedded in its run record."""
        snap = {k: v for k, v in asdict(self).items() if k not in GRID_ONLY}
        return {**snap, "alpha": self.strategy_params["alpha"], "m": m, "seed": seed}


def run_basename(strategy: str, m: int, seed: int) -> str:
    return f"{strategy}_M{m}_seed{seed}"


def run_single(config: ExperimentConfig, m: int, seed: int) -> RunRecord:
    """One fully seeded run: dataset, cloning, calibration, training."""
    env = make_env(config.env, **config.env_overrides)
    expert = make_expert(env)
    train_config = config.make_train_config()
    strategy = config.make_strategy_config()

    expert_mean, _ = evaluate_policy(env, expert, config.eval_episodes, (seed, 101))
    dataset = build_initial_dataset(env, expert, m, (seed, 102))
    policy = behavioral_cloning(dataset, train_config, np.random.default_rng(seed))
    threshold = None
    if strategy.kind == "crsail":
        threshold = calibrate_radius(env, policy, dataset, strategy, config.m_cal, (seed, 103))
    budget = Budget(max_queries=config.max_queries, max_steps=config.max_steps)
    _, record = train(
        env, expert, dataset, policy, strategy, budget, train_config, (seed, 104),
        threshold=threshold, expert_mean=expert_mean, eval_episodes=config.eval_episodes,
        recalibrate_every=config.recalibrate_every, m_cal=config.m_cal,
        run_config=config.snapshot(m, seed),
    )
    return record


def _run_and_persist(config: ExperimentConfig, m: int, seed: int) -> RunRecord:
    record = run_single(config, m, seed)
    os.makedirs(config.output_dir, exist_ok=True)
    base = os.path.join(config.output_dir, run_basename(config.strategy, m, seed))
    record.save_json(base + ".json")
    record.save_csv(base + ".csv")
    return record


class _InProcess(Executor):
    """Runs each job when it is submitted, in this process."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def run(config: ExperimentConfig) -> tuple[list[RunRecord], list[str]]:
    """Execute the (M, seed) grid; returns completed records and failure notes.

    A failed run leaves a note with its traceback; a worker's traceback
    arrives as the exception's cause, which `format_exc` prints too.
    """
    jobs = [(m, seed) for m in config.m_values for seed in config.seeds]
    records, failures = [], []
    pool = ProcessPoolExecutor(config.workers) if config.workers > 1 else _InProcess()
    with pool:
        futures = [pool.submit(_run_and_persist, config, m, s) for m, s in jobs]
        for (m, s), future in zip(jobs, futures):
            try:
                records.append(future.result())
            except Exception as exc:
                failures.append(f"M={m} seed={s}: {exc}\n{traceback.format_exc()}")
    return records, failures


def load_records(directory) -> list[RunRecord]:
    """The records of a run directory: its own `.json` files, then those of
    each subdirectory (a sweep writes one per value), each level in name order.

    A missing directory is a ConfigurationError. A `.json` file that holds no
    valid record is skipped with a warning naming the file and the cause.
    """
    if not os.path.isdir(directory):
        problem = "is not a directory" if os.path.exists(directory) else "does not exist"
        raise ConfigurationError(f"run directory {directory} {problem}")
    entries = [os.path.join(directory, name) for name in sorted(os.listdir(directory))]
    paths = [os.path.join(level, name) for level in [directory, *filter(os.path.isdir, entries)]
             for name in sorted(os.listdir(level)) if name.endswith(".json")]
    records = []
    for path in paths:
        try:
            records.append(RunRecord.load_json(path))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            warnings.warn(f"skipped {path}: {type(exc).__name__}: {exc}", stacklevel=2)
    return records


def _mean_std(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return math.nan, math.nan
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def _groups(records: list[RunRecord]) -> list[tuple[tuple, list[RunRecord]]]:
    """Records grouped by (method, M), in sorted order."""
    if not records:
        raise ConfigurationError("no run records")
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = (rec.config.get("strategy", "?"), rec.config.get("m", 0))
        groups.setdefault(key, []).append(rec)
    return sorted(groups.items())


def summarize(records: list[RunRecord]) -> list[dict]:
    """Per (method, M): convergence rate, queries-to-expert, total queries.

    Queries-to-expert statistics are computed over converged runs only.
    """
    rows = []
    for (method, m), recs in _groups(records):
        converged = [r for r in recs if r.summary.get("converged")]
        qte_mean, qte_std = _mean_std([r.summary["queries_to_expert"] for r in converged])
        tot_mean, tot_std = _mean_std([r.summary["total_queries"] for r in recs])
        rows.append({
            "method": method, "m": m, "runs": len(recs),
            "convergence_pct": 100.0 * len(converged) / len(recs),
            "queries_to_expert_mean": qte_mean, "queries_to_expert_std": qte_std,
            "total_queries_mean": tot_mean, "total_queries_std": tot_std,
        })
    return rows


def write_summary_csv(rows: list[dict], path) -> None:
    write_csv(path, list(rows[0]), [list(row.values()) for row in rows])


def format_summary_text(rows: list[dict]) -> str:
    header = f"{'method':<20}{'M':>8}{'runs':>6}{'conv%':>8}{'Q->exp':>20}{'total Q':>20}"
    lines = [header, "-" * len(header)]
    for row in rows:
        qte = f"{row['queries_to_expert_mean']:.0f}±{row['queries_to_expert_std']:.0f}" \
            if not math.isnan(row["queries_to_expert_mean"]) else "n/a"
        tot = f"{row['total_queries_mean']:.0f}±{row['total_queries_std']:.0f}"
        lines.append(
            f"{row['method']:<20}{row['m']:>8}{row['runs']:>6}"
            f"{row['convergence_pct']:>8.0f}{qte:>20}{tot:>20}"
        )
    return "\n".join(lines)


def emit_plot_data(records: list[RunRecord], outdir) -> list[str]:
    """Plot-ready CSVs: reward vs queries, queries vs steps, queries vs length.

    One file triple per (method, M) group, aggregated across seeds with mean
    and std columns.
    """
    groups = _groups(records)
    os.makedirs(outdir, exist_ok=True)
    written = []
    for (method, m), recs in groups:
        tag = f"{method}_M{m}"
        n_eps = max(len(r.episodes) for r in recs)

        def stats(getter):
            rows = []
            for j in range(n_eps):
                vals = [getter(r.episodes[j]) for r in recs if j < len(r.episodes)]
                rows.append(_mean_std(vals))
            return rows

        q = stats(lambda e: e.queries_cum)
        s = stats(lambda e: e.steps_cum)
        ev = stats(lambda e: e.eval_mean)

        by_length: dict[int, list[int]] = {}
        for rec in recs:
            for e in rec.episodes:
                by_length.setdefault(e.length, []).append(e.n_queries)
        tables = {
            "reward_vs_queries": (
                ["episode", "queries_cum_mean", "queries_cum_std", "eval_mean_mean",
                 "eval_mean_std"], [(j, *q[j], *ev[j]) for j in range(n_eps)]),
            "queries_vs_steps": (
                ["episode", "steps_cum_mean", "steps_cum_std", "queries_cum_mean",
                 "queries_cum_std"], [(j, *s[j], *q[j]) for j in range(n_eps)]),
            "queries_per_episode_vs_length": (
                ["episode_length", "queries_mean", "queries_std", "count"],
                [(length, *_mean_std(vals), len(vals))
                 for length, vals in sorted(by_length.items())]),
        }
        for name, (header, rows) in tables.items():
            path = os.path.join(outdir, f"{name}_{tag}.csv")
            write_csv(path, header, rows)
            written.append(path)
    return written
