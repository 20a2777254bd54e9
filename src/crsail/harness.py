"""Configuration-driven experiment runner.

Config files are flat INI-style key=value text with one section per module.
The sections, keys and defaults are the dataclass fields: `ExperimentConfig`
for [experiment], [conformal] and [budget]; `StrategyConfig` (all but `kind`)
for [strategy]; `TrainConfig` for [train]; the env kind's params for [env].
Each value is read by its field's type and judged by the field's own check; a
bad value or unknown key is named `section.key`. Every section is stored
resolved against its defaults, and every run embeds that config snapshot, so
any output is reproducible from its own header.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import traceback
import warnings
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from crsail.conformal import calibrate_radius
from crsail.core import evaluate_policy
from crsail.envs import KINDS, EnvParams, make_expert
from crsail.exceptions import (ConfigurationError, FieldError, InsufficientDataError, bounded,
                               check_fields)
from crsail.policy import TrainConfig, behavioral_cloning
from crsail.strategies import READS, StrategyConfig
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


def parse_value(kind: str, text: str):
    """A config key's `text` read by its field's type `kind`: a list is
    comma-separated, and a number is read as `_convert` reads it, so an integer
    literal in a float field stays an int; the field's own check judges it."""
    text = text.strip()
    if kind == "str":
        return text
    if kind.endswith(" | None") and text == "":
        return None
    if kind.startswith("list["):
        return [_convert(tok) for tok in text.split(",") if tok.strip() != ""]
    return _convert(text)


def _format(value) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    return "" if value is None else str(value)


def check_axis(name: str, values) -> None:
    """Reject an empty grid axis, or a repeated point: its runs would share record files."""
    if not values:
        raise ConfigurationError(f"{name} must not be empty")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigurationError(f"{name} lists {repeated[0]} more than once")


def _keys(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.name != "kind"]  # kind is [experiment] strategy


def _values(obj) -> dict:
    return {name: getattr(obj, name) for name in _keys(type(obj))}


def _section(name: str, **kwargs):
    """A field of INI section `name`; a dict field holds the whole section."""
    return bounded(metadata={"section": name}, **kwargs)


def _build(section: str, cls, values: dict, **given):
    """`cls` built from section `values` (and `given`, keys the harness sets); a
    key `cls` lacks, or a value its check rejects, is named `section.key`."""
    for key in values:
        if key not in _keys(cls):
            raise ConfigurationError(f"unknown config key {section}.{key}")
    try:
        return cls(**given, **values)
    except FieldError as exc:
        raise FieldError(f"{section}.{exc}") from None


@dataclass
class ExperimentConfig:
    """One (M, seed) grid. Scalar fields are keys of the section they declare;
    each dict field holds a whole section. Every section is resolved: the dict
    fields hold each key of their config class, the defaults filled in."""

    env: str = _section("experiment", default="")
    strategy: str = _section("experiment", default="")
    seeds: list[int] = _section("experiment", default_factory=lambda: [0, 1, 2, 3, 4], ge=0)
    m_values: list[int] = _section("experiment",
                                   default_factory=lambda: [250, 500, 1000, 2000], ge=1)
    output_dir: str = _section("experiment", default="runs")
    workers: int = _section("experiment", default=1, ge=1)
    eval_episodes: int = _section("experiment", default=20, ge=1)
    env_overrides: dict = _section("env", default_factory=dict)
    strategy_params: dict = _section("strategy", default_factory=dict)
    train_params: dict = _section("train", default_factory=dict)
    m_cal: int = _section("conformal", default=30, ge=1)
    max_steps: int = _section("budget", default=10000)
    max_queries: int | None = _section("budget", default=None)

    def __post_init__(self):
        if not self.env:
            raise ConfigurationError("config must set experiment.env")
        if not self.strategy:
            raise ConfigurationError("config must set experiment.strategy")
        check_fields(self)
        for name in ("seeds", "m_values"):  # the grid's axes
            check_axis(name, getattr(self, name))
        # fail fast on an invalid section before any run starts, and keep each resolved
        env, strategy, train, _ = self.parts()
        self.env_overrides = _values(env.params)
        self.strategy_params = _values(strategy)
        self.train_params = _values(train)

    def parts(self) -> tuple:
        """(env, strategy, train, budget): the environment and the config each
        of its sections builds."""
        if self.env not in KINDS:
            raise ConfigurationError(f"unknown environment kind: {self.env!r}")
        env_cls = KINDS[self.env]
        return (env_cls(_build("env", env_cls.Params, self.env_overrides)),
                _build("strategy", StrategyConfig, self.strategy_params, kind=self.strategy),
                _build("train", TrainConfig, self.train_params),
                _build("budget", Budget, {"max_steps": self.max_steps,
                                          "max_queries": self.max_queries}))

    @classmethod
    def from_parser(cls, parser: configparser.ConfigParser) -> "ExperimentConfig":
        if parser.defaults():  # configparser would copy these keys into every section
            raise ConfigurationError(f"unknown config section [{parser.default_section}]")
        kwargs: dict = {}
        layout = cls._layout()
        env = parser.get("experiment", "env", fallback="").strip()  # [env] holds its params
        typed = {"env": KINDS[env].Params if env in KINDS else EnvParams,
                 "strategy": StrategyConfig, "train": TrainConfig}
        for section in parser.sections():
            if section not in layout:
                raise ConfigurationError(f"unknown config section [{section}]")
            holder = layout[section][0]
            if holder.type == "dict":  # the field holds the whole section
                types = {f.name: f.type for f in fields(typed[section])}
                values = kwargs.setdefault(holder.name, {})
            else:
                types, values = {f.name: f.type for f in layout[section]}, kwargs
            for key, val in parser.items(section):
                if holder.type == "dict" and val.strip() == "":
                    continue  # an empty value keeps the default
                if key not in types and holder.type != "dict":  # `parts` rejects the rest
                    raise ConfigurationError(f"unknown config key {section}.{key}")
                values[key] = parse_value(types.get(key, ""), val)
        return cls(**kwargs)

    @classmethod
    def _layout(cls) -> dict[str, list]:
        """INI section -> the fields it holds; a dict field holds a whole section."""
        layout: dict[str, list] = {}
        for f in fields(cls):
            layout.setdefault(f.metadata["section"], []).append(f)
        return layout

    @classmethod
    def from_file(cls, path, overrides: list[str] | None = None) -> "ExperimentConfig":
        """The config in INI file `path`, each `section.key=value` override set
        over it. The file is read as UTF-8 and values are literal (`%` is no
        interpolation); a file or override that cannot be read is a
        ConfigurationError."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigurationError(f"config file not found: {path}")
            for item in overrides or []:
                if "=" not in item or "." not in item.split("=", 1)[0]:
                    raise ConfigurationError(
                        f"override must look like section.key=value: {item!r}")
                target, value = item.split("=", 1)
                section, key = (part.strip() for part in target.split(".", 1))
                parser.read_dict({section: {key: value.strip()}})
        except configparser.Error as exc:  # its messages span lines
            raise ConfigurationError(" ".join(str(exc).split())) from None
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not UTF-8: {exc}") from None
        return cls.from_parser(parser)

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
        snap = {**snap, "m": m, "seed": seed}
        # as the record will hold it: a numpy number given becomes a Python one
        return json.loads(json.dumps(snap, default=lambda value: value.tolist()))


def run_basename(strategy: str, m: int, seed: int) -> str:
    return f"{strategy}_M{m}_seed{seed}"


def run_single(config: ExperimentConfig, m: int, seed: int) -> RunRecord:
    """One fully seeded run: dataset, cloning, calibration, training."""
    env, strategy, train_config, budget = config.parts()
    expert = make_expert(env)

    dataset = build_initial_dataset(env, expert, m, (seed, 102))
    # K is checked before the expert evaluation, the cloning and the calibration rollouts
    if "k" in READS[strategy.kind] and strategy.k > len(dataset):
        raise InsufficientDataError(f"strategy.k={strategy.k} exceeds the {len(dataset)} "
                                    f"pairs of the initial dataset (M={m})")
    expert_mean, _, _ = evaluate_policy(env, expert, config.eval_episodes, (seed, 101))
    policy = behavioral_cloning(dataset, train_config, np.random.default_rng(seed))
    threshold = None
    if strategy.kind == "crsail":
        threshold = calibrate_radius(env, policy, dataset, strategy, config.m_cal, (seed, 103))
    _, record = train(
        env, expert, dataset, policy, strategy, budget, train_config, (seed, 104),
        threshold=threshold, expert_mean=expert_mean, eval_episodes=config.eval_episodes,
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

    Runs go to at most `workers` processes, and to no more than there are
    runs; with one, they run in this process. A failed run leaves a note with
    its traceback; a worker's traceback arrives as the exception's cause,
    which `format_exc` prints too.
    """
    jobs = [(m, seed) for m in config.m_values for seed in config.seeds]
    records, failures = [], []
    # a fork-started pool forks all its workers on the first submit
    workers = min(config.workers, len(jobs))
    pool = ProcessPoolExecutor(workers) if workers > 1 else _InProcess()
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


def _first_difference(a: dict, b: dict):
    """(key, a's value, b's value) for the first key whose values differ, a
    section's key written `section.key`; None if the configs agree. A top-level
    key that only one config holds (a removed one, in an old record) is
    skipped; in a section such as env_overrides, an absent key (None) differs
    from a given one."""
    for key in [k for k in a if k in b]:
        if isinstance(a[key], dict) and isinstance(b[key], dict):
            for sub in {**a[key], **b[key]}:
                if a[key].get(sub) != b[key].get(sub):
                    return f"{key}.{sub}", a[key].get(sub), b[key].get(sub)
        elif a[key] != b[key]:
            return key, a[key], b[key]
    return None


def _groups(records: list[RunRecord]) -> list[tuple[tuple, list[RunRecord]]]:
    """Records grouped by (method, M), in sorted order.

    The runs of a group must differ only in seed: a group whose configs differ
    (say, two values of a sweep) is a ConfigurationError, not one averaged row.
    """
    if not records:
        raise ConfigurationError("no run records")
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = (rec.config.get("strategy", "?"), rec.config.get("m", 0))
        groups.setdefault(key, []).append(rec)
    for (method, m), recs in groups.items():
        first = {k: v for k, v in recs[0].config.items() if k != "seed"}
        for rec in recs[1:]:
            found = _first_difference(first, rec.config)
            if found:
                raise ConfigurationError(
                    "runs of {} M={} differ in {}: {!r} vs {!r}; read each value's "
                    "directory on its own".format(method, m, *found))
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
