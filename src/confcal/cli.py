"""Command-line entry point: eval runs, sweeps, bin-table ECE, sandbox.

Config files are flat ``key = value`` text; environment variables of the
form CONFCAL_<KEY> override file values. Numeric output is serialized at
fixed 6-decimal precision so repeated runs diff cleanly.

Exit codes: 0 success, 1 config error, 2 endpoint error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import adaptive, harness, metrics
from .client import HTTPBackend, MockBackend, ModelClient, ResponseCache
from .confidence import MissingPolicy
from .errors import (
    ConfcalError,
    ConfigInvalid,
    EndpointUnreachable,
    MalformedResponse,
    RateLimited,
    SchemaViolation,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ENDPOINT = 2
EXIT_DATA = 3

ENV_PREFIX = "CONFCAL_"


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _round(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


def load_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise ConfigInvalid(f"{path}:{lineno}: not UTF-8 ({exc})") from exc
            if not line:
                continue
            if "=" not in line:
                raise ConfigInvalid(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def apply_env_overrides(values: dict[str, str]) -> dict[str, str]:
    merged = dict(values)
    for env_key, env_value in os.environ.items():
        if env_key.startswith(ENV_PREFIX):
            merged[env_key[len(ENV_PREFIX):].lower()] = env_value
    return merged


@dataclass
class RunConfig:
    base_url: str | None = None
    api_key_env: str | None = None
    model_name: str = "mock"
    mock_script: str | None = None
    task_spec: str | None = None
    dataset: str | None = None
    confidence_mode: str = "normalized"
    n_bins: int = 10
    missing_policy: str = "neutral"
    concurrency: int = 8
    cache_path: str | None = None
    output_dir: str = "out"
    seed: int = 0
    retriever_url: str | None = None
    taus: list[float] | None = None
    # sandbox knobs
    data_distribution: list[float] | None = None
    steps: int = 3000
    lr: float = 0.1
    batch_size: int = 64

    @classmethod
    def from_mapping(cls, values: dict[str, str]) -> "RunConfig":
        cfg = cls()
        converters = {
            "n_bins": int,
            "concurrency": int,
            "seed": int,
            "steps": int,
            "batch_size": int,
            "lr": float,
            "taus": lambda s: [float(x) for x in s.split(",") if x.strip()],
            "data_distribution": lambda s: [float(x) for x in s.split(",") if x.strip()],
        }
        for key, raw in values.items():
            if not hasattr(cfg, key):
                raise ConfigInvalid(f"unknown config key {key!r}")
            try:
                setattr(cfg, key, converters.get(key, str)(raw))
            except ValueError as exc:
                raise ConfigInvalid(f"bad value for {key!r}: {exc}") from exc
        if cfg.n_bins < 1:
            raise ConfigInvalid(f"n_bins must be >= 1, got {cfg.n_bins}")
        if cfg.confidence_mode not in ("normalized", "raw", "both"):
            raise ConfigInvalid(f"confidence_mode must be normalized|raw|both, got {cfg.confidence_mode!r}")
        if cfg.missing_policy not in ("error", "neutral", "skip"):
            raise ConfigInvalid(f"missing_policy must be error|neutral|skip, got {cfg.missing_policy!r}")
        return cfg


def build_client(cfg: RunConfig) -> ModelClient:
    if cfg.base_url and cfg.mock_script:
        raise ConfigInvalid("configure exactly one of base_url / mock_script, got both")
    if not cfg.base_url and not cfg.mock_script:
        raise ConfigInvalid("configure exactly one of base_url / mock_script, got neither")
    if cfg.mock_script:
        backend = MockBackend.from_jsonl(cfg.mock_script)
    else:
        api_key = os.environ.get(cfg.api_key_env) if cfg.api_key_env else None
        backend = HTTPBackend(cfg.base_url, api_key=api_key, pool_size=_pool_size(cfg))
    cache = ResponseCache(cfg.cache_path) if cfg.cache_path else None
    return ModelClient(
        backend,
        model_name=cfg.model_name,
        cache=cache,
        missing_policy=MissingPolicy(cfg.missing_policy),
    )


def _pool_size(cfg: RunConfig) -> int:
    """Worker threads for model calls. An in-order mock script must be
    consumed in request order, so a mock backend always runs one."""
    return 1 if cfg.mock_script else cfg.concurrency


def _record_to_json(rec: metrics.EvalRecord) -> dict:
    return {
        "id": rec.id,
        "task_id": rec.task_id,
        "prediction": rec.prediction,
        "gold": rec.gold,
        "correct": rec.correct,
        "confidence": _round(rec.confidence),
        "method": rec.method,
        "flags": sorted(rec.flags),
    }


def _report_to_json(report: metrics.CalibrationReport, raw_auroc: float | None = None) -> dict:
    data = {
        "task_id": report.task_id,
        "n": report.n,
        "accuracy": _round(report.accuracy),
        "auroc": _round(report.auroc),
        "ece": _round(report.ece),
        "bins": [
            {
                "count": b.count,
                "mean_confidence": _round(b.mean_confidence),
                "mean_accuracy": _round(b.mean_accuracy),
            }
            for b in report.bins
        ],
        "flag_counts": dict(sorted(report.flag_counts.items())),
    }
    if raw_auroc is not None:
        data["raw_auroc"] = _round(raw_auroc)
    return data


def _write_curve_csv(path: Path, report_data: dict) -> None:
    # every row is formatted before the file is opened, so bad bins leave no file
    rows = [
        [i, b["count"], _fmt(b["mean_confidence"]), _fmt(b["mean_accuracy"])]
        for i, b in enumerate(report_data["bins"], start=1)
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "count", "mean_confidence", "mean_accuracy"])
        writer.writerows(rows)


def _open_run(
    cfg: RunConfig,
) -> tuple[harness.TaskSpec, list[harness.DatasetExample], ModelClient, Path]:
    """Task spec, dataset, client and output directory of an eval or sweep;
    config errors, the backend's included, come before any file is read."""
    for key in ("task_spec", "dataset"):
        if not getattr(cfg, key):
            raise ConfigInvalid(f"missing config field: {key}")
    client = build_client(cfg)
    task = harness.TaskSpec.from_file(cfg.task_spec)
    examples = harness.load_dataset(cfg.dataset, task)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return task, examples, client, out


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    task, examples, client, out = _open_run(cfg)
    try:
        result = harness.run_eval(
            task,
            examples,
            client,
            confidence_mode=cfg.confidence_mode,
            concurrency=_pool_size(cfg),
        )
    finally:
        client.close()
    with open(out / "records.jsonl", "w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps(_record_to_json(rec), ensure_ascii=False) + "\n")

    report = metrics.build_report(result.records, n_bins=cfg.n_bins)
    raw_auroc = None
    if cfg.confidence_mode == "both" and result.raw_records:
        try:
            raw_auroc = metrics.auroc(result.raw_records)
        except ConfcalError:
            raw_auroc = None
    report_data = _report_to_json(report, raw_auroc=raw_auroc)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report_data, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    _write_curve_csv(out / "calibration_curve.csv", report_data)
    print(f"wrote {out / 'records.jsonl'}, {out / 'report.json'}, {out / 'calibration_curve.csv'}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    if not cfg.taus:
        raise ConfigInvalid("missing tau list (flag --taus or config key taus)")
    task, examples, client, out = _open_run(cfg)
    if cfg.retriever_url:
        retriever = adaptive.HTTPRetriever(cfg.retriever_url, pool_size=_pool_size(cfg))
    else:
        retriever = adaptive.StaticRetriever.from_examples(examples)
    try:
        rows = adaptive.sweep(
            examples, cfg.taus, client, retriever, task.matcher, concurrency=_pool_size(cfg)
        )
    finally:
        client.close()
        if cfg.retriever_url:
            retriever.close()
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "retrieval_pct", "accuracy_pct", "gain_pp", "efficiency"])
        for row in rows:
            writer.writerow(
                [
                    _fmt(row.tau),
                    _fmt(row.retrieval_rate_pct),
                    _fmt(row.accuracy_pct),
                    _fmt(row.gain_pp),
                    _fmt(row.efficiency),
                ]
            )
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_ece_from_bins(args: argparse.Namespace) -> int:
    path = Path(args.bin_csv)
    bins: list[tuple[int, float, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"count", "mean_accuracy", "mean_confidence"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise SchemaViolation(f"{path}: need columns {sorted(required)}")
        for row in reader:
            try:
                bins.append(
                    (int(row["count"]), float(row["mean_accuracy"]), float(row["mean_confidence"]))
                )
            except ValueError as exc:
                raise SchemaViolation(f"{path}: bad row {row}: {exc}") from exc
    if not bins:
        raise SchemaViolation(f"{path}: no bin rows")
    ece_val = metrics.ece_from_bins(bins)
    acc_val = metrics.accuracy_from_bins(bins)
    print(f"ece = {_fmt(ece_val)}")
    print(f"weighted_accuracy = {_fmt(acc_val)}")
    return EXIT_OK


def cmd_sandbox(args: argparse.Namespace) -> int:
    from . import sandbox  # numpy: only the sandbox needs it

    cfg = _load_run_config(args)
    dist = cfg.data_distribution or [0.7, 0.3]
    if len(dist) < 2:
        raise ConfigInvalid("data_distribution needs at least 2 options")
    try:
        task = sandbox.ToyTask(dist)
        sandbox_cfg = sandbox.SandboxConfig(
            steps=cfg.steps, lr=cfg.lr, batch_size=cfg.batch_size, seed=cfg.seed
        )
    except ConfcalError as exc:
        raise ConfigInvalid(str(exc)) from exc
    result = sandbox.run_paradigm_comparison(task, sandbox_cfg)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "method", "kl", "max_prob", "ece_proxy"])
        for name, trace in result.traces.items():
            for point in trace.steps:
                writer.writerow(
                    [point.step, name, _fmt(point.kl), _fmt(point.max_prob), _fmt(point.ece_proxy)]
                )
    summary = {
        key: (_round(val) if isinstance(val, float) else val)
        for key, val in result.summary.items()
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out / 'trace.csv'}, {out / 'summary.json'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.report_json)
    out = Path(args.output or path.with_suffix(".csv"))
    with open(path, encoding="utf-8") as fh:
        try:
            _write_curve_csv(out, json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise SchemaViolation(f"{path}: not a report JSON ({type(exc).__name__}: {exc})") from exc
    print(f"wrote {out}")
    return EXIT_OK


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values = load_config_file(args.config)
    values = apply_env_overrides(values)
    for key in ("dataset", "task_spec", "mock_script", "output_dir", "cache_path", "seed", "taus"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    return RunConfig.from_mapping(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confcal",
        description="Confidence extraction, calibration metrics, and adaptive retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--dataset", help="dataset JSONL path")
        p.add_argument("--task-spec", dest="task_spec", help="task spec JSON path")
        p.add_argument("--mock-script", dest="mock_script", help="mock backend JSONL script")
        p.add_argument("--output-dir", dest="output_dir", help="output directory")
        p.add_argument("--cache-path", dest="cache_path", help="response cache JSONL")
        p.add_argument("--seed", type=int, help="RNG seed")

    p_eval = sub.add_parser("eval", help="run an evaluation and write records + report")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="adaptive-retrieval threshold sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--taus", help="comma-separated thresholds")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bins = sub.add_parser("ece-from-bins", help="ECE from an aggregate bin-table CSV")
    p_bins.add_argument("bin_csv", help="CSV with count,mean_accuracy,mean_confidence columns")
    p_bins.set_defaults(func=cmd_ece_from_bins)

    p_sandbox = sub.add_parser("sandbox", help="toy training-paradigm comparison")
    add_common(p_sandbox)
    p_sandbox.set_defaults(func=cmd_sandbox)

    p_report = sub.add_parser("report", help="re-render a report JSON to plot-data CSV")
    p_report.add_argument("report_json")
    p_report.add_argument("--output", help="CSV output path")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EndpointUnreachable, RateLimited, MalformedResponse) as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except (OSError, ConfcalError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
