"""Command-line entry point: eval runs, sweeps, bin-table ECE, sandbox.

Config files are flat ``key = value`` text; CONFCAL_<KEY> environment
variables override file values, and flags override both. Each artifact is
rendered whole (``_json``, ``_csv``) before ``_write`` opens the first file.
A CSV cell that would need quotes is refused; an input may start with a BOM.

Exit codes: 0 success, 1 config error (any usage error, or a key or flag
the command does not read), 2 endpoint error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import adaptive, harness, metrics
from .client import HTTPBackend, MockBackend, ModelClient, ResponseCache
from .confidence import MISSING_POLICIES
from .errors import (
    ConfcalError,
    ConfigInvalid,
    EndpointUnreachable,
    InvalidInput,
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


def _rounded(data):
    """``data`` with every float in it, in dicts, lists and tuples too, rounded to 6 decimals."""
    if isinstance(data, float):
        return round(data, 6)
    if isinstance(data, dict):
        return {key: _rounded(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_rounded(value) for value in data]
    return data


def _json(data) -> str:
    return json.dumps(_rounded(data), indent=2, ensure_ascii=False) + "\n"


def _csv(header: list[str], rows) -> str:
    """``csv.writer``'s bytes for string cells (a cell may hold joined columns); a cell it would quote is refused."""
    lines = [",".join(header), *map(",".join, rows)]
    text = "\r\n".join(lines) + "\r\n"
    commas = len(lines) * (len(header) - 1)
    if '"' in text or text.count(",") != commas or not text.count("\r") == text.count("\n") == len(lines):
        raise InvalidInput("CSV cell with a comma, a quote or a line break, or a row without one cell per column")
    return text


def _curve_csv(bins) -> str:
    """The calibration curve of a report's bins, each a dict as in report.json;
    a count or a mean that is not a finite JSON number (``null``, ``true``, ``NaN``) is a TypeError."""
    def cell(value, spec: str) -> str:
        if type(value) not in (int, float) or not math.isfinite(value):
            raise TypeError(f"{value!r} is not a number")
        return format(value, spec)

    rows = ([str(i), cell(b["count"], "d"), cell(b["mean_confidence"], ".6f"), cell(b["mean_accuracy"], ".6f")]
            for i, b in enumerate(bins, 1))
    return _csv(["bin", "count", "mean_confidence", "mean_accuracy"], rows)


def _sweep_csv(rows: list[adaptive.SweepRow]) -> str:
    """Each cut point's four cells are rendered to one string once; a row adds its tau."""
    cuts: dict[tuple, str] = {}
    lines = []
    for row in rows:
        if (text := cuts.get(row[1:])) is None:
            text = cuts[row[1:]] = ",".join(map(_fmt, row[1:]))
        lines.append((f"{row.tau:.6f}", text))
    return _csv(["tau", "retrieval_pct", "accuracy_pct", "gain_pp", "efficiency"], lines)


def _write(out: Path, texts: dict[str, str]) -> None:
    """Writes each rendered text to its file name under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    print("wrote " + ", ".join(str(out / name) for name in texts))


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers; empty items are skipped, NaN is refused."""
    values = [float(x) for x in text.split(",") if x.strip()]
    if any(math.isnan(v) for v in values):
        raise ValueError(f"NaN is not a number here: {text!r}")
    return values


def load_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8").split("#", 1)[0].strip()
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


EVAL_SWEEP = ("eval", "sweep")
AT_LEAST_ONE = (lambda value: value >= 1, ">= 1")


def _one_of(*choices: str):
    return choices.__contains__, "|".join(choices)


def _key(default, read_by: tuple[str, ...], parse=str, check=None, flag: str | None = None):
    """One config key: its default, the commands that read it, its parser (a ValueError
    is a bad value), its check (predicate, requirement) and its flag's help, if any."""
    return field(default=default, metadata=dict(read_by=read_by, parse=parse, check=check, flag=flag))


@dataclass
class RunConfig:
    """The config table; a sandbox setting left None is ``sandbox.SandboxConfig``'s."""

    output_dir: str = _key("out", (*EVAL_SWEEP, "sandbox"), flag="output directory")
    dataset: str | None = _key(None, EVAL_SWEEP, flag="dataset JSONL path")
    task_spec: str | None = _key(None, EVAL_SWEEP, flag="task spec JSON path")
    mock_script: str | None = _key(None, EVAL_SWEEP, flag="mock backend JSONL script")
    cache_path: str | None = _key(None, EVAL_SWEEP, flag="response cache JSONL")
    base_url: str | None = _key(None, EVAL_SWEEP)
    api_key_env: str | None = _key(None, EVAL_SWEEP)
    model_name: str = _key("mock", EVAL_SWEEP)
    missing_policy: str = _key("neutral", EVAL_SWEEP, check=_one_of(*MISSING_POLICIES))
    concurrency: int = _key(8, EVAL_SWEEP, int, AT_LEAST_ONE)
    confidence_mode: str = _key("normalized", ("eval",), check=_one_of("normalized", "raw", "both"))
    n_bins: int = _key(metrics.DEFAULT_N_BINS, ("eval",), int, AT_LEAST_ONE)
    taus: list[float] | None = _key(None, ("sweep",), _float_list, flag="comma-separated thresholds")
    retriever_url: str | None = _key(None, ("sweep",))
    data_distribution: tuple[float, ...] | list[float] = _key((0.7, 0.3), ("sandbox",), _float_list)
    steps: int | None = _key(None, ("sandbox",), int)
    lr: float | None = _key(None, ("sandbox",), float)
    batch_size: int | None = _key(None, ("sandbox",), int)
    seed: int | None = _key(None, ("sandbox",), int, flag="RNG seed")

    @classmethod
    def from_mapping(cls, values: dict[str, str], command: str | None = None) -> "RunConfig":
        """Parse and check ``values``; given a command, a key it does not read is an error."""
        cfg = cls()
        for key, raw in values.items():
            spec = KEYS.get(key)
            if spec is None:
                raise ConfigInvalid(f"unknown config key {key!r}")
            if command is not None and command not in spec["read_by"]:
                raise ConfigInvalid(f"{command} does not read config key {key!r}")
            try:
                value = spec["parse"](raw)
            except ValueError as exc:
                raise ConfigInvalid(f"bad value for {key!r}: {exc}") from exc
            if spec["check"] and not spec["check"][0](value):
                raise ConfigInvalid(f"{key} must be {spec['check'][1]}, got {value!r}")
            setattr(cfg, key, value)
        return cfg


KEYS = {f.name: f.metadata for f in fields(RunConfig)}


def build_client(cfg: RunConfig) -> ModelClient:
    if cfg.base_url and cfg.mock_script:
        raise ConfigInvalid("configure exactly one of base_url / mock_script, got both")
    if not cfg.base_url and not cfg.mock_script:
        raise ConfigInvalid("configure exactly one of base_url / mock_script, got neither")
    if cfg.mock_script:
        backend = MockBackend.from_jsonl(cfg.mock_script)
    else:
        api_key = os.environ.get(cfg.api_key_env) if cfg.api_key_env else None
        backend = HTTPBackend(cfg.base_url, api_key=api_key)
    cache = ResponseCache(cfg.cache_path) if cfg.cache_path else None
    return ModelClient(backend, model_name=cfg.model_name, cache=cache, missing_policy=cfg.missing_policy)


def _pool_size(cfg: RunConfig) -> int:
    """Worker threads for model calls. An in-order mock script must be
    consumed in request order, so a mock backend always runs one."""
    return 1 if cfg.mock_script else cfg.concurrency


def _open_run(
    cfg: RunConfig,
) -> tuple[harness.TaskSpec, list[harness.DatasetExample], ModelClient, Path]:
    """Task spec, dataset, client and output directory of an eval or sweep;
    config errors, the backend's included, come before any file is read.
    ``_write`` makes the directory, just before the first file opens."""
    for key in ("task_spec", "dataset"):
        if not getattr(cfg, key):
            raise ConfigInvalid(f"missing config field: {key}")
    client = build_client(cfg)
    task = harness.TaskSpec.from_file(cfg.task_spec)
    examples = harness.load_dataset(cfg.dataset, task)
    return task, examples, client, Path(cfg.output_dir)


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    task, examples, client, out = _open_run(cfg)
    try:
        records, raw_records = harness.run_eval(task, examples, client, concurrency=_pool_size(cfg))
    finally:
        client.close()
    records = raw_records if cfg.confidence_mode == "raw" else records
    report = asdict(metrics.build_report(records, n_bins=cfg.n_bins))
    if cfg.confidence_mode == "both":
        report["raw_auroc"] = metrics.build_report(raw_records, cfg.n_bins).auroc
    lines = ({**vars(rec), "confidence": round(rec.confidence, 6), "flags": sorted(rec.flags)} for rec in records)
    texts = {
        "records.jsonl": "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines),
        "report.json": _json(report),
        "calibration_curve.csv": _curve_csv(report["bins"]),
    }
    _write(out, texts)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    if not cfg.taus:
        raise ConfigInvalid("missing tau list (flag --taus or config key taus)")
    task, examples, client, out = _open_run(cfg)
    remote = None
    try:
        if task.kind != "generation":
            raise ConfigInvalid(f"sweep needs a generation task; {cfg.task_spec} is {task.kind}")
        if cfg.retriever_url:
            remote = adaptive.HTTPRetriever(cfg.retriever_url)
        retriever = remote or adaptive.StaticRetriever.from_examples(examples)
        rows = adaptive.sweep(
            examples, cfg.taus, client, retriever, task.matcher, concurrency=_pool_size(cfg)
        )
    finally:
        client.close()
        if remote is not None:
            remote.close()
    _write(out, {"sweep.csv": _sweep_csv(rows)})
    return EXIT_OK


def cmd_ece_from_bins(args: argparse.Namespace) -> int:
    import csv  # the one command that reads a CSV
    path = Path(args.bin_csv)
    bins: list[tuple[int, float, float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        required = {"count", "mean_accuracy", "mean_confidence"}
        try:
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise SchemaViolation(f"{path}: need columns {sorted(required)}")
            for row in reader:
                count = int(row["count"])
                acc, conf = float(row["mean_accuracy"]), float(row["mean_confidence"])
                if count < 0 or not (0.0 <= acc <= 1.0 and 0.0 <= conf <= 1.0):  # NaN included
                    raise SchemaViolation(
                        f"{path}:{reader.line_num}: bad row {row}: need count >= 0 and means in [0, 1]"
                    )
                bins.append((count, acc, conf))
        except UnicodeDecodeError as exc:  # decoded a block at a time, so no line number
            raise SchemaViolation(f"{path}: not UTF-8 ({exc})") from exc
        except (TypeError, ValueError) as exc:  # TypeError: a short row
            raise SchemaViolation(f"{path}:{reader.line_num}: bad row ({type(exc).__name__}: {exc})") from exc
    if not bins:
        raise SchemaViolation(f"{path}: no bin rows")
    print(f"ece = {_fmt(metrics.ece_from_bins(bins))}")
    print(f"weighted_accuracy = {_fmt(metrics.accuracy_from_bins(bins))}")
    return EXIT_OK


def cmd_sandbox(args: argparse.Namespace) -> int:
    from . import sandbox  # numpy: only the sandbox's seeded Generator needs it

    cfg = _load_run_config(args)
    settings = {f.name: getattr(cfg, f.name) for f in fields(sandbox.SandboxConfig)}
    try:
        # an empty list is unset, as it is for taus
        task = sandbox.ToyTask(cfg.data_distribution or RunConfig.data_distribution)
        sandbox_cfg = sandbox.SandboxConfig(**{k: v for k, v in settings.items() if v is not None})
    except ConfcalError as exc:
        raise ConfigInvalid(str(exc)) from exc
    traces, summary = sandbox.run_paradigm_comparison(task, sandbox_cfg)

    trace = (
        [str(p.step), name, _fmt(p.kl), _fmt(p.max_prob), _fmt(p.ece_proxy)]
        for name, points in traces.items()
        for p in points
    )
    header = ["step", "method", "kl", "max_prob", "ece_proxy"]
    _write(Path(cfg.output_dir), {"trace.csv": _csv(header, trace), "summary.json": _json(summary)})
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.report_json)
    out = Path(args.output or path.with_suffix(".csv"))
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = _curve_csv(json.load(fh)["bins"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:  # OverflowError: an integer past the float range
            raise SchemaViolation(f"{path}: not a report JSON ({type(exc).__name__}: {exc})") from exc
    _write(out.parent, {out.name: text})
    return EXIT_OK


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    """File, then CONFCAL_* variables, then flags; only keys that the command reads."""
    values = apply_env_overrides(load_config_file(args.config) if args.config else {})
    values.update({key: flag for key in KEYS if (flag := getattr(args, key, None)) is not None})
    return RunConfig.from_mapping(values, args.command)


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: one line and exit 1, where argparse
    would print the usage and exit 2, the endpoint-error code."""

    def error(self, message: str):
        raise ConfigInvalid(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="confcal",
        description="Confidence extraction, calibration metrics, and adaptive retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, func, help_text in (
        ("eval", cmd_eval, "run an evaluation and write records + report"),
        ("sweep", cmd_sweep, "adaptive-retrieval threshold sweep"),
        ("sandbox", cmd_sandbox, "toy training-paradigm comparison"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for key, spec in KEYS.items():
            if spec["flag"] and command in spec["read_by"]:
                p.add_argument("--" + key.replace("_", "-"), help=spec["flag"])
        p.set_defaults(func=func)

    p_bins = sub.add_parser("ece-from-bins", help="ECE from an aggregate bin-table CSV")
    p_bins.add_argument("bin_csv", help="CSV with count,mean_accuracy,mean_confidence columns")
    p_bins.set_defaults(func=cmd_ece_from_bins)

    p_report = sub.add_parser("report", help="re-render a report JSON to plot-data CSV")
    p_report.add_argument("report_json")
    p_report.add_argument("--output", help="CSV output path")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
