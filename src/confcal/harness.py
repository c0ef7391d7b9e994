"""Dataset ingestion, answer matching, and end-to-end evaluation runs.

Datasets are JSONL files with one {"id", "input", "choices"?, "gold",
"context"?} object per line. Evaluation produces EvalRecords: classification
tasks go through the single-token label readout; generation tasks through
answer generation followed by Yes/No self-evaluation.
"""

from __future__ import annotations

import json
import math
import re
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TypeVar

from .client import ModelClient, Readout, on_wait
from .errors import ConfcalError, NoNumberFound, SchemaViolation
from .metrics import EvalRecord

_T = TypeVar("_T")
_R = TypeVar("_R")

# ~4 chars/token is close enough for a tail-cut context budget
CONTEXT_TOKEN_BUDGET = 2000
_CHARS_PER_TOKEN = 4

_NUMBER_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?")
_PUNCT_STRIP = " \t\n\r.,;:!?\"'()[]{}"


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    kind: str  # classification | generation
    matcher: str  # exact | numeric | substring
    prompt_template: str = "{input}"
    label_set: dict[str, frozenset[str]] = field(default_factory=dict)  # label -> its aliases

    def __post_init__(self):
        if self.kind not in ("classification", "generation"):
            raise SchemaViolation(f"unknown task kind {self.kind!r}")
        if self.matcher not in ("exact", "numeric", "substring"):
            raise SchemaViolation(f"unknown matcher {self.matcher!r}")
        if self.kind == "classification" and not self.label_set:
            raise SchemaViolation("classification task needs a non-empty label_set")
        if self.kind == "generation" and self.matcher == "exact":
            raise SchemaViolation("generation tasks use numeric or substring matching")
        aliases = [alias for label_aliases in self.label_set.values() for alias in label_aliases]
        if not all(isinstance(x, str) for x in [*self.label_set, *aliases]):
            raise SchemaViolation("labels and their aliases must be strings")
        # an alias of two labels would count its probability for both
        seen: set[str] = set()
        for label, label_aliases in self.label_set.items():
            if not label_aliases:
                raise SchemaViolation(f"label {label!r} has no alias")
            if label_aliases & seen:
                raise SchemaViolation(f"alias {min(label_aliases & seen)!r} is listed under two labels")
            seen |= label_aliases
        # a generation task fills only {input}; its context reaches the model
        # as a separate part of the user turn
        fields = ("input",) if self.kind == "generation" else ("input", "choices", "context")
        try:
            self.prompt_template.format(**dict.fromkeys(fields, ""))
        except (AttributeError, IndexError, KeyError, ValueError) as exc:
            raise SchemaViolation(
                f"bad prompt_template ({exc!r}); a {self.kind} template may name only "
                + ", ".join(f"{{{name}}}" for name in fields)
            ) from exc

    @classmethod
    def from_json(cls, data: dict) -> "TaskSpec":
        label_set = {}
        for item in data.get("label_set", []):
            if not isinstance(item["aliases"], list):
                raise SchemaViolation(f"aliases of label {item['label']!r} must be a list")
            if item["label"] in label_set:
                raise SchemaViolation(f"label {item['label']!r} is listed twice")
            label_set[item["label"]] = frozenset(item["aliases"])
        return cls(
            task_id=data["task_id"],
            kind=data["kind"],
            matcher=data["matcher"],
            prompt_template=data.get("prompt_template", "{input}"),
            label_set=label_set,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "TaskSpec":
        with open(path, encoding="utf-8-sig") as fh:
            try:
                return cls.from_json(json.load(fh))
            except (ValueError, KeyError, TypeError, AttributeError, SchemaViolation) as exc:
                raise SchemaViolation(f"{path}: not a task spec ({type(exc).__name__}: {exc})") from exc


@dataclass(frozen=True)
class DatasetExample:
    id: str
    input: str
    gold: str | list[str]
    choices: tuple[str, ...] | None = None
    context: str | None = None


def truncate_context(context: str) -> str:
    """Tail-cut one document to ``CONTEXT_TOKEN_BUDGET`` tokens."""
    return context[: CONTEXT_TOKEN_BUDGET * _CHARS_PER_TOKEN]


def _parse_gold_number(gold) -> float:
    return float(str(gold).replace(",", ""))


def _is_number(gold) -> bool:
    """True for a finite number: a NaN or infinite gold matches no answer."""
    try:
        return math.isfinite(_parse_gold_number(gold))
    except ValueError:
        return False


def load_dataset(path: str | Path, task: TaskSpec) -> list[DatasetExample]:
    examples: list[DatasetExample] = []
    seen_ids: set[str] = set()
    errors: list[str] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:  # also a line that is not UTF-8
                errors.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            if not isinstance(data, dict):
                errors.append(f"line {lineno}: not a JSON object")
                continue
            missing = [key for key in ("id", "input", "gold") if key not in data]
            if missing:
                errors.append(f"line {lineno}: missing {missing}")
                continue
            context, choices = data.get("context"), data.get("choices")
            if not (
                isinstance(data["input"], str)
                and isinstance(context, (str, type(None)))
                and (not choices or isinstance(choices, list))
                and all(isinstance(c, str) for c in choices or ())
            ):
                errors.append(
                    f"line {lineno}: input and context must be strings, choices a list of them"
                )
                continue
            gold = data["gold"]
            if gold in ("", [], None):
                errors.append(f"line {lineno}: empty gold")
                continue
            golds = gold if isinstance(gold, list) else [gold]
            if bad := [g for g in golds if isinstance(g, bool) or not isinstance(g, (str, int, float))]:
                # a matcher would compare the str() of it
                errors.append(f"line {lineno}: gold {bad[0]!r} is not a string or a number")
                continue
            if task.matcher == "numeric":
                bad = [g for g in golds if not _is_number(g)]
                if bad:
                    errors.append(f"line {lineno}: numeric gold {bad[0]!r} is not a number")
                    continue
            elif bad := [g for g in golds if not _normalize(str(g))]:
                # "" is in every prediction, and equals an error record's empty one
                errors.append(f"line {lineno}: gold {bad[0]!r} is empty once normalized")
                continue
            example_id = str(data["id"])
            if example_id in seen_ids:
                errors.append(f"line {lineno}: duplicate id {example_id!r}")
                continue
            seen_ids.add(example_id)
            if context is not None:
                context = truncate_context(context)
            examples.append(
                DatasetExample(
                    id=example_id,
                    input=data["input"],
                    gold=gold,
                    choices=tuple(choices) if choices else None,
                    context=context,
                )
            )
    if errors:
        raise SchemaViolation(f"{path}: {len(errors)} bad line(s); first: {errors[0]}")
    if not examples:
        raise SchemaViolation(f"{path}: no examples")
    return examples


def _normalize(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip(_PUNCT_STRIP).lower())


def extract_last_number(text: str) -> float:
    matches = _NUMBER_RE.findall(text)
    if not matches:
        raise NoNumberFound(f"no numeric literal in {text[:80]!r}")
    return float(matches[-1].replace(",", ""))


def match_answer(prediction: str, gold: str | list[str], matcher: str) -> bool:
    """exact: normalized equality; numeric: last number within 1e-9 relative;
    substring: any normalized reference contained in the normalized prediction."""
    golds = gold if isinstance(gold, list) else [gold]
    if matcher == "exact":
        pred = _normalize(prediction)
        return any(pred == _normalize(str(g)) for g in golds)
    if matcher == "numeric":
        value = extract_last_number(prediction)
        for g in golds:
            target = _parse_gold_number(g)
            if value == target:
                return True
            if target != 0 and abs(value - target) <= 1e-9 * abs(target):
                return True
        return False
    if matcher == "substring":
        pred = _normalize(prediction)
        return any(_normalize(str(g)) in pred for g in golds)
    raise SchemaViolation(f"unknown matcher {matcher!r}")


def is_correct(
    prediction: str, gold: str | list[str], matcher: str, flags: set[str] | None = None
) -> bool:
    """``match_answer``, with a prediction that holds no number counted as
    wrong; that case also adds ``no_number_found`` to ``flags`` when given."""
    try:
        return match_answer(prediction, gold, matcher)
    except NoNumberFound:
        if flags is not None:
            flags.add("no_number_found")
        return False


def _eval_one(
    task: TaskSpec, example: DatasetExample, client: ModelClient
) -> tuple[EvalRecord, EvalRecord]:
    try:
        # each kind's template was checked at load to name only its own fields
        prompt = task.prompt_template.format(
            input=example.input, choices="\n".join(example.choices or ()), context=example.context or ""
        )
        if task.kind == "classification":
            readout = client.classify(prompt, task.label_set)
        else:
            readout = client.answer(prompt, example.context)
    except ConfcalError as exc:
        readout = Readout("", 0.5, frozenset(), 0.0)
        flags = {f"error:{type(exc).__name__}"}
        correct = False
    else:
        flags = set(readout.flags)
        correct = is_correct(readout.answer, example.gold, task.matcher, flags)
    record = EvalRecord(
        id=example.id,
        task_id=task.task_id,
        prediction=readout.answer,
        gold=example.gold,
        correct=correct,
        confidence=readout.confidence,
        method="self_eval" if task.kind == "generation" else "classification_normalized",
        flags=frozenset(flags),
    )
    return record, replace(record, confidence=readout.raw, method="raw")


def run_pool(fn: Callable[[_T], _R], items: Sequence[_T], concurrency: int) -> list[_R]:
    """``fn`` over ``items`` on up to ``concurrency`` threads, results in item
    order. The calling thread takes items itself, and starts the other
    threads just before its first wait on a remote (``client.on_wait``), so
    a run that the response cache serves in full stays on the calling
    thread. Items start in order, so at concurrency 1 an in-order mock script
    serves them exactly as a plain loop would. After a failure no further
    item starts, and the exception of the first failing item is raised. An
    exception or interrupt on the calling thread stops the pool, and the
    other threads end before it propagates."""
    results: list = [None] * len(items)
    failures: list[tuple[int, Exception]] = []
    stop = threading.Event()
    lock = threading.Lock()
    pending = iter(range(len(items)))
    helpers: list[threading.Thread] = []

    # Each thread takes items until none are left: a future per item costs
    # more than an item served from the response cache.
    def drain() -> None:
        while not stop.is_set():
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                failures.append((i, exc))
                stop.set()

    # Runs on the calling thread only, as the wait callback is per thread.
    def start_helpers() -> None:
        if not helpers:
            for _ in range(min(concurrency, len(items)) - 1):
                thread = threading.Thread(target=drain)
                thread.start()
                helpers.append(thread)

    try:
        with on_wait(start_helpers):
            drain()
    finally:
        stop.set()
        for thread in helpers:
            thread.join()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def run_eval(
    task: TaskSpec,
    examples: list[DatasetExample],
    client: ModelClient,
    concurrency: int = 1,
) -> tuple[list[EvalRecord], list[EvalRecord]]:
    """Evaluate every example; per-example failures become flagged records.

    Returns the records and their raw-confidence twins, one per record on
    the same id (unnormalized chosen-label probability for classification,
    raw P(Yes) for self-evaluation). Both lists are sorted by id.
    """
    pairs = run_pool(lambda ex: _eval_one(task, ex, client), examples, concurrency)
    pairs.sort(key=lambda pair: pair[0].id)
    return [rec for rec, _ in pairs], [raw for _, raw in pairs]


def verify_records(task: TaskSpec, records: list[EvalRecord]) -> bool:
    """Re-check every record's correct flag against match_answer."""
    return all(rec.correct == is_correct(rec.prediction, rec.gold, task.matcher) for rec in records)
