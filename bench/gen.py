"""Seeded synthetic inputs for the benchmark workloads.

The same seed gives byte-identical files. The program under test sees only
these files: datasets, task specs, flat configs and, for the threshold
sweeps, the tau grid (written into the config).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

MODEL_NAME = "bench-model"
REPEAT_RATE = 0.1
CONTEXT_CHARS = (2000, 4000)
_WORDS = (
    "river", "ledger", "amber", "signal", "harbor", "copper", "meadow", "vector",
    "lantern", "quartz", "orbit", "thistle", "canvas", "ember", "granite", "willow",
    "beacon", "cipher", "delta", "falcon", "glacier", "hollow", "island", "jasper",
    "kernel", "lumen", "mosaic", "nimbus", "oasis", "prairie", "quill", "raven",
    "summit", "tundra", "umber", "valley", "wander", "zephyr", "the", "of", "and",
    "a", "to", "in", "is", "was", "for", "on", "with", "as",
)

GENERATION_TASK = {
    "task_id": "bench-arith",
    "kind": "generation",
    "matcher": "numeric",
    "prompt_template": "Question: {input}\nAnswer with a number.",
}


def _question(rng: random.Random) -> tuple[str, str]:
    a, b = rng.randint(10, 999), rng.randint(10, 999)
    return f"What is {a} + {b}?", str(a + b)


def _context(rng: random.Random, question: str, gold: str) -> str:
    size = rng.randint(*CONTEXT_CHARS)
    words: list[str] = []
    length = 0
    while length < size:
        word = rng.choice(_WORDS)
        words.append(word)
        length += len(word) + 1
    hint = f"Worked note: {question[8:-1]} = {gold}."
    words.insert(rng.randrange(len(words) + 1), hint)
    return " ".join(words)


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _write_config(path: Path, values: dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


def eval_inputs(work: Path, seed: int, n: int, base_url: str, concurrency: int) -> Path:
    """Short questions, no context; about a tenth repeat the previous question
    under a new id. Returns the config path."""
    rng = random.Random(f"eval-{seed}")
    rows: list[dict] = []
    for i in range(n):
        if rows and rng.random() < REPEAT_RATE:
            question, gold = rows[-1]["input"], rows[-1]["gold"]
        else:
            question, gold = _question(rng)
        rows.append({"id": f"q{i:05d}", "input": question, "gold": gold})
    _write_jsonl(work / "eval.jsonl", rows)
    (work / "task.json").write_text(json.dumps(GENERATION_TASK, indent=2) + "\n", encoding="utf-8")
    config = work / "eval.conf"
    _write_config(
        config,
        {
            "base_url": base_url,
            "model_name": MODEL_NAME,
            "task_spec": work / "task.json",
            "dataset": work / "eval.jsonl",
            "concurrency": concurrency,
        },
    )
    return config


def tau_grid(seed: int, n_taus: int) -> list[float]:
    """Sorted distinct thresholds in [0, 1], both ends included."""
    rng = random.Random(f"taus-{seed}")
    taus = {0.0, 1.0}
    while len(taus) < n_taus:
        taus.add(round(rng.random(), 6))
    return sorted(taus)


def sweep_inputs(work: Path, seed: int, n: int, n_taus: int) -> list[float]:
    """Questions with their own few-KB contexts; returns the tau grid. The
    caller writes one config per backend with ``sweep_config``."""
    rng = random.Random(f"sweep-{seed}")
    rows = []
    for i in range(n):
        question, gold = _question(rng)
        rows.append(
            {"id": f"s{i:05d}", "input": question, "gold": gold, "context": _context(rng, question, gold)}
        )
    _write_jsonl(work / "sweep.jsonl", rows)
    (work / "task.json").write_text(json.dumps(GENERATION_TASK, indent=2) + "\n", encoding="utf-8")
    return tau_grid(seed, n_taus)


def sweep_config(work: Path, name: str, base_url: str, taus: list[float]) -> Path:
    config = work / f"{name}.conf"
    _write_config(
        config,
        {
            "base_url": base_url,
            "model_name": MODEL_NAME,
            "task_spec": work / "task.json",
            "dataset": work / "sweep.jsonl",
            "taus": ",".join(f"{t:.6f}" for t in taus),
        },
    )
    return config


def sandbox_config(work: Path, seed: int, steps: int) -> Path:
    """Default three arms; the majority share of the two-option data
    distribution and the training seed come from the workload seed."""
    rng = random.Random(f"sandbox-{seed}")
    top = round(rng.uniform(0.6, 0.8), 2)
    config = work / "sandbox.conf"
    _write_config(
        config,
        {"data_distribution": f"{top},{round(1 - top, 2)}", "steps": steps, "seed": seed},
    )
    return config
