"""Fixed work that does not depend on the program under test.

The benchmark times it next to the program, so that each run also measures
how fast the host is while the run lasts. ``loop`` is a piece of CPU work
timed between the program's calls, in blocks as long as a call; its mix follows what confcal's work
phases do: regex searches over short strings, float parsing and formatting,
hashing, dictionary updates, JSON encoding and small numpy arithmetic.
Run as a script, this file is a reference set-up, timed before each start
of the program: a fresh interpreter that imports the third-party modules
confcal's own set-up is made of, and nothing of confcal.

    python3 reference.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import re
import time

import numpy as np

SETUP_MODULES = ("numpy", "requests", "scipy.stats")
_TEXTS = [f"Answer {i}: the total is {i * 37 % 1000}.{i % 7} units" for i in range(120)]
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")
_MATRIX = np.linspace(-2.0, 2.0, 64 * 3).reshape(64, 3)


def loop() -> float:
    """Run the fixed work once; return a value derived from all of it."""
    table: dict[str, float] = {}
    acc = 0.0
    for _ in range(32):
        for text in _TEXTS:
            value = float(_NUMBER.findall(text)[-1])
            key = f"{value:.3f}"
            table[key] = table.get(key, 0.0) + math.log1p(value)
            acc += hashlib.sha256(text.encode()).digest()[0]
        acc += len(json.dumps(table, sort_keys=True))
    logits = _MATRIX.copy()
    for _ in range(1200):
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        logits -= 0.01 * (probs - 1.0 / 3.0)
    return acc + float(logits.sum())


def timed(seconds: float) -> float:
    """Run ``loop`` for at least ``seconds``, and at least once; return the
    mean seconds per run."""
    start = time.perf_counter()
    runs = 0
    while True:
        loop()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / runs

if __name__ == "__main__":
    for module in SETUP_MODULES:
        importlib.import_module(module)
