"""Shared fixtures: record builders, bin-table loaders, scripted backends."""

import contextlib
import csv
import math
import threading
from pathlib import Path
from unittest import mock

import pytest

from confcal.client import CompletionResponse, MockBackend, ModelClient, request_digest
from confcal.confidence import TokenDistribution
from confcal.metrics import EvalRecord

DATA_DIR = Path(__file__).parent / "data"


def make_record(i, correct, confidence, task_id="task", method="self_eval", flags=()):
    return EvalRecord(
        id=f"ex{i:05d}",
        task_id=task_id,
        prediction="p",
        gold="g",
        correct=correct,
        confidence=confidence,
        method=method,
        flags=frozenset(flags),
    )


def load_bin_csv(name):
    rows = []
    with open(DATA_DIR / name, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                (int(row["count"]), float(row["mean_accuracy"]), float(row["mean_confidence"]))
            )
    return rows


def yes_no_entry(p_yes, p_no):
    """Mock script entry answering the self-eval prompt with one token."""
    dist = {}
    if p_yes > 0:
        dist["Yes"] = math.log(p_yes)
    if p_no > 0:
        dist["No"] = math.log(p_no)
    if not dist:
        dist = {"Maybe": math.log(0.9)}
    top = max(dist, key=dist.get)
    return {"tokens": [top], "distributions": [dist]}


def answer_entry(text):
    """Mock script entry for a free-form generation pass."""
    return {"tokens": [text], "distributions": [{text: -0.01}]}


@pytest.fixture
def scripted_client():
    """Factory: ModelClient over an in-order MockBackend script."""

    def _factory(entries, **kwargs):
        return ModelClient(MockBackend(entries), **kwargs)

    return _factory


class PureBackend:
    """Answers each request as a function of its digest alone, so the calls
    may come in any order, and counts the calls."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
        n = int(request_digest(request)[:8], 16)
        if request.max_tokens > 1:  # an answer
            token = f"answer {n % 3}"
            entries = ((token, -0.01),)
        else:  # a self-evaluation
            p_yes = (n % 97 + 1) / 99
            token = "Yes"
            entries = (("Yes", math.log(p_yes)), ("No", math.log(1 - p_yes)))
        return CompletionResponse((token,), (TokenDistribution(entries),))


class MemoryCache(dict):
    """In-memory stand-in for ResponseCache: digest -> response."""

    def put(self, digest, response):
        self.setdefault(digest, response)


@contextlib.contextmanager
def thread_starts():
    """Yields the list of threads started inside the block."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    with mock.patch.object(threading.Thread, "start", start):
        yield started
