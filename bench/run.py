"""confcal benchmark: seeded offline workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload eval-http --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0     # every workload, one table

Run from the root of a checkout; confcal is imported from ``src/`` there.
Each run makes its inputs from ``--seed`` (see ``gen.py``), then starts the
program in fresh processes (``worker.py``) until ``--seconds`` have passed.
Every process pays the set-up a user pays: the imports, the config, the task
spec, the dataset and the response-cache load; then it runs the command
again and again for a few seconds, each call with its own artifacts. HTTP
workloads talk to a loopback stub (``stub.py``) in its own process. Fixed
reference work (``reference.py``) is timed beside the program to measure
how fast the host is while the run lasts.

Every call's artifacts are checked: the exit code, the program's own
``verify_records`` on eval records, the structure of ``sweep.csv`` and of
the sandbox trace, byte-identity across the calls of a run, identity of the
warm-cache sweep with the cold one, and, at the default seed, the sha256
digests in ``expected.json``. A call that fails a check counts all its
items as failed; an eval record flagged ``error:*`` counts as one failed
item.

With ``--trace 0`` the last line reports the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` traced and untraced processes alternate
and it reports the per-layer metrics (medians over the traced calls) and
the tracing overhead. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
from stub import SERVICE_DELAY_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
WORKLOADS = ("eval-http", "sweep-http", "sweep-cached", "sandbox")
# Artifact digests at the default seed; a change to them is a change of behaviour.
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
DEFAULT_SEED = EXPECTED["seed"]

# Sizes per call. A call's work phase takes 0.2-3 s on a 2-vCPU x86-64 VM,
# so a run of --seconds holds several processes, each a set-up to take the
# median of, and many calls.
EVAL_N = 150
EVAL_CONCURRENCY = 2
SWEEP_N = 100
SWEEP_TAUS = 1001
SANDBOX_STEPS = 1000
MIN_PROCESSES = 3
# A process repeats the command for about this long, set-up included.
PROCESS_S = 8.0
# The host that scaled figures are expressed for: one that runs the reference
# loop in REFERENCE_S and the reference set-up in REFERENCE_SETUP_S, about
# what a 2-vCPU x86-64 VM reads when it is not slowed down.
REFERENCE_S = 0.030
REFERENCE_SETUP_S = 1.0
ORACLE_TAUS = 5
# A run ends this long after --seconds at the latest, so that a hung program
# still ends the run well within three minutes; what is cut counts as failed.
GRACE_S = 110


@dataclass
class Plan:
    """How to start one workload's processes and judge their calls' artifacts."""

    name: str
    argv: list[str]  # confcal arguments, without --output-dir and --cache-path
    items: int
    unit: str
    # (artifacts directory, response cache) -> (failed items, problems)
    check: Callable[[Path, Path | None], tuple[int, list[str]]]
    artifacts: tuple[str, ...]
    cache: Callable[[Path], Path] | None = None  # call directory -> response cache
    reference: dict[str, str] | None = None  # digests every call must match
    expected: dict[str, str] | None = None  # digests recorded in expected.json
    stub: "Stub | None" = None
    # The work only computes, in one thread, so its rate follows the host's
    # speed as the reference loop's does, and it is scaled by it. Work that
    # waits on the stub is not: its rate moves far less than the loop's.
    compute_only: bool = False
    frozen: Path | None = None  # a file no call may change
    failed_setup: list["Outcome"] = field(default_factory=list)  # counted, not timed
    deadline: float = math.inf  # monotonic time after which no process may run


@dataclass
class Outcome:
    """One call of the command; the first call of a process carries its set-up."""

    traced: bool
    first: bool
    items: int
    failed: int
    setup_s: float
    work_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    complete_ms: list[float] = field(default_factory=list)
    # Mean time of the reference loop in the blocks run right before and after this call.
    reference_s: float = math.nan
    # Time of the reference set-up run right before this call's process.
    setup_reference_s: float = math.nan


class Stub:
    """The loopback chat-completions stub, in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub did not report a port")
        self.port = int(line)
        self.base_url = f"http://127.0.0.1:{self.port}/v1"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        with self._opener.open(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _digests(directory: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        if (directory / name).is_file()
        else "missing"
        for name in names
    }


def _reference_setup() -> float:
    """Seconds a fresh interpreter takes to run ``reference.py``."""
    start = time.monotonic()
    subprocess.run([sys.executable, str(BENCH / "reference.py")], env=_child_env(), check=True, timeout=60)
    return time.monotonic() - start


def _closed_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONFCAL_")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def invoke(
    plan: Plan, directory: Path, traced: bool, until: float, setup_reference: float = math.nan
) -> list[Outcome]:
    """Start the program in a fresh process that repeats the command until the
    monotonic time ``until`` (a traced one runs it once); check what every
    call wrote. ``setup_reference`` is the reference set-up timed just before."""
    directory.mkdir(parents=True)
    result_path = directory / "result.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), "--result", str(result_path),
        "--until", repr(until), "--reference", "0.5" if plan.compute_only else "0",
    ]
    if traced:
        cmd += ["--spans", str(directory / "spans.jsonl")]
    cmd += ["--", *plan.argv, "--output-dir", str(directory / "call{call}" / "out")]
    if plan.cache:
        cmd += ["--cache-path", str(plan.cache(directory / "call{call}"))]
    before = plan.stub.stats() if plan.stub else None
    frozen = plan.frozen.read_bytes() if plan.frozen else None
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), capture_output=True, text=True,
            timeout=max(plan.deadline - t_spawn, 1.0),
        )
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        returncode, stderr = -1, "killed at the run's deadline"
        result_path.unlink(missing_ok=True)
    tail = (stderr.strip().splitlines() or ["no stderr"])[-1]
    # Problems of the whole process fail every call it made.
    shared: list[str] = []
    if result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        result = {"calls": [{"exit_code": returncode, "t_work": t_spawn, "t_end": t_spawn}], "peak_rss_mb": 0.0}
        shared.append(f"exit code {returncode} without a result: {tail}")
    if frozen is not None and plan.frozen.read_bytes() != frozen:
        shared.append(f"{plan.frozen.name} changed: a request missed the cache")
    layers = dict(result.get("layers", {}))
    if plan.stub:
        after = plan.stub.stats()
        requests = after["requests"] - before["requests"]
        non_ok = sum(n for code, n in after["status"].items() if code != "200") - sum(
            n for code, n in before["status"].items() if code != "200"
        )
        if non_ok:
            shared.append(f"stub answered {non_ok} request(s) with a non-200 status")
    else:
        requests = 0
    if traced and not layers:
        shared.append("the traced call recorded no layers")
    elif traced:
        layers["import_s"] = result["import_s"]
        layers["stub.requests"] = requests
        layers["client.http_retries"] = requests - layers["client.backend_calls"]
        if layers["client.http_retries"]:
            shared.append(f"{layers['client.http_retries']} HTTP retries")
        shutil.copyfile(directory / "spans.jsonl", WORK / f"last-spans-{plan.name}.jsonl")

    # The reference blocks run between the calls; a call's reference is the
    # mean of the blocks on either side of it, so that it meets the spells
    # around the call as evenly as the call does.
    blocks = result.get("reference_s", [])
    around = [statistics.fmean(blocks[max(i - 1, 0) : i + 1]) for i in range(len(blocks))]
    outcomes = []
    for i, call in enumerate(result["calls"]):
        problems = list(shared)
        if call["exit_code"] != 0 and not problems:
            problems.append(f"exit code {call['exit_code']}: {tail}")
        call_dir = directory / f"call{i}"
        cache = plan.cache(call_dir) if plan.cache else None
        failed_items = 0
        if not problems:
            try:
                failed_items, found = plan.check(call_dir / "out", cache)
                problems += found
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"artifacts unreadable: {exc!r}")
        digests = _digests(call_dir / "out", plan.artifacts)
        if plan.reference is not None and digests != plan.reference:
            problems.append(f"artifacts differ from the reference: {digests} != {plan.reference}")
        if plan.expected is not None and digests != plan.expected and not problems:
            problems.append(f"digests differ from expected.json: {digests}")
        if plan.reference is None and not problems:
            plan.reference = digests
        first = i == 0
        outcomes.append(
            Outcome(
                traced=traced,
                first=first,
                items=plan.items,
                failed=plan.items if problems else failed_items,
                setup_s=call["t_work"] - t_spawn if first else math.nan,
                work_s=call["t_end"] - call["t_work"],
                peak_rss_mb=result["peak_rss_mb"],
                problems=problems,
                layers=layers if first else {},
                complete_ms=result.get("complete_ms", []) if first else [],
                reference_s=around[i] if i < len(around) else math.nan,
                setup_reference_s=setup_reference if first else math.nan,
            )
        )
        shutil.rmtree(call_dir, ignore_errors=True)
    return outcomes


def _import_confcal():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from confcal import harness, metrics

    return harness, metrics


def _eval_check(task_path: Path, dataset: Path, n_bins: int = 10):
    harness, metrics = _import_confcal()
    task = harness.TaskSpec.from_file(task_path)
    ids = sorted(json.loads(line)["id"] for line in dataset.read_text(encoding="utf-8").splitlines())

    def check(out: Path, cache: Path | None) -> tuple[int, list[str]]:
        problems = []
        rows = [json.loads(line) for line in (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
        if [r["id"] for r in rows] != ids:
            problems.append("records.jsonl ids differ from the dataset ids")
        records = [
            metrics.EvalRecord(
                id=r["id"], task_id=r["task_id"], prediction=r["prediction"], gold=r["gold"],
                correct=r["correct"], confidence=r["confidence"], method=r["method"],
                flags=frozenset(r["flags"]),
            )
            for r in rows
        ]
        if not harness.verify_records(task, records):
            problems.append("verify_records rejects records.jsonl")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        accuracy = round(sum(r.correct for r in records) / max(len(records), 1), 6)
        if report["n"] != len(ids) or abs(report["accuracy"] - accuracy) > 1e-9:
            problems.append("report.json disagrees with records.jsonl")
        with open(out / "calibration_curve.csv", newline="", encoding="utf-8") as fh:
            if len(list(csv.reader(fh))) != n_bins + 1:
                problems.append(f"calibration_curve.csv does not have {n_bins} bins")
        errors = sum(1 for r in rows if any(f.startswith("error:") for f in r["flags"]))
        return errors, problems

    return check


def _adaptive_oracle(work: Path, cache: Path, taus: list[float]) -> dict[str, tuple[str, str]]:
    """Retrieval and accuracy percentages at a few taus, from ``answer_adaptive``
    run example by example on the responses the sweep left in its cache."""
    harness, _ = _import_confcal()
    from confcal import adaptive, client, errors

    class CacheOnly:
        def complete(self, request):
            raise errors.MalformedResponse("the sweep's cache lacks a response it needed")

    task = harness.TaskSpec.from_file(work / "task.json")
    examples = harness.load_dataset(work / "sweep.jsonl", task)
    model = client.ModelClient(CacheOnly(), model_name=gen.MODEL_NAME, cache=client.ResponseCache(cache))
    retriever = adaptive.StaticRetriever.from_examples(examples)

    def right(answer: str, gold) -> bool:
        try:
            return harness.match_answer(answer, gold, task.matcher)
        except errors.NoNumberFound:
            return False

    picks = [taus[round(i * (len(taus) - 1) / (ORACLE_TAUS - 1))] for i in range(ORACLE_TAUS)]
    expected = {}
    for tau in picks:
        try:
            outcomes = [adaptive.answer_adaptive(ex, tau, model, retriever) for ex in examples]
        except errors.ConfcalError as exc:
            raise ValueError(f"answer_adaptive failed at tau={tau}: {exc}") from exc
        retrieved = sum(o.retrieved for o in outcomes)
        correct = sum(right(o.final_answer, ex.gold) for o, ex in zip(outcomes, examples))
        n = len(examples)
        expected[f"{tau:.6f}"] = (f"{100.0 * retrieved / n:.6f}", f"{100.0 * correct / n:.6f}")
    return expected


def _sweep_check(work: Path, taus: list[float]):
    header = ["tau", "retrieval_pct", "accuracy_pct", "gain_pp", "efficiency"]
    grid = [f"{t:.6f}" for t in taus]
    oracle_done: list[bool] = []

    def check(out: Path, cache: Path | None) -> tuple[int, list[str]]:
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [header] or [r[0] for r in rows[1:]] != grid:
            return 0, ["sweep.csv header or tau column differs from the grid"]
        rates = [float(r[1]) for r in rows[1:]]
        base = float(rows[1][2])
        problems = []
        # The stub's self-evaluation confidence never reaches 1.
        if rates[0] != 0.0 or rates[-1] != 100.0 or any(b < a for a, b in zip(rates, rates[1:])):
            problems.append("retrieval_pct is not 0 at tau=0, 100 at tau=1 and non-decreasing")
        for row in rows[1:]:
            rate, acc, gain, eff = float(row[1]), float(row[2]), float(row[3]), row[4]
            if not 0.0 <= acc <= 100.0 or abs(gain - (acc - base)) > 2e-6 or (eff == "") != (rate == 0.0):
                problems.append(f"inconsistent sweep row at tau={row[0]}")
                break
        # Later calls must repeat this one byte for byte, so once a run is enough.
        if not oracle_done:
            oracle_done.append(True)
            by_tau = {row[0]: (row[1], row[2]) for row in rows[1:]}
            for tau, want in _adaptive_oracle(work, cache, taus).items():
                if by_tau[tau] != want:
                    problems.append(f"sweep row at tau={tau} has {by_tau[tau]}, answer_adaptive gives {want}")
        return 0, problems

    return check


def _sandbox_check(steps: int, trace_every: int = 10):
    expected_rows = 3 * (steps // trace_every + 1) + 1

    def check(out: Path, cache: Path | None) -> tuple[int, list[str]]:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
            n_rows = sum(1 for _ in csv.reader(fh))
        problems = []
        if summary.get("ce_most_calibrated") is not True:
            problems.append("cross-entropy arm is not the most calibrated")
        if n_rows != expected_rows:
            problems.append(f"trace.csv has {n_rows} rows, expected {expected_rows}")
        return 0, problems

    return check


def prepare(workload: str, seed: int, work: Path, stubs: list[Stub], deadline: float) -> tuple[Plan, str]:
    """Write the workload's inputs; return its plan and a line describing them.
    Every stub started is appended to ``stubs`` for the caller to close."""
    expected = EXPECTED["digests"][workload] if seed == DEFAULT_SEED else None
    if workload == "eval-http":
        stub = Stub()
        stubs.append(stub)
        config = gen.eval_inputs(work, seed, EVAL_N, stub.base_url, EVAL_CONCURRENCY)
        plan = Plan(
            name=workload,
            argv=["eval", "--config", str(config)],
            items=EVAL_N,
            unit="examples",
            check=_eval_check(work / "task.json", work / "eval.jsonl"),
            artifacts=("records.jsonl", "report.json", "calibration_curve.csv"),
            cache=lambda d: d / "cache.jsonl",
            stub=stub,
            deadline=deadline,
            expected=expected,
        )
        return plan, (
            f"{EVAL_N} short generation examples (~{gen.REPEAT_RATE:.0%} repeat the previous question), "
            f"concurrency {EVAL_CONCURRENCY}, empty cache, stub delay {SERVICE_DELAY_S * 1000:g} ms"
        )
    if workload in ("sweep-http", "sweep-cached"):
        stub = Stub()
        stubs.append(stub)
        taus = gen.sweep_inputs(work, seed, SWEEP_N, SWEEP_TAUS)
        cold = gen.sweep_config(work, "sweep-http", stub.base_url, taus)
        plan = Plan(
            name=workload,
            argv=["sweep", "--config", str(cold)],
            items=SWEEP_N,
            unit="examples",
            check=_sweep_check(work, taus),
            artifacts=("sweep.csv",),
            cache=lambda d: d / "cache.jsonl",
            stub=stub,
            deadline=deadline,
            expected=expected,
        )
        describe = (
            f"{SWEEP_N} examples with {gen.CONTEXT_CHARS[0]}-{gen.CONTEXT_CHARS[1]} char contexts, "
            f"{len(taus)} taus, one client"
        )
        if workload == "sweep-http":
            return plan, describe + f", cold cache, stub delay {SERVICE_DELAY_S * 1000:g} ms"
        # Fill the cache with one cold sweep; its sweep.csv is the reference.
        warm = work / "warm-cache.jsonl"
        plan.cache = lambda d: warm
        filled = invoke(plan, work / "fill", traced=False, until=0.0)
        stub.close()
        plan.failed_setup += [o for o in filled if o.problems]
        closed = gen.sweep_config(work, "sweep-cached", f"http://127.0.0.1:{_closed_port()}/v1", taus)
        plan.argv = ["sweep", "--config", str(closed)]
        plan.stub = None
        plan.frozen = warm
        plan.compute_only = True
        return plan, describe + ", cache filled by a cold sweep, backend port closed"
    if workload == "sandbox":
        config = gen.sandbox_config(work, seed, SANDBOX_STEPS)
        plan = Plan(
            name=workload,
            argv=["sandbox", "--config", str(config)],
            items=SANDBOX_STEPS,
            unit="steps of 3 arms",
            compute_only=True,
            check=_sandbox_check(SANDBOX_STEPS),
            artifacts=("trace.csv", "summary.json"),
            deadline=deadline,
            expected=expected,
        )
        return plan, f"{SANDBOX_STEPS} steps of the ce, advantage and dpo arms, batch 64"
    raise ValueError(f"unknown workload {workload!r}")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def _per_layer(outcomes: list[Outcome], plain: list[Outcome]) -> dict[str, float]:
    """Medians over the traced calls; call latencies pooled across them; work
    time and tracing overhead from the fastest call of each kind; the median
    reference loop and reference set-up of the untraced processes."""
    traced = [o for o in outcomes if o.traced and o.layers]
    layers = {name: statistics.median(o.layers[name] for o in traced) for name in traced[0].layers}
    latencies = sorted(ms for o in traced for ms in o.complete_ms)
    layers["client.complete_p50_ms"] = _percentile(latencies, 0.50)
    layers["client.complete_p99_ms"] = _percentile(latencies, 0.99)
    layers["client.complete_samples"] = len(latencies)
    # Traced calls are the first of their process, so they are compared with
    # first calls only, the fastest of each kind.
    fastest = min(o.work_s for o in plain if o.first)
    layers["run.work_s"] = fastest
    layers["trace.overhead_s"] = min(o.work_s for o in traced) - fastest
    layers["host.reference_ms"] = 1000 * statistics.median([o.reference_s for o in plain])
    layers["host.reference_setup_s"] = statistics.median([o.setup_reference_s for o in plain if o.first])
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stubs: list[Stub] = []
    try:
        plan, describe = prepare(workload, seed, work, stubs, time.monotonic() + seconds + GRACE_S)
        outcomes: list[Outcome] = []
        start = time.monotonic()
        end = start + seconds
        k = 0
        need = 2 if trace else MIN_PROCESSES
        while k < need or (time.monotonic() < end and time.monotonic() < plan.deadline):
            traced = trace and k % 2 == 1
            setup_reference = math.nan if traced else _reference_setup()
            until = 0.0 if traced else min(time.monotonic() + PROCESS_S, end)
            outcomes += invoke(plan, work / f"inv{k}", traced, until, setup_reference)
            shutil.rmtree(work / f"inv{k}")
            k += 1
    finally:
        for stub in stubs:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)

    # Timings of a failed call measure the failure, not the work.
    plain = [o for o in outcomes if not o.traced and not o.problems] or [
        o for o in outcomes if not o.traced
    ]
    # The host runs in fast and slow spells, from milliseconds to minutes
    # long, whatever runs on it, and a slow spell makes CPU work take up to
    # twice as long or more. A call's time over the mean time of the
    # reference loop run around it, in blocks as long as the call, is its
    # length in reference loops: that ratio moves far less from spell to
    # spell than the time does. Compute-only rates are taken from the median
    # ratio, for a host that runs the loop in REFERENCE_S; so is set-up, from
    # each set-up over the reference set-up timed right before it.
    rates = [o.items / o.work_s if o.work_s > 0 else 0.0 for o in plain]
    loops = [o.work_s / o.reference_s for o in plain]
    setups = [o.setup_s for o in plain if o.first]
    setup_ratios = [o.setup_s / o.setup_reference_s for o in plain if o.first]
    if plan.compute_only:
        items_per_s = plan.items / (statistics.median(loops) * REFERENCE_S)
    else:
        items_per_s = statistics.median(rates)
    counted = plan.failed_setup + outcomes
    attempted = sum(o.items for o in counted)
    failed = sum(o.failed for o in counted)
    summary = {
        "describe": describe,
        "unit": plan.unit,
        "processes": k,
        "calls": len(outcomes),
        "attempted": attempted,
        "failed": failed,
        "problems": sorted({p for o in counted for p in o.problems}),
        "digests": plan.reference,
        "setups": [round(v, 3) for v in setups],
        "rates": [round(rate, 1) for rate in rates],
        "loops": [round(v, 2) for v in loops],
        "references": [round(1000 * o.reference_s, 2) for o in plain],
        "scaled": plan.compute_only,
        "setup_references": [round(o.setup_reference_s, 3) for o in plain if o.first],
        "end_to_end": {
            "setup_s": statistics.median(setup_ratios) * REFERENCE_SETUP_S,
            "items_per_s": items_per_s,
            "peak_rss_mb": max(o.peak_rss_mb for o in plain),
        },
    }
    if trace:
        summary["per_layer"] = _per_layer(outcomes, plain)
    return summary


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result_line(summary: dict, section: str, declared: list[dict], prefix: str = "") -> dict:
    values = summary["end_to_end"] if section == "end_to_end" else summary["per_layer"]
    metrics = {}
    for spec in declared:
        if spec["name"] not in values:
            raise KeyError(f"metric {spec['name']!r} was not measured")
        metrics[prefix + spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="confcal benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let ``finally`` blocks stop the stub and the program when the run is ended.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "confcal" / "__init__.py").is_file():
        print(f"no confcal sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    declared = _declared()
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        summary = run_workload(workload, args.seed, seconds, bool(args.trace))
        attempted += summary["attempted"]
        failed += summary["failed"]
        e2e = summary["end_to_end"]
        print(
            f"{workload}: {summary['describe']}; {summary['processes']} processes, {summary['calls']} calls; "
            f"setup_s={e2e['setup_s']:.4f} items_per_s={e2e['items_per_s']:.2f} ({summary['unit']}/s) "
            f"peak_rss_mb={e2e['peak_rss_mb']:.1f} "
            f"failed_frac={summary['failed'] / summary['attempted']:.4f} "
            f"({summary['failed']}/{summary['attempted']})"
        )
        print(f"{workload}: set-up per process {summary['setups']} s; rate per call {summary['rates']} {summary['unit']}/s")
        print(f"{workload}: reference loop ms {summary['references']}")
        print(f"{workload}: call length in reference loops {summary['loops']}")
        print(f"{workload}: reference set-up s {summary['setup_references']}")
        print(
            f"{workload}: unscaled set-up median {statistics.median(summary['setups']):.4f} s, "
            f"unscaled median rate {statistics.median(summary['rates']):.2f} {summary['unit']}/s"
            + ("" if summary["scaled"] else " (the rate is not scaled: the work waits on the stub)")
        )
        print(f"{workload}: artifact digests {json.dumps(summary['digests'], sort_keys=True)}")
        for problem in summary["problems"]:
            print(f"{workload}: FAILED CHECK {problem}")
        if args.trace:
            for name, value in summary["per_layer"].items():
                print(f"{workload}:   {name} = {value:.6g}")
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update(_result_line(summary, section, declared[section], prefix))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
