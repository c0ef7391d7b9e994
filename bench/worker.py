"""Runs one confcal command in this fresh process, repeatedly, and reports where time went.

    python3 worker.py --root CHECKOUT --result OUT.json [--until T] [--reference F]
        [--spans SPANS.jsonl] -- ARGS...

ARGS are the ``confcal`` command-line arguments; ``{call}`` in them is
replaced by the number of the call, so that every call writes its own
artifacts. The command runs once, then again until the monotonic time T
has passed; after each call the fixed loop of ``reference.py`` runs for F
times as long as the call's work took, and at least once. confcal is
imported from ``CHECKOUT/src`` and nowhere else.

The result file holds, per call, its exit code, the monotonic time at which
its first unit of work began (the first call into ``run_eval``, ``sweep`` or
``run_paradigm_comparison``) and the time at which it had returned and every
thread it started that a process waits for at exit had ended; the mean time
of the reference loop after each call; the import time of ``confcal.cli``;
and the peak resident memory of this process after the first call. With
``--spans`` the command runs once, with the public functions of every layer
wrapped by a tracer first and no reference loop; the result then also holds
per-layer counts and times and the latency of every ``ModelClient.complete``
call, and the spans are written to SPANS.jsonl at exit.
"""

import argparse
import json
import resource
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import reference
from tracing import Tracer


def _install_tracer(tracer: Tracer, fetched: Counter) -> None:
    from confcal import adaptive, cli, client, confidence, harness, metrics, sandbox

    example_id = lambda args: args[1].id  # noqa: E731  (task, example, ...) call shape
    first_id = lambda args: args[0].id  # noqa: E731  (example, client, ...) call shape
    plan = [
        (client.ModelClient, "complete", "client.ModelClient.complete", {}),
        (client.HTTPBackend, "complete", "client.Backend.complete", {"gauge": True}),
        (client, "request_digest", "client.request_digest", {}),
        (client.ResponseCache, "__init__", "client.ResponseCache.load", {}),
        (client.ResponseCache, "get", "client.ResponseCache.get", {"count": lambda r: r is not None}),
        (client.ResponseCache, "put", "client.ResponseCache.put", {}),
        (confidence, "self_eval_confidence", "confidence.self_eval_confidence", {}),
        (confidence, "normalized_confidence", "confidence.normalized_confidence", {}),
        (harness.TaskSpec, "from_file", "harness.TaskSpec.from_file", {}),
        (harness, "load_dataset", "harness.load_dataset", {}),
        (harness, "run_eval", "harness.run_eval", {}),
        (harness, "_eval_one", "harness.eval_one", {"rid": example_id}),
        (harness, "match_answer", "harness.match_answer", {}),
        (metrics, "build_report", "metrics.build_report", {}),
        (adaptive, "sweep", "adaptive.sweep", {}),
        (adaptive, "_first_pass", "adaptive.first_pass", {"rid": first_id}),
        (adaptive, "_second_pass", "adaptive.second_pass", {"rid": first_id}),
        (sandbox, "run_paradigm_comparison", "sandbox.run_paradigm_comparison", {}),
        (sandbox, "ce_step", "sandbox.ce_step", {}),
        (sandbox, "advantage_step", "sandbox.advantage_step", {}),
        (sandbox, "dpo_step", "sandbox.dpo_step", {}),
        (sandbox.ToyPolicy, "__post_init__", "sandbox.ToyPolicy.build", {}),
        (cli, "build_client", "cli.build_client", {}),
    ]
    for owner, attr, name, options in plan:
        tracer.install(owner, attr, name, **options)

    traced = client.HTTPBackend.complete

    def counting(self, request):
        fetched[request] += 1
        return traced(self, request)

    client.HTTPBackend.complete = counting


def _layers(tracer: Tracer, fetched: Counter) -> dict[str, float]:
    groups = tracer.by_name()
    self_times = tracer.self_times()

    def calls(name):
        return len(groups.get(name, ()))

    def busy(name):
        return sum(end - start for _, _, start, end, _, _ in groups.get(name, ()))

    def self_s(name):
        return sum(self_times[span[0]] for span in groups.get(name, ()))

    gets = calls("client.ResponseCache.get")
    hits = tracer.counts.get("client.ResponseCache.get.hits", 0)
    return {
        "client.backend_calls": calls("client.Backend.complete"),
        "client.backend_busy_s": busy("client.Backend.complete"),
        "client.inflight_max": tracer.inflight_max.get("client.Backend.complete", 0),
        "client.dup_fetches": sum(n - 1 for n in fetched.values()),
        "client.cache_hits": hits,
        "client.cache_hit_ratio": hits / gets if gets else 0.0,
        "client.cache_put_busy_s": busy("client.ResponseCache.put"),
        "client.cache_load_s": busy("client.ResponseCache.load"),
        "client.digest_calls": calls("client.request_digest"),
        "client.digest_busy_s": busy("client.request_digest"),
        "confidence.calls": calls("confidence.self_eval_confidence")
        + calls("confidence.normalized_confidence"),
        "confidence.busy_s": busy("confidence.self_eval_confidence")
        + busy("confidence.normalized_confidence"),
        "harness.load_dataset_s": busy("harness.load_dataset") + busy("harness.TaskSpec.from_file"),
        "harness.match_calls": calls("harness.match_answer"),
        "harness.match_busy_s": busy("harness.match_answer"),
        "harness.run_eval_self_s": self_s("harness.run_eval"),
        "metrics.build_report_s": busy("metrics.build_report"),
        "adaptive.sweep_self_s": self_s("adaptive.sweep"),
        "sandbox.ce_step_s": busy("sandbox.ce_step"),
        "sandbox.advantage_step_s": busy("sandbox.advantage_step"),
        "sandbox.dpo_step_s": busy("sandbox.dpo_step"),
        "sandbox.policy_builds": calls("sandbox.ToyPolicy.build"),
        "cli.self_s": self_s("cli.main"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="run one confcal command and time it")
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--reference", type=float, default=0.0)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    src = Path(opts.root).resolve() / "src"
    sys.path.insert(0, str(src))
    t_import = time.monotonic()
    import confcal.cli as cli

    import_s = time.monotonic() - t_import
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"confcal was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    from confcal import adaptive, harness, sandbox

    tracer = Tracer() if opts.spans else None
    fetched: Counter = Counter()
    if tracer is not None:
        _install_tracer(tracer, fetched)

    marks: dict[str, float] = {}

    def mark_work(fn):
        def first_call(*args, **kwargs):
            marks.setdefault("work", time.monotonic())
            return fn(*args, **kwargs)

        return first_call

    harness.run_eval = mark_work(harness.run_eval)
    adaptive.sweep = mark_work(adaptive.sweep)
    sandbox.run_paradigm_comparison = mark_work(sandbox.run_paradigm_comparison)

    entry = tracer.wrap("cli.main", cli.main) if tracer is not None else cli.main
    calls = []
    reference_s: list[float] = []
    peak_rss_mb = 0.0
    while True:
        marks.clear()
        try:
            code = entry([arg.replace("{call}", str(len(calls))) for arg in argv])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        # A process would wait for these at exit, so the call has not ended before them.
        for thread in threading.enumerate():
            if thread is not threading.current_thread() and not thread.daemon:
                thread.join()
        t_end = time.monotonic()
        calls.append({"exit_code": code, "t_work": marks.get("work", t_end), "t_end": t_end})
        if len(calls) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is None:
            reference_s.append(reference.timed(opts.reference * (t_end - calls[-1]["t_work"])))
        if code != 0 or tracer is not None or time.monotonic() >= opts.until:
            break

    result = {"calls": calls, "reference_s": reference_s, "import_s": import_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["layers"] = _layers(tracer, fetched)
        result["complete_ms"] = [
            1000 * (end - start)
            for _, _, start, end, _, _ in tracer.by_name().get("client.ModelClient.complete", ())
        ]
        tracer.dump(opts.spans)
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(c["exit_code"] == 0 for c in calls) else 1


if __name__ == "__main__":
    sys.exit(main())
