"""The traced run: per-layer metrics from an in-process replay.

`traced_run` generates the workload's requests from the seed, sends them
once through the untraced binaries (the reference verdicts, cache
outcomes and latencies), replays the same requests in-process with
`perfbench-trace` (one span per public layer call), checks that both
agree with each other and with the known answers, and reduces the spans
and counts to the per-layer metrics below.
"""

import json
import os
import shutil
import statistics
import subprocess

import corpus
from run import (BenchError, Daemon, cli_args, cli_corpus, expected_verdicts, log, percentile,
                 post_verify, run_cli, save_record, serve_schedule)

# metric -> unit. `_ms` metrics are medians (per call for the per-check
# spans, per request otherwise); counts are summed over the replay's
# timed requests; ratios are taken over those sums.
UNITS = {
    "process.spawn_ms": "ms",
    "dsl.parse_ms": "ms",
    "compose.ms": "ms",
    "compose.components": "count",
    "compiled.compile_ms": "ms",
    "transition.build_ms": "ms",
    "transition.build_cpu_ms": "ms",
    "transition.build_ms_t1": "ms",
    "transition.sharded_over_sequential": "ratio",
    "transition.states": "count",
    "transition.edges": "count",
    "transition.shards": "count",
    "pred.build_ms": "ms",
    "pred.edges": "count",
    "fair.leadsto_ms": "ms",
    "fair.states_scanned": "count",
    "fair.worklist_pushes": "count",
    "check.safety_ms": "ms",
    "symbolic.build_ms": "ms",
    "symbolic.check_ms": "ms",
    "symbolic.peak_nodes": "count",
    "symbolic.apply_cache_hit_ratio": "ratio",
    "symbolic.sift_swaps": "count",
    "symbolic.gc_runs": "count",
    "compositional.plan_ms": "ms",
    "compositional.verify_ms": "ms",
    "compositional.cert_hit_ratio": "ratio",
    "compositional.product_fallbacks": "count",
    "compositional.component_checks": "count",
    "store.load_ms": "ms",
    "store.mem_hit_ratio": "ratio",
    "store.save_ms": "ms",
    "store.bytes_written": "count",
    "store.load_certs_ms": "ms",
    "store.save_certs_ms": "ms",
    "journal.append_ms": "ms",
    "report.to_json_ms": "ms",
    "report.bytes": "count",
    "service.verify_ms": "ms",
    "http.overhead_ms": "ms",
    "unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}

# Counts that must repeat exactly across traced runs on one seed.
DETERMINISTIC = (
    "transition.states", "transition.edges", "pred.edges", "fair.states_scanned",
    "symbolic.peak_nodes", "compositional.cert_hit_ratio", "store.bytes_written",
)

# Spans decided once per check: their metric is the per-call median.
PER_CALL = {"fair.leadsto", "check.safety", "symbolic.check"}
SPAN_METRIC = {
    "process.spawn": "process.spawn_ms",
    "dsl.parse": "dsl.parse_ms",
    "compose": "compose.ms",
    "compiled.compile": "compiled.compile_ms",
    "transition.build": "transition.build_ms",
    "transition.build_t1": "transition.build_ms_t1",
    "pred.build": "pred.build_ms",
    "fair.leadsto": "fair.leadsto_ms",
    "check.safety": "check.safety_ms",
    "symbolic.build": "symbolic.build_ms",
    "symbolic.check": "symbolic.check_ms",
    "compositional.plan": "compositional.plan_ms",
    "compositional.verify": "compositional.verify_ms",
    "store.load": "store.load_ms",
    "store.save": "store.save_ms",
    "store.load_certs": "store.load_certs_ms",
    "store.save_certs": "store.save_certs_ms",
    "journal.append": "journal.append_ms",
    "report.to_json": "report.to_json_ms",
    "service.verify": "service.verify_ms",
}
SUMMED = ("compose.components", "transition.states", "transition.edges", "transition.shards",
          "pred.edges", "fair.states_scanned", "fair.worklist_pushes", "symbolic.sift_swaps",
          "symbolic.gc_runs", "compositional.product_fallbacks",
          "compositional.component_checks", "store.bytes_written", "report.bytes")

# Timed requests per connection schedule in a traced serve replay.
SERVE_TRACE_REQUESTS = 60


def request_sequence(workload, seed):
    """[(spec, phase)]: the corpus for the CLI workloads; the warm-up pass
    plus the first requests of both connection schedules for serve."""
    if workload != "serve-session":
        return [(s, "timed") for s in cli_corpus(workload, seed)]
    cor = corpus.ServeCorpus(seed)
    seq = [(s, "setup") for s in cor.working_set()]
    streams = [serve_schedule(cor, seed, c) for c in (0, 1)]
    for _ in range(SERVE_TRACE_REQUESTS):
        for stream in streams:
            seq.append((next(stream)[1], "timed"))
    return seq


def untraced_pass(env, workload, seq, paths):
    """Each request once through the real binary: [(latency_ms, verdicts,
    cache)], with cache None for the CLI."""
    out = []
    if workload != "serve-session":
        for (spec, _), path in zip(seq, paths):
            ms, _, _, _, verdicts = run_cli(env, path, spec, cli_args(workload))
            out.append((ms, verdicts, None))
        return out
    daemon = Daemon(env, env.fresh_dir("trace-daemon"))
    try:
        for spec, _ in seq:
            ms, resp = post_verify(daemon.addr, spec)
            if resp is None:
                out.append((ms, {}, {}))
                continue
            verdicts = {c["name"]: c["verdict"] for c in resp["report"]["checks"]}
            c = resp["cache"]
            cache = {"ts_reachable": c["ts_reachable"], "cert_hits": str(c["cert_hits"]),
                     "cert_misses": str(c["cert_misses"])}
            out.append((ms, verdicts, cache))
    finally:
        daemon.stop()
        shutil.rmtree(os.path.join(env.work, "trace-daemon"), ignore_errors=True)
    return out


def traced_run(env, workload, seed, seconds):
    del seconds  # the replay is a fixed request sequence, not a time window
    seq = request_sequence(workload, seed)
    spec_dir = env.fresh_dir("trace-specs")
    paths = []
    manifest = []
    for i, (spec, phase) in enumerate(seq):
        paths.append(os.path.join(spec_dir, f"{i}.unity"))
        with open(paths[-1], "w") as f:
            f.write(spec.text)
        manifest.append(f"{i}\t{phase}\t{paths[-1]}\t{int(spec.compositional)}")
    with open(os.path.join(spec_dir, "manifest.tsv"), "w") as f:
        f.write("\n".join(manifest) + "\n")

    reference = untraced_pass(env, workload, seq, paths)
    out_path = os.path.join(spec_dir, "trace.jsonl")
    data = env.fresh_dir("trace-data")
    try:
        r = subprocess.run(
            [env.tracer, "--workload", workload, "--manifest",
             os.path.join(spec_dir, "manifest.tsv"), "--out", out_path, "--check-bin", env.check,
             "--data-dir", data],
            env=env.child_env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=170)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if r.returncode != 0:
        raise BenchError(f"perfbench-trace failed: {r.stderr.strip()}")
    spans, requests = [], {}
    with open(out_path) as f:
        for line in f:
            rec = json.loads(line)
            if "span" in rec:
                spans.append(rec)
            else:
                requests[rec["request"]] = rec

    failed = bad_setup = 0
    for i, (spec, phase) in enumerate(seq):
        rec = requests.get(i)
        ms, ref_verdicts, ref_cache = reference[i]
        want = expected_verdicts(spec)
        problems = []
        if rec is None:
            problems.append("not replayed")
        else:
            if rec["verdicts"] != want:
                problems.append(f"replay verdicts {rec['verdicts']}")
            if ref_cache is not None and rec["cache"] != ref_cache:
                problems.append(f"cache {rec['cache']} vs binary {ref_cache}")
        if ref_verdicts != want:
            problems.append(f"binary verdicts {ref_verdicts}")
        if problems:
            if phase == "timed":
                failed += 1
            else:
                bad_setup += 1
            log(f"request {i} ({spec.name}): " + "; ".join(problems))

    timed = [i for i, (_, phase) in enumerate(seq) if phase == "timed"]
    metrics = layer_metrics(workload, spans, requests, reference, timed)
    violations = []
    if workload == "check-symbolic" and metrics["transition.states"] != 0:
        violations.append("check-symbolic enumerated states")
    if workload == "serve-session" and any(s["span"] == "transition.build" and
                                           s["phase"] == "timed" for s in spans):
        violations.append("serve-session built a transition system in its timed phase")
    for v in violations:
        log(v)
    write_summary(env, workload, seed, seq, spans, requests, timed, metrics)
    correct = failed == 0 and bad_setup == 0 and not violations
    return correct, len(timed), failed, metrics


def _ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def layer_metrics(workload, spans, requests, reference, timed):
    timed_set = set(timed)
    per_req = {}  # (metric, req) -> summed ms
    per_call = {}  # metric -> [ms]
    path_ms = {}  # req -> ms covered by request-path spans
    for s in spans:
        if s["req"] not in timed_set:
            continue
        name = SPAN_METRIC.get(s["span"])
        if s["parent"] == "request":
            path_ms[s["req"]] = path_ms.get(s["req"], 0.0) + _ms(s)
        if name is None:
            continue
        if s["span"] in PER_CALL:
            per_call.setdefault(name, []).append(_ms(s))
        else:
            per_req[(name, s["req"])] = per_req.get((name, s["req"]), 0.0) + _ms(s)
    m = {k: 0.0 for k in UNITS}
    for name, xs in per_call.items():
        m[name] = statistics.median(xs)
    grouped = {}
    for (name, req), v in per_req.items():
        grouped.setdefault(name, {})[req] = v
    for name, by_req in grouped.items():
        m[name] = statistics.median(by_req.values())

    counts = {}
    for i in timed:
        for k, v in requests.get(i, {}).get("counts", {}).items():
            counts.setdefault(k, []).append(v)
    total = {k: sum(v) for k, v in counts.items()}
    for k in SUMMED:
        m[k] = total.get(k, 0.0)
    m["symbolic.peak_nodes"] = max(counts.get("symbolic.peak_nodes", [0.0]))
    if counts.get("transition.build_cpu_ns"):
        m["transition.build_cpu_ms"] = statistics.median(counts["transition.build_cpu_ns"]) / 1e6
    builds = grouped.get("transition.build_ms", {})
    t1 = grouped.get("transition.build_ms_t1", {})
    ratios = [builds[r] / t1[r] for r in builds if t1.get(r)]
    if ratios:
        m["transition.sharded_over_sequential"] = statistics.median(ratios)

    def share(num, *den):
        d = sum(total.get(k, 0.0) for k in den)
        return total.get(num, 0.0) / d if d else 0.0

    m["symbolic.apply_cache_hit_ratio"] = share("symbolic.cache_hits", "symbolic.cache_lookups")
    m["compositional.cert_hit_ratio"] = share("compositional.cert_hits", "compositional.cert_hits",
                                              "compositional.cert_misses")
    m["store.mem_hit_ratio"] = share("store.mem_hits", "store.loads")

    e2e = {i: requests[i]["e2e_ns"] / 1e6 for i in timed if i in requests}
    m["unattributed_ms"] = statistics.median(e2e[i] - path_ms.get(i, 0.0) for i in e2e)
    if workload == "serve-session":
        verify = grouped.get("service.verify_ms", {})
        m["http.overhead_ms"] = statistics.median(reference[i][0] - verify[i]
                                                  for i in e2e if i in verify)
        # Traced layered path against the same request's untraced
        # in-process Service::verify.
        m["trace.overhead_ms"] = statistics.median(e2e[i] - verify[i] for i in e2e if i in verify)
    else:
        spawn = m["process.spawn_ms"]
        m["trace.overhead_ms"] = statistics.median(spawn + e2e[i] - reference[i][0] for i in e2e)
    return m


def write_summary(env, workload, seed, seq, spans, requests, timed, metrics):
    """Per-span count/median/p90/total and every request record, next to
    the metrics, in .perfbench/results/<workload>-seed<seed>-trace.json."""
    timed_set = set(timed)
    by_name = {}
    for s in spans:
        if s["req"] in timed_set:
            by_name.setdefault(s["span"], []).append(_ms(s))
    table = {n: {"count": len(xs), "median_ms": statistics.median(xs),
                 "p90_ms": percentile(xs, 90), "total_ms": sum(xs)}
             for n, xs in sorted(by_name.items())}
    for n, row in table.items():
        log(f"  span {n:22} n={row['count']:4d} median={row['median_ms']:9.3f}ms "
            f"total={row['total_ms']:10.1f}ms")
    save_record(env, f"{workload}-seed{seed}-trace", {
        "workload": workload, "seed": seed, "provenance": env.provenance(),
        "corpus_digest": corpus.digest([spec for spec, _ in seq]),
        "spans": table, "metrics": metrics, "requests": [requests[i] for i in sorted(requests)],
    })
