"""The traced run: per-layer metrics from perfbench_trace's spans plus the
server's own counters.

Timings come from the in-process replay (perfbench_trace); counts come from
the `stats` response at the end of the end-to-end part of the same run.
Every metric is printed with the end-to-end metric and workload it should
move. A coverage phase after the replayed workload releases once with each
mechanism, so every metric has a value on every workload; a metric whose
samples all come from that phase is marked `coverage` in the table.
"""

import os
import random
import statistics
import subprocess

import stats
import workloads

COVERAGE_OFFSET = 1000000000  # request ids of the coverage phase start here

# name -> (unit, maps to "<end-to-end metric> @ <workload>")
METRICS = {
    "net.frame_us": ("us", "query_ms.p50 @ release_churn"),
    "engine.parse_us": ("us", "query_ms.p50 @ release_churn"),
    "batcher.batch_size.mean": ("count", "query_ms.p50 @ release_churn"),
    "batcher.engine_calls_per_query": ("ratio",
                                       "query_ms.p50 @ release_churn"),
    "exec.wait_us.mean": ("us", "query_ms.p50 @ release_churn"),
    "exec.wait_us.max": ("us", "op_ms.p80 @ release_churn"),
    "engine.submit_ms": ("ms", "op_ms.p50 @ release_fresh, release_churn"),
    "engine.submit_cached_us": ("us", "op_ms.p50 @ release_churn"),
    "engine.submit_unattributed_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "spec.parse_us": ("us", "op_ms.p50 @ release_churn"),
    "spec.workload_ms": ("ms", "op_ms.p50 @ release_churn"),
    "planner.stats_ms": ("ms", "op_ms.p50 @ release_fresh, release_churn"),
    "planner.plan_ms": ("ms", "op_ms.p50 @ release_fresh, release_churn"),
    "catalog.register_ms": ("ms", "setup_s, op_ms.p50 @ release_churn"),
    "ledger.save_ms": ("ms", "op_ms.p50 @ release_churn"),
    "cache.hit_ratio": ("ratio", "op_ms.p50 @ release_churn"),
    "core.partition_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "core.two_table_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "release.pmw.rounds": ("count", "op_ms.p50 @ release_fresh"),
    "release.pmw.dense_rounds": ("count", "op_ms.p50 @ release_fresh"),
    "release.pmw.sparse_rounds": ("count", "op_ms.p50 @ release_fresh"),
    "release.pmw.score_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "release.pmw.update_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "release.pmw.normalize_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "release.pmw.score_gflops": ("GFLOP/s", "op_ms.p50 @ release_fresh"),
    "release.pmw_factored_ms": ("ms", "op_ms.p50 @ release_churn"),
    "hierarchical.uniformize_ms": ("ms", "op_ms.p50 @ release_churn"),
    "core.multi_table_ms": ("ms", "op_ms.p50 @ release_churn"),
    "relational.exact_answers_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "relational.join_count_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "sensitivity.residual_ms": ("ms", "op_ms.p50 @ release_fresh, "
                                      "release_churn"),
    "query.evaluator_build_ms": ("ms", "op_ms.p50 @ release_fresh"),
    "query.answer_batch_us_per_id": ("us", "query_ms.p50 @ release_churn"),
    "query.answer_all_ms": ("ms", "query_ms.p50 @ release_fresh"),
    "json.serialize_ms": ("ms", "query_ms.p50 @ release_fresh"),
    "json.ns_per_number": ("ns", "query_ms.p50 @ release_fresh"),
    "trace.op_ms.p50": ("ms", "op_ms.p50 @ this workload (traced)"),
    "trace.untraced_minus_traced_ms": ("ms", "op_ms.p50 @ this workload"),
}
UNITS = {name: unit for name, (unit, _maps) in METRICS.items()}

# The release whose all:true answers the answer_all/json metrics time: the
# 3721-query random_sign:60 two-table workload.
ALL_NUMBERS = 3721


def coverage_phase(seed):
    """One release per mechanism, each queried, for every traced run."""
    rng = random.Random("coverage:%d" % seed)
    w = workloads
    phase = w.Phase("coverage")
    specs = [
        ("cov_tt", w.TWO_TABLE_ATTRS, w.TWO_TABLE_RELS, 4000,
         "random_sign:60", "two_table", 3721),
        ("cov_star", w.STAR_ATTRS, w.STAR_RELS, w.STAR_TUPLES,
         w.STAR_WORKLOAD, "hierarchical", w.STAR_QUERIES),
        ("cov_path", w.PATH_ATTRS, w.PATH_RELS, w.PATH_TUPLES,
         w.PATH_WORKLOAD, "pmw", w.PATH_QUERIES),
        ("cov_wide", w.WIDE_ATTRS, w.WIDE_RELS, w.WIDE_TUPLES,
         w.WIDE_WORKLOAD, "pmw", w.WIDE_QUERIES),
        ("cov_small", w.SMALL_ATTRS, w.SMALL_RELS, 1000, "prefix:8", "pmw", 9),
    ]
    for name, attrs, rels, tuples, wl, mechanism, nq in specs:
        phase.reqs.append(w.register(name, w.zipf_source(
            tuples, rng.randrange(1 << 30)), attrs, rels))
        phase.reqs.append(w.release(name, name, rng.randrange(1, 1 << 40),
                                    w.spec_text(name, attrs, rels, wl),
                                    mechanism))
        phase.reqs.append(w.query_ids(name, [rng.randrange(nq)
                                             for _ in range(16)]))
        if nq == ALL_NUMBERS:
            phase.reqs.append(w.query_all(name))
    return phase


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, req, sid, parent, start, end, attrs = \
                line.rstrip("\n").split("\t")
            spans.append({
                "name": name, "req": int(req), "id": int(sid),
                "parent": int(parent), "ns": int(end) - int(start),
                "attrs": {k: float(v) for k, v in
                          (kv.split("=") for kv in attrs.split(";") if kv)},
            })
    return spans


def self_times(spans):
    """name -> (count, total ns, self ns): a span's self time is its
    duration minus its children's (the replay is serial, so children never
    overlap)."""
    child_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["ns"]
    table = {}
    for s in spans:
        count, total, own = table.get(s["name"], (0, 0, 0))
        table[s["name"]] = (count + 1, total + s["ns"],
                            own + s["ns"] - child_ns.get(s["id"], 0))
    return table


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return sum(values) / len(values) if values else None


def derive(spans, workload, flat_reqs, server_stats, untraced_op_ms):
    """The per-layer metrics, plus the set of metrics whose samples all came
    from the coverage phase."""
    by_id = {s["id"]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] >= 0 else ""

    coverage_only = set()

    def pick(name, metric, keep=lambda s: True):
        chosen = [s for s in named.get(name, []) if keep(s)]
        if chosen and all(s["req"] >= COVERAGE_OFFSET for s in chosen):
            coverage_only.add(metric)
        return chosen

    def ms(spans_):
        return [s["ns"] / 1e6 for s in spans_]

    m = {}
    m["net.frame_us"] = _mean([s["ns"] / 1e3 for s in pick("net.frame",
                                                           "net.frame_us")])
    m["engine.parse_us"] = _mean([
        s["ns"] / 1e3 for s in pick(
            "engine.parse", "engine.parse_us",
            lambda s: parent_name(s) == "request.query")])
    fresh = pick("engine.submit", "engine.submit_ms",
                 lambda s: s["attrs"].get("fresh") == 1)
    m["engine.submit_ms"] = _median(ms(fresh))
    m["engine.submit_cached_us"] = _median([
        s["ns"] / 1e3 for s in pick("engine.submit_cached",
                                    "engine.submit_cached_us")])
    m["engine.submit_unattributed_ms"] = _median([
        s["attrs"]["submit_unattributed_ns"] / 1e6
        for s in pick("replay", "engine.submit_unattributed_ms")])
    m["spec.parse_us"] = _mean([s["ns"] / 1e3 for s in pick(
        "spec.parse", "spec.parse_us")])
    for name, metric in [
            ("spec.workload", "spec.workload_ms"),
            ("planner.stats", "planner.stats_ms"),
            ("planner.plan", "planner.plan_ms"),
            ("catalog.register", "catalog.register_ms"),
            ("ledger.save", "ledger.save_ms"),
            ("core.partition", "core.partition_ms"),
            ("release.pmw_factored", "release.pmw_factored_ms"),
            ("hierarchical.uniformize", "hierarchical.uniformize_ms"),
            ("core.multi_table", "core.multi_table_ms"),
            ("relational.exact_answers", "relational.exact_answers_ms"),
            ("relational.join_count", "relational.join_count_ms"),
            ("sensitivity.residual", "sensitivity.residual_ms"),
            ("query.evaluator_build", "query.evaluator_build_ms")]:
        m[metric] = _median(ms(pick(name, metric)))

    # A two-table release runs TwoTable (and its PMW) once per bucket: sum
    # the buckets of each release, then take the median over releases.
    per_release = {}
    for s in pick("core.two_table", "core.two_table_ms"):
        acc = per_release.setdefault(s["req"], {"ns": 0})
        acc["ns"] += s["ns"]
        for k, v in s["attrs"].items():
            acc[k] = acc.get(k, 0) + v
    releases = list(per_release.values())
    if "core.two_table_ms" in coverage_only:
        coverage_only.update(k for k in METRICS
                             if k.startswith("release.pmw."))
    m["core.two_table_ms"] = _median([r["ns"] / 1e6 for r in releases])
    m["release.pmw.rounds"] = _median([r["pmw_rounds"] for r in releases])
    m["release.pmw.dense_rounds"] = _median([r["pmw_dense"] for r in releases])
    m["release.pmw.sparse_rounds"] = _median([r["pmw_sparse"]
                                              for r in releases])
    m["release.pmw.score_ms"] = _median([r["pmw_score_us"] / 1e3
                                         for r in releases])
    m["release.pmw.update_ms"] = _median([r["pmw_update_us"] / 1e3
                                          for r in releases])
    m["release.pmw.normalize_ms"] = _median([r["pmw_normalize_us"] / 1e3
                                             for r in releases])
    score_us = sum(r["pmw_score_us"] for r in releases)
    m["release.pmw.score_gflops"] = (
        sum(r["pmw_flops"] for r in releases) / (score_us * 1e3)
        if score_us else None)

    batches = pick("query.answer_batch", "query.answer_batch_us_per_id")
    ids = sum(s["attrs"]["ids"] for s in batches)
    m["query.answer_batch_us_per_id"] = (
        sum(s["ns"] for s in batches) / 1e3 / ids if ids else None)
    big = lambda s: s["attrs"].get("numbers") == ALL_NUMBERS  # noqa: E731
    m["query.answer_all_ms"] = _median(ms(pick(
        "query.answer_all", "query.answer_all_ms", big)))
    serialized = pick("json.serialize", "json.serialize_ms", big)
    if "json.serialize_ms" in coverage_only:
        coverage_only.add("json.ns_per_number")
    m["json.serialize_ms"] = _median(ms(serialized))
    m["json.ns_per_number"] = _median([s["ns"] / ALL_NUMBERS
                                       for s in serialized])

    serving = server_stats["serving"]
    requests = serving["query_requests"]
    calls = serving["engine_calls"]
    m["batcher.batch_size.mean"] = requests / calls
    m["batcher.engine_calls_per_query"] = calls / requests
    waits = serving["per_release"].values()
    count = sum(w["wait"]["count"] for w in waits)
    m["exec.wait_us.mean"] = sum(w["wait"]["total_us"] for w in waits) / count
    m["exec.wait_us.max"] = max(w["wait"]["max_us"] for w in waits)
    cache = server_stats["cache"]
    m["cache.hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])

    traced = traced_ops_ms(spans, workload, flat_reqs)
    m["trace.op_ms.p50"] = stats.percentile(traced, 0.5)
    m["trace.untraced_minus_traced_ms"] = untraced_op_ms - m["trace.op_ms.p50"]
    missing = [k for k, v in m.items() if v is None]
    if missing:
        raise RuntimeError("traced run measured no %s" % ", ".join(missing))
    return m, coverage_only


def traced_ops_ms(spans, workload, flat_reqs):
    """The workload's op (as op_ms defines it) timed in-process: the sum of
    the request spans that make it up."""
    timed = {p.name for p in workload.phases if p.timed}
    timed_reqs = {}
    for s in spans:
        if not s["name"].startswith("request.") or s["req"] >= COVERAGE_OFFSET:
            continue
        phase, req = flat_reqs[s["req"]]
        if phase in timed:
            timed_reqs[s["req"]] = (req, s["ns"])
    if workload.name == "release_fresh":
        ops = [ns for req, ns in timed_reqs.values() if req.kind == "release"]
    else:
        cycles, expected = {}, {}
        for phase in workload.phases:
            if phase.timed:
                for req in phase.reqs:
                    expected[req.step] = expected.get(req.step, 0) + 1
        for req, ns in timed_reqs.values():
            total, n = cycles.get(req.step, (0, 0))
            cycles[req.step] = (total + ns, n + 1)
        ops = [total for step, (total, n) in cycles.items()
               if n == expected[step]]
    if not ops:
        raise RuntimeError("traced replay completed no timed operation")
    return [ns / 1e6 for ns in ops]


def traced(trace_bin, workload, checker, seed, seconds, e2e, run_dir, tag):
    """Runs the in-process replay and returns the per-layer metrics."""
    phases = [p for p in workload.phases if p.name != "check"]
    flat_reqs = [(p.name, req) for p in phases for req in p.reqs]
    coverage = coverage_phase(seed)
    script = os.path.join(run_dir, "%s.trace.script" % tag)
    with open(script, "w") as f:
        f.write(workloads.script_text(workloads.Workload(
            workload.name, phases + [coverage], [], "", False)))
    spans_path = os.path.join(run_dir, "%s.spans.tsv" % tag)
    ledger = os.path.join(run_dir, "%s-trace-ledger.json" % tag)
    cache = next((int(f.split("=")[1]) for f in workload.server_flags
                  if f.startswith("--cache=")), 64)
    args = [trace_bin, "--script=" + script, "--spans=" + spans_path,
            "--ledger=" + ledger, "--seconds=%r" % seconds,
            "--cache=%d" % cache]
    if workload.uses_ledger:
        args.append("--save-ledger")
    env = dict(os.environ, DPJOIN_THREADS=str(workload.threads))
    subprocess.run(args, check=True, env=env, timeout=170)
    spans = read_spans(spans_path)
    metrics, coverage_only = derive(spans, workload, flat_reqs, checker.stats,
                                    e2e["op_ms.p50"])

    print("self time by span (traced replay, %d spans written to %s):"
          % (len(spans), spans_path))
    for name, (count, total, own) in sorted(
            self_times(spans).items(), key=lambda kv: -kv[1][2]):
        print("  %-30s %7d calls %11.3f ms total %11.3f ms self"
              % (name, count, total / 1e6, own / 1e6))
    print("per-layer metrics (-> the end-to-end metric @ workload each "
          "should move):")
    for name in METRICS:
        print("  %-32s %12.6g %-8s -> %s%s" % (
            name, metrics[name], UNITS[name], METRICS[name][1],
            "  [coverage]" if name in coverage_only else ""))
    print("untraced op_ms.p50 = %.4f ms, traced in-process op = %.4f ms"
          % (e2e["op_ms.p50"], metrics["trace.op_ms.p50"]))
    return metrics

