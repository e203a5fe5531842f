#!/usr/bin/env python3
"""The dpjoin serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds dpjoin_serve, the load client and the
traced replay tool from source into .bench_build/ (Release), starts dpjoin_serve
over TCP with --workers=2 and the workload's DPJOIN_THREADS, plays the seeded workload
from one client process, checks every output and prints the metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload for
half the time to read the server's counters, then replays it in-process
through each layer's public functions with spans around every call
(perfbench_trace), and reports the per-layer metrics. Working files go to
.bench_run/. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
SERVER_WORKERS = "2"
# One malloc arena: with one per thread, the server's peak RSS depends on
# which thread happened to allocate what, and moved by ~10% between runs.
SERVER_MALLOC_ARENAS = "1"
SERVER_NICE = 5       # the load generator must not queue behind the server
SETUPS = 7            # set-ups per run; setup_s is their median
TAIL_Q = 0.8          # op_ms tail percentile (see README: sample counts)


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build

def build():
    """Configures (once) and builds the benchmark's targets; exits 1 when
    the repository sources are missing or do not compile."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                  "dpjoin_serve", "perfbench_client", "perfbench_trace"])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                log(tail)
                log("perfbench: build failed (log: %s)" % log_path)
                # A failed configure must not be mistaken for a finished one.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                sys.exit(1)
    return {
        "serve": os.path.join(BUILD_DIR, "dpjoin", "examples", "dpjoin_serve"),
        "client": os.path.join(BUILD_DIR, "perfbench_client"),
        "trace": os.path.join(BUILD_DIR, "perfbench_trace"),
    }


# --------------------------------------------------------------------------
# Server and client processes

def _server_pre():
    os.nice(SERVER_NICE)


class Server:
    """One dpjoin_serve process on a kernel-assigned port."""

    def __init__(self, binary, flags, threads, tag):
        self.log_path = os.path.join(RUN_DIR, "server-%s.log" % tag)
        env = dict(os.environ, DPJOIN_THREADS=str(threads),
                   MALLOC_ARENA_MAX=SERVER_MALLOC_ARENAS)
        self.log = open(self.log_path, "w")
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [binary, "--port=0", "--workers=" + SERVER_WORKERS,
             "--epsilon=1e12", "--delta=0.5"] + flags,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log, env=env, preexec_fn=_server_pre)
        try:
            self.port = self._wait_port()
        except BaseException:
            # The caller gets no Server to shut down.
            self.kill()
            self.log.close()
            raise

    def _wait_port(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                for line in f:
                    # The line may be read before the server finished it.
                    if ("listening on 127.0.0.1:" in line
                            and line.endswith("\n")):
                        return int(line.strip().rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("dpjoin_serve did not start (see %s)"
                           % self.log_path)

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for dpjoin_serve")

    def shutdown(self):
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=10) as s:
                s.sendall(b'{"cmd": "shutdown"}\n')
                s.makefile("rb").readline()
            self.proc.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        self.log.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def play(binary, port, script_path, out_path, until_timed):
    args = [binary, "--port=%d" % port, "--script=" + script_path,
            "--out=" + out_path]
    if until_timed:
        args.append("--until-timed")
    subprocess.run(args, check=True, timeout=170)
    return read_client_output(out_path)


def read_client_output(path):
    """[(name, start_ns, end_ns, cpu_us, {request index: (send_ns, done_ns,
    response)})]."""
    phases = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("phase\t"):
                _, name, start, end, cpu = line.split("\t")
                phases.append((name, int(start), int(end), int(cpu), {}))
            else:
                _, _, index, send, done, response = line.split("\t", 5)
                phases[-1][4][int(index)] = (int(send), int(done), response)
    return phases


# --------------------------------------------------------------------------
# Output checks

class Checker:
    """Checks every response of a run; collects what the metrics need."""

    def __init__(self, workload):
        self.workload = workload
        self.failures = []
        self.failed = 0
        self.attempted = 0
        self.num_queries = {}      # release id -> |Q|
        self.release_ids = {}      # spec name -> release id
        self.all_answers = {}      # release id -> answers
        self.id_queries = []       # (release id, ids, answers)
        self.mechanisms = {}       # spec name -> mechanism
        self.fresh = 0
        self.reference_answers = None
        self.stats = None
        self.ledger = None

    def fail(self, message):
        if len(self.failures) < 20:
            self.failures.append(message)

    def check_phase(self, phase, records):
        for index, req in enumerate(phase.reqs):
            record = records.get(index)
            if record is None:
                if not phase.timed:
                    self.fail("%s: request %d got no response"
                              % (phase.name, index))
                continue
            self.attempted += 1
            try:
                response = json.loads(record[2])
            except ValueError:
                self.failed += 1
                self.fail("%s: unparseable response %r"
                          % (phase.name, record[2][:200]))
                continue
            if response.get("ok") is not True:
                self.failed += 1
                self.fail("%s: %s failed: %s"
                          % (phase.name, req.kind, response.get("error")))
                continue
            self.check_response(req, response)

    def check_response(self, req, response):
        if req.kind == "release":
            rid = response["release"]
            if response["from_cache"] != req.from_cache:
                self.fail("release %s: from_cache %s, planned %s"
                          % (req.release, response["from_cache"],
                             req.from_cache))
            if response["mechanism"] != req.mechanism:
                self.fail("release %s: mechanism %s, expected %s"
                          % (req.release, response["mechanism"],
                             req.mechanism))
            if not response["from_cache"]:
                self.fresh += 1
            self.release_ids[req.release] = rid
            self.num_queries[rid] = int(response["num_queries"])
            self.mechanisms[req.release] = response["mechanism"]
        elif req.kind in ("ids", "all"):
            rid = self.release_ids.get(req.release)
            answers = response["answers"]
            if req.kind == "ids":
                if len(answers) != len(req.ids):
                    self.fail("query on %s: %d answers for %d ids"
                              % (req.release, len(answers), len(req.ids)))
                self.id_queries.append((rid, req.ids, answers))
            else:
                if len(answers) != self.num_queries.get(rid):
                    self.fail("all:true on %s: %d answers, |Q| = %s"
                              % (req.release, len(answers),
                                 self.num_queries.get(rid)))
                self.all_answers[rid] = answers
                if (req.release == self.workload.reference_release
                        and self.reference_answers is None):
                    self.reference_answers = answers
        elif req.kind == "stats":
            self.stats = response
        elif req.kind == "ledger":
            self.ledger = response["ledger"]

    def finish(self, reference_path):
        # Id-list answers equal the matching entries of all:true answers.
        compared = 0
        for rid, ids, answers in self.id_queries:
            full = self.all_answers.get(rid)
            if full is None:
                continue
            compared += 1
            # AnswerBatch and AnswerAll sum in different orders.
            if any(abs(full[i] - a) > 1e-9 * max(1.0, abs(a))
                   for i, a in zip(ids, answers)):
                self.fail("release %s: id-list answers differ from its "
                          "all:true answers" % rid)
        # The fixed-seed release matches the checked-in reference.
        with open(reference_path) as f:
            reference = json.load(f)
        if self.reference_answers is None:
            self.fail("no all:true answers for the reference release")
        elif [float(x) for x in self.reference_answers] != reference:
            self.fail("reference release answers differ from %s"
                      % reference_path)
        self.check_ledger()
        return compared

    def check_ledger(self):
        if self.ledger is None or self.stats is None:
            self.fail("no ledger/stats response")
            return
        entries = self.ledger["entries"]
        if len(entries) != self.fresh:
            self.fail("ledger has %d entries for %d fresh releases"
                      % (len(entries), self.fresh))
        total = 0.0
        for entry in entries:
            eps = entry["total"]["epsilon"]
            total += eps
            hierarchical = self.mechanisms.get(entry["label"]) == \
                "hierarchical"
            # Hierarchical releases record their measured group-privacy
            # factor, which can exceed the nominal ε; never less.
            if eps < workloads.SPEC_EPSILON or (
                    not hierarchical and eps != workloads.SPEC_EPSILON):
                self.fail("ledger entry %s spent ε = %r"
                          % (entry["label"], eps))
        spent = self.ledger["total"]["epsilon"]
        if abs(spent - total) > 1e-9 * max(1.0, total):
            self.fail("ledger total ε %r != sum of entries %r"
                      % (spent, total))
        if "hierarchical" not in self.mechanisms.values() and \
                spent != self.fresh * workloads.SPEC_EPSILON:
            self.fail("ledger spent ε %r != %d fresh releases x ε"
                      % (spent, self.fresh))


# --------------------------------------------------------------------------
# One measured run

def latencies_ms(rows, kinds):
    return [(rec[1] - rec[0]) / 1e6 for req, rec in rows if req.kind in kinds]


def timed_rows(workload, client_phases):
    """(request, record) of every answered request of the timed phase."""
    for phase, (_name, _start, _end, _cpu, records) in zip(workload.phases,
                                                           client_phases):
        if phase.timed:
            return [(phase.reqs[i], rec) for i, rec in sorted(records.items())]
    raise RuntimeError("the client ran no timed phase")


def end_to_end_metrics(workload, client_phases):
    """The workload's end-to-end metrics (except setup_s and RSS), over
    every request of the timed phase, and the harness-health figures."""
    rows = timed_rows(workload, client_phases)
    if workload.name == "release_fresh":
        ops = latencies_ms(rows, ("release",))
        queries = latencies_ms(rows, ("all",))
    else:
        queries = latencies_ms(rows, ("ids",))
        # A cycle runs from its first request's send to its last response;
        # the one the phase's end cut short is left out.
        planned, cycles = {}, {}
        for req in next(p for p in workload.phases if p.timed).reqs:
            planned[req.step] = planned.get(req.step, 0) + 1
        for req, (send, done, _response) in rows:
            first, last, n = cycles.get(req.step, (send, done, 0))
            cycles[req.step] = (min(first, send), max(last, done), n + 1)
        ops = [(last - first) / 1e6
               for step, (first, last, n) in cycles.items()
               if n == planned[step]]
    health = {
        "client_cpu_s": sum(p[3] for p in client_phases) / 1e6,
        "samples.op": len(ops),
        "samples.query": len(queries),
    }
    if not stats.tail_supported(len(ops), TAIL_Q):
        health["tail_warning"] = (
            "only %d samples beyond op_ms.p%d" %
            (stats.beyond(len(ops), TAIL_Q), round(TAIL_Q * 100)))
    return {
        "op_ms.p50": stats.percentile(ops, 0.5),
        "op_ms.p%d" % round(TAIL_Q * 100): stats.percentile(ops, TAIL_Q),
        "query_ms.p50": stats.percentile(queries, 0.5),
    }, health


def run_workload(bins, workload, tag):
    """Set-ups plus one measured run: every server but the last stops
    before the timed phase. Returns (setup times, peak RSS MiB of the
    measured run, its client phases, checker)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    script = os.path.join(RUN_DIR, "%s.script" % tag)
    with open(script, "w") as f:
        f.write(workloads.script_text(workload))
    ledger = os.path.join(RUN_DIR, "%s-ledger.json" % tag)
    flags = list(workload.server_flags)
    if workload.uses_ledger:
        flags.append("--ledger=" + ledger)
    setups = []
    for k in range(SETUPS):
        if os.path.exists(ledger):
            os.remove(ledger)
        server = Server(bins["serve"], flags, workload.threads,
                        "%s-%d" % (tag, k))
        try:
            last = k == SETUPS - 1
            out = os.path.join(RUN_DIR, "%s-%d.out" % (tag, k))
            phases = play(bins["client"], server.port, script, out,
                          until_timed=not last)
            setup_end = phases[-1][2]
            for (pname, start, _e, _c, _r), phase in zip(phases,
                                                        workload.phases):
                if phase.timed:
                    setup_end = start
                    break
            setups.append(setup_end / 1e9 - server.t0)
            if last:
                rss = server.peak_rss_mib()
        finally:
            server.shutdown()
    checker = Checker(workload)
    for phase, client_phase in zip(workload.phases, phases):
        checker.check_phase(phase, client_phase[4])
    return setups, rss, phases, checker


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference/<workload>.json from this "
                             "run's fixed-seed release instead of checking")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bins = build()
    reference = os.path.join(BENCH_DIR, "reference",
                             "%s.json" % args.workload)
    e2e_seconds = args.seconds / 2 if args.trace else args.seconds
    workload = workloads.make(args.workload, args.seed, e2e_seconds)
    tag = args.workload  # each run overwrites the previous run's files
    setups, rss, phases, checker = run_workload(bins, workload, tag)
    if args.update_reference:
        with open(reference, "w") as f:
            json.dump([float(x) for x in checker.reference_answers], f)
            f.write("\n")
    compared = checker.finish(reference)
    metrics, health = end_to_end_metrics(workload, phases)
    metrics["setup_s"] = stats.percentile(setups, 0.5)
    metrics["server_rss_mb"] = rss

    print("workload %s seed %d: %d requests checked, %d id-lists compared "
          "with all:true answers, %d fresh releases"
          % (args.workload, args.seed, checker.attempted, compared,
             checker.fresh))
    for failure in checker.failures:
        print("CHECK FAILED: " + failure)
    for key, value in sorted(health.items()):
        print("harness.%s = %s" % (key, value))
    print("setup_s samples = %s" % ", ".join("%.4f" % s for s in setups))

    if args.trace:
        result = layers.traced(bins["trace"], workload, checker,
                               args.seed, args.seconds - e2e_seconds,
                               metrics, RUN_DIR, tag)
        units = layers.UNITS
    else:
        result = metrics
        units = E2E_UNITS
        for key in sorted(result):
            print("%-36s %14.6g %s" % (key, result[key], units[key]))
    correct = not checker.failures and checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(result.items())},
    }))


E2E_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p%d" % round(TAIL_Q * 100): "ms",
    "query_ms.p50": "ms",
    "server_rss_mb": "MiB",
}


if __name__ == "__main__":
    main()
