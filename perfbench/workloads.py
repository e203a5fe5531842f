"""Seeded request schedules for the serving benchmark's workloads.

Everything here is a pure function of (workload, seed, seconds): the same
arguments give the same request bytes. dpjoin_serve receives only the
generated lines. A schedule is a list of phases; `script_text` renders it
in the format perfbench_client plays (see client.cc).
"""

import json
import random
from collections import OrderedDict
from dataclasses import dataclass, field

WORKLOADS = ("release_fresh", "release_churn")

IDS_PER_QUERY = 16

# release_churn's serving-cache capacity: five fresh releases per cycle
# evict the previous cycle's releases.
CHURN_CACHE = 4
# release_fresh's: full after a few seconds, so that the server's peak RSS
# does not depend on how many releases a run completed.
FRESH_CACHE = 16

SPEC_EPSILON = 1.0
SPEC_DELTA = 1e-5

TWO_TABLE_ATTRS = ["A:32", "B:4", "C:32"]
TWO_TABLE_RELS = ["R1:A,B", "R2:B,C"]
STAR_ATTRS = ["H:4", "S1:8", "S2:8", "S3:8"]
STAR_RELS = ["R1:H,S1", "R2:H,S2", "R3:H,S3"]
PATH_ATTRS = ["A:16", "B:4", "C:4", "D:16"]
PATH_RELS = ["R1:A,B", "R2:B,C", "R3:C,D"]
WIDE_ATTRS = ["X%d:16" % k for k in range(10)]  # 2^40 cells
WIDE_RELS = ["R:" + ",".join("X%d" % k for k in range(10))]
STAR_TUPLES, STAR_WORKLOAD, STAR_QUERIES = 1000, "random_sign:4", 125
PATH_TUPLES, PATH_WORKLOAD, PATH_QUERIES = 3000, "random_sign:8", 729
WIDE_TUPLES, WIDE_WORKLOAD, WIDE_QUERIES = 4000, "marginal_all", 161
SMALL_ATTRS = ["P:16", "Q:16"]
SMALL_RELS = ["R:P,Q"]

# Fixed sources and seeds of each workload's first release, whose all:true
# answers are compared with reference/<workload>.json.
REF_TWO_TABLE_SOURCE = "generated:zipf(tuples=4000,s=1.0,seed=20230618)"
REF_STAR_SOURCE = "generated:zipf(tuples=1000,s=1.0,seed=20230618)"
REF_SEED = 1

# The large datasets are the same for every run seed: a release's cost
# depends on its data (a two-table release runs one PMW per degree bucket),
# and a seed-dependent data mix would move run medians more than the code
# does. The seed drives everything else: noise seeds, workload seeds, query
# lists and release_churn's per-cycle datasets.
DATA_SEEDS = (7001, 7002, 7003, 7004)


@dataclass
class Req:
    """One request line plus what the checks need to know about it."""
    line: str
    kind: str                   # register|unregister|release|ids|all|stats|ledger
    release: str = ""           # spec name of the release it makes or queries
    ids: list = None            # id list of an `ids` query
    from_cache: bool = False    # release: predicted cache hit
    mechanism: str = ""         # release: expected mechanism
    step: int = -1              # release_fresh step / release_churn cycle


@dataclass
class Phase:
    name: str
    duration_us: int = 0        # timed phases stop sending after this
    timed: bool = False
    reqs: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    phases: list
    server_flags: list
    reference_release: str      # spec name whose all:true is checked
    uses_ledger: bool = False   # dpjoin_serve runs with --ledger=<file>
    threads: int = 2            # DPJOIN_THREADS, the server's pool size


def spec_text(name, attrs, rels, workload, mechanism="auto", extra=()):
    lines = ["# dpjoin-release-spec v1", "name = " + name]
    lines += ["attribute = " + a for a in attrs]
    lines += ["relation = " + r for r in rels]
    lines += ["epsilon = %r" % SPEC_EPSILON, "delta = %r" % SPEC_DELTA,
              "mechanism = " + mechanism, "workload = " + workload]
    lines += list(extra)
    return "\n".join(lines)


def _line(obj):
    return json.dumps(obj)


def register(name, source, attrs, rels, step=-1):
    return Req(_line({"cmd": "register", "name": name, "source": source,
                      "attributes": attrs, "relations": rels}),
               "register", step=step)


def unregister(name, step=-1):
    return Req(_line({"cmd": "unregister", "name": name}), "unregister",
               step=step)


def release(name, dataset, seed, spec, mechanism, from_cache=False, step=-1):
    return Req(_line({"cmd": "release", "dataset": dataset,
                      "seed": seed, "spec": spec}),
               "release", release=name, from_cache=from_cache,
               mechanism=mechanism, step=step)


def query_ids(name, ids, step=-1):
    return Req(_line({"cmd": "query", "release": "$REL{%s}" % name,
                      "queries": ids}),
               "ids", release=name, ids=list(ids), step=step)


def query_all(name, step=-1):
    return Req(_line({"cmd": "query", "release": "$REL{%s}" % name,
                      "all": True}),
               "all", release=name, step=step)


def command(cmd):
    return Req(_line({"cmd": cmd}), cmd)


def zipf_source(tuples, seed):
    return "generated:zipf(tuples=%d,s=1.0,seed=%d)" % (tuples, seed)


def _check_phase():
    return Phase("check", reqs=[command("stats"), command("ledger")])


def _release_fresh(rng, seconds):
    def two_table(name, wl_seed):
        return spec_text(name, TWO_TABLE_ATTRS, TWO_TABLE_RELS,
                         "random_sign:60",
                         extra=["workload_seed = %d" % wl_seed])

    setup = Phase("setup")
    setup.reqs.append(register("ref", REF_TWO_TABLE_SOURCE, TWO_TABLE_ATTRS,
                               TWO_TABLE_RELS))
    datasets = ["d%d" % k for k in range(4)]
    for name, data_seed in zip(datasets, DATA_SEEDS):
        setup.reqs.append(register(name, zipf_source(4000, data_seed),
                                   TWO_TABLE_ATTRS, TWO_TABLE_RELS))
    setup.reqs.append(release("ref", "ref", REF_SEED, two_table("ref", 1),
                              "two_table"))
    setup.reqs.append(query_all("ref"))
    # A fresh release takes about 0.3 s; schedule more steps than fit.
    timed = Phase("fresh", duration_us=int(seconds * 1e6), timed=True)
    wl_seed = rng.randrange(1, 1 << 20)
    for step in range(int(seconds * 20) + 20):
        name = "f%d" % step
        timed.reqs.append(release(name, datasets[step % len(datasets)],
                                  rng.randrange(1, 1 << 40),
                                  two_table(name, wl_seed), "two_table",
                                  step=step))
        timed.reqs.append(query_all(name, step=step))
    return Workload("release_fresh", [setup, timed, _check_phase()],
                    ["--cache=%d" % FRESH_CACHE], "ref")


class _Lru:
    """Predicts ReleaseCache hits: Get/Touch bump recency, Put evicts LRU."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.keys = OrderedDict()

    def release(self, key):
        if key in self.keys:
            self.keys.move_to_end(key)
            return True
        self.keys[key] = True
        if len(self.keys) > self.capacity:
            self.keys.popitem(last=False)
        return False

    def touch(self, key):
        if key in self.keys:
            self.keys.move_to_end(key)


def _release_churn(rng, seconds):
    lru = _Lru(CHURN_CACHE)

    def rel(name, dataset, seed, spec, mechanism, step):
        return release(name, dataset, seed, spec, mechanism,
                       lru.release((name, dataset)), step)

    def q16(name, num_queries, step):
        lru.touch((name, _dataset_of[name]))
        return query_ids(name, [rng.randrange(num_queries)
                                for _ in range(IDS_PER_QUERY)], step)

    _dataset_of = {}
    specs = {}

    def new_seed():
        return rng.randrange(1, 1 << 40)

    def cycle(step):
        """Requests of one churn cycle."""
        reqs = []
        current, previous = "c%d" % step, "c%d" % (step - 1)
        reqs.append(register(current, zipf_source(1000, new_seed()),
                             SMALL_ATTRS, SMALL_RELS, step))
        plan = [
            ("star%d" % step, "star", STAR_ATTRS, STAR_RELS, STAR_WORKLOAD,
             "hierarchical", STAR_QUERIES),
            ("path%d" % step, "path", PATH_ATTRS, PATH_RELS, PATH_WORKLOAD,
             "pmw", PATH_QUERIES),
            ("wide%d" % step, "wide", WIDE_ATTRS, WIDE_RELS, WIDE_WORKLOAD,
             "pmw", WIDE_QUERIES),
            ("pmw%d" % step, current, SMALL_ATTRS, SMALL_RELS, "prefix:8",
             "pmw", 9),
            ("cnt%d" % step, current, SMALL_ATTRS, SMALL_RELS, "counting",
             "laplace", 1),
        ]
        for name, dataset, attrs, rels, wl, mechanism, nq in plan:
            seed = new_seed()
            specs[name] = (dataset, seed, spec_text(name, attrs, rels, wl),
                           mechanism, nq)
            _dataset_of[name] = dataset
            reqs.append(rel(name, dataset, seed, specs[name][2], mechanism,
                            step))
            reqs.append(q16(name, nq, step))
        # Re-submit an earlier spec: this cycle's path release (still
        # cached) on odd cycles, the previous cycle's counting release
        # (evicted, so a second spend) on even ones.
        again = "path%d" % step if step % 2 else "cnt%d" % (step - 1)
        if again in specs:
            dataset, seed, text, mechanism, _ = specs[again]
            reqs.append(rel(again, dataset, seed, text, mechanism, step))
        if step > 0:
            reqs.append(unregister(previous, step))
        return reqs

    setup = Phase("setup")
    setup.reqs += [
        register("ref", REF_STAR_SOURCE, STAR_ATTRS, STAR_RELS),
        register("star", zipf_source(STAR_TUPLES, DATA_SEEDS[0]),
                 STAR_ATTRS, STAR_RELS),
        register("path", zipf_source(PATH_TUPLES, DATA_SEEDS[1]),
                 PATH_ATTRS, PATH_RELS),
        register("wide", zipf_source(WIDE_TUPLES, DATA_SEEDS[2]),
                 WIDE_ATTRS, WIDE_RELS),
    ]
    _dataset_of["ref"] = "ref"
    setup.reqs.append(rel("ref", "ref", REF_SEED,
                          spec_text("ref", STAR_ATTRS, STAR_RELS,
                                    STAR_WORKLOAD), "hierarchical", -1))
    setup.reqs.append(query_all("ref"))
    lru.touch(("ref", "ref"))
    setup.reqs += cycle(0)  # warm-up cycle

    timed = Phase("churn", duration_us=int(seconds * 1e6), timed=True)
    # A cycle takes about 0.4 s; schedule more cycles than fit.
    for step in range(1, int(seconds * 10) + 20):
        timed.reqs += cycle(step)
    # One pool thread: the cycle's small releases run many short parallel
    # regions, and with two threads each waited whenever the hypervisor
    # descheduled the other's vCPU (see README.md).
    return Workload("release_churn", [setup, timed, _check_phase()],
                    ["--cache=%d" % CHURN_CACHE], "ref", uses_ledger=True,
                    threads=1)


def make(name, seed, seconds):
    """The workload `name` for `seed`, sized for a `seconds`-long run."""
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (name, seed))
    build = {"release_fresh": _release_fresh,
             "release_churn": _release_churn}[name]
    return build(rng, seconds)


def script_text(workload):
    """The schedule in perfbench_client's script format."""
    out = []
    for phase in workload.phases:
        out.append("phase\t%s\t%d\t%d" % (phase.name, phase.duration_us,
                                            1 if phase.timed else 0))
        for req in phase.reqs:
            out.append("req\t" + req.line)
    return "\n".join(out) + "\n"
