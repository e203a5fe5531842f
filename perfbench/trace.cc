// perfbench_trace: the benchmark's traced in-process replay.
//
// Replays a workload script (the same request lines perfbench_client sends
// to dpjoin_serve) serially in one process, calling each layer's public
// functions directly and recording a span around every call: name, request
// id, span id, parent span, start and end. Spans stay in memory and are
// written out when the replay ends; perfbench/layers.py derives self times
// and the per-layer metrics from them. Nothing inside src/ is instrumented.
//
//   perfbench_trace --script=FILE --spans=FILE --ledger=FILE --seconds=S
//                   [--cache=N] [--save-ledger]
//
// Each request is replayed the way the server handles it (frame, parse,
// dispatch to catalog / ParseReleaseSpec + ReleaseEngine::Submit / the
// serving handle, serialize). After every fresh release a `replay` span
// re-runs the pieces Submit is made of — workload build, planner, the
// mechanism's own steps — and the instance-level functions they call, so
// each gets its own time; it also times a cached Submit of the same
// request. Untimed phases replay in full; timed phases replay until S
// seconds have passed, then the script's `coverage` phase (if any) runs.
// Fresh releases save the ledger to --ledger as the server does when it
// runs with one (--save-ledger), and always in the coverage phase.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/independent_laplace.h"
#include "core/multi_table.h"
#include "core/partition_two_table.h"
#include "core/two_table.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "engine/release_spec.h"
#include "engine/server.h"
#include "hierarchical/uniformize_hierarchical.h"
#include "net/line_framer.h"
#include "query/evaluation.h"
#include "query/workload_evaluator.h"
#include "relational/join.h"
#include "release/pmw.h"
#include "sensitivity/residual_sensitivity.h"

namespace dpjoin {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_trace: " << message << "\n";
  std::exit(1);
}

struct Span {
  const char* name = "";
  int64_t request = 0;
  int id = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string attrs;  // "key=value;..." counts measured at the boundary
};

// In-memory span recorder; a span's parent is the innermost open span.
class Tracer {
 public:
  int Begin(const char* name, int64_t request) {
    Span span;
    span.name = name;
    span.request = request;
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    open_.push_back(span.id);
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void End(int id) {
    spans_[id].end_ns = NowNs();
    if (open_.empty() || open_.back() != id) Die("unbalanced span");
    open_.pop_back();
  }
  void Attr(int id, const std::string& key, double value) {
    std::ostringstream out;
    out.precision(17);
    out << key << '=' << value << ';';
    spans_[id].attrs += out.str();
  }
  int64_t Duration(int id) const {
    return spans_[id].end_ns - spans_[id].start_ns;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << s.name << '\t' << s.request << '\t' << s.id << '\t' << s.parent
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.attrs
          << '\n';
    }
    out.close();
    if (!out) Die("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Runs `fn` inside a span named `name`; returns the span id.
template <typename Fn>
int Timed(Tracer& tracer, const char* name, int64_t request, Fn&& fn) {
  const int id = tracer.Begin(name, request);
  fn(id);
  tracer.End(id);
  return id;
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

std::string StringMember(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) {
    Die(std::string("request lacks string '") + key + "'");
  }
  return v->AsString();
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

// The register command's schema, as the server builds it.
std::shared_ptr<JoinQuery> SchemaFromJson(const JsonValue& request) {
  std::vector<AttributeSpec> attrs;
  for (const JsonValue& item : request.Find("attributes")->items()) {
    const std::vector<std::string> parts = Split(item.AsString(), ':');
    attrs.push_back({parts.at(0), std::stoll(parts.at(1))});
  }
  std::vector<std::vector<std::string>> edges;
  for (const JsonValue& item : request.Find("relations")->items()) {
    const std::string& text = item.AsString();
    edges.push_back(Split(text.substr(text.find(':') + 1), ','));
  }
  return std::make_shared<JoinQuery>(
      Must(JoinQuery::Create(std::move(attrs), std::move(edges)), "schema"));
}

void PmwAttrs(Tracer& tracer, int span, const PmwResult::Perf& perf,
              int64_t rounds, double flops_per_dense_round) {
  double score = 0, update = 0, normalize = 0;
  for (double us : perf.eval_us) score += us;
  for (double us : perf.update_us) update += us;
  for (double us : perf.normalize_us) normalize += us;
  tracer.Attr(span, "pmw_rounds", static_cast<double>(rounds));
  tracer.Attr(span, "pmw_dense", static_cast<double>(perf.dense_rounds));
  tracer.Attr(span, "pmw_sparse", static_cast<double>(perf.sparse_rounds));
  tracer.Attr(span, "pmw_score_us", score);
  tracer.Attr(span, "pmw_update_us", update);
  tracer.Attr(span, "pmw_normalize_us", normalize);
  tracer.Attr(span, "pmw_flops",
              static_cast<double>(perf.dense_rounds) * flops_per_dense_round);
}

// Multiply-adds of one dense all-query evaluation of `family` over the
// release domain of `query` (the evaluator's own cost model).
double DenseRoundFlops(const JoinQuery& query, const QueryFamily& family) {
  std::vector<int64_t> domains, counts;
  for (int r = 0; r < query.num_relations(); ++r) {
    domains.push_back(query.relation_domain_size(r));
    counts.push_back(static_cast<int64_t>(family.table_queries(r).size()));
  }
  return WorkloadEvaluator::EvaluationFlops(domains, counts);
}

class Replayer {
 public:
  Replayer(size_t cache, std::string ledger_path)
      : engine_(PrivacyParams(1e12, 0.5), cache),
        ledger_path_(std::move(ledger_path)) {}

  void Request(const std::string& line, int64_t request) {
    const std::string cmd = Cmd(line);
    const std::string framed = Substitute(line) + "\n";
    const int root = tracer_.Begin(RequestSpanName(cmd), request);
    std::string text;
    Timed(tracer_, "net.frame", request, [&](int) {
      framer_.Append(framed.data(), framed.size());
      if (!framer_.PopLine(&text)) Die("framer produced no line");
    });
    JsonValue json;
    std::unique_ptr<PendingReplay> replay;
    if (cmd == "release") {
      replay = Release(text, request);
    } else if (cmd == "query") {
      Query(text, request);
    } else if (cmd == "register") {
      std::shared_ptr<JoinQuery> schema;
      Timed(tracer_, "engine.parse", request, [&](int) {
        json = Must(JsonValue::Parse(text), "parse");
        schema = SchemaFromJson(json);
      });
      Timed(tracer_, "catalog.register", request, [&](int) {
        Must(engine_.catalog().RegisterSource(StringMember(json, "name"),
                                              StringMember(json, "source"),
                                              schema),
             "register");
      });
    } else if (cmd == "unregister") {
      Timed(tracer_, "engine.parse", request,
            [&](int) { json = Must(JsonValue::Parse(text), "parse"); });
      Timed(tracer_, "catalog.unregister", request, [&](int) {
        if (!engine_.catalog().Unregister(StringMember(json, "name"))) {
          Die("unregister of an unknown dataset");
        }
      });
    } else {
      Die("unsupported command in " + line);
    }
    tracer_.End(root);
    if (replay) Replay(*replay, request);
  }

  void WriteSpans(const std::string& path) const { tracer_.Write(path); }
  void SaveLedger(bool save) { save_ledger_ = save; }

 private:
  // What a fresh release's replay needs from its request.
  struct PendingReplay {
    ReleaseRequest request;
    std::string dataset_name;
    int64_t submit_ns = 0;
  };

  static const char* RequestSpanName(const std::string& cmd) {
    if (cmd == "release") return "request.release";
    if (cmd == "query") return "request.query";
    if (cmd == "register") return "request.register";
    return "request.unregister";
  }

  static std::string Cmd(const std::string& text) {
    for (const char* cmd : {"release", "query", "unregister", "register"}) {
      if (text.find(std::string("\"cmd\": \"") + cmd + "\"") !=
          std::string::npos) {
        return cmd;
      }
    }
    return "";
  }

  std::string Substitute(std::string line) const {
    for (size_t pos = line.find("$REL{"); pos != std::string::npos;
         pos = line.find("$REL{", pos)) {
      const size_t end = line.find('}', pos);
      const auto it = ids_.find(line.substr(pos + 5, end - pos - 5));
      if (it == ids_.end()) Die("unknown release in " + line);
      const std::string id = JsonHexId(it->second);
      line.replace(pos, end - pos + 1, id);
      pos += id.size();
    }
    return line;
  }

  void Query(const std::string& text, int64_t request) {
    QueryCommand cmd;
    Timed(tracer_, "engine.parse", request, [&](int) {
      cmd = Must(ParseQueryCommand(Must(JsonValue::Parse(text), "parse")),
                 "query command");
    });
    std::shared_ptr<const ServingHandle> handle;
    Timed(tracer_, "engine.find", request, [&](int) {
      handle = Must(engine_.FindRelease(cmd.release_id), "find release");
    });
    std::vector<double> answers;
    if (cmd.all) {
      const int span = Timed(tracer_, "query.answer_all", request,
                             [&](int) { answers = handle->AnswerAll(); });
      tracer_.Attr(span, "numbers", static_cast<double>(answers.size()));
    } else {
      const int span = Timed(tracer_, "query.answer_batch", request, [&](int) {
        answers = Must(handle->AnswerBatch(cmd.ids), "answer batch");
      });
      tracer_.Attr(span, "ids", static_cast<double>(cmd.ids.size()));
    }
    std::string bytes;
    const int span = Timed(tracer_, "json.serialize", request, [&](int) {
      bytes = QueryAnswersResponse(answers).Serialize();
    });
    tracer_.Attr(span, "numbers", static_cast<double>(answers.size()));
    tracer_.Attr(span, "all", cmd.all ? 1 : 0);
  }

  std::unique_ptr<PendingReplay> Release(const std::string& text,
                                         int64_t request) {
    JsonValue json;
    Timed(tracer_, "engine.parse", request,
          [&](int) { json = Must(JsonValue::Parse(text), "parse"); });
    ReleaseRequest req;
    Timed(tracer_, "spec.parse", request, [&](int) {
      req.spec = Must(ParseReleaseSpec(StringMember(json, "spec")), "spec");
    });
    req.dataset = StringMember(json, "dataset");
    req.seed = static_cast<uint64_t>(json.Find("seed")->AsDouble());
    ReleaseResponse response;
    const int submit = Timed(tracer_, "engine.submit", request, [&](int) {
      response = Must(engine_.Submit(req), "submit");
    });
    tracer_.Attr(submit, "fresh", response.from_cache ? 0 : 1);
    ids_[req.spec.name] = response.release_id;
    if (response.from_cache) return nullptr;
    if (save_ledger_) {
      Timed(tracer_, "ledger.save", request, [&](int) {
        const Status saved = engine_.ledger().SaveJson(ledger_path_);
        if (!saved.ok()) Die("ledger save: " + saved.ToString());
      });
    }
    auto pending = std::make_unique<PendingReplay>();
    pending->request = std::move(req);
    pending->dataset_name = response.dataset_name;
    pending->submit_ns = tracer_.Duration(submit);
    return pending;
  }

  // Re-runs the parts of a fresh Submit one by one, after the request's
  // span has closed, so each layer gets its own time.
  void Replay(const PendingReplay& pending, int64_t request) {
    const ReleaseRequest& req = pending.request;
    const int root = tracer_.Begin("replay", request);
    Timed(tracer_, "engine.submit_cached", request, [&](int) {
      if (!Must(engine_.Submit(req), "cached submit").from_cache) {
        Die("second submit of a release was not a cache hit");
      }
    });
    const ReleaseSpec& spec = req.spec;
    const std::shared_ptr<const DatasetHandle> data =
        Must(engine_.catalog().Get(pending.dataset_name), "dataset");
    const Instance& instance = data->instance();
    const JoinQuery& query = instance.query();
    const PrivacyParams budget = spec.Budget();
    QueryFamily family;
    const int workload = Timed(tracer_, "spec.workload", request, [&](int) {
      family = Must(spec.BuildWorkload(query), "workload");
    });
    Timed(tracer_, "planner.stats", request,
          [&](int) { ComputeInstanceStats(instance, family, budget); });
    Plan plan;
    const int planned = Timed(tracer_, "planner.plan", request, [&](int) {
      plan = Must(PlanRelease(spec, instance, family), "plan");
    });

    const ScopedThreads scoped(spec.num_threads);
    const ReleaseOptions options = spec.BuildReleaseOptions();
    Rng rng(req.seed);
    const int mechanism = tracer_.Begin("mechanism", request);
    switch (plan.mechanism) {
      case MechanismKind::kTwoTable: {
        const PrivacyParams half = budget.Half();
        TwoTablePartition partition;
        Timed(tracer_, "core.partition", request, [&](int) {
          partition = Must(PartitionTwoTable(instance, half, budget.Lambda(),
                                             rng),
                           "partition");
        });
        for (const TwoTableBucket& bucket : partition.buckets) {
          Timed(tracer_, "core.two_table", request, [&](int id) {
            ReleaseResult sub = Must(
                TwoTable(bucket.sub_instance, family, half, options, rng),
                "two_table");
            PmwAttrs(tracer_, id, sub.pmw_perf, sub.pmw_rounds,
                     DenseRoundFlops(query, family));
          });
        }
        break;
      }
      case MechanismKind::kHierarchical:
        Timed(tracer_, "hierarchical.uniformize", request, [&](int id) {
          HierUniformizeResult result = Must(
              UniformizeHierarchical(instance, family, budget, options, rng),
              "hierarchical");
          PmwAttrs(tracer_, id, result.release.pmw_perf,
                   result.release.pmw_rounds, 0.0);
        });
        break;
      case MechanismKind::kLaplace:
        Timed(tracer_, "core.laplace", request, [&](int) {
          Must(AnswerIndependently(instance, family, budget,
                                   spec.laplace_rule, rng),
               "laplace");
        });
        break;
      case MechanismKind::kPmw:
        if (instance.num_relations() == 1) {
          PmwOptions pmw;
          pmw.params = budget;
          pmw.delta_tilde = 1.0;
          pmw.num_rounds = options.pmw_rounds;
          pmw.max_rounds = options.pmw_max_rounds;
          pmw.per_round_epsilon_override = options.pmw_epsilon_prime_override;
          pmw.use_factored_loop = options.pmw_use_factored;
          if (plan.factored) {
            Timed(tracer_, "release.pmw_factored", request, [&](int) {
              Must(PrivateMultiplicativeWeightsFactored(
                       instance, family, plan.factor_groups, pmw, rng),
                   "factored pmw");
            });
          } else {
            Timed(tracer_, "release.pmw", request, [&](int id) {
              PmwResult result = Must(
                  PrivateMultiplicativeWeights(instance, family, pmw, rng),
                  "pmw");
              PmwAttrs(tracer_, id, result.perf, result.rounds, 0.0);
            });
          }
        } else {
          Timed(tracer_, "core.multi_table", request, [&](int id) {
            ReleaseResult result =
                Must(MultiTable(instance, family, budget, options, rng),
                     "multi_table");
            PmwAttrs(tracer_, id, result.pmw_perf, result.pmw_rounds, 0.0);
          });
        }
        break;
      case MechanismKind::kAuto:
        Die("unresolved plan");
    }
    tracer_.End(mechanism);
    tracer_.Attr(root, "submit_unattributed_ns",
                 static_cast<double>(pending.submit_ns -
                                     tracer_.Duration(workload) -
                                     tracer_.Duration(planned) -
                                     tracer_.Duration(mechanism)));

    // Instance-level functions the planner and mechanisms call, timed on
    // their own.
    Timed(tracer_, "relational.exact_answers", request,
          [&](int) { EvaluateAllOnInstance(family, instance); });
    Timed(tracer_, "relational.join_count", request,
          [&](int) { ParallelJoinCount(instance); });
    if (instance.num_relations() >= 2) {
      Timed(tracer_, "sensitivity.residual", request, [&](int) {
        ResidualSensitivityValue(instance, 1.0 / budget.Lambda());
      });
    }
    if (!plan.factored) {
      Timed(tracer_, "query.evaluator_build", request, [&](int) {
        WorkloadEvaluator evaluator(family, ReleaseShape(query));
      });
    }
    tracer_.End(root);
  }

  ReleaseEngine engine_;
  std::string ledger_path_;
  LineFramer framer_;
  Tracer tracer_;
  std::map<std::string, uint64_t> ids_;
  bool save_ledger_ = false;
};

constexpr int64_t kCoverageOffset = 1000000000;

struct ScriptPhase {
  std::string name;
  bool timed = false;
  std::vector<std::string> lines;
};

std::vector<ScriptPhase> ReadScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<ScriptPhase> phases;
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> f = Split(line, '\t');
    if (f.empty()) continue;
    if (f[0] == "phase" && f.size() == 4) {
      phases.push_back({f[1], f[3] == "1", {}});
    } else if (f[0] == "req" && !phases.empty()) {
      phases.back().lines.push_back(line.substr(4));
    } else {
      Die("bad script line: " + line);
    }
  }
  return phases;
}

}  // namespace
}  // namespace dpjoin

int main(int argc, char** argv) {
  using namespace dpjoin;
  std::string script, spans, ledger;
  double seconds = 0;
  size_t cache = 64;
  bool save_ledger = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--script=", 0) == 0) {
      script = arg.substr(9);
    } else if (arg.rfind("--spans=", 0) == 0) {
      spans = arg.substr(8);
    } else if (arg.rfind("--ledger=", 0) == 0) {
      ledger = arg.substr(9);
    } else if (arg.rfind("--seconds=", 0) == 0) {
      seconds = std::stod(arg.substr(10));
    } else if (arg.rfind("--cache=", 0) == 0) {
      cache = std::stoull(arg.substr(8));
    } else if (arg == "--save-ledger") {
      save_ledger = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (script.empty() || spans.empty() || ledger.empty() || seconds <= 0) {
    Die("usage: perfbench_trace --script=FILE --spans=FILE --ledger=FILE "
        "--seconds=S [--cache=N]");
  }
  Replayer replayer(cache, ledger);
  replayer.SaveLedger(save_ledger);
  int64_t request = 0;
  int64_t timed_start = -1;
  bool out_of_time = false;
  for (const ScriptPhase& phase : ReadScript(script)) {
    if (phase.timed && out_of_time) continue;
    // perfbench/layers.py tells coverage requests apart by their ids.
    if (phase.name == "coverage") {
      request = kCoverageOffset;
      replayer.SaveLedger(true);
    }
    for (const std::string& line : phase.lines) {
      if (phase.timed) {
        if (timed_start < 0) timed_start = NowNs();
        if (NowNs() - timed_start > static_cast<int64_t>(seconds * 1e9)) {
          out_of_time = true;
          break;
        }
      }
      replayer.Request(line, request++);
    }
  }
  replayer.WriteSpans(spans);
  return 0;
}
