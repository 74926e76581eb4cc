#include "perfbench/replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "src/arrangement/cell_complex.h"
#include "src/invariant/data.h"
#include "src/pipeline/engine_cache.h"
#include "src/pipeline/invariant_cache.h"
#include "src/pipeline/semantic_cache.h"
#include "src/pipeline/text_cache.h"
#include "src/query/parser.h"
#include "src/query/plan.h"
#include "src/region/io.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/store/catalog.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Layers a span can be attributed to: one per library entry point the
// replay wraps, plus the request itself. A request's self time is the
// replay's own dispatch and response encoding, which no layer accounts
// for: it is the residual.
enum Layer {
  kRequest,
  kRegionParse,
  kArrangementBuild,
  kInvariantExtract,
  kInvariantCanonical,
  kTextCache,
  kInvCache,
  kEngineCache,
  kSemCache,
  kEngineBuild,
  kQueryParse,
  kQueryPlan,
  kQueryEval,
  kStoreIngest,
  kStoreFind,
  kRelease,
  kNumLayers
};

const char* const kLayerNames[kNumLayers] = {
    "request",           "region.parse",         "arrangement.build",
    "invariant.extract", "invariant.canonical",  "pipeline.textcache",
    "pipeline.invcache", "pipeline.enginecache", "pipeline.semcache",
    "query.engine_build", "query.parse",         "query.plan",
    "query.eval",        "store.ingest",         "store.find",
    "pipeline.release",
};

// In-memory span log, written out once the replay ends. With tracing off
// every call is a branch and nothing else, so the same replay code runs in
// both passes.
class Tracer {
 public:
  struct Span {
    int layer;
    int parent;
    uint32_t request;
    Clock::time_point start, end;
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }

  int Begin(int layer) {
    if (!on_) return -1;
    spans_.push_back({layer, current_, request_, Clock::now(), {}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[id].end = Clock::now();
    current_ = spans_[id].parent;
  }
  void Relabel(int id, int layer) {
    if (id >= 0) spans_[id].layer = layer;
  }
  void NextRequest() { ++request_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  int current_ = -1;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, int layer)
      : tracer_(tracer), id_(tracer.Begin(layer)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void Relabel(int layer) { tracer_.Relabel(id_, layer); }

 private:
  Tracer& tracer_;
  int id_;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench replay: %s\n", message.c_str());
  std::exit(2);
}

// The server's caches and catalog, as TopoDbServer configures them by
// default, and the per-item sizes the ledger reports.
struct ReplayState {
  explicit ReplayState(const std::string& catalog_dir)
      : text_cache(topodb::TextCacheOptions{defaults.text_cache_entries,
                                            defaults.text_cache_bytes,
                                            nullptr}),
        sem_cache(topodb::SemanticCacheOptions{
            defaults.semantic_cache_entries, defaults.semantic_cache_bytes,
            nullptr}) {
    topodb::CatalogOptions options;
    options.directory = catalog_dir;
    auto opened = topodb::Catalog::Open(options);
    if (!opened.ok()) Die("catalog: " + opened.status().ToString());
    catalog = std::move(opened).value();
  }

  topodb::ServerOptions defaults;
  topodb::TextInvariantCache text_cache;
  topodb::InvariantCache inv_cache;
  topodb::EngineCache engine_cache;
  topodb::SemanticCache sem_cache;
  std::unique_ptr<topodb::Catalog> catalog;
  double darts = 0, canonical_bytes = 0;
  long builds = 0;
};

// The arrangement path of one inline text: parse, build, extract,
// canonicalize (through the structural cache).
std::string DeriveCanonical(ReplayState& s, Tracer& t, const std::string& text) {
  topodb::SpatialInstance instance;
  {
    ScopedSpan span(t, kRegionParse);
    auto parsed = topodb::ParseInstanceText(text);
    if (!parsed.ok()) Die("parse: " + parsed.status().ToString());
    instance = std::move(parsed).value();
  }
  topodb::CellComplex complex;
  {
    ScopedSpan span(t, kArrangementBuild);
    auto built = topodb::CellComplex::Build(instance, topodb::ArrangementOptions{});
    if (!built.ok()) Die("arrangement: " + built.status().ToString());
    complex = std::move(built).value();
  }
  topodb::InvariantData data;
  {
    ScopedSpan span(t, kInvariantExtract);
    data = topodb::InvariantData::FromComplex(complex);
  }
  std::string canonical;
  {
    // A structural-cache hit is attributed to the cache, a miss to the
    // canonical form it computes.
    ScopedSpan span(t, kInvariantCanonical);
    const uint64_t hits = s.inv_cache.stats().hits;
    auto result = s.inv_cache.Canonical(data);
    if (!result.ok()) Die("canonical: " + result.status().ToString());
    canonical = std::move(result).value();
    if (s.inv_cache.stats().hits > hits) span.Relabel(kInvCache);
  }
  s.darts += data.num_darts();
  s.canonical_bytes += static_cast<double>(canonical.size());
  ++s.builds;
  // Freeing the instance, arrangement and invariant data is the pipeline's
  // work too (the server frees them as its derivation returns).
  ScopedSpan span(t, kRelease);
  data = topodb::InvariantData();
  complex = topodb::CellComplex();
  instance = topodb::SpatialInstance();
  return canonical;
}

// ResolveCanonicals for one inline text: text cache, else the arrangement
// path and a text-cache insert.
std::string ResolveText(ReplayState& s, Tracer& t, const std::string& text) {
  {
    ScopedSpan span(t, kTextCache);
    if (std::optional<std::string> hit = s.text_cache.Lookup(text)) {
      return *std::move(hit);
    }
  }
  std::string canonical = DeriveCanonical(s, t, text);
  ScopedSpan span(t, kTextCache);
  s.text_cache.Insert(text, canonical);
  return canonical;
}

std::shared_ptr<const topodb::CatalogEntry> Find(ReplayState& s, Tracer& t,
                                                 const std::string& name) {
  ScopedSpan span(t, kStoreFind);
  auto entry = s.catalog->Find(name);
  if (!entry.ok()) Die("find: " + entry.status().ToString());
  return *entry;
}

bool EvalName(ReplayState& s, Tracer& t, const Request& r) {
  std::shared_ptr<const topodb::CatalogEntry> entry = Find(s, t, r.name);
  const uint64_t id = entry->entry_id();
  const uint32_t version = entry->view().format_version();
  std::shared_ptr<const topodb::QueryEngine> engine;
  {
    ScopedSpan span(t, kEngineCache);
    const uint64_t misses = s.engine_cache.stats().misses;
    auto got = s.engine_cache.GetOrBuild(id, version,
                                         entry->view().instance_text());
    if (!got.ok()) Die("engine: " + got.status().ToString());
    engine = *got;
    if (s.engine_cache.stats().misses > misses) span.Relabel(kEngineBuild);
  }
  topodb::FormulaPtr formula;
  {
    ScopedSpan span(t, kQueryParse);
    auto parsed = topodb::ParseQuery(r.query);
    if (!parsed.ok()) Die("query parse: " + parsed.status().ToString());
    formula = *parsed;
  }
  topodb::EvalOptions eval = s.defaults.eval;
  eval.plan = s.defaults.plan_queries;
  std::string key;
  {
    ScopedSpan span(t, kSemCache);
    key = topodb::SemanticCacheKey(id, version,
                                   topodb::CanonicalQueryKey(formula), eval);
    if (std::optional<bool> hit = s.sem_cache.Lookup(key)) return *hit;
  }
  topodb::FormulaPtr planned;
  {
    ScopedSpan span(t, kQueryPlan);
    planned = topodb::PlanQuery(formula, engine->planner_stats());
  }
  bool verdict = false;
  {
    ScopedSpan span(t, kQueryEval);
    topodb::EvalOptions plain = eval;
    plain.plan = false;
    auto result = engine->Evaluate(planned, plain);
    if (!result.ok()) Die("eval: " + result.status().ToString());
    verdict = *result;
  }
  ScopedSpan span(t, kSemCache);
  s.sem_cache.Insert(key, verdict);
  return verdict;
}

// One request through the library; returns the wire body the server would
// answer with.
std::string Replay(ReplayState& s, Tracer& t, const Request& r) {
  switch (r.kind) {
    case Kind::kComputeText:
      return CanonicalBody(ResolveText(s, t, r.texts[0]));
    case Kind::kBatchText: {
      std::string body;
      topodb::AppendU32(&body, static_cast<uint32_t>(r.texts.size()));
      for (const std::string& text : r.texts) {
        const std::string canonical = ResolveText(s, t, text);
        topodb::AppendU32(&body,
                          topodb::WireStatusFromCode(topodb::StatusCode::kOk));
        topodb::AppendWireString(&body, canonical);
      }
      return body;
    }
    case Kind::kIsoText: {
      const std::string a = ResolveText(s, t, r.texts[0]);
      const std::string b = ResolveText(s, t, r.texts[1]);
      return VerdictBody(a == b);
    }
    case Kind::kComputeName:
      return CanonicalBody(std::string(Find(s, t, r.name)->view().canonical()));
    case Kind::kEvalName:
      return VerdictBody(EvalName(s, t, r));
    case Kind::kDescribe:
      return DescribeBody(*Find(s, t, r.name));
    case Kind::kLoad: {
      // The server's LOAD is Catalog::Ingest alone: parse, arrangement,
      // invariant and the file write happen inside it, so store.ingest is
      // one undivided span.
      std::shared_ptr<const topodb::CatalogEntry> entry;
      {
        ScopedSpan span(t, kStoreIngest);
        auto ingested = s.catalog->Ingest(r.name, r.texts[0]);
        if (!ingested.ok()) Die("ingest: " + ingested.status().ToString());
        entry = *std::move(ingested);
      }
      std::string body;
      topodb::AppendU64(&body, entry->entry_id());
      topodb::AppendU64(&body, entry->file_bytes());
      return body;
    }
  }
  return "";
}

// Set-up first (LOADs ahead of the rest, as the wire set-up sends them),
// then the first sent[c] requests of each stream c (wrapping as the wire
// run does), merged by their position j / sent[c] within their stream, so
// any prefix of the timed part has the wire run's mix of streams.
std::vector<const Request*> ReplayOrder(const Workload& w,
                                        const std::vector<size_t>& sent) {
  std::vector<const Request*> order;
  for (const Request& r : w.setup) {
    if (r.kind == Kind::kLoad) order.push_back(&r);
  }
  for (const Request& r : w.setup) {
    if (r.kind != Kind::kLoad) order.push_back(&r);
  }
  std::vector<std::pair<double, const Request*>> timed;
  for (size_t c = 0; c < w.streams.size(); ++c) {
    const std::vector<Request>& stream = w.streams[c];
    for (size_t j = 0; j < sent[c]; ++j) {
      timed.push_back({(j + 0.5) / sent[c], &stream[j % stream.size()]});
    }
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [position, r] : timed) order.push_back(r);
  return order;
}

struct Pass {
  size_t requests = 0;
  double wall_us = 0;
  int wrong = 0;
  double darts_per_build = 0;
  double canonical_bytes_per_build = 0;
};

// Replays `order` until `limit` requests, or until `budget_s` has passed
// since the set-up requests (which always run) finished. A request with
// more than one acceptable answer (a churned name) passes on any of them.
Pass RunPass(const Workload& w, const std::vector<const Request*>& order,
             size_t limit, double budget_s, const std::string& dir,
             Tracer& tracer) {
  std::filesystem::remove_all(dir);
  ReplayState state(dir);
  Pass pass;
  const Clock::time_point start = Clock::now();
  Clock::time_point stop = Clock::time_point::max();
  for (const Request* r : order) {
    if (pass.requests == w.setup.size()) {
      stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(budget_s));
    }
    if (pass.requests >= limit || Clock::now() >= stop) break;
    tracer.NextRequest();
    std::string body;
    {
      ScopedSpan span(tracer, kRequest);
      body = Replay(state, tracer, *r);
    }
    // The answer check is the benchmark's own work: outside every span.
    if (std::find(r->expected.begin(), r->expected.end(), body) ==
        r->expected.end()) {
      ++pass.wrong;
    }
    ++pass.requests;
  }
  pass.wall_us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  if (state.builds > 0) {
    pass.darts_per_build = state.darts / state.builds;
    pass.canonical_bytes_per_build = state.canonical_bytes / state.builds;
  }
  return pass;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  return v[i];
}

}  // namespace

std::string RunTracedReplay(const Workload& workload,
                            const std::vector<size_t>& sent, double budget_s,
                            const std::string& work_dir, int* wrong) {
  const std::vector<const Request*> order = ReplayOrder(workload, sent);
  // A spans-off pass fixes how many requests every pass replays and warms
  // the process. Then spans-on and spans-off passes alternate twice; the
  // overhead ratio compares the faster pass of each kind, which discounts
  // a neighbour's burst on a shared host.
  const std::string dir = work_dir + "/pass";
  Tracer off(false);
  const Pass first = RunPass(workload, order, order.size(), budget_s, dir, off);
  // The later passes end at the first pass's request count.
  constexpr double kUnbounded = 1e9;
  Tracer on(true), again(true);
  const Pass traced =
      RunPass(workload, order, first.requests, kUnbounded, dir, on);
  const Pass plain =
      RunPass(workload, order, first.requests, kUnbounded, dir, off);
  const Pass traced2 =
      RunPass(workload, order, first.requests, kUnbounded, dir, again);
  const Pass plain2 =
      RunPass(workload, order, first.requests, kUnbounded, dir, off);
  *wrong = first.wrong + traced.wrong + plain.wrong + traced2.wrong +
           plain2.wrong;
  const double overhead_ratio = std::min(traced.wall_us, traced2.wall_us) /
                                std::min(plain.wall_us, plain2.wall_us);

  // The spans of the first traced pass, one line each, then the per-layer
  // statistics computed from them.
  const std::vector<Tracer::Span>& spans = on.spans();
  const std::string spans_path = work_dir + "/spans.csv";
  {
    std::ofstream csv(spans_path);
    csv << "request,span,parent,layer,start_us,end_us\n";
    const Clock::time_point origin =
        spans.empty() ? Clock::time_point() : spans.front().start;
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    for (size_t i = 0; i < spans.size(); ++i) {
      csv << spans[i].request << ',' << i << ',' << spans[i].parent << ','
          << kLayerNames[spans[i].layer] << ',' << us(spans[i].start) << ','
          << us(spans[i].end) << '\n';
    }
  }
  // Self time: a span's duration minus its children's durations.
  std::vector<double> duration(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    duration[i] = std::chrono::duration<double, std::micro>(spans[i].end -
                                                            spans[i].start)
                      .count();
  }
  std::vector<double> self = duration;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) self[spans[i].parent] -= duration[i];
  }
  // The replay total is the time spent inside requests; the layers' self
  // times account for all of it but the requests' own self time, which is
  // the residual.
  std::vector<std::vector<double>> per_layer(kNumLayers);
  double total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    per_layer[spans[i].layer].push_back(self[i]);
    if (spans[i].parent < 0) total += duration[i];
  }
  double self_sum = 0, residual = 0;
  std::ostringstream out;
  out.precision(9);
  out << "{\"requests\": " << traced.requests << ", \"layers\": {";
  for (int l = 0; l < kNumLayers; ++l) {
    double sum = 0;
    for (double v : per_layer[l]) sum += v;
    (l == kRequest ? residual : self_sum) += sum;
    out << (l ? ", " : "") << "\"" << kLayerNames[l] << "\": {\"count\": "
        << per_layer[l].size() << ", \"self_us\": " << sum << ", \"mean_us\": "
        << (per_layer[l].empty() ? 0.0 : sum / per_layer[l].size())
        << ", \"p99_us\": " << Percentile(per_layer[l], 0.99) << "}";
  }
  out << "}, \"total_us\": " << total
      << ", \"self_sum_us\": " << self_sum
      << ", \"residual_us\": " << residual
      << ", \"wall_us\": " << traced.wall_us
      << ", \"pass_us\": [" << traced.wall_us << ", " << plain.wall_us
      << ", " << traced2.wall_us << ", " << plain2.wall_us << "]"
      << ", \"overhead_ratio\": " << overhead_ratio
      << ", \"spans_file\": \"" << spans_path << "\""
      << ", \"darts_per_build\": " << traced.darts_per_build
      << ", \"canonical_bytes_per_build\": "
      << traced.canonical_bytes_per_build << "}";
  return out.str();
}

}  // namespace perfbench
