#include "perfbench/inputs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "src/pipeline/batch.h"
#include "src/pipeline/invariant_cache.h"
#include "src/query/eval.h"
#include "src/region/io.h"
#include "src/server/wire.h"
#include "src/store/catalog.h"
#include "src/workload/generators.h"

namespace perfbench {

using topodb::AppendInstanceRef;
using topodb::AppendU32;
using topodb::AppendU64;
using topodb::AppendU8;
using topodb::AppendWireString;
using topodb::InstanceRef;
using topodb::Opcode;
using topodb::SplitMix64;
using Clock = std::chrono::steady_clock;

const char* KlassName(Klass klass) {
  switch (klass) {
    case Klass::kCompute: return "compute";
    case Klass::kBatch: return "batch";
    case Klass::kEval: return "eval";
    case Klass::kLoad: return "load";
    case Klass::kDescribe: return "describe";
  }
  return "?";
}

std::string CanonicalBody(const std::string& canonical) {
  std::string body;
  AppendWireString(&body, canonical);
  return body;
}

std::string VerdictBody(bool verdict) {
  std::string body;
  AppendU8(&body, verdict ? 1 : 0);
  return body;
}

std::string DescribeBody(const topodb::CatalogEntry& entry) {
  const topodb::StoreFileView& view = entry.view();
  const topodb::StoreStats stats = view.stats();
  std::string body;
  AppendWireString(&body, std::string(view.name()));
  AppendU64(&body, entry.entry_id());
  AppendU64(&body, entry.file_bytes());
  AppendU64(&body, stats.num_regions);
  AppendU64(&body, stats.num_vertices);
  AppendU64(&body, stats.num_edges);
  AppendU64(&body, stats.num_faces);
  AppendU8(&body, view.has_s_invariant() ? 1 : 0);
  AppendU64(&body, view.canonical().size());
  return body;
}

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// --- Instance shapes --------------------------------------------------------

// Axis-aligned rectangles with region names; rendered as instance text
// (src/region/io.h) at an integer offset, so a translated copy has new text
// but the same topology and names, hence the same canonical invariant.
struct Rect {
  int64_t x0, y0, x1, y1;
};
struct Shape {
  std::string prefix;  // Region names are prefix + index.
  std::vector<Rect> rects;
};

std::string Render(const Shape& shape, int64_t dx = 0, int64_t dy = 0) {
  std::string text;
  char line[160];
  for (size_t i = 0; i < shape.rects.size(); ++i) {
    const Rect& r = shape.rects[i];
    const int64_t x0 = r.x0 + dx, y0 = r.y0 + dy, x1 = r.x1 + dx,
                  y1 = r.y1 + dy;
    std::snprintf(line, sizeof(line),
                  "%s%zu: (%lld %lld, %lld %lld, %lld %lld, %lld %lld)\n",
                  shape.prefix.c_str(), i, (long long)x0, (long long)y0,
                  (long long)x1, (long long)y0, (long long)x1, (long long)y1,
                  (long long)x0, (long long)y1);
    text += line;
  }
  return text;
}

Shape Chain(const std::string& prefix, int n) {
  Shape s{prefix, {}};
  for (int i = 0; i < n; ++i) {
    s.rects.push_back({6 * i, (i % 2) * 2, 6 * i + 9, 10 + (i % 2) * 2});
  }
  return s;
}

Shape Grid(const std::string& prefix, int rows, int cols) {
  Shape s{prefix, {}};
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      s.rects.push_back({6 * c, 6 * r, 6 * c + 9, 6 * r + 9});
    }
  }
  return s;
}

Shape Nested(const std::string& prefix, int depth) {
  Shape s{prefix, {}};
  for (int i = 0; i < depth; ++i) {
    s.rects.push_back({3 * i, 3 * i, 6 * depth - 3 * i, 6 * depth - 3 * i});
  }
  return s;
}

// Random rectangles in a 200 x 200 world. Left/bottom sides sit on odd
// coordinates and right/top sides on even ones, so sides can overlap but
// no two rectangles share a corner by accident.
Shape RandomRects(const std::string& prefix, int n, SplitMix64& rng) {
  Shape s{prefix, {}};
  for (int i = 0; i < n; ++i) {
    const int64_t x = rng.Below(80), y = rng.Below(80);
    const int64_t w = 3 + rng.Below(28), h = 3 + rng.Below(28);
    s.rects.push_back({2 * x + 1, 2 * y + 1, 2 * (x + w), 2 * (y + h)});
  }
  return s;
}

// The four families of the invariant workloads, at a size index into the
// family's ladder: RandomRect(4-20), chain(8-32), grid(<=5x5), nested.
// Random rectangles come from a fixed pool of four layouts per size, so the
// cost of a ladder walk does not depend on the workload seed.
enum class Family { kRandom, kChain, kGrid, kNested };

Shape MakeShape(Family family, int step, const std::string& prefix,
                int pool) {
  switch (family) {
    case Family::kRandom: {
      SplitMix64 layout(0x5eed0000u + 16 * step + pool);
      return RandomRects(prefix, 4 + 2 * (step % 9), layout);
    }
    case Family::kChain: return Chain(prefix, 8 + 4 * (step % 7));
    case Family::kGrid: {
      static const int kDims[7][2] = {{2, 2}, {2, 3}, {3, 3}, {3, 4},
                                      {4, 4}, {4, 5}, {5, 5}};
      return Grid(prefix, kDims[step % 7][0], kDims[step % 7][1]);
    }
    case Family::kNested: return Nested(prefix, 3 + (step % 8));
  }
  return Shape{};
}

// Catalog entry `index`: small entries have 3-8 regions (region quantifiers
// stay within the evaluator's budget), large ones 9-16. Family and size
// cycle with the index and random rectangles come from a pool of four
// layouts per size, so the entry mix costs the same under every seed.
Shape CatalogShape(const std::string& prefix, int index, bool small,
                   int pool) {
  const int family = index % 4;
  const int n = small ? 3 + (index / 4) % 6 : 9 + (index / 4) % 8;
  switch (family) {
    case 0: {
      SplitMix64 layout(0xca7a0000u + 16 * n + pool);
      return RandomRects(prefix, n, layout);
    }
    case 1: return Chain(prefix, n);
    case 2: return Grid(prefix, small ? 2 : 3, std::max(2, n / (small ? 2 : 3)));
    default: return Nested(prefix, n);
  }
}

std::string TextRef(const std::string& text) {
  std::string payload;
  AppendInstanceRef(&payload, InstanceRef::Text(text));
  return payload;
}

std::string NameRef(const std::string& name) {
  std::string payload;
  AppendInstanceRef(&payload, InstanceRef::Name(name));
  return payload;
}

// Runs fn(i) for i in [0, n) on `threads` threads until `deadline`; returns
// how many leading indices are known to be done (every index below the
// result ran to completion).
template <typename Fn>
size_t ParallelPrefix(size_t n, Clock::time_point deadline, Fn fn) {
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::atomic<size_t> next{0};
  std::vector<char> done(n, 0);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        if (Clock::now() >= deadline) return;
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        fn(i);
        done[i] = 1;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  size_t prefix = 0;
  while (prefix < n && done[prefix]) ++prefix;
  return prefix;
}

template <typename Fn>
void ParallelAll(size_t n, Fn fn) {
  ParallelPrefix(n, Clock::time_point::max(), fn);
}

// Deals 0..3 in seed-shuffled blocks of four, so every four draws hold
// each value once.
class Deck {
 public:
  explicit Deck(SplitMix64& rng) : rng_(rng) {}
  int Next() {
    if (next_ == 4) {
      for (int i = 3; i > 0; --i) std::swap(cards_[i], cards_[rng_.Below(i + 1)]);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  SplitMix64& rng_;
  int cards_[4] = {0, 1, 2, 3};
  int next_ = 4;
};

// --- Query templates ----------------------------------------------------------

// Each template has two spellings that canonicalize to one semantic-cache
// key (src/query/plan.h): operand order, converse predicates, negated
// quantifiers, renamed binders. The last kRegionTemplates quantify over
// regions and go only to entries with at most 8 regions.
const char* const kTemplates[][2] = {
    {"exists cell c . subset(c, %A) and subset(c, %B)",
     "exists cell z . subset(z, %B) and subset(z, %A)"},
    {"overlap(%A, %B)", "overlap(%B, %A)"},
    {"inside(%A, %B)", "contains(%B, %A)"},
    {"forall cell c . subset(c, %A) implies subset(c, %B)",
     "not exists cell d . subset(d, %A) and not subset(d, %B)"},
    {"exists name n . not (n = %A) and meet(n, %B)",
     "exists name m . meet(m, %B) and not (m = %A)"},
    {"disjoint(%A, %B) or connect(%B, %A)",
     "connect(%A, %B) or disjoint(%A, %B)"},
    {"exists region r . subset(r, %A) and subset(r, %B)",
     "exists region s . subset(s, %B) and subset(s, %A)"},
    {"forall region r . subset(r, %A) implies connect(r, %B)",
     "not exists region q . subset(q, %A) and not connect(q, %B)"},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);
constexpr int kRegionTemplates = 2;

std::string Instantiate(int tmpl, int spelling, const std::string& a,
                        const std::string& b) {
  std::string out;
  for (const char* p = kTemplates[tmpl][spelling]; *p != '\0'; ++p) {
    if (p[0] == '%' && (p[1] == 'A' || p[1] == 'B')) {
      out += p[1] == 'A' ? a : b;
      ++p;
    } else {
      out += *p;
    }
  }
  return out;
}

// A catalog entry of the query workloads: a name, its region names and the
// text of every version written under that name.
struct Entry {
  std::string name;
  Shape shape;
  std::vector<std::string> texts;  // Version 0 first.
  std::vector<int> version_ids;    // Indices into Workload::versions.
  bool small() const { return shape.rects.size() <= 8; }
  std::string region(size_t i) const {
    return shape.prefix + std::to_string(i);
  }
};

// A (template, A, B) key on one entry.
struct QueryKey {
  int entry;
  int tmpl;
  int a, b;
};

QueryKey DrawKey(int entry_index, const Entry& entry, SplitMix64& rng) {
  const int n = static_cast<int>(entry.shape.rects.size());
  QueryKey key{entry_index, 0, 0, 0};
  const int templates =
      entry.small() ? kNumTemplates : kNumTemplates - kRegionTemplates;
  key.tmpl = static_cast<int>(rng.Below(templates));
  key.a = static_cast<int>(rng.Below(n));
  key.b = static_cast<int>(rng.Below(n - 1));
  if (key.b >= key.a) ++key.b;
  return key;
}

std::string KeyQuery(const QueryKey& key, const Entry& entry, int spelling) {
  return Instantiate(key.tmpl, spelling, entry.region(key.a),
                     entry.region(key.b));
}


// Ingests every version through a scratch catalog: the library's own
// ingest gives the entry id, file size and canonical the server must
// answer with. The entry id is a checksum of the file's content, so
// versions are independent and ingest in parallel, spread over a few
// catalog directories so the file writes do not queue on one catalog lock.
size_t IngestTruth(std::vector<VersionTruth>* versions,
                   const std::string& scratch_dir,
                   Clock::time_point deadline) {
  constexpr size_t kCatalogs = 8;
  std::vector<std::unique_ptr<topodb::Catalog>> catalogs;
  for (size_t i = 0; i < kCatalogs; ++i) {
    topodb::CatalogOptions options;
    options.directory = scratch_dir + "/truth-" + std::to_string(i);
    auto opened = topodb::Catalog::Open(options);
    if (!opened.ok()) Die("truth catalog: " + opened.status().ToString());
    catalogs.push_back(std::move(opened).value());
  }
  return ParallelPrefix(versions->size(), deadline, [&](size_t i) {
    VersionTruth& v = (*versions)[i];
    topodb::Catalog* catalog = catalogs[i % kCatalogs].get();
    auto entry = catalog->Ingest(v.name, v.text);
    if (!entry.ok()) {
      Die("truth ingest of " + v.name + ": " + entry.status().ToString());
    }
    v.canonical = std::string((*entry)->view().canonical());
    v.entry_id = (*entry)->entry_id();
    v.file_bytes = (*entry)->file_bytes();
    v.describe_body = DescribeBody(**entry);
  });
}

std::string LoadPayload(const std::string& name, const std::string& text) {
  std::string payload;
  AppendWireString(&payload, name);
  AppendWireString(&payload, text);
  return payload;
}

Request LoadRequest(const VersionTruth& v, int version_index) {
  Request r;
  r.kind = Kind::kLoad;
  r.klass = Klass::kLoad;
  r.opcode = static_cast<uint16_t>(Opcode::kLoad);
  r.payload = LoadPayload(v.name, v.text);
  std::string body;
  AppendU64(&body, v.entry_id);
  AppendU64(&body, v.file_bytes);
  r.expected = {body};
  r.texts = {v.text};
  r.name = v.name;
  r.version = version_index;
  return r;
}

// Verdicts of (entry version, query) pairs, evaluated unplanned and
// uncached as the oracle for the server's planned, cached path. The oracle
// runs with a tenth of the server's region-candidate budget: budget
// accounting is deterministic, so a query it answers is answered
// identically by the server, and the rare query that would enumerate
// 10^5 disc values (one stalls a connection for ~0.2 s) is left out.
class VerdictTable {
 public:
  // Adds the pair; returns its slot.
  size_t Add(const std::string& text, const std::string& query) {
    auto [it, inserted] = index_.emplace(std::make_pair(text, query),
                                         pairs_.size());
    if (inserted) pairs_.push_back({text, query});
    return it->second;
  }

  void Evaluate() {
    // Group by text so each version's engine is built once.
    std::map<std::string, std::vector<size_t>> by_text;
    for (size_t i = 0; i < pairs_.size(); ++i) {
      by_text[pairs_[i].first].push_back(i);
    }
    std::vector<const std::pair<const std::string, std::vector<size_t>>*>
        groups;
    for (const auto& g : by_text) groups.push_back(&g);
    verdicts_.assign(pairs_.size(), -1);
    ParallelAll(groups.size(), [&](size_t g) {
      auto instance = topodb::ParseInstanceText(groups[g]->first);
      if (!instance.ok()) Die("truth parse: " + instance.status().ToString());
      auto engine = topodb::QueryEngine::Build(*instance);
      if (!engine.ok()) Die("truth engine: " + engine.status().ToString());
      for (size_t i : groups[g]->second) {
        topodb::EvalOptions options;
        options.max_region_candidates /= 10;
        auto verdict = engine->Evaluate(pairs_[i].second, options);
        verdicts_[i] = verdict.ok() ? (*verdict ? 1 : 0) : -1;
      }
    });
  }

  // -1 when the evaluation failed (e.g. a budget ran out): such queries
  // are never sent.
  int verdict(size_t slot) const { return verdicts_[slot]; }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::map<std::pair<std::string, std::string>, size_t> index_;
  std::vector<int> verdicts_;
};

// --- invariant_stream / routed_invariants ------------------------------------

// Requests mix COMPUTE_INVARIANT (1 item), BATCH_INVARIANTS (8 items) and
// ISO_CHECK (2 items). Each item is a hot-set repeat (text-cache hit), a
// translated copy of an earlier input (InvariantCache hit after parse and
// arrangement) or a fresh instance (full path), with shares 1/2, 1/4, 1/4.
//
// The routed workload sends no fresh instances: the router places an inline
// text by its content hash, and a few fresh instances cost a hundred times
// the median, so where they land would decide the run. Its items are hot
// (1/2) or translated copies of the hot set (1/2), and its set-up sends
// eight translated copies of every hot shape, so both shards' structural
// caches hold the hot set's canonical forms before timing.
Workload InvariantStream(const std::string& name, uint64_t seed,
                         double seconds, bool routed) {
  Workload w;
  w.name = name;
  w.routed = routed;
  w.server_workers = routed ? 1 : 2;
  w.stream_rates.assign(4, 0);
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 1);

  // The hot set and the fresh instances walk each family's size ladder, the
  // fresh ones in a seed-shuffled order, so every seed pays the same mix of
  // sizes.
  std::vector<std::pair<Family, int>> ladder;
  for (int step = 0; step < 9; ++step) ladder.push_back({Family::kRandom, step});
  for (int step = 0; step < 7; ++step) ladder.push_back({Family::kChain, step});
  for (int step = 0; step < 7; ++step) ladder.push_back({Family::kGrid, step});
  for (int step = 0; step < 8; ++step) ladder.push_back({Family::kNested, step});
  std::vector<Shape> bases;
  std::vector<std::string> hot;
  // The random-rectangle layout pool cycles with each walk instead of being
  // drawn: a few layouts cost many times the median, so how often a run
  // meets them must not depend on the seed.
  for (int i = 0; i < 64; ++i) {
    const auto [family, step] = ladder[i % ladder.size()];
    Shape s = MakeShape(family, step, "h" + std::to_string(i) + "_",
                        static_cast<int>(i / ladder.size()) % 4);
    hot.push_back(Render(s));
    bases.push_back(std::move(s));
  }
  size_t fresh_count = 0;
  auto fresh_item = [&]() {
    if (fresh_count % ladder.size() == 0) {
      for (size_t i = ladder.size(); i > 1; --i) {
        std::swap(ladder[i - 1], ladder[rng.Below(i)]);
      }
    }
    const auto [family, step] = ladder[fresh_count % ladder.size()];
    Shape s = MakeShape(family, step, "f" + std::to_string(fresh_count) + "_",
                        static_cast<int>(fresh_count / ladder.size()) % 4);
    ++fresh_count;
    std::string text = Render(s);
    bases.push_back(std::move(s));
    return text;
  };
  auto translated_item = [&](size_t base) {
    return Render(bases[base], 1 + static_cast<int64_t>(rng.Below(5000)),
                  1 + static_cast<int64_t>(rng.Below(5000)));
  };
  // Item classes and request kinds are dealt from decks of four, so their
  // shares are exact over a run instead of binomial.
  Deck item_deck(rng), kind_deck(rng);
  // Returns the text and the index of its base shape.
  auto any_item = [&]() -> std::pair<std::string, size_t> {
    const int u = item_deck.Next();
    if (u < 2) {
      const size_t base = rng.Below(hot.size());
      return {hot[base], base};
    }
    if (u == 2 || routed) {
      const size_t base = rng.Below(bases.size());
      return {translated_item(base), base};
    }
    std::string text = fresh_item();
    return {std::move(text), bases.size() - 1};
  };
  std::vector<std::string> warm = hot;
  if (routed) {
    for (size_t base = 0; base < hot.size(); ++base) {
      for (int k = 0; k < 8; ++k) warm.push_back(translated_item(base));
    }
  }

  // Generate more requests than a run sends (about 160 per second on one
  // server, 800 routed, on a 4-core host); truth is computed for as long a
  // prefix as the truth budget allows.
  const size_t generated =
      static_cast<size_t>((routed ? 1400 : 240) * seconds) + 200;
  std::vector<Request> sequence;
  sequence.reserve(generated);
  for (size_t i = 0; i < generated; ++i) {
    Request r;
    const int u = kind_deck.Next();
    if (u < 2) {
      r.kind = Kind::kComputeText;
      r.klass = Klass::kCompute;
      r.opcode = static_cast<uint16_t>(Opcode::kComputeInvariant);
      r.texts = {any_item().first};
    } else if (u == 2) {
      r.kind = Kind::kBatchText;
      r.klass = Klass::kBatch;
      r.opcode = static_cast<uint16_t>(Opcode::kBatchInvariants);
      for (int k = 0; k < 8; ++k) r.texts.push_back(any_item().first);
    } else {
      r.kind = Kind::kIsoText;
      r.klass = Klass::kCompute;
      r.opcode = static_cast<uint16_t>(Opcode::kIsoCheck);
      auto [text, base] = any_item();
      r.texts.push_back(std::move(text));
      // Half the pairs are an input and a translated copy of it
      // (isomorphic), half two independent inputs.
      r.texts.push_back(rng.Below(2) == 0 ? translated_item(base)
                                          : any_item().first);
    }
    r.items = static_cast<int>(r.texts.size());
    sequence.push_back(std::move(r));
  }

  // Truth: every distinct text in order of first use, through the same
  // batch pipeline and structural cache the server runs.
  std::map<std::string, size_t> slot_of;
  std::vector<const std::string*> distinct;
  std::vector<size_t> last_slot(sequence.size(), 0);
  for (const std::string& text : warm) {
    if (slot_of.emplace(text, distinct.size()).second) {
      distinct.push_back(&slot_of.find(text)->first);
    }
  }
  for (size_t i = 0; i < sequence.size(); ++i) {
    size_t highest = 0;
    for (const std::string& text : sequence[i].texts) {
      auto [it, inserted] = slot_of.emplace(text, distinct.size());
      if (inserted) distinct.push_back(&it->first);
      highest = std::max(highest, it->second);
    }
    last_slot[i] = highest;
  }
  std::vector<std::string> canonical(distinct.size());
  topodb::InvariantCache cache;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds + 2));
  const size_t computed =
      ParallelPrefix(distinct.size(), deadline, [&](size_t i) {
        auto instance = topodb::ParseInstanceText(*distinct[i]);
        if (!instance.ok()) Die("truth parse: " + instance.status().ToString());
        topodb::BatchOptions options;
        options.num_threads = 1;
        options.cache = &cache;
        auto results = topodb::BatchComputeInvariants(
            std::span<const topodb::SpatialInstance>(&*instance, 1), options);
        if (!results[0].ok()) {
          Die("truth invariant: " + results[0].status().ToString());
        }
        canonical[i] = results[0]->canonical();
      });
  if (computed < warm.size()) Die("truth budget too small for the warm-up");
  size_t kept = 0;
  while (kept < sequence.size() && last_slot[kept] < computed) ++kept;
  sequence.resize(kept);

  for (Request& r : sequence) {
    std::vector<const std::string*> canon;
    for (const std::string& text : r.texts) {
      canon.push_back(&canonical[slot_of[text]]);
    }
    if (r.kind == Kind::kComputeText) {
      r.payload = TextRef(r.texts[0]);
      r.expected = {CanonicalBody(*canon[0])};
    } else if (r.kind == Kind::kBatchText) {
      AppendU32(&r.payload, static_cast<uint32_t>(r.texts.size()));
      std::string body;
      AppendU32(&body, static_cast<uint32_t>(r.texts.size()));
      for (size_t k = 0; k < r.texts.size(); ++k) {
        AppendInstanceRef(&r.payload, InstanceRef::Text(r.texts[k]));
        AppendU32(&body, topodb::WireStatusFromCode(topodb::StatusCode::kOk));
        AppendWireString(&body, *canon[k]);
      }
      r.expected = {body};
    } else {
      r.payload = TextRef(r.texts[0]) + TextRef(r.texts[1]);
      r.expected = {VerdictBody(*canon[0] == *canon[1])};
    }
  }

  for (const std::string& text : warm) {
    Request r;
    r.kind = Kind::kComputeText;
    r.klass = Klass::kCompute;
    r.opcode = static_cast<uint16_t>(Opcode::kComputeInvariant);
    r.texts = {text};
    r.payload = TextRef(text);
    r.expected = {CanonicalBody(canonical[slot_of[text]])};
    w.setup.push_back(std::move(r));
  }
  w.streams.assign(4, {});
  for (size_t i = 0; i < sequence.size(); ++i) {
    w.streams[i % 4].push_back(std::move(sequence[i]));
  }
  w.notes = std::to_string(kept) + " requests with truth (" +
            std::to_string(computed) + " distinct texts, " +
            std::to_string(cache.size()) + " distinct structures)";
  return w;
}

// --- catalog_query -------------------------------------------------------------

// Paced at kQueryRate requests per second, then closed loop for the last
// 30% of the timed phase. The rate is a twentieth of the closed-loop
// capacity measured on a 4-core host (about 40000 requests per second,
// perfbench/ledger.json), so latency is timed well below saturation, where
// queueing does not amplify the host's noise, while the capacity phase
// falls with the program.
constexpr double kQueryRate = 2000;
constexpr double kQueryCapacity = 40000;

Workload CatalogQuery(uint64_t seed, double seconds,
                      const std::string& scratch_dir) {
  Workload w;
  w.name = "catalog_query";
  w.catalog = true;
  w.stream_rates.assign(4, kQueryRate / 4);
  w.saturation_share = 0.3;
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 2);

  constexpr int kEntries = 256;
  std::vector<Entry> entries(kEntries);
  for (int i = 0; i < kEntries; ++i) {
    Entry& e = entries[i];
    e.name = "e" + std::to_string(i);
    e.shape = CatalogShape("a", i, /*small=*/i % 5 < 3,
                           static_cast<int>(rng.Below(4)));
    e.texts = {Render(e.shape)};
    e.version_ids = {i};
    w.versions.push_back({e.name, e.texts[0], "", 0, 0, ""});
  }
  IngestTruth(&w.versions, scratch_dir, Clock::time_point::max());
  for (int i = 0; i < kEntries; ++i) {
    w.setup.push_back(LoadRequest(w.versions[i], i));
  }

  // 48 keys per entry: 12288 (entry, canonical query) keys, three times
  // the semantic cache's 4096 entries, drawn Zipf(0.7) over a seeded rank
  // order.
  std::vector<QueryKey> keys;
  for (int i = 0; i < kEntries; ++i) {
    // Every entry has at least 3 regions, so 48 distinct keys exist.
    std::set<std::tuple<int, int, int>> seen;
    while (seen.size() < 48) {
      QueryKey key = DrawKey(i, entries[i], rng);
      if (seen.insert({key.tmpl, key.a, key.b}).second) keys.push_back(key);
    }
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Below(i)]);
  }
  std::vector<double> cdf(keys.size());
  double total = 0;
  for (size_t k = 0; k < keys.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 0.7);
    cdf[k] = total;
  }
  // The first kWarmDraws draws warm the semantic cache during set-up, so the
  // timed phase starts at its steady hit ratio. The paced phase sends
  // 0.7 * rate * seconds requests; the capacity phase gets room for 1.3
  // times the measured capacity.
  constexpr size_t kWarmDraws = 8192;
  const size_t count = kWarmDraws + static_cast<size_t>(
      (0.7 * kQueryRate + 0.3 * 1.3 * kQueryCapacity) * seconds);
  VerdictTable table;
  std::vector<std::pair<const QueryKey*, int>> drawn;  // key, spelling
  std::vector<size_t> slots;
  for (size_t i = 0; i < count; ++i) {
    const double u = (rng.Next() >> 11) * 0x1.0p-53 * total;
    const size_t k = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    const QueryKey* key = &keys[std::min(k, keys.size() - 1)];
    const int spelling = static_cast<int>(rng.Below(2));
    drawn.push_back({key, spelling});
    const Entry& e = entries[key->entry];
    slots.push_back(table.Add(e.texts[0], KeyQuery(*key, e, spelling)));
  }
  // Warm-up: one cheap query per entry builds its engine.
  std::vector<std::string> warm_queries;
  std::vector<size_t> warm_slots;
  for (const Entry& e : entries) {
    warm_queries.push_back("exists cell c . subset(c, " + e.region(0) + ")");
    warm_slots.push_back(table.Add(e.texts[0], warm_queries.back()));
  }
  table.Evaluate();

  auto eval_request = [&](const Entry& e, const std::string& query,
                          int verdict) {
    Request r;
    r.kind = Kind::kEvalName;
    r.klass = Klass::kEval;
    r.opcode = static_cast<uint16_t>(Opcode::kEvalQuery);
    r.name = e.name;
    r.query = query;
    r.payload = NameRef(e.name);
    AppendWireString(&r.payload, query);
    r.expected = {VerdictBody(verdict == 1)};
    return r;
  };
  for (size_t i = 0; i < entries.size(); ++i) {
    const int verdict = table.verdict(warm_slots[i]);
    if (verdict < 0) Die("warm-up query failed on " + entries[i].name);
    w.setup.push_back(eval_request(entries[i], warm_queries[i], verdict));
  }
  std::set<const QueryKey*> distinct;
  size_t dropped = 0;
  std::vector<Request> sequence;
  for (size_t i = 0; i < drawn.size(); ++i) {
    const int verdict = table.verdict(slots[i]);
    if (verdict < 0) {
      ++dropped;
      continue;
    }
    const QueryKey& key = *drawn[i].first;
    const Entry& e = entries[key.entry];
    Request r = eval_request(e, KeyQuery(key, e, drawn[i].second), verdict);
    if (i < kWarmDraws) {
      w.setup.push_back(std::move(r));
      continue;
    }
    distinct.insert(&key);
    sequence.push_back(std::move(r));
  }
  w.streams.assign(4, {});
  for (size_t i = 0; i < sequence.size(); ++i) {
    w.streams[i % 4].push_back(std::move(sequence[i]));
  }
  w.notes = std::to_string(kEntries) + " entries, " +
            std::to_string(keys.size()) + " keys, " +
            std::to_string(distinct.size()) + " distinct keys drawn, " +
            std::to_string(dropped) + " over-budget draws dropped";
  return w;
}

// --- catalog_rw ----------------------------------------------------------------

// The writer runs closed loop; each reader is paced at kReaderRate requests
// per second. Unpaced readers of cached entries answer ~40000 requests per
// second and would leave LOADs ~1% of the samples; paced, LOADs (~200 per
// second) are about three quarters of them, so the workload's latency and
// throughput are mostly ingest, with reads beside it on the same workers.
constexpr double kReaderRate = 25;

Workload CatalogRw(uint64_t seed, double seconds,
                   const std::string& scratch_dir) {
  Workload w;
  w.name = "catalog_rw";
  w.catalog = true;
  w.durability = true;
  w.stream_rates = {0, kReaderRate, kReaderRate, kReaderRate};
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 3);

  // 64 preloaded entries; the first 16 are churned by the writer. Churned
  // entries are random rectangles with at most 8 regions whose versions
  // keep the region names, so every query stays valid on every version.
  // Their layouts come from a fixed pool of eight per size, placed at a
  // seeded offset, so the cost of the churn does not depend on the seed.
  // Every other shape of this workload too is fixed by its index and drawn
  // at a seeded offset.
  constexpr int kEntries = 64, kChurned = 16, kPool = 8;
  auto churn_shape = [](int n, int pool) {
    SplitMix64 layout(0xc4c40000u + 16 * n + pool % kPool);
    return RandomRects("a", n, layout);
  };
  auto offset = [&] { return 1 + static_cast<int64_t>(rng.Below(3000)); };
  std::vector<Entry> entries(kEntries);
  for (int i = 0; i < kEntries; ++i) {
    Entry& e = entries[i];
    e.name = "w" + std::to_string(i);
    e.shape = i < kChurned ? churn_shape(4 + i % 5, i)
                           : CatalogShape("a", i, /*small=*/i % 2 == 0, i / 32);
    e.texts = {Render(e.shape, offset(), offset())};
  }
  // Writer: every fourth LOAD writes one of 256 further names (9-16
  // regions), the first time as a new name and later moved to a new
  // offset; the LOADs between rewrite churned names. So the mix of ingest
  // costs is the same throughout the run and the catalog stops growing at
  // 320 entries. A churned name cycles through 8 versions after its
  // preloaded one (odd versions move the previous one: same canonical, new
  // entry id; even versions take the next pool layout), so every rewrite
  // changes the entry id while the set of versions, and with it the
  // server's resident engines and mapped files, stays bounded. The writer
  // sends ~250 LOADs per second on a 4-core host; new_names leaves room for
  // 1.5 times that.
  const int new_names = static_cast<int>(100 * seconds) + 64;
  constexpr int kVersions = 8, kNames = 256;
  for (Entry& e : entries) {
    e.version_ids = {static_cast<int>(w.versions.size())};
    w.versions.push_back({e.name, e.texts[0], "", 0, 0, ""});
  }
  std::vector<int> new_version;
  for (int n = 0; n < new_names; ++n) {
    new_version.push_back(static_cast<int>(w.versions.size()));
    const int slot = n % kNames;
    w.versions.push_back(
        {"n" + std::to_string(slot),
         Render(CatalogShape("b", slot, /*small=*/false, (slot / 32) % 4),
                offset(), offset()),
         "", 0, 0, ""});
  }
  for (int c = 0; c < kChurned; ++c) {
    Entry& e = entries[c];
    for (int v = 1; v <= kVersions; ++v) {
      if (v % 2 == 0) {
        e.shape = churn_shape(static_cast<int>(e.shape.rects.size()), c + v / 2);
      }
      e.texts.push_back(Render(e.shape, offset(), offset()));
      e.version_ids.push_back(static_cast<int>(w.versions.size()));
      w.versions.push_back({e.name, e.texts.back(), "", 0, 0, ""});
    }
  }
  IngestTruth(&w.versions, scratch_dir, Clock::time_point::max());
  for (int i = 0; i < kEntries; ++i) {
    w.setup.push_back(LoadRequest(w.versions[i], i));
  }
  std::vector<Request> writer;
  for (size_t i = 0, rewrite = 0; i < 4 * new_version.size(); ++i) {
    if (i % 4 == 0) {
      const int v = new_version[i / 4];
      writer.push_back(LoadRequest(w.versions[v], v));
      continue;
    }
    const int c = static_cast<int>(rewrite % kChurned);
    const int v = entries[c].version_ids[1 + (rewrite / kChurned) % kVersions];
    writer.push_back(LoadRequest(w.versions[v], v));
    ++rewrite;
  }

  // Readers: EVAL_QUERY, COMPUTE_INVARIANT and DESCRIBE on @name refs,
  // 4 queries per entry. A read of a churned name accepts any version.
  VerdictTable table;
  std::vector<std::vector<std::string>> queries(kEntries);
  std::vector<std::vector<std::vector<size_t>>> query_slots(kEntries);
  for (int i = 0; i < kEntries; ++i) {
    for (int q = 0; q < 4; ++q) {
      const QueryKey key = DrawKey(i, entries[i], rng);
      queries[i].push_back(KeyQuery(key, entries[i], static_cast<int>(rng.Below(2))));
      std::vector<size_t> slots;
      for (int v : entries[i].version_ids) {
        slots.push_back(table.Add(w.versions[v].text, queries[i].back()));
      }
      query_slots[i].push_back(std::move(slots));
    }
  }
  table.Evaluate();
  const size_t reads = static_cast<size_t>(kReaderRate * seconds) + 64;
  std::vector<Request> evals, computes, describes;
  for (size_t i = 0; i < reads; ++i) {
    const int e = static_cast<int>(rng.Below(kEntries));
    const int q = static_cast<int>(rng.Below(4));
    Request r;
    r.kind = Kind::kEvalName;
    r.klass = Klass::kEval;
    r.opcode = static_cast<uint16_t>(Opcode::kEvalQuery);
    r.name = entries[e].name;
    r.query = queries[e][q];
    r.payload = NameRef(r.name);
    AppendWireString(&r.payload, r.query);
    bool ok = true;
    for (size_t s : query_slots[e][q]) {
      const int verdict = table.verdict(s);
      if (verdict < 0) ok = false;
      const std::string body = VerdictBody(verdict == 1);
      if (std::find(r.expected.begin(), r.expected.end(), body) ==
          r.expected.end()) {
        r.expected.push_back(body);
      }
    }
    if (ok) evals.push_back(std::move(r));

    const int e2 = static_cast<int>(rng.Below(kEntries));
    Request c;
    c.kind = Kind::kComputeName;
    c.klass = Klass::kCompute;
    c.opcode = static_cast<uint16_t>(Opcode::kComputeInvariant);
    c.name = entries[e2].name;
    c.payload = NameRef(c.name);
    for (int v : entries[e2].version_ids) {
      c.expected.push_back(CanonicalBody(w.versions[v].canonical));
    }
    computes.push_back(std::move(c));

    const int e3 = static_cast<int>(rng.Below(kEntries));
    Request d;
    d.kind = Kind::kDescribe;
    d.klass = Klass::kDescribe;
    d.opcode = static_cast<uint16_t>(Opcode::kDescribe);
    d.name = entries[e3].name;
    AppendWireString(&d.payload, d.name);
    for (int v : entries[e3].version_ids) {
      d.expected.push_back(w.versions[v].describe_body);
    }
    describes.push_back(std::move(d));
  }
  w.streams = {std::move(writer), std::move(evals), std::move(computes),
               std::move(describes)};
  w.notes = std::to_string(kEntries) + " preloaded entries (" +
            std::to_string(kChurned) + " churned, " +
            std::to_string(kVersions) + " versions each), " +
            std::to_string(kNames) + " further names";
  return w;
}

}  // namespace

Workload BuildWorkload(const std::string& name, uint64_t seed,
                       double seconds, const std::string& scratch_dir) {
  if (name == "invariant_stream") {
    return InvariantStream(name, seed, seconds, /*routed=*/false);
  }
  if (name == "routed_invariants") {
    return InvariantStream(name, seed, seconds, /*routed=*/true);
  }
  if (name == "catalog_query") return CatalogQuery(seed, seconds, scratch_dir);
  if (name == "catalog_rw") return CatalogRw(seed, seconds, scratch_dir);
  Die("unknown workload '" + name + "'");
}

}  // namespace perfbench
