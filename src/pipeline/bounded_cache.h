#ifndef TOPODB_PIPELINE_BOUNDED_CACHE_H_
#define TOPODB_PIPELINE_BOUNDED_CACHE_H_

// The one cache mechanism behind the text cache, the structural
// InvariantCache, the EngineCache and the SemanticCache (DESIGN.md §5a
// tabulates their keys, policies, caps and byte charges). It owns the
// entries, their recency, an entry cap and a byte cap, and the
// hit/miss/insert/evict/reject accounting; each owner fixes its key, its
// byte charge and its policy in code.
//
// Every value cached here is a pure function of its key, so the first
// insert of a key wins and a later insert of it stores nothing. Errors are
// never stored.
//
// Metrics: counters <prefix>.{hits,misses,insertions,evictions,rejected}
// and gauges <prefix>.{entries,bytes} in the optional registry, which must
// outlive the cache. Every lookup is exactly one hit or one miss.
//
// Thread safety: one mutex guards all state. GetOrCompute computes outside
// it, so concurrent misses on one key may compute twice but store once.

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/base/status.h"
#include "src/obs/metrics.h"

namespace topodb {

enum class CachePolicy {
  // First in wins: an insert that would pass either cap is rejected and the
  // residents stay. Under a cyclic sweep over more keys than fit, this keeps
  // a stable resident subset, where LRU would evict every entry just before
  // its next use.
  kAdmit,
  // The least recently used entries (by lookup or insert) are evicted until
  // a newcomer fits; a newcomer that could never fit is rejected.
  kLru,
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

// Hash for the pair keys of the invariant and engine caches.
struct PairHash {
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B>& p) const {
    return std::hash<A>()(p.first) ^ (std::hash<B>()(p.second) << 1);
  }
};

template <typename K, typename V, typename Hash = std::hash<K>>
class BoundedCache {
 public:
  // The bytes an entry charges against max_bytes; null charges nothing.
  using Charge = size_t (*)(const K& key, const V& value);

  // Zero max_entries disables the cache: every lookup misses and every
  // insert is rejected.
  BoundedCache(CachePolicy policy, size_t max_entries, size_t max_bytes,
               Charge charge, MetricsRegistry* metrics,
               const std::string& prefix)
      : policy_(policy),
        max_entries_(max_entries),
        max_bytes_(max_bytes),
        charge_(charge),
        hits_(RegistryCounter(metrics, prefix + ".hits")),
        misses_(RegistryCounter(metrics, prefix + ".misses")),
        insertions_(RegistryCounter(metrics, prefix + ".insertions")),
        evictions_(RegistryCounter(metrics, prefix + ".evictions")),
        rejected_(RegistryCounter(metrics, prefix + ".rejected")),
        entries_gauge_(RegistryGauge(metrics, prefix + ".entries")),
        bytes_gauge_(RegistryGauge(metrics, prefix + ".bytes")) {}
  BoundedCache(const BoundedCache&) = delete;
  BoundedCache& operator=(const BoundedCache&) = delete;

  // The value cached for `key`, or nullopt on a miss.
  std::optional<V> Lookup(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(&key);
    if (it == index_.end()) {
      Count(&stats_.misses, misses_);
      return std::nullopt;
    }
    Count(&stats_.hits, hits_);
    Touch(it->second);
    return it->second->value;
  }

  // Stores key -> value unless the key is resident or the policy rejects it.
  void Insert(K key, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(std::move(key), std::move(value));
  }

  // Lookup; on a miss, runs compute() -> Result<V> outside the lock and
  // stores a success. If another caller stored the key meanwhile, its
  // value is returned. The stored key is a copy, so it holds no spare
  // capacity the caller reserved while building it.
  template <typename Compute>
  Result<V> GetOrCompute(const K& key, Compute&& compute) {
    if (std::optional<V> hit = Lookup(key)) return *std::move(hit);
    Result<V> computed = compute();
    if (!computed.ok()) return computed;
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = index_.find(&key); it != index_.end()) {
      return it->second->value;
    }
    InsertLocked(key, *computed);
    return computed;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    entries_.clear();
    stats_.bytes = 0;
    ExportGaugesLocked();
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats stats = stats_;
    stats.entries = entries_.size();
    return stats;
  }
  size_t size() const { return stats().entries; }
  size_t bytes() const { return stats().bytes; }

 private:
  struct Entry {
    K key;
    V value;
    size_t charge;
  };
  using Entries = std::list<Entry>;
  // The index holds pointers to the keys inside `entries_`, so each key is
  // stored once.
  struct KeyHash {
    size_t operator()(const K* key) const { return Hash()(*key); }
  };
  struct KeyEqual {
    bool operator()(const K* a, const K* b) const { return *a == *b; }
  };

  static void Count(uint64_t* stat, Counter* counter) {
    ++*stat;
    CounterAdd(counter);
  }

  void Touch(typename Entries::iterator it) {
    if (policy_ == CachePolicy::kLru) {
      entries_.splice(entries_.begin(), entries_, it);
    }
  }

  bool Fits(size_t charge) const {
    return entries_.size() < max_entries_ &&
           charge <= max_bytes_ - stats_.bytes;
  }

  void InsertLocked(K key, V value) {
    if (const auto it = index_.find(&key); it != index_.end()) {
      Touch(it->second);
      return;
    }
    const size_t charge = charge_ != nullptr ? charge_(key, value) : 0;
    if (policy_ == CachePolicy::kLru && max_entries_ > 0 &&
        charge <= max_bytes_) {
      while (!Fits(charge)) {
        const Entry& victim = entries_.back();
        stats_.bytes -= victim.charge;
        index_.erase(&victim.key);
        entries_.pop_back();
        Count(&stats_.evictions, evictions_);
      }
    }
    if (!Fits(charge)) {
      Count(&stats_.rejected, rejected_);
      return;
    }
    entries_.push_front(Entry{std::move(key), std::move(value), charge});
    index_.emplace(&entries_.front().key, entries_.begin());
    stats_.bytes += charge;
    Count(&stats_.insertions, insertions_);
    ExportGaugesLocked();
  }

  void ExportGaugesLocked() {
    GaugeSet(entries_gauge_, static_cast<int64_t>(entries_.size()));
    GaugeSet(bytes_gauge_, static_cast<int64_t>(stats_.bytes));
  }

  const CachePolicy policy_;
  const size_t max_entries_;
  const size_t max_bytes_;
  const Charge charge_;
  Counter* const hits_;
  Counter* const misses_;
  Counter* const insertions_;
  Counter* const evictions_;
  Counter* const rejected_;
  Gauge* const entries_gauge_;
  Gauge* const bytes_gauge_;

  mutable std::mutex mu_;
  Entries entries_;  // Front = most recently inserted (or used, under kLru).
  std::unordered_map<const K*, typename Entries::iterator, KeyHash, KeyEqual>
      index_;
  CacheStats stats_;  // `entries` is read from entries_.size().
};

}  // namespace topodb

#endif  // TOPODB_PIPELINE_BOUNDED_CACHE_H_
