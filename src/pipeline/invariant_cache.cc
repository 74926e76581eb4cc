#include "src/pipeline/invariant_cache.h"

#include "src/arrangement/label.h"

namespace topodb {

namespace {

void AppendInt(int v, std::string* out) {
  *out += std::to_string(v);
  *out += ',';
}

int OptionBits(const CanonicalOptions& options) {
  return (options.include_exterior ? 1 : 0) |
         (options.allow_reflection ? 2 : 0);
}

}  // namespace

std::string StructuralKey(const InvariantData& data) {
  std::string key;
  // Rough upper bound: a handful of bytes per dart plus the labels.
  key.reserve(64 + 16 * data.num_darts());
  key += "n:";
  for (const auto& name : data.region_names) {
    // Length prefix keeps name lists unambiguous regardless of content.
    key += std::to_string(name.size());
    key += ':';
    key += name;
  }
  key += ";v:";
  for (const auto& v : data.vertices) key += LabelString(v.label) + "/";
  key += ";e:";
  for (const auto& e : data.edges) {
    AppendInt(e.v1, &key);
    AppendInt(e.v2, &key);
    key += LabelString(e.label) + "/";
  }
  key += ";f:";
  for (const auto& f : data.faces) {
    key += LabelString(f.label);
    key += f.unbounded ? "U" : "B";
    AppendInt(f.outer_cycle_dart, &key);
  }
  key += ";r:";
  for (int d : data.next_ccw) AppendInt(d, &key);
  key += ";fd:";
  for (int f : data.face_of_dart) AppendInt(f, &key);
  key += ";x:";
  AppendInt(data.exterior_face, &key);
  return key;
}

InvariantCache::InvariantCache(MetricsRegistry* metrics)
    : canonicals_(
          CachePolicy::kLru, kMaxEntries, kMaxBytes,
          [](const Key& key, const std::string& canonical) {
            return key.first.size() + canonical.size();
          },
          metrics, "invariant_cache") {}

Result<std::string> InvariantCache::Canonical(const InvariantData& data,
                                              const CanonicalOptions& options) {
  return canonicals_.GetOrCompute(
      {StructuralKey(data), OptionBits(options)},
      [&] { return CanonicalInvariantString(data, options); });
}

Result<bool> InvariantCache::Isomorphic(const InvariantData& a,
                                        const InvariantData& b) {
  CanonicalOptions options;
  TOPODB_ASSIGN_OR_RETURN(std::string ca, Canonical(a, options));
  TOPODB_ASSIGN_OR_RETURN(std::string cb, Canonical(b, options));
  return ca == cb;
}

Result<bool> InvariantCache::IsotopyEquivalent(const InvariantData& a,
                                               const InvariantData& b) {
  CanonicalOptions options;
  options.allow_reflection = false;
  TOPODB_ASSIGN_OR_RETURN(std::string ca, Canonical(a, options));
  TOPODB_ASSIGN_OR_RETURN(std::string cb, Canonical(b, options));
  return ca == cb;
}

}  // namespace topodb
