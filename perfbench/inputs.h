#ifndef TOPODB_PERFBENCH_INPUTS_H_
#define TOPODB_PERFBENCH_INPUTS_H_

// Workload inputs of the ledger benchmark: the request streams each
// workload sends, generated from a seed, and the ground truth every
// response is compared with, computed in-process by the library before any
// daemon starts.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace topodb {
class CatalogEntry;
}  // namespace topodb

namespace perfbench {

// Latency classes, one per opcode family the ledger reports.
enum class Klass { kCompute, kBatch, kEval, kLoad, kDescribe };
inline constexpr int kNumKlasses = 5;
const char* KlassName(Klass klass);

// What one request asks, in the terms the traced replay needs to re-run it
// through the library's entry points.
enum class Kind {
  kComputeText,  // COMPUTE_INVARIANT on inline text (texts[0])
  kBatchText,    // BATCH_INVARIANTS on inline texts
  kIsoText,      // ISO_CHECK on inline texts[0], texts[1]
  kComputeName,  // COMPUTE_INVARIANT on @name
  kEvalName,     // EVAL_QUERY on @name with `query`
  kDescribe,     // DESCRIBE name
  kLoad,         // LOAD name, texts[0]
};

struct Request {
  Kind kind = Kind::kComputeText;
  Klass klass = Klass::kCompute;
  uint16_t opcode = 0;
  std::string payload;  // Wire payload, built once before timing.
  // Every response body that counts as correct. Reads of a name the writer
  // churns accept the truth of any version written to that name.
  std::vector<std::string> expected;
  int items = 1;  // Instances resolved (a BATCH counts each item).
  std::vector<std::string> texts;
  std::string name;
  std::string query;
  // Index into Workload::versions for LOADs (which version this writes).
  int version = -1;
};

// One version of a catalog entry as the library ingests it.
struct VersionTruth {
  std::string name;
  std::string text;
  std::string canonical;
  uint64_t entry_id = 0;
  uint64_t file_bytes = 0;
  std::string describe_body;
};

struct Workload {
  std::string name;
  // Requests sent during set-up (preload LOADs, cache warm-up), before the
  // first timed request; round-robin over the connections.
  std::vector<Request> setup;
  // One request stream per connection, wrapping around at its end. A
  // closed-loop connection sends its next request when the previous answer
  // arrives; a paced connection c sends request j at due time
  // (j + c / streams.size()) / stream_rates[c] and is timed from it.
  std::vector<std::vector<Request>> streams;
  std::vector<double> stream_rates;  // Requests per second; 0 = closed loop.
  // The last `saturation_share` of the timed phase sends every stream closed
  // loop. A paced workload measures its latency before that phase and its
  // capacity (throughput) in it.
  double saturation_share = 0;
  int server_workers = 2;
  bool routed = false;    // topodb_router in front of two servers.
  bool catalog = false;   // Servers run with --catalog.
  bool durability = false;
  // Every version LOADed during set-up or timing, for the durability check.
  std::vector<VersionTruth> versions;
  std::string notes;  // One line on the generated inputs, for the log.
};

// Builds the named workload's inputs and truth for a run of `seconds`. The
// inline-text workloads keep the prefix of their streams whose truth is
// computed within seconds + 2 s; `scratch_dir` holds the truth catalogs.
// Exits the process with a message on an unknown workload.
Workload BuildWorkload(const std::string& name, uint64_t seed,
                       double seconds, const std::string& scratch_dir);

// Wire-body encoders shared by truth building and the replay.
std::string CanonicalBody(const std::string& canonical);
std::string VerdictBody(bool verdict);
std::string DescribeBody(const topodb::CatalogEntry& entry);

}  // namespace perfbench

#endif  // TOPODB_PERFBENCH_INPUTS_H_
