#ifndef TOPODB_PERFBENCH_REPLAY_H_
#define TOPODB_PERFBENCH_REPLAY_H_

// The traced replay: re-runs a workload's set-up and request sequence in
// this process through the library entry points each request path of the
// server calls, with a span around every call. Spans live in the
// benchmark's code only, so a span's self time is the time spent inside
// the library call it wraps minus the spans nested in it.

#include <string>
#include <vector>

#include "perfbench/inputs.h"

namespace perfbench {

// Replays set-up plus as many timed requests as fit in `budget_s` with
// spans off, then the same requests twice with spans on and twice with
// spans off, alternating, each time from fresh caches and a fresh catalog
// under `work_dir`. The timed requests interleave the streams in the
// proportions `sent` gives (requests each stream sent on the wire), so the
// replay's request mix is the timed phase's. Every answer is checked
// against the workload's truth. The first traced pass's spans are written
// to `work_dir`/spans.csv. Returns a JSON object with per-layer self-time
// statistics, the replay total (time inside requests), the residual no
// layer accounts for and the tracing overhead ratio; `*wrong` counts
// answers that missed truth.
std::string RunTracedReplay(const Workload& workload,
                            const std::vector<size_t>& sent, double budget_s,
                            const std::string& work_dir, int* wrong);

}  // namespace perfbench

#endif  // TOPODB_PERFBENCH_REPLAY_H_
