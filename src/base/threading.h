#ifndef TOPODB_BASE_THREADING_H_
#define TOPODB_BASE_THREADING_H_

#include <cstddef>

#include "src/base/status.h"

namespace topodb {

// Resolves a user-facing `num_threads` knob into an actual worker count.
// The convention, shared by BatchComputeInvariants and the server's worker
// pool (ServerOptions::num_workers):
//
//   num_threads > 0   use exactly that many workers
//   num_threads == 0  use std::thread::hardware_concurrency()
//   num_threads < 0   InvalidArgument
//
// The result is clamped to [1, max(num_items, 1)] — spawning more workers
// than items only adds contention.
Result<size_t> ResolveWorkerCount(int num_threads, size_t num_items);

}  // namespace topodb

#endif  // TOPODB_BASE_THREADING_H_
