// ResolveWorkerCount: the single shared worker-count policy used by
// BatchComputeInvariants and the server's worker pool.

#include <gtest/gtest.h>

#include "src/base/threading.h"

namespace topodb {
namespace {

TEST(ResolveWorkerCountTest, NegativeIsInvalidArgument) {
  Result<size_t> workers = ResolveWorkerCount(-1, 5);
  ASSERT_FALSE(workers.ok());
  EXPECT_EQ(workers.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(workers.status().message().find("num_threads"), std::string::npos);
  EXPECT_EQ(ResolveWorkerCount(-7, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResolveWorkerCountTest, ZeroMeansHardwareConcurrencyClamped) {
  Result<size_t> workers = ResolveWorkerCount(0, 5);
  ASSERT_TRUE(workers.ok());
  EXPECT_GE(*workers, 1u);
  EXPECT_LE(*workers, 5u);
}

TEST(ResolveWorkerCountTest, PositiveIsTakenVerbatimUpToItemCount) {
  EXPECT_EQ(*ResolveWorkerCount(3, 5), 3u);
  EXPECT_EQ(*ResolveWorkerCount(1, 5), 1u);
  // More threads than items is wasteful: clamp to the item count.
  EXPECT_EQ(*ResolveWorkerCount(8, 5), 5u);
}

TEST(ResolveWorkerCountTest, EmptyBatchStillGetsOneWorker) {
  EXPECT_EQ(*ResolveWorkerCount(2, 0), 1u);
  EXPECT_EQ(*ResolveWorkerCount(0, 0), 1u);
}

}  // namespace
}  // namespace topodb
