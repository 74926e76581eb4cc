// LimbVec small-buffer semantics (src/base/limbvec.h): the inline and heap
// states, the transitions between them, and copy/move/assign behaviour.
// BigInt's inline fast paths and its heap spills both rest on these, so
// they are pinned here independently of any arithmetic.

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "src/base/limbvec.h"

namespace topodb {
namespace {

TEST(LimbVecTest, StaysInlineUpToCapacity) {
  LimbVec v;
  EXPECT_TRUE(v.is_inline());
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), LimbVec::kInlineCapacity);
  for (uint32_t i = 0; i < LimbVec::kInlineCapacity; ++i) v.push_back(i * 7u);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), LimbVec::kInlineCapacity);
  for (uint32_t i = 0; i < LimbVec::kInlineCapacity; ++i) EXPECT_EQ(v[i], i * 7u);
}

TEST(LimbVecTest, SpillsToHeapPreservingContents) {
  LimbVec v;
  for (uint32_t i = 0; i < 20; ++i) v.push_back(i + 100u);
  EXPECT_FALSE(v.is_inline());
  EXPECT_GT(v.capacity(), LimbVec::kInlineCapacity);
  for (uint32_t i = 0; i < 20; ++i) EXPECT_EQ(v[i], i + 100u);
}

TEST(LimbVecTest, CopiesShrinkBackInline) {
  LimbVec v;
  for (uint32_t i = 0; i < 20; ++i) v.push_back(i);
  while (v.size() > 5) v.pop_back();
  ASSERT_FALSE(v.is_inline());  // Shrinking does not release the block...
  LimbVec copy(v);
  EXPECT_TRUE(copy.is_inline());  // ...but a copy of 5 limbs fits inline.
  EXPECT_EQ(copy.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(copy[i], i);
}

TEST(LimbVecTest, MoveStealsHeapBlockAndResetsSource) {
  LimbVec v;
  for (uint32_t i = 0; i < 20; ++i) v.push_back(i);
  const uint32_t* block = v.data();
  LimbVec moved(std::move(v));
  EXPECT_EQ(moved.data(), block);  // No copy: the block moved over.
  EXPECT_EQ(moved.size(), 20u);
  EXPECT_TRUE(v.is_inline());  // NOLINT(bugprone-use-after-move): reset state.
  EXPECT_TRUE(v.empty());
}

TEST(LimbVecTest, AssignDiscardsOldContents) {
  LimbVec v;
  for (uint32_t i = 0; i < 12; ++i) v.push_back(i);
  v.assign(30, 0xdeadbeefu);
  EXPECT_EQ(v.size(), 30u);
  for (uint32_t i = 0; i < 30; ++i) EXPECT_EQ(v[i], 0xdeadbeefu);
  v.assign(2, 1u);
  EXPECT_EQ(v.size(), 2u);
}

}  // namespace
}  // namespace topodb
