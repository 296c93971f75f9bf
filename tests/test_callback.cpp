#include "sim/callback.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace pet::sim {
namespace {

TEST(SmallCallback, DefaultIsEmpty) {
  SmallCallback cb;
  EXPECT_FALSE(cb);
  EXPECT_FALSE(cb.is_inline());
}

TEST(SmallCallback, SmallCaptureStaysInline) {
  int hits = 0;
  SmallCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(cb);
  EXPECT_TRUE(cb.is_inline());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(SmallCallback, TransmitSizedCaptureStaysInline) {
  // A packet-sized capture (~72 bytes: a pointer plus a QueueEntry) stays
  // inline; callers that capture a packet rely on it for the
  // allocation-free contract.
  struct Payload {
    std::uint64_t words[8] = {0};
  };
  static_assert(SmallCallback::fits_inline<Payload>());
  Payload p;
  p.words[7] = 42;
  std::uint64_t seen = 0;
  SmallCallback cb([p, &seen] { seen = p.words[7]; });
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(seen, 42u);
}

TEST(SmallCallback, OversizedCaptureFallsBackToHeapBox) {
  struct Big {
    std::uint64_t words[32] = {0};
  };
  static_assert(!SmallCallback::fits_inline<Big>());
  Big big;
  big.words[31] = 7;
  std::uint64_t seen = 0;
  SmallCallback cb([big, &seen] { seen = big.words[31]; });
  ASSERT_TRUE(cb);
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(seen, 7u);
}

TEST(SmallCallback, MoveTransfersOwnership) {
  int hits = 0;
  SmallCallback a([&hits] { ++hits; });
  SmallCallback b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move state is API
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);
}

TEST(SmallCallback, MoveAssignDestroysPreviousCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  SmallCallback a([token] { (void)token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // capture keeps it alive
  a = SmallCallback([] {});
  EXPECT_TRUE(watch.expired());  // old capture released by the assignment
}

TEST(SmallCallback, DestructorReleasesCapture) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    SmallCallback cb([token] { (void)token; });
    token.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SmallCallback, ResetDropsCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  SmallCallback cb([token] { (void)token; });
  token.reset();
  cb.reset();
  EXPECT_FALSE(cb);
  EXPECT_TRUE(watch.expired());
}

TEST(SmallCallback, EmplaceReplacesExisting) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  int hits = 0;
  SmallCallback cb([token] { (void)token; });
  token.reset();
  cb.emplace([&hits] { ++hits; });
  EXPECT_TRUE(watch.expired());
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(SmallCallback, ConsumeInvokesOnceAndDestroys) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  int hits = 0;
  SmallCallback cb([token, &hits] { ++hits; });
  token.reset();
  cb.consume();
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(cb);
  EXPECT_TRUE(watch.expired());
}

TEST(SmallCallback, ConsumeDestroysBoxedCallable) {
  struct Big {
    std::uint64_t pad[32] = {0};
  };
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  int hits = 0;
  Big big;
  SmallCallback cb([big, token, &hits] { ++hits; });
  EXPECT_FALSE(cb.is_inline());
  token.reset();
  cb.consume();
  EXPECT_EQ(hits, 1);
  EXPECT_TRUE(watch.expired());
}

TEST(SmallCallback, NonTriviallyCopyableCaptureSurvivesMoves) {
  std::vector<int> data{1, 2, 3, 4, 5};
  int sum = 0;
  SmallCallback a([data, &sum] {
    for (int v : data) sum += v;
  });
  SmallCallback b(std::move(a));
  SmallCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(sum, 15);
}

TEST(SmallCallback, MovedFromIsReusable) {
  int hits = 0;
  SmallCallback a([&hits] { ++hits; });
  SmallCallback b(std::move(a));
  a = SmallCallback(  // NOLINT(bugprone-use-after-move)
      [&hits] { hits += 10; });
  a();
  b();
  EXPECT_EQ(hits, 11);
}

}  // namespace
}  // namespace pet::sim
