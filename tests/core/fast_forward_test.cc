#include "core/fast_forward.h"

#include <gtest/gtest.h>

namespace stagger {
namespace {

TEST(FastForwardTest, ReplicaSizing) {
  MediaObject movie;
  movie.name = "m";
  movie.display_bandwidth = Bandwidth::Mbps(100);
  movie.num_subobjects = 3000;
  auto replica = MakeFastForwardReplica(movie, 16);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica->object.num_subobjects, 188);  // ceil(3000/16)
  EXPECT_EQ(replica->object.name, "m.ff16");
  EXPECT_EQ(replica->object.id, kInvalidObject);
  EXPECT_NEAR(replica->StorageOverhead(movie), 188.0 / 3000.0, 1e-12);
  EXPECT_DOUBLE_EQ(replica->object.display_bandwidth.mbps(), 100.0);
}

TEST(FastForwardTest, PositionMapping) {
  MediaObject movie;
  movie.num_subobjects = 3000;
  movie.display_bandwidth = Bandwidth::Mbps(100);
  auto replica = MakeFastForwardReplica(movie, 16);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica->ToReplica(0), 0);
  EXPECT_EQ(replica->ToReplica(15), 0);
  EXPECT_EQ(replica->ToReplica(16), 1);
  EXPECT_EQ(replica->FromReplica(1), 16);
  // Round trip lands at the covering frame.
  for (int64_t i : {0, 99, 1777, 2999}) {
    const int64_t mapped = replica->FromReplica(replica->ToReplica(i));
    EXPECT_LE(mapped, i);
    EXPECT_GT(mapped + 16, i);
  }
}

TEST(FastForwardTest, SpeedupOneIsIdentity) {
  MediaObject movie;
  movie.num_subobjects = 100;
  movie.display_bandwidth = Bandwidth::Mbps(100);
  auto replica = MakeFastForwardReplica(movie, 1);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica->object.num_subobjects, 100);
  EXPECT_EQ(replica->ToReplica(42), 42);
}

TEST(FastForwardTest, RejectsBadInput) {
  MediaObject movie;
  movie.num_subobjects = 100;
  EXPECT_FALSE(MakeFastForwardReplica(movie, 0).ok());
  movie.num_subobjects = 0;
  EXPECT_FALSE(MakeFastForwardReplica(movie, 16).ok());
}

}  // namespace
}  // namespace stagger
