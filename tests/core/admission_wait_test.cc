// WaitAfterFailedPlan against brute force: on random occupancy, a failed
// plan's wait never passes the first interval at which the production
// planner (a fresh AdmissionQueue, which holds no waiter) starts the
// request, and frees outside the wait's window do not change that.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/virtual_disk.h"
#include "disk/disk_array.h"
#include "util/rng.h"

namespace stagger {
namespace {

struct Case {
  int32_t num_disks;
  int32_t stride;
  int64_t lookahead;
  AdmissionPolicy policy;
};

class PlanWaitTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    auto frame = VirtualDiskFrame::Create(GetParam().num_disks,
                                          GetParam().stride);
    ASSERT_TRUE(frame.ok());
    frame_ = std::make_unique<VirtualDiskFrame>(*frame);
    auto disks =
        DiskArray::Create(GetParam().num_disks, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
  }

  // True when the planner starts a request of `degree` fragments from
  // `start_disk` at interval `t` on `occupied`.
  bool Starts(VdiskOccupancy& occupied, int32_t start_disk,
              int32_t degree, int64_t t) const {
    AdmissionQueue queue(*frame_, occupied, *disks_, GetParam().policy,
                         GetParam().lookahead, DegradedPolicy::kRemapOrPause,
                         /*max_pause_intervals=*/4096);
    queue.Push({.id = 1,
                .req = {.object = 0, .start_disk = start_disk,
                        .degree = degree, .num_subobjects = 10},
                .arrival = SimTime::Zero()});
    queue.BeginPass(t);
    std::optional<AdmitPlan> plan;
    return queue.Next(&plan) != nullptr;
  }

  std::unique_ptr<VirtualDiskFrame> frame_;
  std::unique_ptr<DiskArray> disks_;
};

TEST_P(PlanWaitTest, WakeNeverPassesTheFirstStart) {
  const Case c = GetParam();
  const int32_t d = c.num_disks;
  const int64_t lookahead =
      c.policy == AdmissionPolicy::kFragmented ? c.lookahead : 0;
  Rng rng(static_cast<uint64_t>(d) * 1000003u + c.stride * 101u +
          static_cast<uint64_t>(c.lookahead) * 7u +
          (c.policy == AdmissionPolicy::kFragmented ? 1u : 0u));
  int32_t waits_past_next = 0;
  int32_t failed = 0;
  for (int32_t trial = 0; trial < 400; ++trial) {
    VdiskOccupancy occupied(*frame_);
    const double density = trial % 3 == 0 ? 0.6 : trial % 3 == 1 ? 0.85 : 0.97;
    for (int32_t v = 0; v < d; ++v) {
      if (rng.NextBool(density)) occupied.Set(v);
    }
    const auto degree = static_cast<int32_t>(rng.NextInRange(1, 7));
    const auto start = static_cast<int32_t>(rng.NextInRange(0, d - 1));
    const auto t = rng.NextInRange(0, 999);
    if (Starts(occupied, start, degree, t)) continue;
    ++failed;
    const PlanWait wait = WaitAfterFailedPlan(
        occupied, t, frame_->VirtualOf(start, t), degree, lookahead);
    ASSERT_GT(wait.wake, t);
    ASSERT_TRUE(wait.len >= 0 && wait.len <= d && wait.first >= 0 &&
                wait.first < d);
    if (wait.wake > t + 1) ++waits_past_next;
    for (int64_t at = t + 1; at < wait.wake; ++at) {
      EXPECT_FALSE(Starts(occupied, start, degree, at))
          << "D " << d << " k " << c.stride << " L " << lookahead << " M "
          << degree << " start " << start << ": waits until " << wait.wake
          << " from " << t << " but starts at " << at;
    }
    // Free every occupied disk outside the window: the wait still holds.
    for (int32_t v = 0; v < d; ++v) {
      const int32_t offset = (v - wait.first + d) % d;
      if (offset >= wait.len && occupied.Test(v)) occupied.Clear(v);
    }
    for (int64_t at = t + 1; at < wait.wake; ++at) {
      EXPECT_FALSE(Starts(occupied, start, degree, at))
          << "D " << d << " k " << c.stride << " L " << lookahead << " M "
          << degree << " start " << start << ": a free outside the window ["
          << wait.first << ", +" << wait.len << ") lets it start at " << at
          << ", before " << wait.wake;
    }
  }
  EXPECT_GT(failed, 0);
  // Where the horizon fits the word, some waits reach past the next
  // interval.
  if (d >= 64 && c.stride * (lookahead + 1) + 7 <= 32) {
    EXPECT_GT(waits_past_next, 0);
  }
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (int32_t d : {64, 1000}) {
    for (int32_t k : {1, 2, 5, 7}) {
      for (int64_t lookahead : {0, 16, 60}) {
        cases.push_back({d, k, lookahead, AdmissionPolicy::kFragmented});
      }
      cases.push_back({d, k, 16, AdmissionPolicy::kContiguous});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanWaitTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = "D";
      name += std::to_string(c.num_disks);
      name += "_k";
      name += std::to_string(c.stride);
      if (c.policy == AdmissionPolicy::kContiguous) {
        name += "_contiguous";
      } else {
        name += "_L";
        name += std::to_string(c.lookahead);
      }
      return name;
    });

}  // namespace
}  // namespace stagger
