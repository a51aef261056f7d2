// The admission calendar against planning everything: random submits,
// cancels, frees and pauses drive an AdmissionQueue, whose passes visit
// only the fresh entries, the due paused ones and the keys a wake or a
// free ended, and a reference that plans every waiting entry at every
// tick with a fresh AdmissionQueue (no waiters) in queue order, going
// back to the head after a give-up as the listener's cancels, frees and
// submits may let an entry ahead of it start.  Each tick's decisions
// (admitted ids with their lanes, and give-ups, in order) must agree.
// Healthy disks, but for two with corrupt cells, on which paused
// remainders cannot resume.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/virtual_disk.h"
#include "disk/disk_array.h"
#include "util/rng.h"

namespace stagger {
namespace {

using Entry = AdmissionQueue::Entry;

struct Case {
  int32_t num_disks;
  int32_t stride;
  AdmissionPolicy policy;
};

constexpr int64_t kLookahead = 16;
constexpr int64_t kMaxPause = 10;

// One side of the comparison: its occupancy, its active streams and
// its waiting entries, kept by the production queue (`queue`) or, for
// the reference, in `entries` in queue order with each paused one's
// backoff.
struct Side {
  struct Paused {
    int64_t paused_at = -1;  // -1: not paused
    int64_t retry_at = 0;
    int32_t backoff = 0;
  };
  struct Waiting {
    Entry entry;
    Paused paused;
  };

  Side(const VirtualDiskFrame& frame, const DiskArray& disks,
       AdmissionPolicy policy, bool production)
      : frame(frame), disks(disks), policy(policy), occupied(frame) {
    if (production) {
      queue = std::make_unique<AdmissionQueue>(
          frame, occupied, disks, policy, kLookahead, DegradedPolicy::kPause,
          kMaxPause);
    }
  }

  void Submit(const Entry& e) {
    waiting.insert(e.id);
    if (queue) {
      queue->Push(e);
    } else {
      entries.push_back({e, {}});
    }
  }

  void Cancel(RequestId id) {
    waiting.erase(id);
    if (queue) {
      EXPECT_TRUE(queue->Erase(id));
      return;
    }
    std::erase_if(entries, [&](const Waiting& w) { return w.entry.id == id; });
  }

  // Frees the stream's virtual disks.
  void Release(RequestId id) {
    for (const auto& [vdisk, width] : active.at(id).second) {
      for (int32_t f = 0; f < width; ++f) {
        occupied.Clear((vdisk + f) % frame.num_disks());
      }
    }
    active.erase(id);
  }

  // Frees the stream's virtual disks and parks its remainder, paused in
  // interval t.
  void Pause(RequestId id, int64_t t) {
    const DisplayRequest req = active.at(id).first;
    Release(id);
    waiting.insert(id);
    const Entry e{.id = id, .req = req, .arrival = SimTime::Zero(),
                  .resumed = true};
    if (queue) {
      queue->PushPaused(e, t);
      return;
    }
    auto it = std::ranges::find_if(
        entries, [](const Waiting& w) { return w.paused.paused_at < 0; });
    entries.insert(it, {e, {t, t + 1, 1}});
  }

  std::string Admit(const Entry& e, const AdmitPlan& plan) {
    std::string out = "admit ";
    out += std::to_string(e.id);
    std::vector<std::pair<int32_t, int32_t>> lanes;
    for (const FragmentLane& lane : plan.lanes) {
      out += ' ';
      out += std::to_string(lane.vdisk);
      out += 'x';
      out += std::to_string(lane.width);
      out += '@';
      out += std::to_string(lane.next_read_tau);
      for (int32_t f = 0; f < lane.width; ++f) {
        occupied.Set((lane.vdisk + f) % frame.num_disks());
      }
      lanes.emplace_back(lane.vdisk, lane.width);
    }
    waiting.erase(e.id);
    active[e.id] = {e.req, lanes};
    return out;
  }

  // The plan a fresh queue, which holds no waiter, makes for `e` now.
  std::optional<AdmitPlan> FreshPlan(const Entry& e, int64_t t) {
    AdmissionQueue fresh(frame, occupied, disks, policy, kLookahead,
                         DegradedPolicy::kPause, kMaxPause);
    Entry copy = e;
    copy.paused_at_interval = -1;
    fresh.Push(copy);
    fresh.BeginPass(t);
    std::optional<AdmitPlan> plan;
    if (fresh.Next(&plan) == nullptr) return std::nullopt;
    return plan;
  }

  VirtualDiskFrame frame;
  const DiskArray& disks;
  AdmissionPolicy policy;
  VdiskOccupancy occupied;
  std::unique_ptr<AdmissionQueue> queue;
  std::vector<Waiting> entries;
  std::set<RequestId> waiting;
  /// Per active stream: its request and its lanes (first vdisk, width).
  std::map<RequestId,
           std::pair<DisplayRequest, std::vector<std::pair<int32_t, int32_t>>>>
      active;
};

std::string GiveUp(RequestId id) {
  std::string out = "give up ";
  out += std::to_string(id);
  return out;
}

class AdmissionCalendarTest : public ::testing::TestWithParam<Case> {
 protected:
  DisplayRequest RandomRequest(Rng* rng) const {
    const int32_t d = GetParam().num_disks;
    const int32_t max_degree = d >= 1000 ? 40 : std::min(d, 6);
    return {.object = 0,
            .start_disk = static_cast<int32_t>(rng->NextInRange(0, d - 1)),
            .degree = static_cast<int32_t>(rng->NextInRange(1, max_degree)),
            .num_subobjects = 10};
  }

  // A give-up's listener, the same on both sides: it may cancel a
  // waiting display, end an active one and submit a new request.
  void Listener(Side* side, uint64_t seed, RequestId* next_id) const {
    Rng rng(seed);
    if (rng.NextBool(0.5) && !side->waiting.empty()) {
      auto it = side->waiting.begin();
      std::advance(it, rng.NextBounded(side->waiting.size()));
      side->Cancel(*it);
    }
    if (rng.NextBool(0.6) && !side->active.empty()) {
      auto it = side->active.begin();
      std::advance(it, rng.NextBounded(side->active.size()));
      side->Release(it->first);
    }
    if (rng.NextBool(0.4)) {
      side->Submit({.id = (*next_id)++, .req = RandomRequest(&rng),
                    .arrival = SimTime::Zero()});
    }
  }

  std::vector<std::string> ProductionPass(Side* side, int64_t t,
                                          uint64_t seed, RequestId* next_id) {
    std::vector<std::string> out;
    side->queue->BeginPass(t);
    std::optional<AdmitPlan> plan;
    for (int32_t give_ups = 0;;) {
      const Entry* e = side->queue->Next(&plan);
      if (e == nullptr) break;
      if (plan.has_value()) {
        out.push_back(side->Admit(*e, *plan));
        continue;
      }
      out.push_back(GiveUp(e->id));
      side->waiting.erase(e->id);
      Listener(side, seed + static_cast<uint64_t>(give_ups++), next_id);
    }
    return out;
  }

  std::vector<std::string> ReferencePass(Side* side, int64_t t, uint64_t seed,
                                         RequestId* next_id) {
    const Case c = GetParam();
    std::vector<std::string> out;
    int32_t give_ups = 0;
    for (size_t i = 0; i < side->entries.size();) {
      Side::Waiting& w = side->entries[i];
      if (w.paused.paused_at >= 0) {
        if (t < w.paused.retry_at) {
          ++i;
          continue;
        }
        if (t - w.paused.paused_at > kMaxPause) {
          out.push_back(GiveUp(w.entry.id));
          side->waiting.erase(w.entry.id);
          side->entries.erase(side->entries.begin() +
                              static_cast<std::ptrdiff_t>(i));
          Listener(side, seed + static_cast<uint64_t>(give_ups++), next_id);
          i = 0;  // from the head: frees may let any entry start
          continue;
        }
      }
      // A remainder whose first row is unreadable fails without a plan.
      const DisplayRequest& req = w.entry.req;
      const Stripe first = Stripe::At(c.num_disks, req.start_disk, req.degree,
                                      req.parity);
      bool unreadable = false;
      for (int32_t j = 0; j < req.degree && w.paused.paused_at >= 0; ++j) {
        unreadable |= side->disks.latent_errors().IsCorrupt(first.Slot(j),
                                                           w.entry.first_row);
      }
      const std::optional<AdmitPlan> plan =
          unreadable ? std::nullopt : side->FreshPlan(w.entry, t);
      if (plan.has_value()) {
        out.push_back(side->Admit(w.entry, *plan));
        side->entries.erase(side->entries.begin() +
                            static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (w.paused.paused_at >= 0) {
        w.paused.backoff = std::min(w.paused.backoff * 2, 64);
        w.paused.retry_at = t + w.paused.backoff;
      }
      ++i;
    }
    return out;
  }
};

TEST_P(AdmissionCalendarTest, DecisionsMatchPlanningEverything) {
  const Case c = GetParam();
  auto frame = VirtualDiskFrame::Create(c.num_disks, c.stride);
  ASSERT_TRUE(frame.ok());
  auto disks = DiskArray::Create(c.num_disks, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  // Two drives with corrupt cells on every row: a paused remainder whose
  // first stripe touches one cannot resume (it would pause again), and
  // is given up after kMaxPause intervals.
  for (const DiskId slot : {3, c.num_disks / 2 + 3}) {
    disks->latent_errors().Inject(slot, 0, 1000);
  }
  for (const uint64_t seed : {1u, 2u}) {
    Side production(*frame, *disks, c.policy, /*production=*/true);
    Side reference(*frame, *disks, c.policy, /*production=*/false);
    Rng rng(seed * 7919 + static_cast<uint64_t>(c.num_disks) * 31 +
            static_cast<uint64_t>(c.stride));
    RequestId next_production = 1;
    RequestId next_reference = 1;
    int64_t admitted = 0;
    int64_t given_up = 0;
    const double finish = 1.0 / 60;
    for (int64_t t = 0; t < 250; ++t) {
      // Between ticks: streams end or pause, waiting displays cancel and
      // new requests arrive, the same on both sides.
      std::vector<RequestId> ends, pauses, cancels;
      for (const auto& [id, stream] : production.active) {
        if (rng.NextBool(finish)) {
          ends.push_back(id);
        } else if (rng.NextBool(0.02)) {
          pauses.push_back(id);
        }
      }
      for (const RequestId id : production.waiting) {
        if (rng.NextBool(0.02)) cancels.push_back(id);
      }
      const int64_t arrivals = rng.NextInRange(0, c.num_disks >= 1000 ? 3 : 2);
      for (Side* side : {&production, &reference}) {
        for (const RequestId id : ends) side->Release(id);
        for (const RequestId id : pauses) side->Pause(id, t - 1);
        for (const RequestId id : cancels) side->Cancel(id);
      }
      for (int64_t i = 0; i < arrivals; ++i) {
        const DisplayRequest req = RandomRequest(&rng);
        production.Submit({.id = next_production++, .req = req,
                           .arrival = SimTime::Zero()});
        reference.Submit({.id = next_reference++, .req = req,
                          .arrival = SimTime::Zero()});
      }
      const uint64_t listener_seed = seed * 1000003 + static_cast<uint64_t>(t) * 101;
      const std::vector<std::string> got =
          ProductionPass(&production, t, listener_seed, &next_production);
      const std::vector<std::string> want =
          ReferencePass(&reference, t, listener_seed, &next_reference);
      ASSERT_EQ(got, want) << "D " << c.num_disks << " k " << c.stride
                           << " seed " << seed << " interval " << t;
      ASSERT_EQ(production.waiting, reference.waiting);
      ASSERT_EQ(production.queue->paused() + production.queue->queued(),
                production.waiting.size());
      for (const std::string& d : got) {
        (d[0] == 'a' ? admitted : given_up) += 1;
      }
    }
    // The load exercised both outcomes and kept a queue.
    EXPECT_GT(admitted, 20);
    EXPECT_GT(given_up, 0);
    EXPECT_GT(production.waiting.size(), 0u);
  }
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (const int32_t d : {16, 64, 1000}) {
    for (const int32_t k : {1, 5}) {
      for (const AdmissionPolicy policy :
           {AdmissionPolicy::kContiguous, AdmissionPolicy::kFragmented}) {
        cases.push_back({d, k, policy});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdmissionCalendarTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = "D";
      name += std::to_string(info.param.num_disks);
      name += "_k";
      name += std::to_string(info.param.stride);
      name += info.param.policy == AdmissionPolicy::kContiguous
                  ? "_contiguous"
                  : "_fragmented";
      return name;
    });

}  // namespace
}  // namespace stagger
