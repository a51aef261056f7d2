// Differential test of the rebuild pick.  RebuildManager indexes each
// job's pending fragments by source window and tests every window's
// sources once per interval; ReferenceRebuild below keeps the linear
// scan it replaced, which probes the sources of every pending list
// entry from the cursor on.  Two identical disk arrays run the same
// randomized schedule, one under each implementation:
//  * mixed stripe degrees (3 and 5) in one lost list, strides 1 and 5,
//    list order as collected or shuffled;
//  * 1-3 concurrent rebuild jobs and a per-case rate cap;
//  * per-interval grant caps from 1 to 2M, or uncapped;
//  * display traffic pinning a moving window plus random busy slots,
//    second failures, stalls, and latent cells injected and repaired.
// After every interval both sides must agree on the jobs, each job's
// list order and cursor (hence the picked entry), every RebuildMetrics
// field, the busy slots, and the set of detected latent cells.
//
// The seed count defaults to 8 and is widened by the CI sweep through
// STAGGER_FAULT_SEEDS (see .github/workflows).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "background/background_budget.h"
#include "disk/disk_array.h"
#include "rebuild/rebuild_manager.h"
#include "storage/layout.h"
#include "util/rng.h"

namespace stagger {
namespace {

/// The rebuild manager's per-interval logic with the linear pick: same
/// throttle, pause, corrupt-source and promotion rules, no index.
class ReferenceRebuild {
 public:
  struct Job {
    int32_t spare = -1;
    std::vector<LostFragment> lost;
    size_t next = 0;
    int64_t last_rebuild_interval = -1;
    std::set<DiskId> paused_on;
  };

  ReferenceRebuild(DiskArray* disks, int64_t intervals_per_fragment)
      : disks_(disks), intervals_per_fragment_(intervals_per_fragment) {}

  Status Start(DiskId slot, std::vector<LostFragment> lost) {
    STAGGER_ASSIGN_OR_RETURN(int32_t spare, disks_->AcquireSpare());
    Job job;
    job.spare = spare;
    job.lost = std::move(lost);
    ++metrics_.rebuilds_started;
    jobs_.emplace(slot, std::move(job));
    if (jobs_.at(slot).lost.empty()) Promote(slot);
    return Status::OK();
  }

  int64_t RunIdle(int64_t interval, BackgroundGrant* grant) {
    int64_t rebuilt = 0;
    std::vector<DiskId> done;
    for (auto& [slot, job] : jobs_) {
      if (!job.paused_on.empty()) {
        ++metrics_.paused_intervals;
        continue;
      }
      if (job.last_rebuild_interval >= 0 &&
          interval - job.last_rebuild_interval < intervals_per_fragment_) {
        continue;
      }
      if (TryRebuildOne(&job, interval, grant)) {
        ++rebuilt;
        if (job.next >= job.lost.size()) done.push_back(slot);
      } else {
        ++metrics_.stalled_intervals;
      }
    }
    for (DiskId slot : done) Promote(slot);
    return rebuilt;
  }

  void OnSourceDown(DiskId disk, DiskHealth health) {
    if (health != DiskHealth::kStalled) return;
    for (auto& [slot, job] : jobs_) {
      if (JobReadsFrom(job, disk)) job.paused_on.insert(disk);
    }
  }

  void OnSourceUp(DiskId disk) {
    for (auto& [slot, job] : jobs_) job.paused_on.erase(disk);
  }

  const std::map<DiskId, Job>& jobs() const { return jobs_; }
  const RebuildMetrics& metrics() const { return metrics_; }

 private:
  // Stripe members consecutive mod D from the first slot, parity on the
  // (M+1)-th: the placement rule restated here, not asked of Stripe.
  DiskId Source(const LostFragment& f, int32_t j) const {
    return disks_->Wrap(static_cast<int64_t>(f.stripe.first) + j);
  }

  bool JobReadsFrom(const Job& job, DiskId disk) const {
    for (size_t idx = job.next; idx < job.lost.size(); ++idx) {
      const LostFragment& f = job.lost[idx];
      for (int32_t j = 0; j <= f.stripe.degree; ++j) {
        if (j != f.fragment && Source(f, j) == disk) return true;
      }
    }
    return false;
  }

  bool TryRebuildOne(Job* job, int64_t interval, BackgroundGrant* grant) {
    if (!grant->CanWriteDrive(job->spare)) return false;
    const bool latent_active = disks_->latent_errors().active();
    for (size_t idx = job->next; idx < job->lost.size(); ++idx) {
      const LostFragment& f = job->lost[idx];
      const int32_t m = f.stripe.degree;
      if (grant->reads_remaining() < m) return false;
      bool sources_free = true;
      for (int32_t j = 0; j <= m && sources_free; ++j) {
        if (j != f.fragment) sources_free = grant->CanRead(Source(f, j));
      }
      if (!sources_free) continue;
      if (latent_active) {
        bool corrupt = false;
        for (int32_t j = 0; j <= m; ++j) {
          if (j == f.fragment) continue;
          if (disks_->latent_errors().IsCorrupt(Source(f, j), f.subobject)) {
            disks_->latent_errors().MarkDetected(Source(f, j), f.subobject);
            corrupt = true;
          }
        }
        if (corrupt) {
          ++metrics_.corrupt_source_skips;
          continue;
        }
      }
      uint64_t word = 0;
      for (int32_t j = 0; j <= m; ++j) {
        if (j == f.fragment) continue;
        grant->ReadSlot(Source(f, j));
        ++metrics_.source_reads;
        word ^= j == m ? ParityWord(f.object, f.subobject, m)
                       : FragmentWord(f.object, f.subobject, j);
      }
      grant->WriteDrive(job->spare);
      const uint64_t expected =
          f.fragment == m ? ParityWord(f.object, f.subobject, m)
                          : FragmentWord(f.object, f.subobject, f.fragment);
      if (word != expected) ++metrics_.mismatches;
      std::swap(job->lost[job->next], job->lost[idx]);
      ++job->next;
      ++metrics_.fragments_rebuilt;
      job->last_rebuild_interval = interval;
      return true;
    }
    return false;
  }

  void Promote(DiskId slot) {
    disks_->PromoteSpare(slot, jobs_.at(slot).spare);
    jobs_.erase(slot);
    ++metrics_.rebuilds_completed;
  }

  DiskArray* disks_;
  int64_t intervals_per_fragment_;
  std::map<DiskId, Job> jobs_;
  RebuildMetrics metrics_;
};

/// One side of the differential: its own array, driven by one pick.
struct World {
  std::unique_ptr<DiskArray> disks;
  std::unique_ptr<RebuildManager> index;     // set on the index side
  std::unique_ptr<ReferenceRebuild> scan;    // set on the reference side
};

World MakeWorld(int32_t num_disks, int32_t spares, int64_t per_fragment,
                bool reference) {
  World w;
  auto disks = DiskArray::Create(num_disks, DiskParameters::Evaluation(), spares);
  STAGGER_CHECK(disks.ok()) << disks.status();
  w.disks = std::make_unique<DiskArray>(*std::move(disks));
  if (reference) {
    w.scan = std::make_unique<ReferenceRebuild>(w.disks.get(), per_fragment);
  } else {
    RebuildConfig config;
    config.rebuild_intervals_per_fragment = per_fragment;
    auto rebuild = RebuildManager::Create(w.disks.get(), config);
    STAGGER_CHECK(rebuild.ok()) << rebuild.status();
    w.index = *std::move(rebuild);
  }
  return w;
}

std::string MetricsString(const RebuildMetrics& m) {
  std::ostringstream os;
  os << "started=" << m.rebuilds_started << " completed="
     << m.rebuilds_completed << " cancelled=" << m.rebuilds_cancelled
     << " rebuilt=" << m.fragments_rebuilt << " reads=" << m.source_reads
     << " stalled=" << m.stalled_intervals << " paused="
     << m.paused_intervals << " corrupt_skips=" << m.corrupt_source_skips
     << " mismatches=" << m.mismatches;
  return os.str();
}

/// Detected latent cells as (disk, row) -> detection interval.
std::map<std::pair<DiskId, int64_t>, int64_t> DetectedCells(
    const DiskArray& disks) {
  std::map<std::pair<DiskId, int64_t>, int64_t> detected;
  for (const auto& [key, cell] : disks.latent_errors().cells()) {
    if (cell.detected_interval >= 0) detected[key] = cell.detected_interval;
  }
  return detected;
}

int64_t SeedCount() {
  int64_t seeds = 8;
  if (const char* env = std::getenv("STAGGER_FAULT_SEEDS")) {
    seeds = std::max<int64_t>(1, std::atoll(env));
  }
  return seeds;
}

std::vector<uint64_t> Seeds() {
  std::vector<uint64_t> seeds;
  for (int64_t s = 1; s <= SeedCount(); ++s) {
    seeds.push_back(static_cast<uint64_t>(s));
  }
  return seeds;
}

class RebuildPickDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RebuildPickDifferentialTest, IndexedPickMatchesLinearScan) {
  Rng rng(GetParam());
  const int32_t num_disks = 16 + static_cast<int32_t>(rng.NextBounded(25));
  const int32_t stride = rng.NextBool(0.5) ? 1 : 5;
  const int64_t per_fragment = 1 + static_cast<int64_t>(rng.NextBounded(2));
  const int32_t num_jobs = 1 + static_cast<int32_t>(rng.NextBounded(3));
  constexpr int32_t kMaxDegree = 5;
  constexpr int64_t kHorizon = 400;

  // Objects of degree 3 and 5 at scattered start disks: a failed slot
  // loses fragments of both degrees at several offsets.
  std::vector<StaggeredLayout> layouts;
  std::vector<int64_t> rows;
  const int32_t num_objects = 3 + static_cast<int32_t>(rng.NextBounded(4));
  for (int32_t o = 0; o < num_objects; ++o) {
    const int32_t degree = o % 2 == 0 ? 3 : kMaxDegree;
    auto layout = StaggeredLayout::Create(
        num_disks, static_cast<int32_t>(rng.NextBounded(num_disks)), stride,
        degree, /*parity=*/true);
    ASSERT_TRUE(layout.ok()) << layout.status();
    layouts.push_back(*layout);
    rows.push_back(8 + static_cast<int64_t>(rng.NextBounded(40)));
  }
  const auto lost_on = [&](DiskId slot) {
    std::vector<LostFragment> lost;
    for (size_t o = 0; o < layouts.size(); ++o) {
      const StaggeredLayout& l = layouts[o];
      for (int64_t i = 0; i < rows[o]; ++i) {
        for (int32_t j = 0; j < l.degree(); ++j) {
          if (l.DiskFor(i, j) == slot) {
            lost.push_back({static_cast<ObjectId>(o), i, j, l.StripeOf(i)});
          }
        }
        if (l.ParityDiskFor(i) == slot) {
          lost.push_back({static_cast<ObjectId>(o), i, l.degree(),
                          l.StripeOf(i)});
        }
      }
    }
    if (rng.NextBool(0.5)) {
      for (size_t i = lost.size(); i > 1; --i) {
        std::swap(lost[i - 1], lost[rng.NextBounded(i)]);
      }
    }
    return lost;
  };

  World ref = MakeWorld(num_disks, num_jobs, per_fragment, /*reference=*/true);
  World idx = MakeWorld(num_disks, num_jobs, per_fragment, /*reference=*/false);
  const auto both = [&](auto&& op) {
    op(ref);
    op(idx);
  };

  // Job starts: the first at interval 0, the others within 60.
  std::map<int64_t, DiskId> job_starts;
  std::set<DiskId> job_slots;
  while (static_cast<int32_t>(job_slots.size()) < num_jobs) {
    const auto slot = static_cast<DiskId>(rng.NextBounded(num_disks));
    if (!job_slots.insert(slot).second) continue;
    int64_t at = job_slots.size() == 1 ? 0 : 1 + rng.NextBounded(60);
    while (job_starts.count(at) > 0) ++at;
    job_starts[at] = slot;
  }

  // Source outages in flight, never on a job's slot: disk -> interval
  // it comes back.
  std::map<DiskId, int64_t> outages;
  const auto usable = [&](DiskId d) {
    return job_slots.count(d) == 0 && outages.count(d) == 0;
  };

  for (int64_t t = 0; t < kHorizon; ++t) {
    SCOPED_TRACE("interval " + std::to_string(t));
    if (auto it = job_starts.find(t); it != job_starts.end()) {
      const DiskId slot = it->second;
      const std::vector<LostFragment> lost = lost_on(slot);
      both([&](World& w) { w.disks->FailDisk(slot); });
      ASSERT_TRUE(ref.scan->Start(slot, lost).ok());
      ASSERT_TRUE(idx.index->StartRebuild(slot, lost).ok());
    }

    // Outages ending this interval.
    for (auto it = outages.begin(); it != outages.end();) {
      if (it->second > t) {
        ++it;
        continue;
      }
      const DiskId d = it->first;
      both([&](World& w) { w.disks->RecoverDisk(d); });
      ref.scan->OnSourceUp(d);
      idx.index->OnSourceUp(d);
      it = outages.erase(it);
    }
    // New outages: a second failure or a stall on a source disk.
    if (rng.NextBool(0.06)) {
      const auto d = static_cast<DiskId>(rng.NextBounded(num_disks));
      if (usable(d)) {
        const bool stall = rng.NextBool(0.5);
        both([&](World& w) {
          if (stall) {
            w.disks->StallDisk(d);
          } else {
            w.disks->FailDisk(d);
          }
        });
        const DiskHealth health = ref.disks->disk(d).health();
        ref.scan->OnSourceDown(d, health);
        idx.index->OnSourceDown(d, health);
        outages[d] = t + 1 + static_cast<int64_t>(rng.NextBounded(30));
      }
    }
    // Latent cells: inject a run of rows, or repair a detected cell.
    if (rng.NextBool(0.08)) {
      const auto d = static_cast<DiskId>(rng.NextBounded(num_disks));
      const auto lo = static_cast<int64_t>(rng.NextBounded(48));
      const int64_t hi = lo + static_cast<int64_t>(rng.NextBounded(4));
      both([&](World& w) { w.disks->latent_errors().Inject(d, lo, hi); });
    }
    if (rng.NextBool(0.15)) {
      const auto detected = DetectedCells(*ref.disks);
      if (!detected.empty()) {
        auto it = detected.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.NextBounded(detected.size())));
        const auto [d, row] = it->first;
        both([&](World& w) { w.disks->latent_errors().Repair(d, row); });
      }
    }

    // Display traffic: a moving pinned window plus scattered slots.
    const int32_t width =
        static_cast<int32_t>(rng.NextBounded(num_disks * 3 / 4 + 1));
    const auto start = static_cast<int32_t>((t * stride) % num_disks);
    std::vector<DiskId> busy;
    for (int32_t i = 0; i < width; ++i) busy.push_back(ref.disks->Wrap(start + i));
    const int32_t scattered = static_cast<int32_t>(rng.NextBounded(4));
    for (int32_t i = 0; i < scattered; ++i) {
      busy.push_back(static_cast<DiskId>(rng.NextBounded(num_disks)));
    }
    both([&](World& w) {
      for (DiskId d : busy) {
        if (w.disks->IsAvailable(d) && !w.disks->SlotBusy(d)) {
          w.disks->ReserveSlot(d);
        }
      }
    });

    // The grant: uncapped, or a cap of 1..2M reads.
    const int64_t cap = rng.NextBool(0.25)
                            ? 0
                            : 1 + static_cast<int64_t>(
                                      rng.NextBounded(2 * kMaxDegree));
    BackgroundGrant ref_grant(ref.disks.get(), cap);
    BackgroundGrant idx_grant(idx.disks.get(), cap);
    const int64_t ref_rebuilt = ref.scan->RunIdle(t, &ref_grant);
    const int64_t idx_rebuilt = idx.index->RunIdle(t, &idx_grant);
    ASSERT_EQ(idx_rebuilt, ref_rebuilt);
    ASSERT_EQ(idx_grant.reads(), ref_grant.reads());
    ASSERT_EQ(idx_grant.spare_writes(), ref_grant.spare_writes());

    // Jobs, list order and cursor (so the picked entry, at cursor - 1).
    ASSERT_EQ(idx.index->active_jobs(), ref.scan->jobs().size());
    for (const auto& [slot, job] : ref.scan->jobs()) {
      ASSERT_TRUE(idx.index->rebuilding(slot)) << "slot " << slot;
      ASSERT_EQ(idx.index->NextFragmentIndex(slot), job.next)
          << "slot " << slot;
      ASSERT_EQ(idx.index->paused(slot), !job.paused_on.empty())
          << "slot " << slot;
      ASSERT_TRUE(idx.index->LostList(slot) == job.lost)
          << "slot " << slot << ": list order diverged";
    }
    ASSERT_EQ(MetricsString(idx.index->metrics()),
              MetricsString(ref.scan->metrics()));
    for (DiskId d = 0; d < num_disks; ++d) {
      ASSERT_EQ(idx.disks->SlotBusy(d), ref.disks->SlotBusy(d)) << "slot " << d;
    }
    ASSERT_EQ(DetectedCells(*idx.disks), DetectedCells(*ref.disks));
    ASSERT_EQ(idx.disks->latent_errors().metrics().detected,
              ref.disks->latent_errors().metrics().detected);
    ASSERT_TRUE(idx.index->AuditState().ok()) << idx.index->AuditState();

    both([](World& w) { w.disks->EndInterval(); });
  }

  // The schedule exercised the paths under test, not just the happy one.
  const RebuildMetrics& m = ref.scan->metrics();
  EXPECT_GT(m.fragments_rebuilt, 0);
  EXPECT_GT(m.stalled_intervals, 0);
  EXPECT_EQ(m.mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebuildPickDifferentialTest,
                         ::testing::ValuesIn(Seeds()));

}  // namespace
}  // namespace stagger
