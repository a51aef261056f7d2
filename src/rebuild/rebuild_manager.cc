#include "rebuild/rebuild_manager.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/hot_path.h"

namespace stagger {

uint64_t FragmentWord(ObjectId object, int64_t subobject, int32_t fragment) {
  // splitmix64 over the packed coordinates: cheap, deterministic, and
  // distinct words for distinct fragments with overwhelming probability.
  uint64_t x = static_cast<uint64_t>(object) * 0x9e3779b97f4a7c15ULL;
  x ^= static_cast<uint64_t>(subobject) + 0xbf58476d1ce4e5b9ULL +
       (x << 6) + (x >> 2);
  x ^= static_cast<uint64_t>(fragment) + 0x94d049bb133111ebULL +
       (x << 6) + (x >> 2);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t ParityWord(ObjectId object, int64_t subobject, int32_t degree) {
  uint64_t parity = 0;
  for (int32_t j = 0; j < degree; ++j) {
    parity ^= FragmentWord(object, subobject, j);
  }
  return parity;
}

Result<std::unique_ptr<RebuildManager>> RebuildManager::Create(
    DiskArray* disks, const RebuildConfig& config) {
  if (config.rebuild_intervals_per_fragment < 1) {
    return Status::InvalidArgument(
        "rebuild rate cap must be >= 1 interval per fragment");
  }
  return std::unique_ptr<RebuildManager>(new RebuildManager(disks, config));
}

RebuildManager::RebuildManager(DiskArray* disks, RebuildConfig config)
    : disks_(disks), config_(config) {}

Status RebuildManager::StartRebuild(DiskId slot, std::vector<LostFragment> lost) {
  MutexLock lock(&mu_);
  if (jobs_.count(slot) > 0) {
    return Status::FailedPrecondition("slot " + std::to_string(slot) +
                                      " is already rebuilding");
  }
  for (const LostFragment& f : lost) {
    // A stripe without parity has nothing to rebuild a fragment from.
    if (f.stripe.num_disks != disks_->num_disks() || f.stripe.parity < 0 ||
        f.fragment < 0 || f.fragment >= f.stripe.width()) {
      return Status::InvalidArgument(
          "lost fragment is not a member of a parity stripe on this array");
    }
  }
  if (lost.size() > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument("lost list too long to index");
  }
  STAGGER_ASSIGN_OR_RETURN(int32_t spare, disks_->AcquireSpare());
  Job job;
  job.spare = spare;
  job.lost = std::move(lost);
  // Index the list by source window, in order of first appearance.
  const auto size = static_cast<int32_t>(job.lost.size());
  std::map<std::pair<Stripe, int32_t>, int32_t> window_index;
  job.window_of.resize(job.lost.size());
  for (int32_t i = 0; i < size; ++i) {
    const LostFragment& f = job.lost[static_cast<size_t>(i)];
    const auto [it, added] = window_index.try_emplace(
        {f.stripe, f.fragment}, static_cast<int32_t>(job.windows.size()));
    if (added) {
      Window w;
      w.stripe = f.stripe;
      w.fragment = f.fragment;
      w.pending.Resize(size);
      job.windows.push_back(std::move(w));
    }
    Window& w = job.windows[static_cast<size_t>(it->second)];
    w.pending.Set(i);
    ++w.pending_count;
    job.window_of[static_cast<size_t>(i)] = it->second;
  }
  ++metrics_.rebuilds_started;
  if (job.lost.empty()) {
    // Nothing stored on the slot: the blank spare already matches.
    jobs_.emplace(slot, std::move(job));
    Promote(slot);
    return Status::OK();
  }
  jobs_.emplace(slot, std::move(job));
  return Status::OK();
}

Status RebuildManager::CancelRebuild(DiskId slot) {
  MutexLock lock(&mu_);
  auto it = jobs_.find(slot);
  if (it == jobs_.end()) {
    return Status::NotFound("slot " + std::to_string(slot) +
                            " is not rebuilding");
  }
  disks_->ReturnSpare(it->second.spare);
  jobs_.erase(it);
  ++metrics_.rebuilds_cancelled;
  return Status::OK();
}

int64_t RebuildManager::RunIdle(int64_t interval, BackgroundGrant* grant) {
  MutexLock lock(&mu_);
  int64_t rebuilt = 0;
  std::vector<DiskId> done;
  for (auto& [slot, job] : jobs_) {
    if (!job.paused_on.empty()) {
      // A source disk is stalled: hold the cursor until OnSourceUp
      // instead of burning scans (and churning the list order) on a
      // job that cannot finish its remaining stripes anyway.
      ++metrics_.paused_intervals;
      continue;
    }
    if (job.last_rebuild_interval >= 0 &&
        interval - job.last_rebuild_interval <
            config_.rebuild_intervals_per_fragment) {
      continue;  // throttled; not a stall
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

void RebuildManager::OnSourceDown(DiskId disk, DiskHealth health) {
  if (health != DiskHealth::kStalled) return;
  MutexLock lock(&mu_);
  for (auto& [slot, job] : jobs_) {
    if (JobReadsFrom(job, disk)) job.paused_on.insert(disk);
  }
}

void RebuildManager::OnSourceUp(DiskId disk) {
  MutexLock lock(&mu_);
  for (auto& [slot, job] : jobs_) job.paused_on.erase(disk);
}

bool RebuildManager::JobReadsFrom(const Job& job, DiskId disk) const {
  for (const Window& w : job.windows) {
    if (w.pending_count == 0) continue;
    const int32_t j = w.stripe.FragmentOn(disk);
    if (j >= 0 && j != w.fragment) return true;
  }
  return false;
}

STAGGER_HOT_PATH bool RebuildManager::TryRebuildOne(Job* job, int64_t interval,
                                                    BackgroundGrant* grant) {
  STAGGER_CHECK(job->next < job->lost.size());
  if (!grant->CanWriteDrive(job->spare)) return false;
  const bool latent_active = disks_->latent_errors().active();
  const auto next = static_cast<int32_t>(job->next);

  // The pick is the lowest pending list position whose whole source set
  // has slack this interval.  Display traffic pins a moving window of
  // disks, and a second outage can make individual stripes temporarily
  // (or, for doubly-lost stripes, indefinitely) unreadable — skipping
  // past them keeps the idle bandwidth working instead of serializing
  // behind one blocked stripe.  Every entry of a window reads the same
  // sources, and nothing is reserved before the pick, so each window's
  // sources are tested once.
  //
  // The whole stripe reads in one interval, all or nothing: the first
  // pending position whose stripe needs more reads than the cap has
  // left ends this consumer's interval, so the pick must lie below it.
  const int64_t reads_left = grant->reads_remaining();
  int32_t stop = static_cast<int32_t>(job->lost.size());
  for (Window& w : job->windows) {
    w.head = w.pending_count == 0 ? -1 : w.pending.NextSet(next);
    if (w.head < 0) continue;
    if (reads_left < w.stripe.degree) {
      stop = std::min(stop, w.head);
      w.head = -1;
      continue;
    }
    // Source set: every member of the stripe except the lost fragment —
    // the surviving data disks plus (for a lost data fragment) the
    // parity disk.
    for (int32_t j = 0; j < w.stripe.width(); ++j) {
      if (j == w.fragment) continue;
      if (!grant->CanRead(w.stripe.Slot(j))) {
        w.head = -1;
        break;
      }
    }
  }

  // Visit the free windows' entries in list order below `stop`.
  while (true) {
    Window* best = nullptr;
    for (Window& w : job->windows) {
      if (w.head >= 0 && w.head < (best ? best->head : stop)) best = &w;
    }
    if (best == nullptr) return false;
    const int32_t idx = best->head;
    const LostFragment& f = job->lost[static_cast<size_t>(idx)];
    const Stripe& stripe = best->stripe;

    if (latent_active) {
      // A corrupt source word would XOR garbage onto the spare.  The
      // checksum on the source read catches it; surface the cell and
      // leave the stripe for the scrubber to repair first.
      bool corrupt = false;
      for (int32_t j = 0; j < stripe.width(); ++j) {
        if (j == f.fragment) continue;
        const DiskId src = stripe.Slot(j);
        if (disks_->latent_errors().IsCorrupt(src, f.subobject)) {
          disks_->latent_errors().MarkDetected(src, f.subobject);
          corrupt = true;
        }
      }
      if (corrupt) {
        ++metrics_.corrupt_source_skips;
        best->head = best->pending.NextSet(idx + 1);
        continue;
      }
    }

    // All sources have slack: take the reservations and reconstruct.
    const int32_t m = stripe.degree;
    uint64_t word = 0;
    for (int32_t j = 0; j < stripe.width(); ++j) {
      if (j == f.fragment) continue;
      grant->ReadSlot(stripe.Slot(j));
      ++metrics_.source_reads;
      word ^= j == m ? ParityWord(f.object, f.subobject, m)
                     : FragmentWord(f.object, f.subobject, j);
    }
    grant->WriteDrive(job->spare);  // the rebuilt fragment's write transfer

    const uint64_t expected =
        f.fragment == m ? ParityWord(f.object, f.subobject, m)
                        : FragmentWord(f.object, f.subobject, f.fragment);
    if (word != expected) ++metrics_.mismatches;

    // Swap the picked entry to the cursor; the entry that sat at the
    // cursor takes over position idx in its own window.
    const auto at = static_cast<size_t>(idx);
    const size_t cursor = job->next;
    best->pending.Clear(idx);
    --best->pending_count;
    if (at != cursor) {
      const int32_t moved = job->window_of[cursor];
      Window& mw = job->windows[static_cast<size_t>(moved)];
      mw.pending.Clear(next);
      mw.pending.Set(idx);
      job->window_of[cursor] = job->window_of[at];
      job->window_of[at] = moved;
      std::swap(job->lost[cursor], job->lost[at]);
    }
    ++job->next;
    ++metrics_.fragments_rebuilt;
    job->last_rebuild_interval = interval;
    return true;
  }
}

void RebuildManager::Promote(DiskId slot) {
  auto it = jobs_.find(slot);
  STAGGER_CHECK(it != jobs_.end());
  disks_->PromoteSpare(slot, it->second.spare);
  jobs_.erase(it);
  ++metrics_.rebuilds_completed;
}

double RebuildManager::Progress(DiskId slot) const {
  MutexLock lock(&mu_);
  auto it = jobs_.find(slot);
  STAGGER_CHECK(it != jobs_.end()) << "slot " << slot << " is not rebuilding";
  if (it->second.lost.empty()) return 1.0;
  return static_cast<double>(it->second.next) /
         static_cast<double>(it->second.lost.size());
}

int64_t RebuildManager::EtaIntervals(DiskId slot) const {
  MutexLock lock(&mu_);
  auto it = jobs_.find(slot);
  STAGGER_CHECK(it != jobs_.end()) << "slot " << slot << " is not rebuilding";
  const int64_t remaining =
      static_cast<int64_t>(it->second.lost.size() - it->second.next);
  return remaining * config_.rebuild_intervals_per_fragment;
}

size_t RebuildManager::NextFragmentIndex(DiskId slot) const {
  MutexLock lock(&mu_);
  auto it = jobs_.find(slot);
  STAGGER_CHECK(it != jobs_.end()) << "slot " << slot << " is not rebuilding";
  return it->second.next;
}

bool RebuildManager::paused(DiskId slot) const {
  MutexLock lock(&mu_);
  auto it = jobs_.find(slot);
  STAGGER_CHECK(it != jobs_.end()) << "slot " << slot << " is not rebuilding";
  return !it->second.paused_on.empty();
}

std::vector<LostFragment> RebuildManager::LostList(DiskId slot) const {
  MutexLock lock(&mu_);
  auto it = jobs_.find(slot);
  STAGGER_CHECK(it != jobs_.end()) << "slot " << slot << " is not rebuilding";
  return it->second.lost;
}

Status RebuildManager::AuditState() const {
  MutexLock lock(&mu_);
  for (const auto& [slot, job] : jobs_) {
    STAGGER_AUDIT_VERIFY(slot >= 0 && slot < disks_->num_disks())
        << "; rebuild job on nonexistent slot " << slot;
    STAGGER_AUDIT_VERIFY(job.spare >= 0)
        << "; rebuild job on slot " << slot << " holds no spare";
    STAGGER_AUDIT_VERIFY(job.next < job.lost.size() || job.lost.empty())
        << "; rebuild job on slot " << slot
        << " is complete but was not promoted";
    // Source-window index: each pending position sits in exactly the
    // window of its fragment's key, nothing below the cursor is set,
    // and the window counts add up to the pending count.
    STAGGER_AUDIT_VERIFY(job.window_of.size() == job.lost.size())
        << "; rebuild job on slot " << slot << " indexes "
        << job.window_of.size() << " of " << job.lost.size() << " positions";
    const auto size = static_cast<int32_t>(job.lost.size());
    int64_t counted = 0;
    for (size_t w = 0; w < job.windows.size(); ++w) {
      const Window& win = job.windows[w];
      STAGGER_AUDIT_VERIFY(win.pending.CountSet() == win.pending_count)
          << "; rebuild window " << w << " of slot " << slot << " counts "
          << win.pending_count << " but holds " << win.pending.CountSet();
      const int32_t below = win.pending.NextSet(0);
      STAGGER_AUDIT_VERIFY(below < 0 || below >= static_cast<int32_t>(job.next))
          << "; rebuild window " << w << " of slot " << slot
          << " holds rebuilt position " << below;
      counted += win.pending_count;
    }
    STAGGER_AUDIT_VERIFY(counted ==
                         static_cast<int64_t>(job.lost.size() - job.next))
        << "; rebuild windows of slot " << slot << " hold " << counted
        << " positions, " << job.lost.size() - job.next << " pending";
    for (int32_t i = static_cast<int32_t>(job.next); i < size; ++i) {
      const auto pos = static_cast<size_t>(i);
      const int32_t w = job.window_of[pos];
      STAGGER_AUDIT_VERIFY(w >= 0 && static_cast<size_t>(w) < job.windows.size())
          << "; rebuild position " << i << " of slot " << slot
          << " maps to no window";
      const Window& win = job.windows[static_cast<size_t>(w)];
      const LostFragment& f = job.lost[pos];
      STAGGER_AUDIT_VERIFY(win.pending.Test(i) && win.stripe == f.stripe &&
                           win.fragment == f.fragment)
          << "; rebuild position " << i << " of slot " << slot
          << " is not pending in the window of its source key";
    }
  }
  STAGGER_AUDIT_VERIFY(metrics_.mismatches == 0)
      << "; " << metrics_.mismatches
      << " reconstructed fragments failed the parity content check";
  return Status::OK();
}

}  // namespace stagger
