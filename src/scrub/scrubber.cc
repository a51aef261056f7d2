#include "scrub/scrubber.h"

#include <algorithm>
#include <utility>

#include "rebuild/rebuild_manager.h"
#include "util/check.h"


namespace stagger {

Result<std::unique_ptr<Scrubber>> Scrubber::Create(DiskArray* disks,
                                                   const ScrubConfig& config,
                                                   WorkSource source) {
  if (config.intervals_per_stripe < 1) {
    return Status::InvalidArgument(
        "scrub rate must be >= 1 interval per stripe");
  }
  if (!source) {
    return Status::InvalidArgument("scrubber needs a work source");
  }
  return std::unique_ptr<Scrubber>(
      new Scrubber(disks, config, std::move(source)));
}

Scrubber::Scrubber(DiskArray* disks, ScrubConfig config, WorkSource source)
    : disks_(disks), config_(config), source_(std::move(source)) {}

void Scrubber::Refresh() {
  // The cycle position survives catalog churn: restarting at stripe 0
  // whenever an object lands or is evicted would re-verify the head of
  // the list forever and never complete a pass (so the pass-end orphan
  // sweep would never run).  Targets arrive sorted by object id, so the
  // cursor re-seats at the first object at or after the old position.
  ObjectId cursor_object = kInvalidObject;
  int64_t cursor_sub = 0;
  if (target_idx_ < targets_.size()) {
    cursor_object = targets_[target_idx_].object;
    cursor_sub = subobject_idx_;
  }
  targets_ = source_();
  // Empty objects contribute no stripes; dropping them keeps the
  // cursor's invariants trivial.
  targets_.erase(std::remove_if(targets_.begin(), targets_.end(),
                                [](const ScrubTarget& t) {
                                  return t.num_subobjects <= 0;
                                }),
                 targets_.end());
  pass_stripes_ = 0;
  for (const ScrubTarget& t : targets_) pass_stripes_ += t.num_subobjects;
  target_idx_ = 0;
  subobject_idx_ = 0;
  if (cursor_object != kInvalidObject) {
    for (size_t i = 0; i < targets_.size(); ++i) {
      if (targets_[i].object < cursor_object) continue;
      target_idx_ = i;
      if (targets_[i].object == cursor_object) {
        subobject_idx_ =
            std::min(cursor_sub, targets_[i].num_subobjects - 1);
      }
      break;
    }
    // Every remaining object sorts before the old position: the cursor
    // wrapped with the churn; the next wrap still closes a full cycle.
  }
  pending_refresh_ = false;
}

bool Scrubber::AdvanceCursor() {
  ++subobject_idx_;
  if (subobject_idx_ < targets_[target_idx_].num_subobjects) return false;
  subobject_idx_ = 0;
  ++target_idx_;
  if (target_idx_ < targets_.size()) return false;
  target_idx_ = 0;
  return true;
}

int64_t Scrubber::RunIdle(int64_t interval, BackgroundGrant* grant) {
  if (pending_refresh_) Refresh();
  int64_t ops = 0;
  // Known-corrupt cells first, out of cursor order; the rate floor
  // below paces background verification, not repair of known errors.
  bool stop = false;
  ops += TargetedRepairs(grant, &stop);
  if (stop) return ops;
  // A previous sweep left orphans behind (their disks were busy in that
  // interval); retry with this interval's fresh grant rather than
  // waiting for the next pass wrap.
  if (pending_orphan_sweep_) {
    if (disks_->latent_errors().active()) {
      ops += OrphanSweep(grant);
    } else {
      pending_orphan_sweep_ = false;
    }
  }
  if (targets_.empty()) {
    // Nothing resident: every corrupt cell is an orphan.
    if (disks_->latent_errors().active()) ops += OrphanSweep(grant);
    return ops;
  }
  if (config_.intervals_per_stripe > 1 && last_scrub_interval_ >= 0 &&
      interval - last_scrub_interval_ < config_.intervals_per_stripe) {
    return ops;  // rate floor; not a stall
  }
  // At most one full pass per interval, so an uncapped grant over a
  // small catalog cannot loop forever.
  for (int64_t attempt = 0; attempt < pass_stripes_; ++attempt) {
    const StripeOutcome outcome = ScrubStripeAtCursor(grant);
    if (outcome == StripeOutcome::kBlocked) {
      // Cursor holds still: the same stripe retries next interval.
      ++metrics_.stalled_intervals;
      break;
    }
    const bool wrapped = AdvanceCursor();
    if (outcome != StripeOutcome::kSkippedUnavailable) {
      ++ops;
      last_scrub_interval_ = interval;
    }
    if (wrapped) {
      ++metrics_.passes_completed;
      if (disks_->latent_errors().active()) ops += OrphanSweep(grant);
      // The catalog may have churned during the pass; re-query before
      // starting the next one.
      pending_refresh_ = true;
      break;
    }
    if (outcome == StripeOutcome::kArchiveRestore) {
      break;  // the tertiary re-fetch consumes the rest of the interval
    }
    if (config_.intervals_per_stripe > 1) break;  // one stripe per N
  }
  return ops;
}

Scrubber::StripeOutcome Scrubber::ScrubStripeAtCursor(BackgroundGrant* grant) {
  return ScrubStripe(targets_[target_idx_], subobject_idx_, grant);
}

const ScrubTarget* Scrubber::FindCover(DiskId disk, int64_t sub) const {
  for (const ScrubTarget& t : targets_) {
    if (sub >= t.num_subobjects) continue;
    if (t.layout.StripeOf(sub).FragmentOn(disk) >= 0) return &t;
  }
  return nullptr;
}

int64_t Scrubber::TargetedRepairs(BackgroundGrant* grant, bool* stop) {
  *stop = false;
  LatentErrorMap& latent = disks_->latent_errors();
  if (!latent.active()) return 0;
  // Snapshot the detected cells: Repair mutates the registry.
  std::vector<std::pair<DiskId, int64_t>> hot;
  for (const auto& [key, cell] : latent.cells()) {
    if (cell.detected_interval >= 0) hot.push_back(key);
  }
  int64_t ops = 0;
  for (const auto& [disk, sub] : hot) {
    // A stripe repaired earlier in this loop may have covered the cell.
    if (!latent.IsCorrupt(disk, sub)) continue;
    const ScrubTarget* cover = FindCover(disk, sub);
    if (cover == nullptr) {
      // Detected orphan (the object was evicted after a display read
      // surfaced the cell): one read remaps the unallocated region.
      if (!grant->CanRead(disk)) continue;
      grant->ReadSlot(disk);
      ++metrics_.verify_reads;
      latent.Repair(disk, sub);
      ++metrics_.orphans_repaired;
      ++metrics_.latent_errors_repaired;
      ++ops;
      continue;
    }
    const StripeOutcome outcome = ScrubStripe(*cover, sub, grant);
    if (outcome == StripeOutcome::kBlocked ||
        outcome == StripeOutcome::kSkippedUnavailable) {
      continue;  // busy or unavailable members; retry next interval
    }
    ++ops;
    if (!latent.IsCorrupt(disk, sub)) ++metrics_.targeted_repairs;
    if (outcome == StripeOutcome::kArchiveRestore) {
      *stop = true;  // the tertiary re-fetch consumes the interval
      break;
    }
  }
  return ops;
}

Scrubber::StripeOutcome Scrubber::ScrubStripe(const ScrubTarget& t,
                                              int64_t sub,
                                              BackgroundGrant* grant) {
  const Stripe stripe = t.layout.StripeOf(sub);
  const int32_t members = stripe.width();

  // An unavailable member defers the stripe to the next pass — the
  // scrubber must not serialize a whole pass behind one outage.
  for (int32_t j = 0; j < members; ++j) {
    if (!disks_->IsAvailable(stripe.Slot(j))) {
      ++metrics_.skipped_unavailable;
      return StripeOutcome::kSkippedUnavailable;
    }
  }
  // Verification is all-or-nothing: a half-read stripe proves nothing.
  if (grant->reads_remaining() < members) return StripeOutcome::kBlocked;
  for (int32_t j = 0; j < members; ++j) {
    if (!grant->CanRead(stripe.Slot(j))) return StripeOutcome::kBlocked;
  }

  LatentErrorMap& latent = disks_->latent_errors();
  const bool latent_active = latent.active();
  // Corrupt members, by stripe slot.  Bounded by members; typically 0.
  std::vector<DiskId> corrupt;
  for (int32_t j = 0; j < members; ++j) {
    const DiskId slot = stripe.Slot(j);
    grant->ReadSlot(slot);
    ++metrics_.verify_reads;
    if (latent_active && latent.IsCorrupt(slot, sub)) {
      if (latent.MarkDetected(slot, sub)) ++metrics_.latent_errors_found;
      corrupt.push_back(slot);
    }
  }
  ++metrics_.stripes_scrubbed;

  if (corrupt.empty()) {
    if (stripe.parity >= 0) {
      // Content-model cross-check on the clean stripe: the data words
      // must XOR to the parity word.  A miss is a placement or content
      // bug, never expected.
      uint64_t x = 0;
      for (int32_t j = 0; j < stripe.degree; ++j) {
        x ^= FragmentWord(t.object, sub, j);
      }
      if (x != ParityWord(t.object, sub, stripe.degree)) ++metrics_.mismatches;
    }
    return StripeOutcome::kScrubbed;
  }

  if (corrupt.size() == 1 && stripe.parity >= 0) {
    // Same-interval parity reconstruction (the PR 3 degraded-read
    // path): the surviving members were just read, and the corrupt
    // member's read reservation doubles as its rewrite.
    latent.Repair(corrupt.front(), sub);
    ++metrics_.parity_repairs;
    ++metrics_.latent_errors_repaired;
    return StripeOutcome::kScrubbed;
  }

  // Multiple corruptions (or no parity): single parity cannot
  // reconstruct, so restore the stripe from the durable tertiary copy.
  for (const DiskId slot : corrupt) {
    latent.Repair(slot, sub);
    ++metrics_.latent_errors_repaired;
  }
  ++metrics_.archive_restores;
  return StripeOutcome::kArchiveRestore;
}

int64_t Scrubber::OrphanSweep(BackgroundGrant* grant) {
  LatentErrorMap& latent = disks_->latent_errors();
  // Collect first: Repair mutates the registry under iteration.
  std::vector<std::pair<DiskId, int64_t>> orphans;
  for (const auto& [key, cell] : latent.cells()) {
    (void)cell;
    if (FindCover(key.first, key.second) == nullptr) orphans.push_back(key);
  }
  int64_t repaired = 0;
  int64_t skipped = 0;
  for (const auto& [disk, sub] : orphans) {
    // One read verifies the unallocated region and remaps the bad cell.
    // Cells the grant cannot cover (busy or unavailable disk, cap)
    // retry next interval through pending_orphan_sweep_.  At a pass
    // wrap the skip is systematic, not transient: the sweep shares the
    // interval with the pass's final stripe, whose member reservations
    // the scrubber itself still holds — without the retry an orphan on
    // one of those disks would be skipped at EVERY wrap and never heal.
    if (!grant->CanRead(disk)) {
      ++skipped;
      continue;
    }
    grant->ReadSlot(disk);
    ++metrics_.verify_reads;
    if (latent.MarkDetected(disk, sub)) ++metrics_.latent_errors_found;
    latent.Repair(disk, sub);
    ++metrics_.orphans_repaired;
    ++metrics_.latent_errors_repaired;
    ++repaired;
  }
  pending_orphan_sweep_ = skipped > 0;
  return repaired;
}

Status Scrubber::AuditState() const {
  STAGGER_AUDIT_VERIFY(metrics_.mismatches == 0)
      << "; " << metrics_.mismatches
      << " clean stripes failed the content-model cross-check";
  if (!targets_.empty()) {
    STAGGER_AUDIT_VERIFY(target_idx_ < targets_.size())
        << "; scrub cursor target " << target_idx_ << " out of bounds";
    STAGGER_AUDIT_VERIFY(subobject_idx_ >= 0 &&
                         subobject_idx_ < targets_[target_idx_].num_subobjects)
        << "; scrub cursor row " << subobject_idx_ << " out of bounds";
  }
  return Status::OK();
}

}  // namespace stagger
