// Background stripe scrubbing: the subsystem that finds latent sector
// errors before a viewer (or a rebuild) does.
//
// The scrubber cycles over every resident object's stripes, reading
// each stripe's data fragments plus parity on idle bandwidth and
// verifying their content words (the simulator's stand-in for on-disk
// checksums).  A fragment whose media cell is corrupt
// (disk/latent_errors.h) fails verification and is repaired in the
// same interval:
//   * one corrupt fragment in a parity stripe — the PR 3 path: XOR the
//     surviving fragments with parity and rewrite the bad cell.  The
//     corrupt fragment's read reservation doubles as the rewrite (read
//     and write of one cell in one interval, like the rebuild's spare
//     write);
//   * two or more corrupt fragments (or no parity) — single parity
//     cannot reconstruct: restore the stripe from the tertiary archive
//     copy, modeled as repairing the cells and ending the scrubber's
//     interval (the re-fetch penalty);
//   * a corrupt cell no resident stripe covers (the object was evicted
//     or re-landed elsewhere) — found by the orphan sweep at the end of
//     each pass and repaired by remapping the unallocated region.
//
// Cells that are already *detected* — a display read's checksum caught
// them, or an earlier scrub read found them but could not repair in
// that interval — are repaired out of cursor order by the targeted
// path, before the background cycle continues.  Without it a known-bad
// cell would wait up to a full pass for the cursor to come around.
//
// The scrubber is a BackgroundConsumer: every read goes through the
// BackgroundGrant the shared arbiter (src/background/) hands out below
// rebuild priority, so scrubbing never takes a disk from display
// traffic or from an active rebuild — the starvation floor alone
// guarantees it eventually runs under a rebuild storm.

#ifndef STAGGER_SCRUB_SCRUBBER_H_
#define STAGGER_SCRUB_SCRUBBER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "background/background_budget.h"
#include "disk/disk_array.h"
#include "storage/layout.h"
#include "storage/media_object.h"
#include "util/result.h"

namespace stagger {

/// \brief One resident object's stripes, as the scrubber walks them:
/// row s is `layout.StripeOf(s)`.  Copies are cheap (the layout's row
/// table is shared).
struct ScrubTarget {
  ObjectId object = kInvalidObject;
  int64_t num_subobjects = 0;
  StaggeredLayout layout;
};

/// \brief Scrub pacing.
struct ScrubConfig {
  /// At 1, the scrubber verifies as many stripes per idle interval as
  /// its grant allows; at N > 1 it verifies at most one stripe every N
  /// intervals (a rate floor for latency-sensitive deployments).
  int64_t intervals_per_stripe = 1;
};

/// \brief Counters reported by the scrubber.
struct ScrubMetrics {
  int64_t stripes_scrubbed = 0;
  int64_t passes_completed = 0;  ///< full cycles over every target
  /// Corrupt cells first detected by a scrub read.
  int64_t latent_errors_found = 0;
  /// Corrupt cells repaired by the scrubber (all three repair paths).
  int64_t latent_errors_repaired = 0;
  int64_t parity_repairs = 0;    ///< same-interval parity reconstructions
  int64_t archive_restores = 0;  ///< stripes restored from tertiary
  int64_t orphans_repaired = 0;  ///< cells outside every resident stripe
  /// Corrupt cells repaired by the targeted path (detected by a display
  /// read or an earlier scrub, then repaired out of cursor order).
  int64_t targeted_repairs = 0;
  int64_t verify_reads = 0;
  /// Intervals where the scrubber wanted a stripe but the grant (cap,
  /// busy disks) could not cover it.
  int64_t stalled_intervals = 0;
  /// Stripes skipped because a member disk was unavailable; re-checked
  /// next pass.
  int64_t skipped_unavailable = 0;
  /// Clean stripes whose data/parity words failed the content-model
  /// cross-check.  Any non-zero value is a bug.
  int64_t mismatches = 0;
};

/// \brief Cyclic background verifier of stripe content words.
///
/// Single-threaded, driven from the scheduler tick via the background
/// budget.
class Scrubber : public BackgroundConsumer {
 public:
  /// Re-queried at every pass boundary and after Invalidate(); must
  /// return each resident object at most once.
  using WorkSource = std::function<std::vector<ScrubTarget>()>;

  static Result<std::unique_ptr<Scrubber>> Create(DiskArray* disks,
                                                  const ScrubConfig& config,
                                                  WorkSource source);

  /// Flags the target list stale (an object landed or was evicted); the
  /// scrubber re-queries the work source and restarts its cycle at the
  /// next opportunity.
  void Invalidate() { pending_refresh_ = true; }

  // BackgroundConsumer:
  const char* name() const override { return "scrub"; }
  bool HasWork() const override {
    return pending_refresh_ || !targets_.empty() ||
           disks_->latent_errors().active();
  }
  int64_t RunIdle(int64_t interval, BackgroundGrant* grant) override;

  const ScrubMetrics& metrics() const { return metrics_; }
  const ScrubConfig& config() const { return config_; }

  /// Internal-consistency audit: cursor in bounds, zero content-model
  /// mismatches.
  Status AuditState() const;

 private:
  Scrubber(DiskArray* disks, ScrubConfig config, WorkSource source);

  /// Re-queries the work source and restarts the cycle.
  void Refresh();
  /// Advances the stripe cursor; true when it wrapped (pass complete).
  bool AdvanceCursor();
  /// Verifies (and if needed repairs) one stripe.
  enum class StripeOutcome { kScrubbed, kSkippedUnavailable, kBlocked,
                             kArchiveRestore };
  StripeOutcome ScrubStripe(const ScrubTarget& t, int64_t sub,
                            BackgroundGrant* grant);
  StripeOutcome ScrubStripeAtCursor(BackgroundGrant* grant);
  /// The target whose row-`sub` stripe stores a fragment on `disk`, or
  /// nullptr when no resident stripe covers the cell.
  const ScrubTarget* FindCover(DiskId disk, int64_t sub) const;
  /// Out-of-cursor-order repair of already-detected corrupt cells (a
  /// display read's checksum surfaced them); sets *stop when a repair
  /// escalated to an archive restore, which ends the interval.
  int64_t TargetedRepairs(BackgroundGrant* grant, bool* stop);
  /// Detects and repairs corrupt cells no target covers; returns cells
  /// repaired.  Orphans the grant could not cover (busy or unavailable
  /// disk, cap) re-arm pending_orphan_sweep_ so the sweep retries next
  /// interval instead of waiting a whole pass.
  int64_t OrphanSweep(BackgroundGrant* grant);

  DiskArray* disks_;
  ScrubConfig config_;
  WorkSource source_;
  std::vector<ScrubTarget> targets_;
  /// Stripes in the current target list (pass length).
  int64_t pass_stripes_ = 0;
  size_t target_idx_ = 0;
  int64_t subobject_idx_ = 0;
  bool pending_refresh_ = true;
  /// An orphan sweep left cells behind (their disks were busy that
  /// interval — at a pass wrap the final stripe's own reservations are
  /// still held, so this is the common case) and must retry.
  bool pending_orphan_sweep_ = false;
  int64_t last_scrub_interval_ = -1;
  ScrubMetrics metrics_;
};

}  // namespace stagger

#endif  // STAGGER_SCRUB_SCRUBBER_H_
