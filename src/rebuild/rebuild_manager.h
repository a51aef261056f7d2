// Online rebuild of lost fragments onto hot spares.
//
// When a disk fails for good, every fragment it held is re-derivable
// from its stripe: the M-1 surviving data fragments XORed with the
// stripe's parity fragment reproduce the lost data word (and the M data
// words reproduce a lost parity word).  The rebuild manager works
// through the failed slot's lost-fragment list, re-deriving each
// fragment onto a claimed hot-spare drive using only *idle* disk
// bandwidth — it runs from the interval scheduler's idle-bandwidth
// hook, after display reads have taken their reservations — and, once
// the list is exhausted, promotes the spare into the slot
// (DiskArray::PromoteSpare).
// Because layouts address slots, the promoted array is bit-identical to
// the pre-failure placement; tests verify this through the layout
// audits and the FragmentWord content model below.
//
// Content model: fragments carry no real bytes in this simulator, so
// reconstruction correctness is checked against a deterministic 64-bit
// word per fragment.  Parity is the XOR of its stripe's data words; a
// reconstruction that does not reproduce the expected word increments
// `mismatches`, which must stay zero.

#ifndef STAGGER_REBUILD_REBUILD_MANAGER_H_
#define STAGGER_REBUILD_REBUILD_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "background/background_budget.h"
#include "disk/disk_array.h"
#include "storage/layout.h"
#include "storage/media_object.h"
#include "util/bitmap.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace stagger {

/// Deterministic content word of data fragment X_{subobject.fragment}
/// of `object` (splitmix-style hash of the coordinates).
uint64_t FragmentWord(ObjectId object, int64_t subobject, int32_t fragment);

/// Parity word of one stripe: XOR of its `degree` data words.
uint64_t ParityWord(ObjectId object, int64_t subobject, int32_t degree);

/// \brief One fragment lost with a failed disk, addressed by its stripe
/// so the rebuild knows which surviving disks to read.
struct LostFragment {
  ObjectId object = kInvalidObject;
  int64_t subobject = 0;
  /// Fragment index within the stripe; `stripe.degree` denotes the
  /// stripe's parity fragment.
  int32_t fragment = 0;
  /// The stripe the fragment belongs to; its other members are the
  /// rebuild's sources.
  Stripe stripe;

  bool operator==(const LostFragment&) const = default;
};

/// \brief Rebuild pacing.
struct RebuildConfig {
  /// A job rebuilds at most one fragment every this many intervals —
  /// the configurable rebuild rate cap (1 = every idle interval).
  int64_t rebuild_intervals_per_fragment = 1;
};

/// \brief Counters reported by the rebuild manager.
struct RebuildMetrics {
  int64_t rebuilds_started = 0;
  int64_t rebuilds_completed = 0;   ///< spare promoted into the slot
  int64_t rebuilds_cancelled = 0;   ///< slot recovered naturally
  int64_t fragments_rebuilt = 0;
  /// Survivor + parity reads issued on behalf of rebuilds.
  int64_t source_reads = 0;
  /// Intervals where a job was due to rebuild (not paused, not
  /// throttled) but rebuilt nothing: no pending stripe had every source
  /// free, the spare was busy, or the grant's read cap left less than a
  /// stripe's reads.
  int64_t stalled_intervals = 0;
  /// Job-intervals spent paused because a source disk was stalled
  /// (OnSourceDown); the cursor holds still instead of re-picking.
  int64_t paused_intervals = 0;
  /// Stripes skipped because a source fragment's media cell is corrupt
  /// (latent error): rebuilding through it would write garbage onto the
  /// spare, so the stripe waits for the scrubber to repair the source.
  int64_t corrupt_source_skips = 0;
  /// Reconstructed words that failed to match the content model.  Any
  /// non-zero value is a reconstruction bug.
  int64_t mismatches = 0;
};

/// \brief Re-derives the lost fragments of failed slots onto hot spares
/// from parity, on idle bandwidth only.
///
/// As a BackgroundConsumer the manager draws its source reads and
/// spare writes from a BackgroundGrant handed out by the shared
/// BackgroundBudget arbiter (src/background/), which caps its
/// per-interval rate and arbitrates against the scrubber.
class RebuildManager : public BackgroundConsumer {
 public:
  /// \param disks  disk farm with a hot-spare pool; must outlive the
  ///               manager.
  static Result<std::unique_ptr<RebuildManager>> Create(
      DiskArray* disks, const RebuildConfig& config);

  /// Claims a spare and starts rebuilding `lost` (the fragments that
  /// lived on `slot`) onto it.  An empty list promotes immediately.
  /// Fails with ResourceExhausted when no spare is free,
  /// FailedPrecondition when the slot is already rebuilding, or
  /// InvalidArgument (claiming no spare) when an entry's stripe stores
  /// no parity to rebuild from or its fragment is not a member.
  Status StartRebuild(DiskId slot, std::vector<LostFragment> lost)
      STAGGER_EXCLUDES(mu_);

  /// Abandons the rebuild of `slot` (its original drive recovered) and
  /// returns the spare to the pool.
  Status CancelRebuild(DiskId slot) STAGGER_EXCLUDES(mu_);

  // BackgroundConsumer:
  const char* name() const override { return "rebuild"; }
  bool HasWork() const override STAGGER_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return !jobs_.empty();
  }
  /// Consumes leftover slack of one interval within `grant`: for each
  /// active job whose throttle allows it, picks the first pending
  /// fragment whose whole source set is idle (display traffic and other
  /// outages can block individual stripes — they are skipped, not
  /// waited on; the pick tests each source window once, see Window),
  /// reads the stripe's other members (reserving those disks),
  /// XOR-reconstructs the lost word onto the spare, and promotes the
  /// spare when the job's list is exhausted.  A stripe that lost two
  /// fragments is unrecoverable from single parity: its job holds the
  /// spare and keeps stalling until the other slot comes back.  Returns
  /// fragments rebuilt.
  int64_t RunIdle(int64_t interval, BackgroundGrant* grant) override
      STAGGER_EXCLUDES(mu_);

  /// A stall on a rebuild *source* disk: every job whose pending
  /// fragments read from `disk` pauses — the stripe cursor holds still
  /// until OnSourceUp — instead of fruitlessly re-picking (and
  /// re-ordering) its remaining list each interval.  Only stalls pause:
  /// they always end, while pausing on a *failure* could deadlock two
  /// jobs whose source sets cross (each waiting on the other's lost
  /// disk); failures keep the pick-and-skip behavior.
  void OnSourceDown(DiskId disk, DiskHealth health) STAGGER_EXCLUDES(mu_);
  /// Clears `disk` from every job's paused set.
  void OnSourceUp(DiskId disk) STAGGER_EXCLUDES(mu_);

  bool rebuilding(DiskId slot) const STAGGER_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return jobs_.count(slot) > 0;
  }
  size_t active_jobs() const STAGGER_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return jobs_.size();
  }
  /// Fraction of `slot`'s lost fragments already rebuilt, in [0, 1].
  double Progress(DiskId slot) const STAGGER_EXCLUDES(mu_);
  /// Intervals still needed for `slot` at the configured rate cap,
  /// assuming every interval offers slack.
  int64_t EtaIntervals(DiskId slot) const STAGGER_EXCLUDES(mu_);
  /// Position of `slot`'s job cursor: fragments already rebuilt.
  size_t NextFragmentIndex(DiskId slot) const STAGGER_EXCLUDES(mu_);
  /// True when `slot`'s job is paused on a stalled source disk.
  bool paused(DiskId slot) const STAGGER_EXCLUDES(mu_);
  /// `slot`'s lost list in its current order: positions below
  /// NextFragmentIndex are rebuilt, the rest pending.
  std::vector<LostFragment> LostList(DiskId slot) const STAGGER_EXCLUDES(mu_);

  const RebuildMetrics& metrics() const { return metrics_; }
  const RebuildConfig& config() const { return config_; }

  /// Internal-consistency audit: job cursors within bounds, one job per
  /// slot, the source-window index in step with the pending list, and
  /// zero reconstruction mismatches.
  Status AuditState() const STAGGER_EXCLUDES(mu_);

 private:
  /// The pending fragments of one job that read the same source disks:
  /// same stripe and lost fragment index.  A failed slot's fragments
  /// fall into at most Σ(degree + 1) windows, one per offset of the slot
  /// inside a stripe of each degree, so the pick tests sources once per
  /// window instead of once per list entry.
  struct Window {
    Stripe stripe;
    int32_t fragment = 0;
    /// Bit i set == list position i (>= the job's next) is pending here.
    Bitmap pending;
    int32_t pending_count = 0;
    /// TryRebuildOne scratch: this window's next candidate position, or
    /// -1 when it has none this call.
    int32_t head = -1;
  };

  struct Job {
    int32_t spare = -1;  ///< claimed spare drive index
    std::vector<LostFragment> lost;
    size_t next = 0;     ///< first fragment not yet rebuilt
    int64_t last_rebuild_interval = -1;
    /// Stalled disks some pending fragment reads from; non-empty
    /// freezes the job (see OnSourceDown).
    std::set<DiskId> paused_on;
    /// Source-window index over `lost`, built by StartRebuild and sized
    /// there, so the per-interval pick never allocates.
    std::vector<Window> windows;
    /// windows[window_of[i]] holds list position i.
    std::vector<int32_t> window_of;
  };

  RebuildManager(DiskArray* disks, RebuildConfig config);

  /// Attempts one fragment of `job` this interval; true on progress.
  bool TryRebuildOne(Job* job, int64_t interval, BackgroundGrant* grant)
      STAGGER_REQUIRES(mu_);
  /// True when some pending fragment of `job` reads from `disk`: one
  /// test per non-empty source window.
  bool JobReadsFrom(const Job& job, DiskId disk) const STAGGER_REQUIRES(mu_);
  void Promote(DiskId slot) STAGGER_REQUIRES(mu_);

  DiskArray* disks_;
  RebuildConfig config_;
  /// Serializes job mutation across the entry points: fault listeners
  /// call StartRebuild/CancelRebuild and the idle-bandwidth hook calls
  /// RunIdle.  The simulator drives all of them from one thread,
  /// so the lock is uncontended; it keeps the class safe to share
  /// between threads and lets -Wthread-safety check every access to
  /// jobs_.  mutable so const readers can lock.
  mutable Mutex mu_;
  /// Active jobs keyed by failed slot; std::map for deterministic
  /// per-interval iteration order.
  std::map<DiskId, Job> jobs_ STAGGER_GUARDED_BY(mu_);
  /// Written only by mu_-holding methods but deliberately unannotated:
  /// metrics() hands out a const reference, which the thread-safety
  /// analysis cannot prove safe for a guarded member.  Cross-thread
  /// readers must synchronize externally (quiesce the manager).
  RebuildMetrics metrics_;
};

}  // namespace stagger

#endif  // STAGGER_REBUILD_REBUILD_MANAGER_H_
