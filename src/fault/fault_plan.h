// A deterministic schedule of disk faults.  The paper assumes all D
// disks stay healthy for the life of a display; the fault subsystem
// perturbs that assumption reproducibly so degraded-mode scheduling
// (core/interval_scheduler.h DegradedPolicy, baseline/vdr_server.h
// failover) can be exercised and regression-tested.
//
// A plan is a time-ordered list of events over the disks of one array:
//   * fail    — media loss; the disk rejects reads until an explicit
//               recover event (operator replacement + rebuild);
//   * stall   — transient unavailability for a fixed duration; the disk
//               keeps its data but blows its T_switch budget, so reads
//               issued during the stall miss their interval deadline.
//               Recovery is implicit at `at + duration`;
//   * degrade — the disk runs at a bandwidth fraction (a straggler)
//               for a fixed duration; reads that no longer fit the
//               interval go through the degraded ladder.  Recovery is
//               implicit at `at + duration`;
//   * latent  — a subobject range on the disk silently returns corrupt
//               fragment content until read (checksum), scrubbed, or
//               rebuilt away.  Orthogonal to health: the disk keeps
//               serving;
//   * recover — restores a failed disk to healthy.
//
// Correlated faults: a plan may declare *failure domains* (enclosures,
// racks) — disjoint disk groups — and target a whole domain with one
// fail/stall/degrade/recover line, modeling a shared power feed or
// backplane taking every member out at once.
//
// Plans serialize to a line-oriented text format (see ToString/Parse
// and docs/fault_injection.md) so failure scenarios can live in test
// fixtures and be replayed bit-identically.

#ifndef STAGGER_FAULT_FAULT_PLAN_H_
#define STAGGER_FAULT_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "disk/disk.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/units.h"

namespace stagger {

/// \brief What happens to a disk at a plan event.
enum class FaultKind {
  kFail,         ///< media loss until an explicit recover
  kStall,        ///< transient; implicit recovery after `duration`
  kDegrade,      ///< bandwidth fraction; implicit recovery after `duration`
  kLatentError,  ///< corrupt subobject range; repaired by scrub/rebuild
  kRecover,      ///< failed disk returns to service
};

const char* FaultKindName(FaultKind kind);

/// \brief One scheduled fault event.
struct FaultEvent {
  SimTime at;
  FaultKind kind = FaultKind::kFail;
  DiskId disk = 0;
  /// Stalls and degrades: the disk recovers at `at + duration`.
  SimTime duration;
  /// Degrades only: bandwidth percentage in [1, 99].
  int32_t percent = 0;
  /// Latent errors only: corrupt subobject rows [sub_lo, sub_hi].
  int64_t sub_lo = 0;
  int64_t sub_hi = 0;
  /// >= 0: group event — targets every disk of that failure domain and
  /// `disk` is meaningless.  Latent errors are never group events.
  int32_t domain = -1;
};

/// \brief Parameters of the seeded chaos generator (Generate()).
///
/// Rates are expressed as per-disk mean time between events: over
/// `horizon` the generator draws about D * horizon / mtbf events of
/// each kind.  A zero mtbf disables that kind.
struct ChaosParams {
  SimTime horizon;

  /// Whole-disk failures (always paired with a recover at the outage
  /// end, so every generated plan eventually heals).
  SimTime mtbf;
  SimTime mttr;  ///< mean outage duration (fail -> recover)

  /// Transient stalls.
  SimTime stall_mtbf;
  SimTime mean_stall;

  /// Bandwidth degradations.
  SimTime degrade_mtbf;
  SimTime mean_degrade;
  int32_t min_degrade_percent = 30;
  int32_t max_degrade_percent = 80;

  /// Latent sector errors.  Each event corrupts a run of 1 to
  /// `max_latent_run` subobject rows uniformly placed in
  /// [0, subobject_space).
  SimTime latent_mtbf;
  int64_t subobject_space = 0;
  int64_t max_latent_run = 1;

  /// Failure domains: disks are partitioned into `num_domains`
  /// contiguous enclosures, and each fail/stall/degrade event targets a
  /// whole enclosure with probability `domain_event_fraction`.
  int32_t num_domains = 0;
  double domain_event_fraction = 0.25;

  /// Checks the parameters against an array of `num_disks` drives:
  /// positive horizon, no negative mtbf, a positive mean duration for
  /// every enabled window kind, domains in [0, num_disks], the domain
  /// fraction in [0, 1], degrade percents with 1 <= min <= max <= 99,
  /// and max_latent_run >= 1.
  Status Validate(int32_t num_disks) const;
};

/// \brief A validated, replayable schedule of disk faults.
class FaultPlan {
 public:
  FaultPlan() = default;

  // Builder API; events may be appended in any order — Validate() and
  // the injector sort by time.
  FaultPlan& FailAt(DiskId disk, SimTime at);
  FaultPlan& StallAt(DiskId disk, SimTime at, SimTime duration);
  FaultPlan& DegradeAt(DiskId disk, SimTime at, SimTime duration,
                       int32_t percent);
  FaultPlan& LatentAt(DiskId disk, SimTime at, int64_t sub_lo, int64_t sub_hi);
  FaultPlan& RecoverAt(DiskId disk, SimTime at);

  /// Declares a failure domain (enclosure) over `disks` and returns its
  /// id for the *DomainAt builders.  Domains must be disjoint.
  int32_t AddDomain(std::vector<DiskId> disks);
  FaultPlan& FailDomainAt(int32_t domain, SimTime at);
  FaultPlan& StallDomainAt(int32_t domain, SimTime at, SimTime duration);
  FaultPlan& DegradeDomainAt(int32_t domain, SimTime at, SimTime duration,
                             int32_t percent);
  FaultPlan& RecoverDomainAt(int32_t domain, SimTime at);

  const std::vector<std::vector<DiskId>>& domains() const { return domains_; }

  /// Checks the plan against an array of `num_disks` drives: ids in
  /// range, times non-negative, stall/degrade durations positive,
  /// degrade percent in [1, 99], latent ranges well-formed, domains
  /// disjoint and in range, and the per-disk event sequence consistent
  /// after expanding group events (fail/stall/degrade only while
  /// healthy, recover only while failed; stalls and degrades recover
  /// implicitly at window end).  Two events on one disk at the same
  /// instant replay in the deterministic apply order recover < fail <
  /// stall < degrade < latent — a same-time `recover` + `fail` pair is
  /// a legal back-to-back outage — but exact duplicates (same instant,
  /// same kind, same disk) are rejected.
  Status Validate(int32_t num_disks) const;

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Events sorted by (time, target, apply rank); group events are NOT
  /// expanded (one entry per plan line — the serialization order).
  /// Group targets order after all single-disk targets.
  std::vector<FaultEvent> Sorted() const;

  /// Sorted() with every group event expanded into one event per domain
  /// member — the order the injector applies events in.  Precondition:
  /// domain indices are in range (Validate() checks them).
  std::vector<FaultEvent> ExpandedSorted() const;

  /// Line-oriented text form: first the domain declarations, then one
  /// event per line:
  ///   domain <id> <disk> <disk> ...
  ///   <micros> fail <target>
  ///   <micros> stall <target> <duration_micros>
  ///   <micros> degrade <target> <duration_micros> <percent>
  ///   <micros> latent <disk> <sub_lo> <sub_hi>
  ///   <micros> recover <target>
  /// where <target> is a disk id or `@<domain>`.  Event lines are
  /// emitted in Sorted() order; '#' starts a comment.
  std::string ToString() const;

  /// Inverse of ToString(); blank lines and '#' comments are skipped.
  static Result<FaultPlan> Parse(const std::string& text);

  /// Seeded chaos generator: draws fail/recover pairs, stalls,
  /// degrades, and latent errors at the MTBF-driven rates of `params`
  /// over `params.horizon`, optionally correlated across contiguous
  /// failure domains.  Unavailability windows are kept disjoint per
  /// disk, so the result always passes Validate(); serialize it with
  /// ToString() to replay any chaos run from its plan text.
  /// Precondition: params.Validate(num_disks) is OK.
  static FaultPlan Generate(Rng* rng, int32_t num_disks,
                            const ChaosParams& params);

 private:
  std::vector<FaultEvent> events_;
  std::vector<std::vector<DiskId>> domains_;
};

}  // namespace stagger

#endif  // STAGGER_FAULT_FAULT_PLAN_H_
