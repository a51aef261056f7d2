// The invariant audit subsystem: machine-checkable statements of the
// paper's placement and scheduling guarantees.
//
// The paper's correctness argument rests on invariants, not on code:
//  * fragments of one subobject occupy M_X *consecutive* disks mod D
//    (Section 3.2's declustering rule);
//  * successive subobjects shift by the system-wide stride k, and the
//    resulting data skew is governed by gcd(D, k) (Section 3.2.2);
//  * a disk transfers at most one fragment (B_Disk) per time interval
//    (bandwidth conservation);
//  * a displaying stream never underflows its buffer: every lane has
//    read subobject s before interval delta_max + s delivers it
//    (Algorithm 1), and coalescing migrations (Algorithm 2) only ever
//    move reads *earlier* relative to the output clock, never later.
//
// InvariantAuditor verifies these over three representations:
//  1. static layouts (StaggeredLayout / explicit placement tables),
//  2. recorded schedules (ScheduleTracer),
//  3. live scheduler state (IntervalScheduler / LogicalDiskScheduler),
//     via friend access, invoked per interval when STAGGER_AUDIT is on.
//
// All audits return Status (Internal on violation) rather than
// aborting, so tests can assert that corrupted inputs are rejected;
// the per-interval hooks promote a non-OK audit to a fatal check.

#ifndef STAGGER_CORE_INVARIANTS_H_
#define STAGGER_CORE_INVARIANTS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/schedule_trace.h"
#include "storage/catalog.h"
#include "storage/layout.h"
#include "util/status.h"
#include "util/units.h"

namespace stagger {

class IntervalScheduler;
class LogicalDiskScheduler;

/// Explicit placement table: placement[i][j] is the physical disk
/// holding fragment X_{i.j}.  Materialized from a StaggeredLayout for
/// auditing, or hand-built (and deliberately corrupted) by tests.
using PlacementTable = std::vector<std::vector<int32_t>>;

/// Expands a layout into the explicit placement of its first
/// `num_subobjects` subobjects.  With `include_parity`, each row gains
/// the subobject's parity disk as an extra trailing column — the
/// augmented row is M+1 consecutive disks mod D, so the placement and
/// skew audits apply unchanged with the wider window.
PlacementTable MaterializePlacement(const StaggeredLayout& layout,
                                    int64_t num_subobjects,
                                    bool include_parity = false);

/// \brief Options for ScheduleTracer audits.
struct TraceAuditOptions {
  /// Algorithm-1 buffering is in effect (fragmented admission or
  /// coalescing): fragments of one subobject may legally be read in
  /// different intervals.  When false, any time-split subobject is a
  /// violation — a subobject was spread across non-aligned disks with
  /// no buffering to absorb the skew.
  bool allow_time_fragmentation = false;
};

/// \brief Stateless verifier for the paper's placement and scheduling
/// invariants.  All methods return OK or Status::Internal describing
/// the first violation found.
class InvariantAuditor {
 public:
  // --- static placement audits -----------------------------------------

  /// Mod-D contiguity and stride progression: every row holds disks
  /// p_i, p_i+1, ..., p_i+M-1 (mod D) and row i+1 starts at
  /// p_i + stride (mod D).
  static Status AuditPlacement(const PlacementTable& placement,
                               int32_t num_disks, int32_t stride);

  /// GCD skew bounds (Section 3.2.2): with g = gcd(D, k) and period
  /// P = D/g, subobject start disks stay in one residue class mod g,
  /// per-disk fragment counts respect the floor/ceil window bounds, and
  /// the total equals n * M.
  static Status AuditSkew(const PlacementTable& placement, int32_t num_disks,
                          int32_t stride);

  /// Full audit of a StaggeredLayout: materializes the placement, runs
  /// AuditPlacement + AuditSkew, and cross-checks the layout's own
  /// FragmentsPerDisk / UniqueDisksUsed closed forms against the
  /// materialized table.  Parity-carrying layouts are audited over the
  /// augmented M+1-column table (parity is the stripe's next
  /// consecutive disk), plus AuditParityPlacement.
  static Status AuditLayout(const StaggeredLayout& layout,
                            int64_t num_subobjects);

  /// Parity disjointness (fault-tolerance layer): every subobject's
  /// parity fragment sits on the expected disk (p + i*k + M mod D) and
  /// never co-resides with any of the stripe's own data disks.
  static Status AuditParityPlacement(const StaggeredLayout& layout,
                                     int64_t num_subobjects);

  /// Catalog sanity under an effective disk bandwidth: every object has
  /// subobjects to display, positive display bandwidth, and a degree of
  /// declustering M_X = ceil(B_Display / B_Disk) that fits in [1, D].
  static Status AuditCatalog(const Catalog& catalog, Bandwidth disk_bandwidth,
                             int32_t num_disks);

  // --- recorded schedule audits ----------------------------------------

  /// Audits a recorded schedule against the layouts that produced it:
  ///  * every read lands on the disk its layout dictates (contiguity and
  ///    stride progression of the *actual* schedule),
  ///  * no disk transfers two fragments in one interval (B_Disk),
  ///  * no fragment of a subobject is read twice,
  ///  * a subobject read across several intervals implies Algorithm-1
  ///    buffering (opts.allow_time_fragmentation),
  ///  * on untruncated traces, every touched subobject is read
  ///    completely (all M_X fragments).
  ///
  /// Assumes each object is displayed at most once in the traced window
  /// (true for the paper's Figure 3-5 schedules this tracer renders).
  static Status AuditTrace(const ScheduleTracer& trace,
                           const std::map<ObjectId, StaggeredLayout>& layouts,
                           const TraceAuditOptions& opts = {});

  // --- live scheduler audits (per-interval hooks) -----------------------

  /// Walks the interval scheduler's occupancy and stream state:
  /// virtual-disk ownership is consistent both ways, every active lane
  /// is within delta_max of the output clock (buffer non-underflow),
  /// delivery progress matches the interval arithmetic exactly, the
  /// buffered-fragment count matches its recomputation, and zero
  /// hiccups occurred.
  static Status AuditScheduler(const IntervalScheduler& scheduler);

  /// Walks the logical-disk scheduler: per-virtual-disk unit usage is
  /// within [0, L] and equals the sum over active streams of the units
  /// each stream places on that disk.
  static Status AuditLogicalScheduler(const LogicalDiskScheduler& scheduler);
};

}  // namespace stagger

#endif  // STAGGER_CORE_INVARIANTS_H_
