#include "core/invariants.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

#include "core/interval_scheduler.h"
#include "core/logical_scheduler.h"
#include "util/bitmap.h"
#include "util/check.h"

namespace stagger {

PlacementTable MaterializePlacement(const StaggeredLayout& layout,
                                    int64_t num_subobjects,
                                    bool include_parity) {
  STAGGER_CHECK_GE(num_subobjects, 0);
  STAGGER_CHECK(!include_parity || layout.has_parity());
  PlacementTable table(static_cast<size_t>(num_subobjects));
  for (int64_t i = 0; i < num_subobjects; ++i) {
    const Stripe stripe = layout.StripeOf(i);
    auto& row = table[static_cast<size_t>(i)];
    row.resize(static_cast<size_t>(include_parity ? stripe.width()
                                                  : stripe.degree));
    for (int32_t j = 0; j < static_cast<int32_t>(row.size()); ++j) {
      row[static_cast<size_t>(j)] = stripe.Slot(j);
    }
  }
  return table;
}

Status InvariantAuditor::AuditPlacement(const PlacementTable& placement,
                                        int32_t num_disks, int32_t stride) {
  STAGGER_AUDIT_VERIFY(num_disks >= 1) << " (D=" << num_disks << ")";
  STAGGER_AUDIT_VERIFY(stride >= 1 && stride <= num_disks)
      << " (k=" << stride << ", D=" << num_disks << ")";
  if (placement.empty()) return Status::OK();

  const size_t degree = placement.front().size();
  STAGGER_AUDIT_VERIFY(degree >= 1 &&
                       degree <= static_cast<size_t>(num_disks))
      << " (M=" << degree << ", D=" << num_disks << ")";

  const int32_t first_start = placement.front().front();
  for (size_t i = 0; i < placement.size(); ++i) {
    const auto& row = placement[i];
    STAGGER_AUDIT_VERIFY(row.size() == degree)
        << "; subobject " << i << " has " << row.size()
        << " fragments, expected M=" << degree;
    for (size_t j = 0; j < row.size(); ++j) {
      STAGGER_AUDIT_VERIFY(row[j] >= 0 && row[j] < num_disks)
          << "; fragment " << i << "." << j << " on nonexistent disk "
          << row[j];
    }
    // Mod-D contiguity: fragments j = 0..M-1 of one subobject occupy
    // M consecutive disks starting at the subobject's first disk.
    for (size_t j = 1; j < row.size(); ++j) {
      const int32_t expected = static_cast<int32_t>(
          PositiveMod(static_cast<int64_t>(row[0]) + static_cast<int64_t>(j),
                      num_disks));
      STAGGER_AUDIT_VERIFY(row[j] == expected)
          << "; fragment " << i << "." << j << " on disk " << row[j]
          << ", breaks mod-" << num_disks << " contiguity (expected "
          << expected << ")";
    }
    // Stride-k progression: subobject i starts k*i disks after
    // subobject 0.
    const int32_t expected_start = static_cast<int32_t>(PositiveMod(
        static_cast<int64_t>(first_start) +
            static_cast<int64_t>(stride) * static_cast<int64_t>(i),
        num_disks));
    STAGGER_AUDIT_VERIFY(row[0] == expected_start)
        << "; subobject " << i << " starts on disk " << row[0]
        << ", violates stride k=" << stride << " (expected "
        << expected_start << ")";
  }
  return Status::OK();
}

Status InvariantAuditor::AuditSkew(const PlacementTable& placement,
                                   int32_t num_disks, int32_t stride) {
  STAGGER_AUDIT_VERIFY(num_disks >= 1) << " (D=" << num_disks << ")";
  STAGGER_AUDIT_VERIFY(stride >= 1 && stride <= num_disks)
      << " (k=" << stride << ", D=" << num_disks << ")";
  if (placement.empty()) return Status::OK();

  const int64_t n = static_cast<int64_t>(placement.size());
  const int64_t degree = static_cast<int64_t>(placement.front().size());
  const int64_t g = std::gcd(static_cast<int64_t>(num_disks),
                             static_cast<int64_t>(stride));
  const int64_t period = num_disks / g;

  // Start disks stay in one residue class modulo gcd(D, k): the walk
  // {p + i*k mod D} can never leave it.
  const int64_t start_residue = placement.front().front() % g;
  std::vector<int64_t> counts(static_cast<size_t>(num_disks), 0);
  for (size_t i = 0; i < placement.size(); ++i) {
    const auto& row = placement[i];
    STAGGER_AUDIT_VERIFY(static_cast<int64_t>(row.size()) == degree)
        << "; subobject " << i << " has " << row.size()
        << " fragments, expected M=" << degree;
    STAGGER_AUDIT_VERIFY(row.front() % g == start_residue)
        << "; subobject " << i << " starts on disk " << row.front()
        << ", outside residue class " << start_residue << " mod gcd(D,k)="
        << g;
    for (int32_t disk : row) {
      STAGGER_AUDIT_VERIFY(disk >= 0 && disk < num_disks)
          << "; fragment of subobject " << i << " on nonexistent disk "
          << disk;
      ++counts[static_cast<size_t>(disk)];
    }
  }

  // GCD balance bounds: over n subobjects the start walk visits each of
  // the D/g reachable residues floor(n/P) or ceil(n/P) times, and any
  // window of M consecutive disks covers floor(M/g)..ceil(M/g) reachable
  // residues — so per-disk fragment counts are boxed accordingly.
  const int64_t max_bound = CeilDiv(degree, g) * CeilDiv(n, period);
  const int64_t min_bound = (degree / g) * (n / period);
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  STAGGER_AUDIT_VERIFY(*hi <= max_bound)
      << "; disk " << (hi - counts.begin()) << " holds " << *hi
      << " fragments, above the gcd bound " << max_bound << " (g=" << g
      << ", P=" << period << ")";
  STAGGER_AUDIT_VERIFY(*lo >= min_bound)
      << "; disk " << (lo - counts.begin()) << " holds " << *lo
      << " fragments, below the gcd bound " << min_bound << " (g=" << g
      << ", P=" << period << ")";
  return Status::OK();
}

Status InvariantAuditor::AuditLayout(const StaggeredLayout& layout,
                                     int64_t num_subobjects) {
  STAGGER_AUDIT_VERIFY(num_subobjects >= 0)
      << " (n=" << num_subobjects << ")";
  // With parity the augmented row is exactly a staggered stripe of
  // window M+1, so contiguity, stride progression, and the gcd skew
  // bounds are audited over the wider window unchanged.
  const PlacementTable table = MaterializePlacement(
      layout, num_subobjects, /*include_parity=*/layout.has_parity());
  STAGGER_RETURN_NOT_OK(
      AuditPlacement(table, layout.num_disks(), layout.stride()));
  STAGGER_RETURN_NOT_OK(AuditSkew(table, layout.num_disks(), layout.stride()));
  if (layout.has_parity()) {
    STAGGER_RETURN_NOT_OK(AuditParityPlacement(layout, num_subobjects));
  }

  // Cross-check the closed-form skew analysis against the materialized
  // placement.
  std::vector<int64_t> counts(static_cast<size_t>(layout.num_disks()), 0);
  std::set<int32_t> touched;
  for (const auto& row : table) {
    for (int32_t disk : row) {
      ++counts[static_cast<size_t>(disk)];
      touched.insert(disk);
    }
  }
  const std::vector<int64_t> closed_form =
      layout.FragmentsPerDisk(num_subobjects);
  STAGGER_AUDIT_VERIFY(closed_form == counts)
      << "; FragmentsPerDisk disagrees with the materialized placement";
  STAGGER_AUDIT_VERIFY(layout.UniqueDisksUsed(num_subobjects) ==
                       static_cast<int32_t>(touched.size()))
      << "; UniqueDisksUsed=" << layout.UniqueDisksUsed(num_subobjects)
      << " but the placement touches " << touched.size() << " disks";
  return Status::OK();
}

Status InvariantAuditor::AuditParityPlacement(const StaggeredLayout& layout,
                                              int64_t num_subobjects) {
  STAGGER_AUDIT_VERIFY(layout.has_parity())
      << "; layout carries no parity fragment";
  STAGGER_AUDIT_VERIFY(layout.degree() + 1 <= layout.num_disks())
      << "; parity needs M+1 <= D (M=" << layout.degree()
      << ", D=" << layout.num_disks() << ")";
  // The parity walk has the same period as the start-disk walk; checking
  // one full period covers every distinct stripe.
  const int64_t g = std::gcd(static_cast<int64_t>(layout.num_disks()),
                             static_cast<int64_t>(layout.stride()));
  const int64_t period = layout.num_disks() / g;
  const int64_t check = std::min<int64_t>(num_subobjects, period);
  for (int64_t i = 0; i < check; ++i) {
    const int32_t parity = layout.ParityDiskFor(i);
    const int32_t expected = static_cast<int32_t>(PositiveMod(
        static_cast<int64_t>(layout.start_disk()) + i * layout.stride() +
            layout.degree(),
        layout.num_disks()));
    STAGGER_AUDIT_VERIFY(parity == expected)
        << "; subobject " << i << " parity on disk " << parity
        << ", expected " << expected;
    for (int32_t j = 0; j < layout.degree(); ++j) {
      STAGGER_AUDIT_VERIFY(parity != layout.DiskFor(i, j))
          << "; subobject " << i << " parity disk " << parity
          << " co-resides with its own data fragment " << j;
    }
  }
  return Status::OK();
}

Status InvariantAuditor::AuditCatalog(const Catalog& catalog,
                                      Bandwidth disk_bandwidth,
                                      int32_t num_disks) {
  STAGGER_AUDIT_VERIFY(disk_bandwidth.bits_per_sec() > 0)
      << " (B_Disk=" << disk_bandwidth.bits_per_sec() << ")";
  STAGGER_AUDIT_VERIFY(num_disks >= 1) << " (D=" << num_disks << ")";
  for (ObjectId id = 0; id < catalog.size(); ++id) {
    const MediaObject& object = catalog.Get(id);
    STAGGER_AUDIT_VERIFY(object.id == id)
        << "; catalog slot " << id << " holds object id " << object.id;
    STAGGER_AUDIT_VERIFY(object.num_subobjects >= 1)
        << "; object " << id << " has no subobjects";
    STAGGER_AUDIT_VERIFY(object.display_bandwidth.bits_per_sec() > 0)
        << "; object " << id << " has non-positive display bandwidth";
    const int32_t degree = object.DegreeOfDeclustering(disk_bandwidth);
    STAGGER_AUDIT_VERIFY(degree >= 1 && degree <= num_disks)
        << "; object " << id << " needs M_X=" << degree
        << " disks, outside [1, " << num_disks << "]";
  }
  return Status::OK();
}

Status InvariantAuditor::AuditTrace(
    const ScheduleTracer& trace,
    const std::map<ObjectId, StaggeredLayout>& layouts,
    const TraceAuditOptions& opts) {
  // Bandwidth conservation: one fragment per disk per interval.  The
  // tracer counts any second Record onto an occupied cell.
  STAGGER_AUDIT_VERIFY(trace.num_collisions() == 0)
      << "; " << trace.num_collisions()
      << " intervals scheduled two fragments on one disk (B_Disk exceeded)";

  struct SubobjectReads {
    std::set<int32_t> fragments;
    int64_t first_interval = 0;
    int64_t last_interval = 0;
    int64_t duplicate_reads = 0;
  };
  std::map<std::pair<ObjectId, int64_t>, SubobjectReads> per_subobject;

  for (const auto& [interval, row] : trace.events()) {
    for (const auto& [disk, event] : row) {
      auto it = layouts.find(event.object);
      STAGGER_AUDIT_VERIFY(it != layouts.end())
          << "; interval " << interval << " reads unknown object "
          << event.object;
      const StaggeredLayout& layout = it->second;
      STAGGER_AUDIT_VERIFY(event.fragment >= 0 &&
                           event.fragment < layout.degree())
          << "; object " << event.object << " fragment index "
          << event.fragment << " outside [0, " << layout.degree() << ")";
      STAGGER_AUDIT_VERIFY(event.subobject >= 0)
          << "; object " << event.object << " has negative subobject "
          << event.subobject;
      const int32_t expected = layout.DiskFor(event.subobject, event.fragment);
      STAGGER_AUDIT_VERIFY(disk == expected)
          << "; interval " << interval << ": fragment " << event.object
          << "." << event.subobject << "." << event.fragment << " read from"
          << " disk " << disk << " but the layout places it on disk "
          << expected;

      auto& reads = per_subobject[{event.object, event.subobject}];
      if (reads.fragments.empty()) {
        reads.first_interval = interval;
        reads.last_interval = interval;
      } else {
        reads.first_interval = std::min(reads.first_interval, interval);
        reads.last_interval = std::max(reads.last_interval, interval);
      }
      if (!reads.fragments.insert(event.fragment).second) {
        ++reads.duplicate_reads;
      }
    }
  }

  for (const auto& [key, reads] : per_subobject) {
    const auto& [object, subobject] = key;
    STAGGER_AUDIT_VERIFY(reads.duplicate_reads == 0)
        << "; subobject " << object << "." << subobject << " had "
        << reads.duplicate_reads << " duplicate fragment reads";
    if (reads.last_interval != reads.first_interval) {
      STAGGER_AUDIT_VERIFY(opts.allow_time_fragmentation)
          << "; subobject " << object << "." << subobject
          << " split across intervals [" << reads.first_interval << ", "
          << reads.last_interval
          << "] without Algorithm-1 buffering in effect";
    }
    if (!trace.truncated()) {
      const int32_t degree = layouts.at(object).degree();
      STAGGER_AUDIT_VERIFY(static_cast<int32_t>(reads.fragments.size()) ==
                           degree)
          << "; subobject " << object << "." << subobject << " read only "
          << reads.fragments.size() << " of " << degree << " fragments";
    }
  }
  return Status::OK();
}

Status InvariantAuditor::AuditScheduler(const IntervalScheduler& s) {
  const int32_t d = s.frame_.num_disks();
  STAGGER_AUDIT_VERIFY(static_cast<int32_t>(s.vdisk_slot_.size()) == d)
      << "; occupancy vector has " << s.vdisk_slot_.size()
      << " entries for D=" << d;

  // Slot storage consistency: active_ maps each live stream id to its
  // slot, strictly sorted by id (the tick loop's processing order), and
  // every slot is either on the free list or holds a live stream.
  STAGGER_AUDIT_VERIFY(s.active_.size() + s.free_slots_.size() ==
                       s.slots_.size())
      << "; " << s.slots_.size() << " slots but " << s.active_.size()
      << " active + " << s.free_slots_.size() << " free";
  for (size_t i = 1; i < s.active_.size(); ++i) {
    STAGGER_AUDIT_VERIFY(s.active_[i - 1].id < s.active_[i].id)
        << "; active stream index not strictly sorted at position " << i;
  }
  for (const int32_t slot : s.free_slots_) {
    STAGGER_AUDIT_VERIFY(slot >= 0 &&
                         slot < static_cast<int32_t>(s.slots_.size()) &&
                         s.slots_[static_cast<size_t>(slot)].id == kNoStream)
        << "; free slot " << slot << " holds a live stream";
  }

  // unsteady_ lists exactly the active streams the tick visits every
  // interval, in the same order as active_.  A steady stream under
  // Algorithm 2 waits on its coalescing miss's window, or for its visit
  // in stale_, which lists only such streams, sorted by id.
  std::vector<StreamSlot> unsteady;
  std::vector<StreamSlot> stale;
  for (const auto& entry : s.active_) {
    const Stream& stream = s.slots_[static_cast<size_t>(entry.slot)];
    if (!stream.steady) {
      unsteady.push_back(entry);
    } else if (s.config_.coalesce && stream.fragmented &&
               !s.MissWatched(entry.slot)) {
      stale.push_back(entry);
    }
  }
  STAGGER_AUDIT_VERIFY(unsteady == s.unsteady_)
      << "; " << s.unsteady_.size() << " streams listed non-steady but "
      << unsteady.size() << " active streams are";
  STAGGER_AUDIT_VERIFY(stale == s.stale_)
      << "; " << s.stale_.size() << " streams listed with a stale miss but "
      << stale.size() << " steady streams under Algorithm 2 hold none";

  // Forward ownership: every active lane owns exactly the virtual disks
  // of its run, and the buffered-fragment count balances.  A
  // steady stream's cursors are read through its closed form; the tick
  // stores them only when it visits the stream.
  const int32_t rot = s.frame_.RotationAt(s.interval_index_);
  int64_t owned_vdisks = 0;
  int64_t reading_vdisks = 0;
  int64_t total_buffered = 0;
  for (const auto& [id, slot] : s.active_) {
    STAGGER_AUDIT_VERIFY(slot >= 0 &&
                         slot < static_cast<int32_t>(s.slots_.size()))
        << "; active stream " << id << " maps to bad slot " << slot;
    const Stream& stream = s.slots_[static_cast<size_t>(slot)];
    STAGGER_AUDIT_VERIFY(stream.id == id)
        << "; stream table slot " << slot << " holds stream " << stream.id
        << ", active index says " << id;
    const int64_t delivered = stream.DeliveredBy(s.interval_index_);
    STAGGER_AUDIT_VERIFY(delivered >= 0 && delivered <= stream.num_subobjects)
        << "; stream " << id << " delivered " << delivered << " of "
        << stream.num_subobjects;
    STAGGER_AUDIT_VERIFY(stream.delta_max >= 0)
        << "; stream " << id << " has negative delta_max "
        << stream.delta_max;

    const int64_t tau = stream.Tau(s.interval_index_);
    // Delivery clock exactness: after interval t the stream has
    // delivered exactly the subobjects due by Algorithm 1's output rule
    // (one per interval starting at tau == delta_max).
    const int64_t due = std::min(stream.num_subobjects,
                                 std::max<int64_t>(0, tau - stream.delta_max + 1));
    STAGGER_AUDIT_VERIFY(delivered == due)
        << "; stream " << id << " delivered " << delivered
        << " subobjects at tau " << tau << ", Algorithm 1 requires " << due;
    // A steady stream's stored cursors are one interval's closed form:
    // every lane's next read, and the delivery cursor, at the same tau.
    const int64_t stored_next =
        stream.lanes.empty() ? 0 : stream.lanes[0].next_read_tau;
    STAGGER_AUDIT_VERIFY(
        !stream.steady ||
        stream.delivered == std::clamp<int64_t>(stored_next - stream.delta_max,
                                                0, stream.num_subobjects))
        << "; steady stream " << id << " stores " << stream.delivered
        << " delivered beside lanes due at tau " << stored_next;

    bool any_lane_leads = false;
    // Fragments buffered by the cursors checked below.
    int64_t lane_buffered = 0;
    // Lanes partition the stripe: their widths sum to the degree, and
    // only a single-lane (contiguous) stream has a lane wider than one
    // fragment.
    int64_t width_sum = 0;
    int32_t fragment = 0;
    for (size_t j = 0; j < stream.lanes.size();
         fragment += stream.lanes[j].width, ++j) {
      FragmentLane lane = stream.lanes[j];
      if (stream.steady) {
        // A steady lane reads every interval at its fixed offset until
        // the stream's next event, so none has finished.
        STAGGER_AUDIT_VERIFY(!lane.released() &&
                             lane.next_read_tau == stored_next)
            << "; steady stream " << id << " lane " << j
            << (lane.released() ? " released" : " stored at another tau");
        const int64_t reads = stream.SteadyReads(lane, s.interval_index_);
        lane.next_read_tau = lane.offset() + reads;
        lane.reads_done = reads;
      }
      STAGGER_AUDIT_VERIFY(lane.width == 1 ||
                           (lane.width > 1 && stream.lanes.size() == 1))
          << "; stream " << id << " lane " << j << " has width "
          << lane.width << " among " << stream.lanes.size() << " lanes";
      width_sum += lane.width;
      STAGGER_AUDIT_VERIFY(lane.reads_done >= 0 &&
                           lane.reads_done <= stream.num_subobjects)
          << "; stream " << id << " lane " << j << " read "
          << lane.reads_done << " of " << stream.num_subobjects;
      // Buffer non-underflow: no delivered subobject can be missing a
      // fragment on any lane.
      STAGGER_AUDIT_VERIFY(lane.reads_done >= delivered)
          << "; stream " << id << " lane " << j << " underflow: delivered "
          << delivered << " subobjects but read only " << lane.reads_done;
      lane_buffered += (lane.reads_done - delivered) * lane.width;
      if (lane.released()) {
        STAGGER_AUDIT_VERIFY(lane.reads_done == stream.num_subobjects)
            << "; stream " << id << " lane " << j
            << " released before completing its reads";
        continue;
      }
      STAGGER_AUDIT_VERIFY(lane.vdisk >= 0 && lane.vdisk < d)
          << "; stream " << id << " lane " << j << " on nonexistent virtual"
          << " disk " << lane.vdisk;
      // A steady lane is in reading_ from its first read on; every
      // interval since, including this one, it read row reads_done - 1
      // from the disks under it — which the tick checks only for the
      // streams it visits, so the audit checks the rest here.
      const bool reading = stream.steady && lane.reads_done > 0;
      for (int32_t f = 0; f < lane.width; ++f) {
        const size_t v = static_cast<size_t>((lane.vdisk + f) % d);
        STAGGER_AUDIT_VERIFY(s.vdisk_slot_[v] == slot)
            << "; stream " << id << " lane " << j << " claims virtual disk "
            << v << " owned by slot " << s.vdisk_slot_[v] << ", not "
            << slot;
        STAGGER_AUDIT_VERIFY(s.reading_.Test(static_cast<int32_t>(v)) ==
                             reading)
            << "; stream " << id << " lane " << j << " virtual disk " << v
            << (reading ? " missing from" : " wrongly in")
            << " the steady reading set";
      }
      if (reading) {
        reading_vdisks += lane.width;
        const int32_t first = (lane.vdisk + rot) % d;
        STAGGER_AUDIT_VERIFY(
            first == s.RowStripe(stream, lane.reads_done - 1).Slot(fragment))
            << "; lane misalignment: steady stream " << id << " fragment "
            << fragment << " read disk " << first;
      }
      owned_vdisks += lane.width;
      // A lane's effective alignment delay never exceeds delta_max —
      // otherwise its reads arrive after the output clock needs them.
      const int64_t effective = lane.next_read_tau - lane.reads_done;
      STAGGER_AUDIT_VERIFY(effective >= 0 && effective <= stream.delta_max)
          << "; stream " << id << " lane " << j << " effective delay "
          << effective << " outside [0, " << stream.delta_max << "]";
      if (lane.reads_done < stream.num_subobjects &&
          effective < stream.delta_max) {
        any_lane_leads = true;
      }
    }
    STAGGER_AUDIT_VERIFY(width_sum == stream.degree)
        << "; stream " << id << "'s lanes cover " << width_sum
        << " fragments for degree " << stream.degree;
    // Coalescing bookkeeping: a lane reading ahead of the output clock
    // requires Algorithm-1 buffering to be flagged on the stream.
    STAGGER_AUDIT_VERIFY(!any_lane_leads || stream.fragmented)
        << "; stream " << id
        << " reads ahead on some lane but is not marked fragmented";
    // The count the stream reports, a closed form when it is steady,
    // is the one its cursors buffer.
    STAGGER_AUDIT_VERIFY(stream.TotalBufferedFragments() == lane_buffered)
        << "; stream " << id << " reports "
        << stream.TotalBufferedFragments() << " buffered fragments but its"
        << " lanes hold " << lane_buffered;
    total_buffered += lane_buffered;
  }

  // Backward ownership: every owned virtual disk belongs to a live
  // stream (counted above), so counts must match exactly — and both
  // views of the occupancy bitmap mirror the owner array bit for bit.
  // OrbitPos is a permutation, so the per-disk check covers every bit.
  const Bitmap& by_orbit = s.vdisk_occupied_.by_orbit();
  int64_t owned_disks = 0;
  for (size_t v = 0; v < s.vdisk_slot_.size(); ++v) {
    const int32_t owner = s.vdisk_slot_[v];
    const bool owned = owner != IntervalScheduler::kNoSlot;
    const int32_t vdisk = static_cast<int32_t>(v);
    STAGGER_AUDIT_VERIFY(s.vdisk_occupied_.Test(vdisk) == owned)
        << "; virtual disk " << v << " occupancy bit disagrees with owner "
        << "slot " << owner;
    STAGGER_AUDIT_VERIFY(by_orbit.Test(s.frame_.OrbitPos(vdisk)) == owned)
        << "; virtual disk " << v << " orbit-order bit "
        << s.frame_.OrbitPos(vdisk) << " disagrees with owner slot " << owner;
    if (!owned) continue;
    ++owned_disks;
    STAGGER_AUDIT_VERIFY(owner >= 0 &&
                         owner < static_cast<int32_t>(s.slots_.size()) &&
                         s.slots_[static_cast<size_t>(owner)].id != kNoStream)
        << "; virtual disk " << v << " owned by free slot " << owner;
  }
  STAGGER_AUDIT_VERIFY(owned_disks == owned_vdisks)
      << "; " << owned_disks << " virtual disks owned but lanes hold "
      << owned_vdisks << " (orphaned ownership)";
  // A steady stream is visited only on its calendar events (and, under
  // Algorithm 2, when its coalescing miss goes stale), so each one still
  // ahead of it must be queued in its current steady period: its first
  // read while that is in the future, and always its earliest lane's
  // last read, where the closed form ends.
  std::set<std::tuple<StreamId, int64_t, int64_t>> queued;
  for (const auto& e : s.calendar_) queued.emplace(e.id, e.epoch, e.tick);
  for (const auto& [id, slot] : s.active_) {
    const Stream& stream = s.slots_[static_cast<size_t>(slot)];
    if (!stream.steady) continue;
    const int64_t first = stream.admit_interval + stream.delta_max;
    int64_t first_offset = stream.delta_max;
    for (const FragmentLane& lane : stream.lanes) {
      first_offset = std::min(first_offset, lane.offset());
    }
    const int64_t last =
        stream.admit_interval + first_offset + stream.num_subobjects - 1;
    STAGGER_AUDIT_VERIFY(last > s.interval_index_ &&
                         queued.count({id, stream.epoch, last}) == 1)
        << "; steady stream " << id
        << " has no queued last read of its earliest lane at interval "
        << last;
    STAGGER_AUDIT_VERIFY(first <= s.interval_index_ ||
                         queued.count({id, stream.epoch, first}) == 1)
        << "; steady stream " << id
        << " has no queued first read at interval " << first;
  }
  // Every reading_ bit was matched to a reading steady lane above.
  STAGGER_AUDIT_VERIFY(s.reading_.CountSet() == reading_vdisks)
      << "; the steady reading set holds " << s.reading_.CountSet()
      << " virtual disks but steady lanes read " << reading_vdisks;
  // Fragmented admission's tentative picks live only within one attempt.
  const AdmissionQueue& admission = s.admission_;
  STAGGER_AUDIT_VERIFY(admission.scratch_taken_bits_.empty() &&
                       admission.scratch_taken_.CountSet() == 0)
      << "; orbit-order taken set holds "
      << admission.scratch_taken_.CountSet() << " bits ("
      << admission.scratch_taken_bits_.size() << " listed) between admissions";

  // The incremental buffered-fragments counter must equal a full
  // recomputation over the active streams.
  STAGGER_AUDIT_VERIFY(total_buffered == s.buffered_fragments_)
      << "; active streams buffer " << total_buffered
      << " fragments but the incremental counter records "
      << s.buffered_fragments_;

  // The output clock never stalls: a hiccup means some interval
  // delivered a subobject whose fragments were not all read in time.
  STAGGER_AUDIT_VERIFY(s.metrics_.hiccups == 0)
      << "; " << s.metrics_.hiccups << " display hiccups recorded";

  // --- degraded-state rules (fault subsystem, src/fault/) --------------
  // A failed or stalled disk carries zero load: no read this interval
  // may have been placed on it.  (The audit runs before the interval
  // close-out clears the busy flags.)
  for (DiskId disk = 0; disk < s.disks_->num_disks(); ++disk) {
    STAGGER_AUDIT_VERIFY(s.disks_->IsAvailable(disk) ||
                         !s.disks_->SlotBusy(disk))
        << "; disk " << disk << " is "
        << (s.disks_->disk(disk).health() == DiskHealth::kFailed ? "failed"
                                                                 : "stalled")
        << " yet carries load this interval";
    // The word scans and the advance loop's clean-run test read health
    // from the availability bitmap, so it must mirror every disk.
    STAGGER_AUDIT_VERIFY(s.disks_->unavailable_slots().Test(disk) ==
                         !s.disks_->IsAvailable(disk))
        << "; disk " << disk << " availability bit disagrees with its health";
  }
  // Likewise the latent map's per-disk index, which lets clean disks
  // skip the cell map.
  STAGGER_RETURN_NOT_OK(s.disks_->latent_errors().AuditIndex());

  // No double-scheduling: each live request handle is in exactly one of
  // the admission queue and the active stream table.  The paused
  // remainders lead the queue, each alone on the wheel for its retry;
  // every other entry waits with its key, or a free woke the key.
  std::set<RequestId> scheduled;
  size_t paused = 0;
  for (const AdmissionQueue::Entry& entry : admission.pool_) {
    if (entry.wait < 0) continue;
    const AdmissionQueue::Wait& w =
        admission.waits_[static_cast<size_t>(entry.wait)];
    STAGGER_AUDIT_VERIFY(scheduled.insert(entry.id).second)
        << "; request " << entry.id << " queued twice";
    const bool p = entry.paused();
    STAGGER_AUDIT_VERIFY(
        entry.req.num_subobjects >= 1 && p == (entry.order < 0) &&
        p == (w.key < 0) &&
        (w.wheel_at < 0 || (w.wheel_at > s.interval_index_ &&
                            w.wheel_at <= s.interval_index_ + 64)) &&
        (!p || (entry.backoff >= 1 && w.wheel_at == entry.retry_at_interval)))
        << "; request " << entry.id << " at queue position " << entry.order
        << " has an empty remainder, is out of place, or its wait or"
        << " backoff is stale";
    paused += p ? 1 : 0;
  }
  STAGGER_AUDIT_VERIFY(paused == admission.paused_ &&
                       scheduled.size() == admission.size_)
      << "; the queue counts " << admission.size_ << " requests, "
      << admission.paused_ << " paused, but holds " << scheduled.size()
      << ", " << paused << " paused";
  for (const auto& [id, slot] : s.active_) {
    STAGGER_AUDIT_VERIFY(scheduled.insert(id).second)
        << "; active stream " << id << " is also queued or paused";
  }
  return Status::OK();
}

Status InvariantAuditor::AuditLogicalScheduler(
    const LogicalDiskScheduler& s) {
  const int32_t d = s.config_.num_disks;
  const int32_t l = s.config_.logical_per_disk;
  STAGGER_AUDIT_VERIFY(static_cast<int32_t>(s.used_units_.size()) == d)
      << "; unit vector has " << s.used_units_.size() << " entries for D="
      << d;

  // Recompute per-virtual-disk occupancy from the active streams and
  // compare against the scheduler's incremental bookkeeping.
  std::vector<int64_t> expected(static_cast<size_t>(d), 0);
  // stagger-lint: allow(determinism-unordered-iter) -- audit-only verification; the loop accumulates order-independent per-disk sums
  for (const auto& [id, stream] : s.streams_) {
    STAGGER_AUDIT_VERIFY(stream.delivered >= 0 &&
                         stream.delivered <= stream.req.num_subobjects)
        << "; stream " << id << " delivered " << stream.delivered << " of "
        << stream.req.num_subobjects;
    const int32_t width = s.WidthOf(stream.req.units);
    for (int32_t lane = 0; lane < width; ++lane) {
      const int32_t v = static_cast<int32_t>(PositiveMod(
          static_cast<int64_t>(stream.first_vdisk) + lane, d));
      expected[static_cast<size_t>(v)] +=
          s.UnitsOnLane(stream.req.units, lane, stream.req.partial_lane_first);
    }
  }
  for (int32_t v = 0; v < d; ++v) {
    const int32_t used = s.used_units_[static_cast<size_t>(v)];
    STAGGER_AUDIT_VERIFY(used >= 0 && used <= l)
        << "; virtual disk " << v << " uses " << used
        << " logical units, outside [0, " << l << "]";
    STAGGER_AUDIT_VERIFY(used == expected[static_cast<size_t>(v)])
        << "; virtual disk " << v << " records " << used
        << " used units but active streams account for "
        << expected[static_cast<size_t>(v)];
  }
  return Status::OK();
}

}  // namespace stagger
