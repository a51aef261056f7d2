// Active delivery streams.  A stream is one in-progress display (or one
// materialization pass): `degree` virtual disks each reading one
// fragment of every subobject, grouped into lanes of adjacent disks,
// outputs synchronized to the latest-aligned lane (Algorithm 1 of
// Section 3.2.1).

#ifndef STAGGER_CORE_STREAM_H_
#define STAGGER_CORE_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <memory>

#include "storage/media_object.h"
#include "util/check.h"
#include "util/units.h"

namespace stagger {

using StreamId = int64_t;
using RequestId = int64_t;
constexpr StreamId kNoStream = -1;

/// \brief Dynamic state of one lane of a stream: a run of `width`
/// adjacent fragments read from `width` adjacent virtual disks.
///
/// The paper's unit of reading is such a run.  A contiguous admission
/// reads a subobject's M fragments from M consecutive disks in one
/// interval, so it is one lane of width M.  Algorithm 1 splits a display
/// over non-adjacent disks, one fragment per disk: M lanes of width 1,
/// the only lanes Algorithm 2 migrates.
struct FragmentLane {
  /// Sentinel for vdisk: the lane finished all reads and gave its disks
  /// back.
  static constexpr int32_t kReleased = -1;

  /// Subobjects read so far on this lane (= index of the next read).
  int64_t reads_done = 0;
  /// Stream-local interval at which the next read occurs.  Reads then
  /// proceed every interval; a coalescing migration re-introduces a gap
  /// (the Algorithm 2 "quiet period").
  int64_t next_read_tau = 0;
  /// First virtual disk of the run, or kReleased.
  int32_t vdisk = kReleased;
  /// Fragments in the run; the lane owns virtual disks
  /// [vdisk, vdisk + width) (mod D).
  int32_t width = 1;

  /// True once the lane finished all reads and released its disks.
  bool released() const { return vdisk < 0; }
  /// The lane's effective alignment delay: the stream-local interval at
  /// which it read, or would have read, row 0 had it read every interval
  /// since.  Fixed while the lane reads every interval.
  int64_t offset() const { return next_read_tau - reads_done; }
};

/// \brief Lane storage with inline capacity for the common degrees.
///
/// Degrees in practice are tiny (Table 3: M = 5), so lanes live inline
/// in the Stream and admitting one allocates nothing; only unusually
/// wide fragmented streams (degree > kInlineLanes) spill to the heap.
class LaneArray {
 public:
  /// Inline capacity: covers every evaluation degree with slack.
  static constexpr int32_t kInlineLanes = 8;

  LaneArray() = default;
  LaneArray(LaneArray&&) = default;
  LaneArray& operator=(LaneArray&&) = default;
  LaneArray(const LaneArray&) = delete;
  LaneArray& operator=(const LaneArray&) = delete;

  /// Resizes to `n` default-initialized lanes (previous content lost).
  void Assign(int32_t n) {
    STAGGER_DCHECK(n >= 0);
    size_ = n;
    if (n > kInlineLanes) {
      heap_ = std::make_unique<FragmentLane[]>(static_cast<size_t>(n));
    } else {
      heap_.reset();
      for (int32_t i = 0; i < n; ++i) inline_[i] = FragmentLane{};
    }
  }

  void clear() {
    size_ = 0;
    heap_.reset();
  }

  size_t size() const { return static_cast<size_t>(size_); }
  bool empty() const { return size_ == 0; }

  FragmentLane* data() { return heap_ ? heap_.get() : inline_; }
  const FragmentLane* data() const { return heap_ ? heap_.get() : inline_; }

  FragmentLane& operator[](size_t i) {
    STAGGER_DCHECK(i < static_cast<size_t>(size_));
    return data()[i];
  }
  const FragmentLane& operator[](size_t i) const {
    STAGGER_DCHECK(i < static_cast<size_t>(size_));
    return data()[i];
  }

  FragmentLane* begin() { return data(); }
  FragmentLane* end() { return data() + size_; }
  const FragmentLane* begin() const { return data(); }
  const FragmentLane* end() const { return data() + size_; }

 private:
  FragmentLane inline_[kInlineLanes];
  /// Engaged only when size_ > kInlineLanes.
  std::unique_ptr<FragmentLane[]> heap_;
  int32_t size_ = 0;
};

/// \brief One active display.
struct Stream {
  int32_t degree = 0;          ///< M_X
  /// True while some unfinished lane reads ahead of the output clock
  /// (buffers in use): set by an Algorithm-1 admission over non-adjacent
  /// disks, cleared once Algorithm 2 has drained every lane.
  bool fragmented = false;
  /// True when every unreleased lane reads every interval until the
  /// stream's next calendar event, each at its fixed offset(), so the
  /// cursors are a closed form of tau (SteadyReads, SteadyProgress) and
  /// the stored ones are a snapshot, current only right after the tick
  /// visits the stream.  Set at admission for every stream whose lanes
  /// all align at delta_max (contiguous ones included), and after a
  /// visit in which all lanes read, output runs and, for a fragmented
  /// stream under Algorithm 2, the coalescing search missed.  Cleared
  /// when a lane migrates or finishes early, and when the stream pauses.
  bool steady = false;
  /// True when the object's layout carries a per-subobject parity
  /// fragment on the disk after the stripe; enables kReconstruct
  /// degraded reads for this stream.
  bool parity = false;
  /// True when this stream resumes a display that had already delivered
  /// subobjects before a degraded-mode pause; OnStarted and the
  /// startup-latency sample fired at the original start and must not
  /// repeat.
  bool resumed_mid_display = false;
  int64_t num_subobjects = 0;  ///< subobjects still to deliver (n)
  /// Layout row of the first read (0 unless resumed after a pause): a
  /// lane reads layout row first_row + reads_done.
  int64_t first_row = 0;
  int64_t admit_interval = 0;  ///< global interval index at admission
  /// Sequence number of the stream's current steady period, unique per
  /// period: drawn at admission and again each time the stream turns
  /// steady.  A resumed stream keeps its id but not this, so calendar
  /// events of an earlier admission, or of an earlier steady period, are
  /// recognized as stale.
  int64_t epoch = 0;
  /// Stream-local interval at which output (display) begins: the largest
  /// initial alignment delay among lanes (Algorithm 1's w_offset).
  int64_t delta_max = 0;
  /// Subobjects fully delivered to the display station.  Read through
  /// DeliveredBy() outside the tick's visit of this stream.
  int64_t delivered = 0;
  /// One lane of width M for a contiguous admission, M lanes of width 1
  /// for a fragmented one.
  LaneArray lanes;
  StreamId id = kNoStream;
  ObjectId object = kInvalidObject;
  int32_t start_disk = 0;      ///< physical disk of the first fragment read
  SimTime arrival_time;        ///< request arrival, for latency accounting

  /// Local time for global interval `t`.
  int64_t Tau(int64_t t) const { return t - admit_interval; }

  /// A steady stream's delivery cursor: subobjects delivered by the end
  /// of global interval `t`.
  int64_t SteadyProgress(int64_t t) const {
    STAGGER_DCHECK(steady);
    return std::clamp<int64_t>(Tau(t) - delta_max + 1, 0, num_subobjects);
  }

  /// A steady stream's lane cursor: rows `lane` has read by the end of
  /// global interval `t`.
  int64_t SteadyReads(const FragmentLane& lane, int64_t t) const {
    STAGGER_DCHECK(steady);
    return std::clamp<int64_t>(Tau(t) - lane.offset() + 1, 0, num_subobjects);
  }

  /// Subobjects delivered by the end of global interval `t`, the one
  /// way to read the delivery cursor between the tick's visits.
  int64_t DeliveredBy(int64_t t) const {
    return steady ? SteadyProgress(t) : delivered;
  }

  /// Fragments currently held in memory: per lane, reads completed
  /// minus subobjects already delivered, times the lane's width.  A
  /// steady lane leads the output clock by a fixed delta_max - offset(),
  /// so a steady stream holds a constant count.
  int64_t TotalBufferedFragments() const {
    int64_t total = 0;
    for (const FragmentLane& lane : lanes) {
      const int64_t lead =
          steady ? delta_max - lane.offset() : lane.reads_done - delivered;
      if (lead > 0) total += lead * lane.width;
    }
    return total;
  }
};

}  // namespace stagger

#endif  // STAGGER_CORE_STREAM_H_
