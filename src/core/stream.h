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
  /// True when admitted over non-adjacent disks (buffers in use).
  bool fragmented = false;
  /// True when the stream buffers nothing and cannot migrate — every
  /// contiguous admission, every Algorithm-1 admission whose lanes all
  /// align at delta_max, and every stream whose lanes Algorithm 2 has
  /// fully drained.  All its lanes then read every interval until the
  /// last row, so its cursors are a closed form of tau (SteadyProgress)
  /// and the stored ones are current only right after the tick visits
  /// it.  Cleared when such a stream pauses: it missed a read.
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
  /// Sequence number of the admission that filled this slot, unique per
  /// admission: a resumed stream keeps its id but not this, so calendar
  /// events of an earlier admission are recognized as stale.
  int64_t admission = 0;
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

  /// A steady stream's cursor: subobjects delivered — and read on every
  /// lane — by the end of global interval `t`.
  int64_t SteadyProgress(int64_t t) const {
    STAGGER_DCHECK(steady);
    return std::clamp<int64_t>(Tau(t) - delta_max + 1, 0, num_subobjects);
  }

  /// Subobjects delivered by the end of global interval `t`, the one
  /// way to read the delivery cursor between the tick's visits.
  int64_t DeliveredBy(int64_t t) const {
    return steady ? SteadyProgress(t) : delivered;
  }

  /// Fragments currently held in memory: per lane, reads completed
  /// minus subobjects already delivered, times the lane's width.  A
  /// steady stream reads and delivers in lockstep, so holds none.
  int64_t TotalBufferedFragments() const {
    if (steady) return 0;
    int64_t total = 0;
    for (const FragmentLane& lane : lanes) {
      const int64_t lead = lane.reads_done - delivered;
      if (lead > 0) total += lead * lane.width;
    }
    return total;
  }
};

}  // namespace stagger

#endif  // STAGGER_CORE_STREAM_H_
