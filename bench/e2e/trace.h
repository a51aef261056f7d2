// Host-time spans recorded from outside the simulator: the benchmark's
// decorators and tick probes open and close spans around calls into
// each layer.  Per-layer aggregates (self time, per-tick self times)
// are unbounded; raw spans go to a bounded ring that is written out as
// Chrome trace-event JSON when the run ends.

#ifndef STAGGER_BENCH_E2E_TRACE_H_
#define STAGGER_BENCH_E2E_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"

namespace stagger::e2e {

/// Layer boundaries the benchmark can bracket without touching src/.
enum class Layer : uint8_t {
  kTick,      ///< scheduler tick: every priority-0 event at an interval instant
  kRequest,   ///< MediaService::RequestDisplay
  kCallback,  ///< workload callbacks (started / completed / interrupted)
  kEnqueue,   ///< MaterializationService::Enqueue
  kLanding,   ///< server code run by tertiary start / completion callbacks
};
inline constexpr int kNumLayers = 5;

/// Metric-name prefix of a layer, e.g. "core.tick".
const char* LayerName(Layer layer);

/// \brief Span recorder.  Spans nest strictly (single-threaded run).
class Tracer {
 public:
  explicit Tracer(size_t ring_capacity);

  void Begin(Layer layer);
  /// Closes the innermost span, which must be of `layer`.
  void End(Layer layer);
  bool idle() const { return stack_.empty(); }

  /// Span duration minus the part covered by nested spans, summed.
  double self_s(Layer layer) const {
    return static_cast<double>(self_ns_[Index(layer)]) * 1e-9;
  }
  /// Sum of top-level span durations: host time inside any span.
  double covered_s() const { return static_cast<double>(covered_ns_) * 1e-9; }
  /// Self time of each tick span, in microseconds.
  const QuantileTracker& tick_self_us() const { return tick_self_us_; }
  /// Smallest self time seen for any span (must be >= 0).
  int64_t min_self_ns() const { return min_self_ns_; }

  /// Writes the ring (oldest first) as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Span {
    int64_t start_ns;
    int64_t dur_ns;
    Layer layer;
  };
  static size_t Index(Layer layer) { return static_cast<size_t>(layer); }

  int64_t origin_ns_;
  std::vector<Frame> stack_;
  std::vector<Span> ring_;
  size_t ring_next_ = 0;
  bool ring_full_ = false;
  std::array<int64_t, kNumLayers> self_ns_{};
  int64_t covered_ns_ = 0;
  int64_t min_self_ns_ = 0;
  QuantileTracker tick_self_us_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer) : tracer_(tracer), layer_(layer) {
    if (tracer_ != nullptr) tracer_->Begin(layer_);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(layer_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_;
};

/// Host monotonic clock in nanoseconds.
int64_t NowNs();

}  // namespace stagger::e2e

#endif  // STAGGER_BENCH_E2E_TRACE_H_
