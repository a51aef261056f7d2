// Stream batching/merging (cf. Viennot et al., arXiv:0804.0743): N
// requests for the same object within an admission window share ONE
// physical stream, multiplying effective throughput past the D/M
// ceiling for hot objects (flash crowds).
//
// Two merge modes, both bounded by the same window W:
//   window join  — the first request for an object opens a "gathering"
//                  batch and a flush timer W later; same-object requests
//                  arriving before the physical stream *starts* join it
//                  and see the display from the beginning (start offset
//                  zero, admission latency <= W + scheduler admission).
//   piggyback    — a request arriving after the stream started but
//                  within W of the start attaches mid-stream: it starts
//                  instantly (admission latency zero) at a start offset
//                  of (arrival - stream start) <= W, i.e. it misses at
//                  most W of the opening.  Later than that, a fresh
//                  batch is opened instead.
//
// The start-offset bound: every batched station's start offset is
// <= the admission window.  Gathering joiners have offset zero by
// construction; piggyback joins are gated on (now - started_at) <= W.
//
// A window of zero is a strict pass-through: requests are forwarded
// synchronously with no timers, no batch objects, and no piggybacking,
// so a window-0 batcher is event-for-event identical to no batcher at
// all (pinned by tests/workload/batching_differential_test.cc).
//
// The batcher lives in workload/ and never sees the server: the owner
// injects a PhysicalIssueFn that submits one physical display and
// reports its lifecycle back, keeping the module DAG acyclic.

#ifndef STAGGER_WORKLOAD_BATCHER_H_
#define STAGGER_WORKLOAD_BATCHER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/simulator.h"
#include "storage/media_object.h"
#include "util/stats.h"
#include "util/units.h"
#include "workload/media_service.h"

namespace stagger {

/// \brief Stream-batching knobs.
struct BatcherConfig {
  /// Admission window W: how long the first request for an object is
  /// held to gather companions, and how far into a playing stream a
  /// piggyback join may attach.  Zero disables batching (pass-through).
  SimTime window = SimTime::Zero();
  /// Stations per physical stream; joins past the cap open a fresh
  /// batch.  0 = unlimited.
  int32_t max_fanout = 0;
};

/// \brief Batching counters and distributions.
struct BatcherMetrics {
  int64_t requests = 0;          ///< logical requests routed through
  int64_t physical_streams = 0;  ///< streams actually issued downstream
  int64_t window_joins = 0;      ///< joins before the stream started
  int64_t piggyback_joins = 0;   ///< mid-stream attaches within the window
  int64_t completed = 0;         ///< logical completions fanned out
  int64_t interrupted = 0;       ///< logical interruptions fanned out
  /// Stations per torn-down physical stream.
  StreamingStats fanout;
  /// Piggyback start offsets (seconds missed); max is the documented
  /// <= window bound.
  StreamingStats start_offset_sec;
  /// Per logical request: arrival -> display start (exact percentiles).
  QuantileTracker admission_latency_sec;
};

/// \brief Holds same-object requests in an admission window and fans
/// one physical stream out to all of them.
class StreamBatcher {
 public:
  /// Submits one physical display downstream; the callbacks report the
  /// stream's start (with its own admission latency), completion, and
  /// interruption, exactly like MediaService::RequestDisplay.
  using PhysicalIssueFn = std::function<void(
      ObjectId, MediaService::StartedFn, MediaService::CompletedFn,
      MediaService::InterruptedFn)>;

  /// \param sim    kernel; outlives the batcher.
  /// \param config window/fanout knobs (window zero = pass-through).
  /// \param issue  downstream submission hook.
  StreamBatcher(Simulator* sim, const BatcherConfig& config,
                PhysicalIssueFn issue);
  ~StreamBatcher();

  StreamBatcher(const StreamBatcher&) = delete;
  StreamBatcher& operator=(const StreamBatcher&) = delete;

  /// Routes one logical display request.  Exactly one of on_completed /
  /// on_interrupted eventually fires (when its physical stream ends),
  /// and on_started fires with the request's own admission latency.
  void Request(ObjectId object, MediaService::StartedFn on_started,
               MediaService::CompletedFn on_completed,
               MediaService::InterruptedFn on_interrupted);

  const BatcherMetrics& metrics() const { return metrics_; }
  /// Batches not yet torn down (gathering, issued, or playing) — zero
  /// once every physical stream has completed or been interrupted.
  int64_t open_batches() const { return static_cast<int64_t>(batches_.size()); }

 private:
  struct Member {
    MediaService::StartedFn on_started;
    MediaService::CompletedFn on_completed;
    MediaService::InterruptedFn on_interrupted;
    SimTime arrival;
  };

  struct Batch {
    ObjectId object = kInvalidObject;
    bool issued = false;   ///< physical stream submitted downstream
    bool started = false;  ///< physical stream's first interval delivered
    SimTime started_at;    ///< valid once started
    std::vector<Member> members;
    EventHandle flush;     ///< pending flush timer (until issued)
  };

  /// Picks the open batch a new request for `object` may join, or
  /// nullptr when it must open a fresh one.
  Batch* JoinableBatch(ObjectId object, SimTime now);
  void Flush(int64_t batch_id);
  void OnStarted(int64_t batch_id, SimTime physical_latency);
  void OnCompleted(int64_t batch_id);
  void OnInterrupted(int64_t batch_id);
  void Teardown(int64_t batch_id, bool completed);

  Simulator* sim_;
  BatcherConfig config_;
  PhysicalIssueFn issue_;
  // Ordered containers keep iteration deterministic (stagger_lint).
  std::map<int64_t, Batch> batches_;
  std::map<ObjectId, std::vector<int64_t>> by_object_;
  int64_t next_batch_id_ = 0;
  BatcherMetrics metrics_;
};

}  // namespace stagger

#endif  // STAGGER_WORKLOAD_BATCHER_H_
