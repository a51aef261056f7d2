// Per-request lifecycle closures for tests.  A scheduler reports
// display events by request id to one DisplayListener; tests that want a
// closure per request submit through CallbackListener, which keeps the
// closures under the id the scheduler returns.  It also counts every
// event it hears (ids without closures included) and checks the
// listener contract of core/display_listener.h as the events arrive.

#ifndef STAGGER_TESTS_CORE_DISPLAY_CALLBACKS_H_
#define STAGGER_TESTS_CORE_DISPLAY_CALLBACKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/display_listener.h"
#include "util/result.h"
#include "util/status.h"
#include "util/units.h"

namespace stagger {

class CallbackListener : public DisplayListener {
 public:
  struct Callbacks {
    std::function<void(SimTime)> on_started = nullptr;
    std::function<void()> on_completed = nullptr;
    std::function<void()> on_interrupted = nullptr;
  };

  /// Submits `req` to `sched` (an IntervalScheduler or a
  /// LogicalDiskScheduler created with this listener) and keeps `cb`
  /// under the id it returns.
  template <typename Scheduler, typename Request>
  Result<RequestId> Submit(Scheduler* sched, Request req, Callbacks cb = {}) {
    Result<RequestId> id = sched->Submit(std::move(req));
    if (id.ok()) requests_[*id].cb = std::move(cb);
    return id;
  }

  /// Seeks display `id` on `sched`.  Its closures, and whether it has
  /// started, follow it to the new handle; the old handle must hear
  /// nothing more.
  template <typename Scheduler>
  Result<RequestId> Seek(Scheduler* sched, RequestId id, int64_t target_row,
                         int64_t num_subobjects) {
    calling_ = id;
    Result<RequestId> moved = sched->Seek(id, target_row, num_subobjects);
    calling_ = kNoStream;
    if (moved.ok()) {
      Request& old = requests_[id];
      old.closed = true;
      Request& now = requests_[*moved];
      now.cb = std::move(old.cb);
      now.started = old.started;
    }
    return moved;
  }

  /// Cancels request `id` on `sched`; it must hear nothing more.
  template <typename Scheduler>
  Status Cancel(Scheduler* sched, RequestId id) {
    calling_ = id;
    Status st = sched->Cancel(id);
    calling_ = kNoStream;
    if (st.ok()) requests_[id].closed = true;
    return st;
  }

  void OnStarted(RequestId id, SimTime latency) override {
    ++started_;
    Request& r = Heard(id, "OnStarted");
    if (r.started) Breach(id, "OnStarted repeated");
    r.started = true;
    if (r.cb.on_started) r.cb.on_started(latency);
  }
  void OnCompleted(RequestId id) override {
    ++completed_;
    End(id, "OnCompleted");
    // Requests_ nodes stay put while the closure submits more requests.
    if (auto& done = requests_[id].cb.on_completed) done();
  }
  void OnInterrupted(RequestId id) override {
    ++interrupted_;
    End(id, "OnInterrupted");
    if (auto& gave_up = requests_[id].cb.on_interrupted) gave_up();
  }

  int64_t started() const { return started_; }
  int64_t completed() const { return completed_; }
  int64_t interrupted() const { return interrupted_; }
  /// Requests heard of that have not ended, been cancelled or been
  /// sought away: the displays still in flight.
  int64_t open() const {
    int64_t n = 0;
    for (const auto& [id, r] : requests_) n += r.ended || r.closed ? 0 : 1;
    return n;
  }
  /// The first breach of the listener contract heard, or "".
  const std::string& breach() const { return breach_; }

 private:
  struct Request {
    Callbacks cb;
    bool started = false;
    bool ended = false;
    /// Cancelled, or replaced by a Seek.
    bool closed = false;
  };

  Request& Heard(RequestId id, const char* event) {
    Request& r = requests_[id];
    if (r.ended) Breach(id, std::string(event) + " after the request ended");
    if (r.closed || id == calling_) {
      Breach(id, std::string(event) + " from or after a Cancel or Seek");
    }
    return r;
  }
  void End(RequestId id, const char* event) { Heard(id, event).ended = true; }
  void Breach(RequestId id, const std::string& what) {
    if (breach_.empty()) {
      breach_ = "request " + std::to_string(id) + ": " + what;
    }
  }

  std::unordered_map<RequestId, Request> requests_;
  /// The request a Cancel or Seek is under way for.
  RequestId calling_ = kNoStream;
  int64_t started_ = 0;
  int64_t completed_ = 0;
  int64_t interrupted_ = 0;
  std::string breach_;
};

}  // namespace stagger

#endif  // STAGGER_TESTS_CORE_DISPLAY_CALLBACKS_H_
