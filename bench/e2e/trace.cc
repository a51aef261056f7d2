#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "util/check.h"

namespace stagger::e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTick: return "core.tick";
    case Layer::kRequest: return "server.request";
    case Layer::kCallback: return "workload.callback";
    case Layer::kEnqueue: return "tertiary.enqueue";
    case Layer::kLanding: return "server.landing";
  }
  return "unknown";
}

Tracer::Tracer(size_t ring_capacity) : origin_ns_(NowNs()) {
  STAGGER_CHECK(ring_capacity > 0);
  ring_.resize(ring_capacity);
  stack_.reserve(16);
}

void Tracer::Begin(Layer layer) { stack_.push_back({layer, NowNs(), 0}); }

void Tracer::End(Layer layer) {
  const int64_t now = NowNs();
  STAGGER_CHECK(!stack_.empty() && stack_.back().layer == layer)
      << "unbalanced span " << LayerName(layer);
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t dur = now - frame.start_ns;
  const int64_t self = dur - frame.child_ns;
  self_ns_[Index(layer)] += self;
  min_self_ns_ = std::min(min_self_ns_, self);
  if (stack_.empty()) {
    covered_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (layer == Layer::kTick) {
    tick_self_us_.Add(static_cast<double>(self) * 1e-3);
  }
  ring_[ring_next_] = {frame.start_ns - origin_ns_, dur, layer};
  if (++ring_next_ == ring_.size()) {
    ring_next_ = 0;
    ring_full_ = true;
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  const size_t n = ring_full_ ? ring_.size() : ring_next_;
  const size_t first = ring_full_ ? ring_next_ : 0;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = ring_[(first + i) % ring_.size()];
    const std::string_view name = LayerName(s.layer);
    const std::string_view cat = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}",
                 i == 0 ? "" : ",\n", static_cast<int>(name.size()),
                 name.data(), static_cast<int>(cat.size()), cat.data(),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.dur_ns) * 1e-3);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace stagger::e2e
