// Every outcome of an interval-scheduler run that the tick's shortcuts
// must leave unchanged, as text: each SchedulerMetrics field, the
// array's interval count, busy utilization and latent-error counters.
// Doubles print in hexfloat, so equal text means equal bits.

#ifndef STAGGER_TESTS_CORE_SCHEDULER_OUTCOME_H_
#define STAGGER_TESTS_CORE_SCHEDULER_OUTCOME_H_

#include <sstream>
#include <string>

#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace stagger {

inline std::string SchedulerOutcome(const IntervalScheduler& s,
                                    const DiskArray& disks,
                                    const Simulator& sim) {
  const SchedulerMetrics& m = s.metrics();
  std::ostringstream os;
  os << std::hexfloat;
  os << "displays requested=" << m.displays_requested
     << " admitted=" << m.displays_admitted
     << " completed=" << m.displays_completed
     << " cancelled=" << m.displays_cancelled
     << " interrupted=" << m.displays_interrupted << "\n"
     << "fragmented=" << m.fragmented_admissions
     << " migrations=" << m.coalesce_migrations << " hiccups=" << m.hiccups
     << "\n"
     << "degraded=" << m.degraded_reads
     << " reconstructed=" << m.reconstructed_reads
     << " paused=" << m.streams_paused << " resumed=" << m.streams_resumed
     << " corrupt_detected=" << m.corrupt_reads_detected
     << " corrupt_delivered=" << m.corrupt_frames_delivered << "\n";
  const auto stats = [&os](const char* name, const StreamingStats& st) {
    os << name << " n=" << st.count() << " mean=" << st.mean()
       << " var=" << st.variance() << " min=" << st.min()
       << " max=" << st.max() << "\n";
  };
  stats("resume_latency", m.resume_latency_sec);
  stats("startup_latency", m.startup_latency_sec);
  const auto weighted = [&os, &sim](const char* name, const TimeWeighted& w) {
    os << name << " avg=" << w.Average(sim.Now()) << " now=" << w.current()
       << "\n";
  };
  weighted("queue_length", m.queue_length);
  weighted("buffered", m.buffered_fragments);
  os << "peak_buffered=" << m.peak_buffered_fragments << "\n"
     << "interval=" << s.current_interval()
     << " intervals=" << disks.intervals()
     << " utilization=" << disks.MeanUtilization()
     << " degraded_disk_intervals=" << disks.degraded_disk_intervals() << "\n";
  const LatentErrorMetrics& lm = disks.latent_errors().metrics();
  os << "latent injected=" << lm.injected << " detected=" << lm.detected
     << " repaired=" << lm.repaired
     << " by_rebuild=" << lm.repaired_by_rebuild << "\n";
  stats("time_to_repair", lm.time_to_repair_intervals);
  os << "events=" << sim.events_executed()
     << " batches=" << sim.batches_dispatched() << " now=" << sim.Now()
     << "\n";
  return os.str();
}

/// A run without the idle hook, which the scheduler sleeps through
/// quiet runs: its outcome and the ticks its ticker slept through.
struct BareRun {
  std::string outcome;
  uint64_t ticks_skipped = 0;
};

}  // namespace stagger

#endif  // STAGGER_TESTS_CORE_SCHEDULER_OUTCOME_H_
