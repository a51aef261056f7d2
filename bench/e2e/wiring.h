// The benchmark's own assembly of one experiment, built from the same
// public calls RunExperiment (server/experiment.cc) makes.  Owning the
// wiring lets the benchmark time set-up phases and, when a Tracer is
// given, bracket every layer from outside: decorators around the media
// service and the tertiary, and probe events around each scheduler
// tick.  With no tracer the wiring is exactly RunExperiment's.

#ifndef STAGGER_BENCH_E2E_WIRING_H_
#define STAGGER_BENCH_E2E_WIRING_H_

#include <map>
#include <string>
#include <vector>

#include "server/experiment.h"
#include "trace.h"
#include "util/result.h"
#include "util/stats.h"

namespace stagger::e2e {

/// Named quantities that a matrix workload combines over its cells:
/// sums, plus maxima for keys recorded with Max().
class Tally {
 public:
  void Add(const std::string& key, double value) { sums_[key] += value; }
  void Max(const std::string& key, double value);
  void Merge(const Tally& other);
  /// Sum (or maximum) recorded under `key`; 0 when absent.
  double operator[](const std::string& key) const;
  /// Keys whose values differ between the two tallies.
  std::vector<std::string> DifferingKeys(const Tally& other) const;

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, double> maxima_;
};

/// \brief Everything one experiment run reports to the benchmark.
struct CellRun {
  /// RunExperiment's result fields, filled the way it fills them.
  ExperimentResult result;
  /// Simulated outcomes: deterministic per seed, identical traced or not.
  Tally model;
  /// Simulated quantities only the tracing probes can see.
  Tally probe;
  /// Host seconds: set-up phases and the run.
  Tally host;
  /// In-window startup latencies (request to first subobject), seconds.
  QuantileTracker startup_sec;
  /// Violated run invariants (hiccups, corrupt frames, accounting).
  std::vector<std::string> errors;
};

/// Builds and runs one experiment.  `tracer` may be null (untraced).
Result<CellRun> RunCell(const ExperimentConfig& config, Tracer* tracer);

/// Names of the ExperimentResult model fields on which `a` and `b`
/// differ (bit-exact comparison).
std::vector<std::string> DiffResults(const ExperimentResult& a,
                                     const ExperimentResult& b);

}  // namespace stagger::e2e

#endif  // STAGGER_BENCH_E2E_WIRING_H_
