// The benchmark's four workloads.  Each is a list of experiment
// configurations ("cells") generated from the workload seed; see
// README.md for why each one exists and which layers it stresses.

#ifndef STAGGER_BENCH_E2E_WORKLOADS_H_
#define STAGGER_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/experiment.h"
#include "util/result.h"

namespace stagger::e2e {

/// The cells of workload `name`.  `shortened` replaces every horizon
/// with a short one (the --check and --smoke runs) and scales the
/// chaos plan's fault rates so it still draws as many faults.
Result<std::vector<ExperimentConfig>> MakeWorkload(const std::string& name,
                                                   uint64_t seed,
                                                   bool shortened);

}  // namespace stagger::e2e

#endif  // STAGGER_BENCH_E2E_WORKLOADS_H_
