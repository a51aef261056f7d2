// The paper's experiments (EXPERIMENTS.md E1-E15), each defined once.
// A function per experiment runs its full configuration and returns
// plain rows: the bench binaries print them, and
// tests/paper/paper_claims_test.cc checks the claims made about them.
//
// Experiments that simulate a workload take its seed; their runs go
// through RunMany on kThreads threads, and a result is bit-identical for
// any thread count.

#ifndef STAGGER_BENCH_PAPER_EXPERIMENTS_H_
#define STAGGER_BENCH_PAPER_EXPERIMENTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "server/experiment.h"

namespace stagger::paper {

/// The workload seed every bench prints (ExperimentConfig's default).
inline constexpr uint64_t kSeed = 20240101;
/// Worker threads of a seeded experiment's RunMany.
inline constexpr int32_t kThreads = 4;

/// Parses a paper bench's arguments: `--csv` when `csv` is non-null,
/// nothing else.  Prints a usage line to stderr and returns false on
/// any other argument.
bool ParseBenchArgs(int argc, char** argv, bool* csv);

// --- E1 (Figure 8) and E2 (Table 4) -----------------------------------

inline constexpr std::array<double, 3> kFig8Means = {10.0, 20.0, 43.5};
inline constexpr std::array<int32_t, 9> kFig8Stations = {
    1, 2, 4, 8, 16, 32, 64, 128, 256};

/// The Table 3 system under one popularity mean and station count.
ExperimentConfig Fig8Config(Scheme scheme, double mean, int32_t stations,
                            uint64_t seed);

/// One operating point of Figure 8: both schemes, same workload.
struct Fig8Cell {
  double mean = 0.0;
  int32_t stations = 0;
  ExperimentResult striping;
  ExperimentResult vdr;
  /// % throughput improvement of striping over VDR (Table 4's measure).
  double ImprovementPct() const;
};

/// Every cell, panel by panel: kFig8Means outer, kFig8Stations inner.
std::vector<Fig8Cell> Fig8(uint64_t seed);

inline constexpr std::array<int32_t, 4> kTable4Stations = {16, 64, 128, 256};
/// Table 4 of the paper: [kTable4Stations][kFig8Means], in %.
inline constexpr double kTable4Paper[4][3] = {{5.10, 2.15, 114.75},
                                              {11.06, 131.86, 508.79},
                                              {52.67, 350.73, 469.94},
                                              {126.10, 602.49, 413.10}};
/// Our Table 4, read off Figure 8's cells; same layout as kTable4Paper.
std::array<std::array<double, 3>, 4> Table4(
    const std::vector<Fig8Cell>& fig8);

// --- E4: Section 3.1 fragment-size analysis (Sabre 1.2 GB) ------------

struct FragmentSizeRow {
  int64_t cylinders = 0;
  double service_ms = 0.0;        ///< S(C_i)
  double wasted_fraction = 0.0;
  double effective_mbps = 0.0;
  double min_buffer_kb = 0.0;     ///< Equation 1
  double worst_delay_s = 0.0;     ///< (R - 1) S(C_i), 30 clusters
};
struct FragmentSize {
  double t_switch_ms = 0.0;
  double cylinder_read_ms = 0.0;
  std::vector<FragmentSizeRow> rows;  ///< 1..8 cylinders
};
FragmentSize FragmentSizeAnalysis();

// --- E5: Section 3.2.2 stride analysis ---------------------------------

struct CollisionRow {
  int32_t stride = 0;
  AdmissionPolicy policy = AdmissionPolicy::kContiguous;
  double y_wait_s = -1.0;  ///< -1: Y never started
  double x_display_s = 0.0;
};
struct SpreadRow {
  int32_t stride = 0;
  int32_t unique_disks = 0;
};
struct SkewRow {
  int32_t stride = 0;
  int64_t gcd = 0;
  int64_t min_fragments = 0;
  int64_t max_fragments = 0;
  bool skew_free = false;
};
struct Stride {
  /// D = 10, M = 4: X and Y share a start disk; k in {1, 4, 10}.
  std::vector<CollisionRow> collisions;
  /// D = 100, M = 4, 25 subobjects; k in {1, 2, 4, 100}.
  std::vector<SpreadRow> spread;
  /// D = 10, M = 4, 40 subobjects; k in 1..10.
  std::vector<SkewRow> skew;
};
Stride StrideAnalysis();

// --- E6: Section 3.2.1 / Figure 6 fragmentation and coalescing ---------

struct CoalescingRow {
  std::string policy;
  double x_startup_s = -1.0;
  int64_t peak_buffer = 0;
  double avg_buffer = 0.0;
  int64_t migrations = 0;
  int64_t hiccups = 0;
  int64_t completed = 0;
};
/// Contiguous-only, Algorithm 1, Algorithms 1+2, in that order.
std::vector<CoalescingRow> Coalescing();

// --- E7: Section 3.2.3 / Figure 7 low-bandwidth objects ----------------

struct AllocationRow {
  double display_mbps = 0.0;
  double whole_disk_waste = 0.0;  ///< fraction, one logical disk per disk
  int64_t l2_units = 0;
  int64_t l2_disks = 0;
  double l2_waste = 0.0;
  double l2_buffer_subobjects = 0.0;
  double l4_waste = 0.0;
};
struct LowBandwidth {
  std::vector<AllocationRow> allocations;  ///< 20 mbps disks
  /// Closed loop of 30 mbps displays on 12 disks, 10 stations, 2 h.
  double l1_displays_per_hour = 0.0;
  double l2_displays_per_hour = 0.0;
};
LowBandwidth LowBandwidthAnalysis();

// --- E8: Section 3.2.4 tertiary tape layout ----------------------------

struct TapeLayoutRow {
  double reposition_s = 0.0;
  double striped_s = 0.0;
  double sequential_s = 0.0;
  double sequential_efficiency = 0.0;
};
struct TapeLayout {
  double subobject_mb = 0.0;        ///< 3000 of them per object
  std::vector<TapeLayoutRow> rows;  ///< 80 mbps object, 40 mbps tertiary
  /// The Table 3 object (M = 5) under the default device.
  double table3_striped_s = 0.0;
  double table3_bits = 0.0;
};
TapeLayout TertiaryLayout();

// --- E10: mixed media types ------------------------------------------

struct MixedMediaRow {
  bool naive = false;  ///< max-degree (6-disk) clusters
  int32_t y_stations = 0;
  int32_t z_stations = 0;
  int64_t y_displays = 0;
  int64_t z_displays = 0;
  double useful_mbps_per_disk = 0.0;
  int64_t hiccups = 0;
};
/// Pairs (naive, staggered) for (Y, Z) stations (3, 8), (0, 12), (6, 0).
std::vector<MixedMediaRow> MixedMedia();

// --- E11: seek budget (Section 5 future work) ----------------------------

struct SeekRow {
  std::string placement;  ///< random, half, adjacent
  double measured_mbps = 0.0;
  double mean_service_ms = 0.0;
  double max_service_ms = 0.0;
};
struct SeekModel {
  int32_t reads = 0;          ///< one-cylinder Sabre reads per placement
  std::vector<SeekRow> rows;
  double worst_case_mbps = 0.0;
  double average_case_mbps = 0.0;
  double transfer_mbps = 0.0;
  double interval_ms = 0.0;  ///< S(C_i) at one cylinder
};
SeekModel SeekBudget();

// --- E12: design-choice ablations (1/10-scale Table 3) -----------------

struct PolicyAblation {
  ExperimentResult contiguous, algorithm1, algorithms12;
  ExperimentResult vdr_replication, vdr_no_replication;
  ExperimentResult cold, warm;
};
PolicyAblation Ablations(uint64_t seed);

// --- E13: degradation under disk faults (1/10-scale Table 3) -----------

struct FaultDegradation {
  ExperimentResult healthy, single_remap, storm_remap;
  ExperimentResult single_pause, storm_pause;
  ExperimentResult single_reconstruct, storm_reconstruct;
  ExperimentResult vdr_healthy, vdr_single, vdr_storm;
};
FaultDegradation Degradation(uint64_t seed);

// --- E14: stream batching under a flash crowd --------------------------

/// Admission windows in seconds; -1 is the unbatched control.
inline constexpr std::array<double, 5> kBatchWindows = {-1.0, 0.0, 30.0,
                                                        120.0, 300.0};
/// 600 logical requests/h, 80% of them on object 0, batched with
/// `window_s` (or unbatched when negative).
ExperimentConfig CrowdConfig(double window_s, uint64_t seed);
/// One result per kBatchWindows entry.
std::vector<ExperimentResult> Batching(uint64_t seed);

// --- E15: latent sector errors, scrub on vs. off -----------------------

enum class LatentVariant { kScrubOff, kScrubOn, kUnverified };
/// The 1/10-scale system at 16 stations with twenty corrupt cells.
ExperimentConfig LatentConfig(LatentVariant variant, uint64_t seed);
struct LatentScrub {
  ExperimentResult scrub_off, scrub_on, unverified;
};
LatentScrub Latent(uint64_t seed);

}  // namespace stagger::paper

#endif  // STAGGER_BENCH_PAPER_EXPERIMENTS_H_
