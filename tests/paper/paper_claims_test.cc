// The paper's claims (EXPERIMENTS.md E1-E15) as one table.  Each row
// names the experiment, the statement, the paper's value, our value, and
// the rule it is held to: a tolerance, a named Deviation of
// EXPERIMENTS.md, or — for a comparison between configurations — "on
// every seed" or a named statistic over the seeds.  Every experiment
// runs its full configuration, defined once in bench/paper/, the same
// one its bench binary prints.
//
// Experiments without a workload seed (E4-E8, E10, E11) run once.
// Seeded ones run on five seeds through RunMany, whose results are
// bit-identical for any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "paper/experiments.h"
#include "util/stats.h"
#include "util/table.h"

namespace stagger::paper {
namespace {

const std::vector<uint64_t> kSeeds = {kSeed, kSeed + 1, kSeed + 2, kSeed + 3,
                                      kSeed + 4};

std::string Str(double v) { return Table::Format(v); }
std::string Str(int64_t v) { return Table::Format(v); }
std::string Str(int32_t v) { return Table::Format(static_cast<int64_t>(v)); }
std::string Sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// D / M / display time of the Table 3 system (core/analysis.h).
double Table3Ceiling() {
  const ExperimentConfig table3;
  SystemModel model;
  model.num_disks = table3.num_disks;
  model.disk = table3.disk;
  model.fragment_cylinders = table3.fragment_cylinders;
  model.display_bandwidth = table3.display_bandwidth;
  model.subobjects_per_object = table3.subobjects_per_object;
  model.transfer_rate_is_effective = true;  // Table 3's 20 mbps is net
  return model.MaxDisplaysPerHour();
}

/// One observation of a claim: what we measured and whether it holds.
struct Obs {
  std::string text;
  bool holds = false;
};

template <typename T>
Obs Cmp(T a, const char* op, T b) {
  const std::string o = op;
  const bool holds = o == "<"    ? a < b
                     : o == "<=" ? a <= b
                     : o == "==" ? a == b
                     : o == ">=" ? a >= b
                                 : o == ">" && a > b;
  return Obs{Str(a) + " " + o + " " + Str(b), holds};
}

/// Rows of one experiment's claims; prints them all, then fails the test
/// with one readable message per row that does not hold.
class Claims {
 public:
  explicit Claims(std::string experiment) : experiment_(std::move(experiment)) {}
  ~Claims() {
    for (const Row& r : rows_) {
      std::printf("[%s] %s | %s | paper: %s | ours: %s | rule: %s\n",
                  r.holds ? "OK  " : "FAIL", experiment_.c_str(),
                  r.statement.c_str(), r.paper.c_str(), r.ours.c_str(),
                  r.rule.c_str());
      EXPECT_TRUE(r.holds) << experiment_ << ": " << r.statement
                           << "\n  paper: " << r.paper << "\n  ours:  "
                           << r.ours << "\n  rule:  " << r.rule;
    }
  }

  void Add(std::string statement, std::string paper, const Obs& ours,
           std::string rule) {
    rows_.push_back(Row{std::move(statement), std::move(paper), ours.text,
                        std::move(rule), ours.holds});
  }

  /// ours == paper.
  void Exact(std::string statement, int64_t paper, int64_t ours) {
    Add(std::move(statement), Str(paper), Obs{Str(ours), ours == paper},
        "exact");
  }

  /// |ours - paper| < tolerance.
  void Near(std::string statement, double paper, double ours,
            double tolerance) {
    Add(std::move(statement), Str(paper),
        Obs{Str(ours), std::abs(ours - paper) < tolerance},
        "|ours - paper| < " + Sci(tolerance));
  }

  /// `observe` holds on the run of every seed.
  template <typename Run, typename F>
  void EverySeed(std::string statement, std::string paper,
                 const std::vector<Run>& runs, F observe,
                 const std::string& note = "") {
    OnSeeds(std::move(statement), std::move(paper), runs, observe,
            runs.size(), "on every seed" + Note(note));
  }

  /// `observe` holds on the runs of at least `needed` seeds; `deviation`
  /// names the EXPERIMENTS.md Deviation that records the others.
  template <typename Run, typename F>
  void MostSeeds(std::string statement, std::string paper,
                 const std::vector<Run>& runs, F observe, size_t needed,
                 const std::string& deviation) {
    OnSeeds(std::move(statement), std::move(paper), runs, observe, needed,
            "on >= " + std::to_string(needed) + " of " +
                std::to_string(runs.size()) + " seeds" + Note(deviation));
  }

 private:
  static std::string Note(const std::string& note) {
    return note.empty() ? "" : " (" + note + ")";
  }

  template <typename Run, typename F>
  void OnSeeds(std::string statement, std::string paper,
               const std::vector<Run>& runs, F observe, size_t needed,
               std::string rule) {
    std::string text;
    size_t holding = 0;
    for (const Run& run : runs) {
      const Obs o = observe(run);
      if (!text.empty()) text += "; ";
      text += o.text;
      if (o.holds) ++holding;
    }
    Add(std::move(statement), std::move(paper), Obs{text, holding >= needed},
        std::move(rule));
  }

  struct Row {
    std::string statement, paper, ours, rule;
    bool holds;
  };
  std::string experiment_;
  std::vector<Row> rows_;
};

template <typename Run>
std::vector<Run> RunSeeds(const std::function<Run(uint64_t)>& run) {
  std::vector<Run> runs;
  for (uint64_t seed : kSeeds) runs.push_back(run(seed));
  return runs;
}

const Fig8Cell& CellAt(const std::vector<Fig8Cell>& cells, double mean,
                       int32_t stations) {
  for (const Fig8Cell& c : cells) {
    if (c.mean == mean && c.stations == stations) return c;
  }
  ADD_FAILURE() << "no Figure 8 cell at mean " << mean << ", " << stations;
  return cells.front();
}

// --- E1 / E2 --------------------------------------------------------------

using Fig8Runs = std::vector<std::vector<Fig8Cell>>;

void CheckFigure8(const Fig8Runs& runs) {
  const double ceiling = Table3Ceiling();
  Claims e1("E1");
  e1.EverySeed("striping delivers every display hiccup-free (all 27 cells)",
               "0 hiccups", runs, [](const std::vector<Fig8Cell>& cells) {
                 int64_t hiccups = 0;
                 for (const Fig8Cell& c : cells) hiccups += c.striping.hiccups;
                 return Cmp(hiccups, "==", int64_t{0});
               });
  for (double mean : kFig8Means) {
    for (int32_t n : {32, 64, 128, 256}) {
      e1.EverySeed("striping >= VDR under load, mean " + Str(mean) + ", " +
                       Str(n) + " stations",
                   "striping ahead", runs, [&](const auto& cells) {
                     const Fig8Cell& c = CellAt(cells, mean, n);
                     return Cmp(c.striping.displays_per_hour, ">=",
                                c.vdr.displays_per_hour);
                   });
    }
    e1.EverySeed("both schemes complete the same displays at 1 station, "
                 "mean " + Str(mean),
                 "identical", runs, [&](const auto& cells) {
                   const Fig8Cell& c = CellAt(cells, mean, 1);
                   return Cmp(c.striping.displays_completed, "==",
                              c.vdr.displays_completed);
                 });
    const auto two_stations = [&](const auto& cells) {
      const Fig8Cell& c = CellAt(cells, mean, 2);
      const int64_t lead =
          c.striping.displays_completed - c.vdr.displays_completed;
      return Obs{Str(c.striping.displays_completed) + " vs " +
                     Str(c.vdr.displays_completed),
                 mean == 10.0 ? lead >= 0 && lead <= 2 : std::abs(lead) <= 1};
    };
    if (mean == 10.0) {
      e1.EverySeed("VDR trails striping by at most 2 displays at 2 stations, "
                   "mean 10",
                   "identical", runs, two_stations,
                   "Deviation 5: striping - VDR in [0, 2] displays");
    } else {
      e1.EverySeed("both schemes statistically identical at 2 stations, mean " +
                       Str(mean),
                   "identical", runs, two_stations,
                   "within one display per 10 h window");
    }
  }
  for (double mean : {10.0, 20.0}) {
    e1.EverySeed("under skew the striping - VDR margin grows with stations, "
                 "mean " + Str(mean),
                 "grows with load", runs, [&](const auto& cells) {
                   Obs o{"", true};
                   double prev = -1e300;
                   for (int32_t n : kFig8Stations) {
                     const Fig8Cell& c = CellAt(cells, mean, n);
                     const double margin = c.striping.displays_per_hour -
                                           c.vdr.displays_per_hour;
                     if (!o.text.empty()) o.text += ",";
                     o.text += Str(margin);
                     o.holds = o.holds && margin >= prev;
                     prev = margin;
                   }
                   return o;
                 },
                 "margin non-decreasing in stations");
  }
  const auto lower_under_uniform = [](int32_t n, bool vdr) {
    return [n, vdr](const std::vector<Fig8Cell>& cells) {
      const Fig8Cell& uniform = CellAt(cells, 43.5, n);
      const Fig8Cell& skewed = CellAt(cells, 10.0, n);
      return Cmp((vdr ? uniform.vdr : uniform.striping).displays_per_hour, "<",
                 (vdr ? skewed.vdr : skewed.striping).displays_per_hour);
    };
  };
  for (int32_t n : {64, 128, 256}) {
    e1.EverySeed("near-uniform access lowers VDR throughput, " + Str(n) +
                     " stations (mean 43.5 vs 10)",
                 "decreases", runs, lower_under_uniform(n, true));
    if (n == 256) continue;
    e1.EverySeed("near-uniform access lowers striping throughput, " + Str(n) +
                     " stations (mean 43.5 vs 10)",
                 "decreases", runs, lower_under_uniform(n, false));
  }
  e1.EverySeed("near-uniform access never raises striping throughput, 256 "
               "stations (mean 43.5 vs 10)",
               "decreases", runs, [](const std::vector<Fig8Cell>& cells) {
                 return Cmp(CellAt(cells, 43.5, 256).striping.displays_per_hour,
                            "<=",
                            CellAt(cells, 10.0, 256).striping.displays_per_hour);
               });
  e1.MostSeeds("near-uniform access lowers striping throughput, 256 stations "
               "(mean 43.5 vs 10)",
               "decreases", runs, lower_under_uniform(256, false), 3,
               "Deviation 6: equal on 20240102 and 20240104");
  e1.MostSeeds("the tertiary is the bottleneck under near-uniform access "
               "(striping, mean 43.5, 256 stations)",
               "utilization 1.0", runs,
               [](const std::vector<Fig8Cell>& cells) {
                 return Cmp(
                     CellAt(cells, 43.5, 256).striping.tertiary_utilization,
                     ">=", 0.99);
               },
               4, "Deviation 6: 0.96 on 20240104");
  for (double mean : kFig8Means) {
    e1.EverySeed("striping approaches the D/M ceiling at 256 stations, mean " +
                     Str(mean),
                 "ceiling " + Str(ceiling) + "/h", runs, [&](const auto& cells) {
                   const double dph = CellAt(cells, mean, 256).striping
                                          .displays_per_hour;
                   return Obs{Str(dph), dph <= ceiling && dph >= 0.85 * ceiling};
                 },
                 "0.85 x ceiling <= ours <= ceiling");
  }
}

void CheckTable4(const Fig8Runs& runs) {
  Claims e2("E2");
  for (size_t s = 1; s < kTable4Stations.size(); ++s) {
    for (size_t g = 0; g < kFig8Means.size(); ++g) {
      e2.EverySeed("striping beats VDR at " + Str(kTable4Stations[s]) +
                       " stations, mean " + Str(kFig8Means[g]),
                   Str(kTable4Paper[s][g]) + " %", runs,
                   [&](const auto& cells) {
                     return Cmp(Table4(cells)[s][g], ">", 0.0);
                   },
                   "magnitude: Deviation 1");
    }
  }
  // Deviation 3 as a statistic: the improvement at 16 stations under
  // near-uniform access, with its 95% confidence interval over the five
  // seeds (Student's t, 4 degrees of freedom: 2.776).
  StreamingStats low_load;
  for (const auto& cells : runs) low_load.Add(Table4(cells)[0][2]);
  EXPECT_EQ(runs.size(), 5u) << "2.776 is t for 4 degrees of freedom";
  const double half_width =
      2.776 * low_load.stddev() / std::sqrt(static_cast<double>(runs.size()));
  e2.Add("no measurable difference at 16 stations, mean 43.5 (seed mean, 95% "
         "CI, %)",
         Str(kTable4Paper[0][2]) + " %",
         Obs{Str(low_load.mean()) + " [" + Str(low_load.mean() - half_width) +
                 ", " + Str(low_load.mean() + half_width) + "], " +
                 std::to_string(kSeed) + ": " +
                 Str(Table4(runs[0])[0][2]),
             std::abs(low_load.mean()) <= half_width &&
                 kTable4Paper[0][2] > low_load.mean() + half_width},
         "CI holds 0, excludes the paper (Deviation 3)");
  for (size_t g : {0, 1}) {
    e2.EverySeed("improvement grows from 16 to 256 stations, mean " +
                     Str(kFig8Means[g]),
                 Str(kTable4Paper[0][g]) + " -> " + Str(kTable4Paper[3][g]) +
                     " %",
                 runs, [&](const auto& cells) {
                   const auto t = Table4(cells);
                   return Cmp(t[3][g], ">", t[0][g]);
                 });
  }
}

// Table 4 is read off Figure 8's cells, so one sweep feeds both.
TEST(PaperClaims, E1Figure8AndE2Table4) {
  const Fig8Runs runs = RunSeeds<std::vector<Fig8Cell>>(Fig8);
  CheckFigure8(runs);
  CheckTable4(runs);
}

// --- E4-E8, E10, E11: no workload seed, one run each -------------------------

TEST(PaperClaims, E4FragmentSize) {
  const FragmentSize e = FragmentSizeAnalysis();
  Claims c("E4");
  c.Near("one Sabre cylinder reads in ~250 ms", 250.0, e.cylinder_read_ms, 1.0);
  c.Near("S(C_i) at 1 cylinder (ms)", 301.83, e.rows[0].service_ms, 1.0);
  c.Near("S(C_i) at 2 cylinders (ms)", 555.83, e.rows[1].service_ms, 1.0);
  c.Near("% bandwidth wasted at 1 cylinder", 17.2,
         100.0 * e.rows[0].wasted_fraction, 0.5);
  c.Near("% bandwidth wasted at 2 cylinders", 10.0,
         100.0 * e.rows[1].wasted_fraction, 0.5);
  c.Near("worst-case initiation delay, 30 clusters, 1 cylinder (s)", 9.0,
         e.rows[0].worst_delay_s, 0.5);
  c.Near("worst-case initiation delay, 30 clusters, 2 cylinders (s)", 16.0,
         e.rows[1].worst_delay_s, 0.5);
}

TEST(PaperClaims, E5Stride) {
  const Stride e = StrideAnalysis();
  Claims c("E5");
  for (const CollisionRow& r : e.collisions) {
    if (r.policy != AdmissionPolicy::kContiguous) continue;
    if (r.stride == 1) {
      c.Add("k = 1: Y starts within a few intervals (s)", "a few intervals",
            Obs{Str(r.y_wait_s), r.y_wait_s >= 0 && r.y_wait_s < 5.0},
            "0 <= ours < 5 s");
    }
    if (r.stride == 10) {
      c.Add("k = D: Y waits for X's entire display (s)",
            "X's display, " + Str(r.x_display_s),
            Obs{Str(r.y_wait_s), r.y_wait_s >= r.x_display_s * 0.95},
            "ours >= 0.95 x paper");
    }
  }
  for (const SpreadRow& r : e.spread) {
    if (r.stride == 1) {
      c.Exact("k = 1 spreads a 100-cylinder object over 28 disks", 28,
              r.unique_disks);
    }
    if (r.stride == 4) {
      c.Exact("k = M spreads it over all 100 disks", 100, r.unique_disks);
    }
  }
  for (const SkewRow& r : e.skew) {
    if (r.gcd != 1) continue;
    c.Add("gcd(D, k) = 1 guarantees no skew, k = " + Str(r.stride),
          "skew-free",
          Obs{Str(r.min_fragments) + ".." + Str(r.max_fragments) + " per disk",
              r.skew_free},
          "IsSkewFree");
  }
}

TEST(PaperClaims, E6Coalescing) {
  const std::vector<CoalescingRow> rows = Coalescing();
  const CoalescingRow& contiguous = rows[0];
  const CoalescingRow& algorithm1 = rows[1];
  const CoalescingRow& algorithms12 = rows[2];
  Claims c("E6");
  c.Add("Algorithm 1 starts X earlier than contiguous-only admission (s)",
        "earlier", Cmp(algorithm1.x_startup_s, "<", contiguous.x_startup_s),
        "strictly");
  c.Add("fragmented delivery consumes buffers (peak fragments)", "> 0",
        Cmp(algorithm1.peak_buffer, ">", int64_t{0}), "strictly");
  c.Exact("contiguous delivery uses no buffers (peak fragments)", 0,
          contiguous.peak_buffer);
  c.Add("Algorithm 2 performs migrations", "> 0",
        Cmp(algorithms12.migrations, ">", int64_t{0}), "strictly");
  c.Add("coalescing reduces average buffer residency (fragments)", "less",
        Cmp(algorithms12.avg_buffer, "<", algorithm1.avg_buffer), "strictly");
  for (const CoalescingRow& r : rows) {
    c.Exact(r.policy + ": hiccup-free delivery", 0, r.hiccups);
    c.Exact(r.policy + ": all displays completed", 9, r.completed);
  }
}

TEST(PaperClaims, E7LowBandwidth) {
  const LowBandwidth e = LowBandwidthAnalysis();
  auto at = [&](double mbps) -> const AllocationRow& {
    for (const AllocationRow& r : e.allocations) {
      if (r.display_mbps == mbps) return r;
    }
    ADD_FAILURE() << "no allocation row at " << mbps << " mbps";
    return e.allocations.front();
  };
  Claims c("E7");
  c.Near("30 mbps object wastes 25% of two whole disks (fraction)", 0.25,
         at(30).whole_disk_waste, 1e-9);
  c.Near("L = 2 serves 30 mbps with zero rounding waste (fraction)", 0.0,
         at(30).l2_waste, 1e-9);
  c.Exact("30 mbps needs exactly 3 half-disk units", 3, at(30).l2_units);
  c.Add("10 mbps object occupies one half-disk unit on one disk", "1 unit",
        Obs{Str(at(10).l2_units) + " unit(s), " + Str(at(10).l2_disks) +
                " disk(s)",
            at(10).l2_units == 1 && at(10).l2_disks == 1},
        "exact");
  c.Near("a half-rate lane buffers half a subobject (Figure 7)", 0.5,
         at(10).l2_buffer_subobjects, 1e-9);
  for (const AllocationRow& r : e.allocations) {
    c.Add("L = 2 waste <= whole-disk waste at " + Str(r.display_mbps) + " mbps",
          "never more",
          Obs{Str(100.0 * r.l2_waste) + "% vs " +
                  Str(100.0 * r.whole_disk_waste) + "%",
              r.l2_waste <= r.whole_disk_waste + 1e-9},
          "ours <= whole-disk + 1e-9");
  }
  c.Add("logical half-disks raise simulated throughput (displays/h)", "8/6",
        Obs{Str(e.l2_displays_per_hour) + " vs " + Str(e.l1_displays_per_hour),
            e.l2_displays_per_hour > e.l1_displays_per_hour * 1.2},
        "L=2 > 1.2 x L=1");
}

TEST(PaperClaims, E8TertiaryLayout) {
  const TapeLayout e = TertiaryLayout();
  Claims c("E8");
  for (const TapeLayoutRow& r : e.rows) {
    c.Add("sequential tape layout is never faster, reposition " +
              Str(r.reposition_s) + " s",
          "slower", Cmp(r.sequential_s, ">=", r.striped_s), "ours >= striped");
  }
  // Defaults: 40 mbps, 2 s reposition.
  c.Near("striped layout = reposition + size / B_Tertiary (s)",
         2.0 + e.table3_bits / 40e6, e.table3_striped_s, 0.1);
  for (const TapeLayoutRow& r : e.rows) {
    if (r.reposition_s != 2.0) continue;
    c.Add("sequential layout wastes most of the device at 2 s repositions",
          "most wasted", Cmp(r.sequential_efficiency, "<", 0.5),
          "efficiency < 0.5");
  }
}

TEST(PaperClaims, E10MixedMedia) {
  const std::vector<MixedMediaRow> rows = MixedMedia();
  Claims c("E10");
  for (const MixedMediaRow& r : rows) {
    c.Exact(std::string(r.naive ? "naive clusters" : "staggered striping") +
                ", Y " + Str(r.y_stations) + " / Z " + Str(r.z_stations) +
                " stations: hiccup-free",
            0, r.hiccups);
  }
  for (size_t i = 0; i + 1 < rows.size(); i += 2) {
    if (rows[i].y_stations != 0) continue;
    c.Add("all-Z workload: staggered striping ~2x the naive throughput",
          "2x (50% of bandwidth lost)",
          Obs{Str(rows[i + 1].z_displays) + " vs " + Str(rows[i].z_displays),
              static_cast<double>(rows[i + 1].z_displays) >=
                  1.8 * static_cast<double>(rows[i].z_displays)},
          "ours >= 1.8x");
  }
}

TEST(PaperClaims, E11SeekBudget) {
  const SeekModel e = SeekBudget();
  const SeekRow& random = e.rows[0];
  const SeekRow& adjacent = e.rows[2];
  Claims c("E11");
  c.Add("measured random-placement bandwidth beats the worst-case budget",
        "more than " + Str(e.worst_case_mbps) + " mbps",
        Cmp(random.measured_mbps, ">", e.worst_case_mbps), "strictly");
  c.Add("and stays below the raw transfer rate", Str(e.transfer_mbps),
        Cmp(random.measured_mbps, "<", e.transfer_mbps), "strictly");
  c.Add("adjacent placement (k = D clustering) is the fastest",
        "saves less than 10%",
        Cmp(adjacent.measured_mbps, ">", random.measured_mbps), "strictly");
  c.Add("no observed service exceeds the worst-case interval (ms)",
        Str(e.interval_ms),
        Obs{Str(random.max_service_ms),
            random.max_service_ms <= e.interval_ms + 0.5},
        "ours <= paper + 0.5 ms");
}

// --- E12-E15: seeded, five seeds --------------------------------------------

TEST(PaperClaims, E12Ablations) {
  const std::vector<PolicyAblation> runs = RunSeeds<PolicyAblation>(Ablations);
  Claims c("E12");
  c.EverySeed("all admission variants hiccup-free", "0", runs,
              [](const PolicyAblation& e) {
                return Cmp(e.contiguous.hiccups + e.algorithm1.hiccups +
                               e.algorithms12.hiccups,
                           "==", int64_t{0});
              });
  c.EverySeed("Algorithm 1's eager-reservation latency premium < 25% (s)",
              "—", runs, [](const PolicyAblation& e) {
                return Obs{Str(e.algorithm1.mean_startup_latency_sec) + " vs " +
                               Str(e.contiguous.mean_startup_latency_sec),
                           e.algorithm1.mean_startup_latency_sec <=
                               e.contiguous.mean_startup_latency_sec * 1.25};
              });
  c.EverySeed("dynamic replication helps the VDR baseline (displays/h)", "—",
              runs, [](const PolicyAblation& e) {
                return Cmp(e.vdr_replication.displays_per_hour, ">",
                           e.vdr_no_replication.displays_per_hour);
              });
  c.EverySeed("warm start reaches the cold steady state (displays/h)", "—",
              runs, [](const PolicyAblation& e) {
                return Obs{Str(e.warm.displays_per_hour) + " vs " +
                               Str(e.cold.displays_per_hour),
                           e.warm.displays_per_hour >=
                               e.cold.displays_per_hour * 0.95};
              },
              "warm >= 0.95 x cold");
}

int64_t Unresolved(const ExperimentResult& r) {
  return r.streams_paused - r.streams_resumed - r.displays_interrupted;
}

TEST(PaperClaims, E13Degradation) {
  const std::vector<FaultDegradation> runs =
      RunSeeds<FaultDegradation>(Degradation);
  using E = FaultDegradation;
  Claims c("E13");
  c.EverySeed("healthy run shows zero degraded activity", "—", runs,
              [](const E& e) {
                return Cmp(e.healthy.degraded_reads + e.healthy.streams_paused +
                               e.healthy.displays_interrupted,
                           "==", int64_t{0});
              });
  c.EverySeed("single-disk loss is absorbed by remapped reads", "—", runs,
              [](const E& e) {
                return Cmp(e.single_remap.degraded_reads, ">", int64_t{0});
              });
  c.EverySeed("remapping parks fewer streams than pause-only (single loss)",
              "—", runs, [](const E& e) {
                return Cmp(e.single_remap.streams_paused, "<",
                           e.single_pause.streams_paused);
              });
  c.EverySeed("single-disk loss interrupts under 5% of completed displays",
              "—", runs, [](const E& e) {
                return Obs{Str(e.single_remap.displays_interrupted) + " of " +
                               Str(e.single_remap.displays_completed),
                           static_cast<double>(
                               e.single_remap.displays_interrupted) <=
                               0.05 * static_cast<double>(
                                          e.single_remap.displays_completed)};
              });
  c.EverySeed("single-disk loss costs at most 10% throughput with remapping",
              "—", runs, [](const E& e) {
                return Obs{Str(e.single_remap.displays_per_hour) + " vs " +
                               Str(e.healthy.displays_per_hour),
                           e.single_remap.displays_per_hour >=
                               e.healthy.displays_per_hour * 0.9};
              });
  c.EverySeed("delivery stays hiccup-free in every remap and pause run", "0",
              runs, [](const E& e) {
                return Cmp(e.single_remap.hiccups + e.storm_remap.hiccups +
                               e.single_pause.hiccups + e.storm_pause.hiccups,
                           "==", int64_t{0});
              });
  c.EverySeed("remapping sustains at least pause-only throughput in a storm",
              "—", runs, [](const E& e) {
                return Cmp(e.storm_remap.displays_per_hour, ">=",
                           e.storm_pause.displays_per_hour);
              });
  c.EverySeed("every remap/pause pause resolves (paused - resumed - "
              "interrupted)",
              "0", runs, [](const E& e) {
                const int64_t worst = std::max(
                    {std::abs(Unresolved(e.single_remap)),
                     std::abs(Unresolved(e.storm_remap)),
                     std::abs(Unresolved(e.single_pause)),
                     std::abs(Unresolved(e.storm_pause))});
                return Cmp(worst, "==", int64_t{0});
              });
  c.EverySeed("reconstruct-policy pauses resolve, modulo a window-close tail",
              "—", runs, [](const E& e) {
                const int64_t single = Unresolved(e.single_reconstruct);
                const int64_t storm = Unresolved(e.storm_reconstruct);
                return Obs{Str(single) + ", " + Str(storm),
                           single >= 0 && single <= 8 && storm >= 0 &&
                               storm <= 8};
              },
              "0..8 unresolved");
  c.EverySeed("parity reconstruction substitutes reads during the outage", "—",
              runs, [](const E& e) {
                return Cmp(e.single_reconstruct.reconstructed_reads, ">",
                           int64_t{0});
              });
  c.EverySeed("reconstruction's fallback pauses are shorter than pause-only "
              "parks (s)",
              "—", runs, [](const E& e) {
                return Cmp(e.single_reconstruct.mean_resume_latency_sec, "<",
                           e.single_pause.mean_resume_latency_sec);
              });
  c.EverySeed("reconstruct sustains at least pause-only throughput on a "
              "single loss",
              "—", runs, [](const E& e) {
                return Cmp(e.single_reconstruct.displays_per_hour, ">=",
                           e.single_pause.displays_per_hour);
              });
  c.EverySeed("VDR fails displays over to surviving replicas", "—", runs,
              [](const E& e) {
                return Cmp(e.vdr_single.failovers, ">", int64_t{0});
              });
  c.EverySeed("VDR failover holds 80% of healthy throughput on a single loss",
              "—", runs, [](const E& e) {
                return Obs{Str(e.vdr_single.displays_per_hour) + " vs " +
                               Str(e.vdr_healthy.displays_per_hour),
                           e.vdr_single.displays_per_hour >=
                               e.vdr_healthy.displays_per_hour * 0.8};
              });
  c.EverySeed("VDR keeps completing displays through the storm", "—", runs,
              [](const E& e) {
                return Cmp(e.vdr_storm.displays_completed, ">", int64_t{0});
              });
}

TEST(PaperClaims, E14Batching) {
  const std::vector<std::vector<ExperimentResult>> runs =
      RunSeeds<std::vector<ExperimentResult>>(Batching);
  using E = std::vector<ExperimentResult>;
  Claims c("E14");
  for (size_t w = 1; w < kBatchWindows.size(); ++w) {
    const double window = kBatchWindows[w];
    c.EverySeed("window " + Str(window) + " s: batched schedule hiccup-free",
                "0", runs,
                [&](const E& e) { return Cmp(e[w].hiccups, "==", int64_t{0}); });
    c.EverySeed("window " + Str(window) +
                    " s: piggyback start offset within the window (s)",
                Str(window), runs, [&](const E& e) {
                  return Obs{Str(e[w].max_start_offset_sec),
                             e[w].max_start_offset_sec <= window + 1e-9};
                });
  }
  c.EverySeed("the widest window beats the unbatched crowd (displays/h)", "—",
              runs, [](const E& e) {
                return Cmp(e.back().displays_per_hour, ">",
                           e.front().displays_per_hour);
              });
  c.EverySeed("batching clears the D/M physical ceiling (displays/h)",
              "ceiling " + Str(Table3Ceiling()), runs, [](const E& e) {
                return Cmp(e.back().displays_per_hour, ">", 397.0);
              });
}

TEST(PaperClaims, E15LatentScrub) {
  const std::vector<LatentScrub> runs = RunSeeds<LatentScrub>(Latent);
  using E = LatentScrub;
  Claims c("E15");
  c.EverySeed("both runs take the same 20 corrupt cells", "20", runs,
              [](const E& e) {
                return Obs{Str(e.scrub_off.latent_errors_injected) + ", " +
                               Str(e.scrub_on.latent_errors_injected),
                           e.scrub_off.latent_errors_injected == 20 &&
                               e.scrub_on.latent_errors_injected == 20};
              });
  c.EverySeed("scrub-off leaves latent errors in the media", "> 0", runs,
              [](const E& e) {
                return Cmp(e.scrub_off.latent_errors_unrepaired, ">",
                           int64_t{0});
              });
  c.EverySeed("scrub-off repairs nothing (MTTR, s)", "0", runs,
              [](const E& e) {
                return Cmp(e.scrub_off.mean_time_to_repair_sec, "==", 0.0);
              });
  c.EverySeed("scrub-on repairs every injected error", "20 of 20", runs,
              [](const E& e) {
                return Obs{Str(e.scrub_on.latent_errors_repaired) + " of " +
                               Str(e.scrub_on.latent_errors_injected) + ", " +
                               Str(e.scrub_on.latent_errors_unrepaired) +
                               " left",
                           e.scrub_on.latent_errors_unrepaired == 0 &&
                               e.scrub_on.latent_errors_repaired ==
                                   e.scrub_on.latent_errors_injected};
              });
  c.EverySeed("scrub-on reports a finite mean time-to-repair (s)", "> 0", runs,
              [](const E& e) {
                return Cmp(e.scrub_on.mean_time_to_repair_sec, ">", 0.0);
              });
  c.EverySeed("fault-aware policies never ship a corrupt frame", "0", runs,
              [](const E& e) {
                return Cmp(e.scrub_off.corrupt_frames_delivered +
                               e.scrub_on.corrupt_frames_delivered,
                           "==", int64_t{0});
              });
  c.EverySeed("the no-verification ablation does ship corrupt frames", "> 0",
              runs, [](const E& e) {
                return Cmp(e.unverified.corrupt_frames_delivered, ">",
                           int64_t{0});
              });
  c.EverySeed("scrub + rebuild stay inside the idle-bandwidth budget", "0",
              runs, [](const E& e) {
                return Cmp(e.scrub_on.background_budget_violations, "==",
                           int64_t{0});
              });
  c.EverySeed("delivery stays hiccup-free with the scrubber running", "0",
              runs, [](const E& e) {
                return Cmp(e.scrub_on.hiccups + e.scrub_off.hiccups, "==",
                           int64_t{0});
              });
  c.EverySeed("scrubbing costs at most 3% throughput (displays/h)", "—", runs,
              [](const E& e) {
                return Obs{Str(e.scrub_on.displays_per_hour) + " vs " +
                               Str(e.scrub_off.displays_per_hour),
                           e.scrub_on.displays_per_hour >=
                               e.scrub_off.displays_per_hour * 0.97};
              });
}

}  // namespace
}  // namespace stagger::paper
