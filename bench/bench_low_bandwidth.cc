// E7 — Section 3.2.3 / Figure 7: low-bandwidth objects.  Rounding a
// request up to an integral number of whole disks wastes bandwidth; the
// paper splits each disk into L logical disks of B_Disk / L and
// multiplexes subobjects within a time interval, at the cost of a
// little buffer space.  This bench sweeps object bandwidths and logical
// splits, reporting the wasted fraction and buffer overhead, and
// verifies the paper's two worked numbers:
//   * a 30 mbps object on 20 mbps disks wastes 25 % of two disks;
//   * B_Display = 3/2 B_Disk is served exactly with L = 2.

#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <unordered_map>

#include "core/logical_scheduler.h"
#include "core/low_bandwidth.h"
#include "sim/simulator.h"
#include "util/table.h"

namespace stagger {
namespace {

/// Closed-loop throughput of 30 mbps displays on a 12-disk farm of
/// 20 mbps disks over two simulated hours, at a given logical split.
/// With L = 1 each display rounds up to 2 whole disks (6 concurrent);
/// with L = 2 it takes exactly 3 half-disk units and displays pair up
/// Figure 7-style (8 concurrent).
double SimulateThroughput(int32_t logical_per_disk, int32_t stations) {
  Simulator sim;
  LogicalSchedulerConfig config;
  config.num_disks = 12;
  config.stride = 1;
  config.logical_per_disk = logical_per_disk;
  config.interval = SimTime::Millis(605);
  // Closed loop: a station asks for its next display when one completes.
  struct Stations : DisplayListener {
    std::unordered_map<RequestId, int32_t> station_of;
    std::function<void(int32_t)> request_next;
    int64_t completed = 0;
    void OnCompleted(RequestId id) override {
      const int32_t station = station_of.extract(id).mapped();
      ++completed;
      request_next(station);
    }
  } stations_loop;
  auto sched = LogicalDiskScheduler::Create(&sim, config, &stations_loop);
  STAGGER_CHECK(sched.ok()) << sched.status();

  auto alloc = AllocateLogical(Bandwidth::Mbps(30), Bandwidth::Mbps(20),
                               logical_per_disk);
  STAGGER_CHECK(alloc.ok());

  stations_loop.request_next = [&](int32_t station) {
    LogicalRequest req;
    req.object = station;
    req.units = alloc->units;
    req.start_disk = (station * 3) % config.num_disks;
    req.num_subobjects = 100;  // ~60 s displays
    // Alternate the partial-lane side so fractional displays pair up.
    req.partial_lane_first = (station % 2) == 1;
    auto id = (*sched)->Submit(req);
    STAGGER_CHECK(id.ok());
    stations_loop.station_of[*id] = station;
  };
  for (int32_t s = 0; s < stations; ++s) stations_loop.request_next(s);
  sim.RunUntil(SimTime::Hours(2));
  // Displays per hour.
  return static_cast<double>(stations_loop.completed) / 2.0;
}

int Run() {
  const Bandwidth disk = Bandwidth::Mbps(20);

  std::printf("Section 3.2.3: integral-disk waste vs logical-disk "
              "allocation (B_Disk = 20 mbps)\n\n");
  Table table({"B_Display_mbps", "whole-disk_waste_%", "L=2_units",
               "L=2_waste_%", "L=2_buffer_subobj", "L=4_waste_%"});
  const double bandwidths[] = {5, 10, 15, 30, 45, 50, 70, 90, 110};
  for (double mbps : bandwidths) {
    const Bandwidth display = Bandwidth::Mbps(mbps);
    const double whole = 100.0 * IntegralDiskWaste(display, disk);
    auto l2 = AllocateLogical(display, disk, 2);
    auto l4 = AllocateLogical(display, disk, 4);
    STAGGER_CHECK(l2.ok() && l4.ok());
    table.AddRowValues(mbps, whole, l2->units, 100.0 * l2->wasted_fraction,
                       l2->buffer_subobject_fraction,
                       100.0 * l4->wasted_fraction);
  }
  table.Print(std::cout);

  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "OK  " : "FAIL", what);
    if (!ok) ++failures;
  };
  // "an object requiring 30 mbps when B_Disk = 20 would waste 25
  // percent of the bandwidth of the two disks used per interval"
  expect(std::abs(IntegralDiskWaste(Bandwidth::Mbps(30), disk) - 0.25) < 1e-9,
         "30 mbps object wastes 25% of two whole disks");
  // "an object that has B_Display = 3/2 B_Disk can be exactly
  // accommodated with no loss due to rounding up"
  auto exact = AllocateLogical(Bandwidth::Mbps(30), disk, 2);
  expect(exact.ok() && exact->wasted_fraction < 1e-9,
         "L=2 serves 30 mbps with zero rounding waste");
  expect(exact->units == 3, "30 mbps needs exactly 3 half-disk units");
  // Figure 7: two half-bandwidth objects share one disk; each buffers
  // half of its subobject while the other is being read.
  auto half = AllocateLogical(Bandwidth::Mbps(10), disk, 2);
  expect(half.ok() && half->units == 1 && half->disks == 1,
         "10 mbps object occupies one half-disk unit");
  expect(std::abs(half->buffer_subobject_fraction - 0.5) < 1e-9,
         "a half-rate lane buffers half a subobject (Figure 7)");
  // Logical splitting never increases waste.
  for (double mbps : bandwidths) {
    auto l2 = AllocateLogical(Bandwidth::Mbps(mbps), disk, 2);
    expect(l2->wasted_fraction <=
               IntegralDiskWaste(Bandwidth::Mbps(mbps), disk) + 1e-9,
           "L=2 waste <= whole-disk waste");
  }

  // Simulated throughput: 30 mbps displays on 12 x 20 mbps disks.
  std::printf("\nSimulated closed-loop throughput (30 mbps displays, "
              "12 disks, 10 stations):\n\n");
  Table sim_table({"logical_per_disk", "displays_per_hour",
                   "concurrency_bound"});
  const double l1 = SimulateThroughput(1, 10);
  const double l2 = SimulateThroughput(2, 10);
  sim_table.AddRowValues(static_cast<int64_t>(1), l1,
                         static_cast<int64_t>(6));
  sim_table.AddRowValues(static_cast<int64_t>(2), l2,
                         static_cast<int64_t>(8));
  sim_table.Print(std::cout);
  expect(l2 > l1 * 1.2,
         "logical half-disks raise measured throughput by > 20%");
  std::printf("\n%s\n", failures == 0 ? "All low-bandwidth checks passed."
                                      : "Some low-bandwidth checks FAILED.");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stagger

int main() { return stagger::Run(); }
