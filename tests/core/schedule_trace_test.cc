#include "core/schedule_trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"

namespace stagger {
namespace {

TEST(ScheduleTracerTest, RecordsAndRenders) {
  ScheduleTracer tracer(4);
  tracer.Name(7, "X");
  tracer.Record(0, 7, 0, 0, 1);
  tracer.Record(0, 7, 0, 1, 2);
  tracer.Record(1, 9, 3, 0, 0);
  EXPECT_EQ(tracer.num_events(), 3);
  EXPECT_EQ(tracer.last_interval(), 1);

  std::ostringstream os;
  tracer.RenderDisks().Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("X0.0"), std::string::npos);
  EXPECT_NE(out.find("X0.1"), std::string::npos);
  EXPECT_NE(out.find("#93.0"), std::string::npos);  // unnamed object
}

TEST(ScheduleTracerTest, MaxIntervalsBoundsRecording) {
  ScheduleTracer tracer(2, /*max_intervals=*/3);
  for (int64_t t = 0; t < 10; ++t) tracer.Record(t, 0, t, 0, 0);
  EXPECT_EQ(tracer.num_events(), 3);
  EXPECT_EQ(tracer.last_interval(), 2);
}

// End-to-end Figure 3: the traced schedule of three cluster-aligned
// displays rotates clusters exactly as the paper's table.
TEST(ScheduleTracerTest, Figure3Rotation) {
  Simulator sim;
  auto disks = DiskArray::Create(9, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());

  ScheduleTracer tracer(9, 6);
  SchedulerConfig config;
  config.stride = 3;
  config.interval = SimTime::Millis(605);
  config.read_observer = [&tracer](int64_t t, ObjectId o, int64_t s,
                                   int32_t f, int32_t d) {
    tracer.Record(t, o, s, f, d);
  };
  auto sched = IntervalScheduler::Create(&sim, &*disks, config);
  ASSERT_TRUE(sched.ok());

  for (int i = 0; i < 3; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = 3;
    req.start_disk = 3 * i;
    req.num_subobjects = 6;
    ASSERT_TRUE((*sched)->Submit(std::move(req)).ok());
  }
  sim.RunUntil(SimTime::Seconds(10));

  // 3 displays x 6 subobjects x 3 fragments = 54 reads in 6 intervals.
  EXPECT_EQ(tracer.num_events(), 54);

  std::ostringstream os;
  tracer.RenderClusters(3).Print(os);
  const std::string out = os.str();
  // Interval 0: object i on cluster i.  Interval 1: each shifted right.
  EXPECT_NE(out.find("read #0(0)"), std::string::npos);
  EXPECT_NE(out.find("read #2(1)"), std::string::npos);  // Z wraps to c0
  EXPECT_EQ(out.find("idle"), std::string::npos);  // fully busy trace
}

TEST(ScheduleTracerTest, IdleCellsRendered) {
  ScheduleTracer tracer(6, 4);
  tracer.Record(0, 0, 0, 0, 0);
  tracer.Record(1, 0, 1, 0, 3);  // cluster 0 idle at interval 1
  std::ostringstream os;
  tracer.RenderClusters(3).Print(os);
  EXPECT_NE(os.str().find("idle"), std::string::npos);
}

}  // namespace
}  // namespace stagger
