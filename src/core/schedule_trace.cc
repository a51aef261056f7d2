#include "core/schedule_trace.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace stagger {
namespace {

// One row per interval of `trace`, one column per `columns`: column c,
// headed `label` c, shows `format` of the read of disk c * `step`, or
// `idle`.
template <typename Format>
Table Render(const ScheduleTracer& trace, const std::string& label,
             int32_t columns, int32_t step, const std::string& idle,
             const Format& format) {
  std::vector<std::string> header = {"interval"};
  for (int32_t c = 0; c < columns; ++c) {
    header.push_back(label + std::to_string(c));
  }
  Table table(std::move(header));
  const std::map<int32_t, ScheduleTracer::Event> none;
  for (int64_t t = 0; t <= trace.last_interval(); ++t) {
    const auto it = trace.events().find(t);
    const auto& reads = it != trace.events().end() ? it->second : none;
    std::vector<std::string> row = {std::to_string(t)};
    for (int32_t c = 0; c < columns; ++c) {
      const auto read = reads.find(c * step);
      row.push_back(read != reads.end() ? format(read->second) : idle);
    }
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace

ScheduleTracer::ScheduleTracer(int32_t num_disks, int64_t max_intervals)
    : num_disks_(num_disks), max_intervals_(max_intervals) {
  STAGGER_CHECK(num_disks_ >= 1);
}

void ScheduleTracer::OnRead(int64_t interval, ObjectId object,
                            int64_t subobject, int32_t fragment,
                            int32_t disk) {
  if (max_intervals_ > 0 && interval >= max_intervals_) {
    truncated_ = true;
    return;
  }
  STAGGER_CHECK(disk >= 0 && disk < num_disks_);
  auto& cell = events_[interval];
  if (cell.find(disk) != cell.end()) ++num_collisions_;
  cell[disk] = Event{object, subobject, fragment};
  ++num_events_;
  if (interval > last_interval_) last_interval_ = interval;
}

void ScheduleTracer::Name(ObjectId object, std::string name) {
  names_[object] = std::move(name);
}

std::string ScheduleTracer::NameOf(ObjectId object) const {
  auto it = names_.find(object);
  if (it != names_.end()) return it->second;
  return std::string("#").append(std::to_string(object));
}

Table ScheduleTracer::RenderClusters(int32_t cluster_size) const {
  STAGGER_CHECK(cluster_size >= 1 && cluster_size <= num_disks_);
  // The cluster's first disk carries fragment 0 of the subobject read
  // this interval (cluster-aligned displays).
  return Render(*this, "cluster ", num_disks_ / cluster_size, cluster_size,
                "idle", [this](const Event& e) {
                  return "read " + NameOf(e.object) + "(" +
                         std::to_string(e.subobject) + ")";
                });
}

Table ScheduleTracer::RenderDisks() const {
  return Render(*this, "d", num_disks_, 1, ".", [this](const Event& e) {
    return NameOf(e.object) + std::to_string(e.subobject) + "." +
           std::to_string(e.fragment);
  });
}

}  // namespace stagger
