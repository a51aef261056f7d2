#include "background/background_budget.h"

#include <algorithm>

#include "util/check.h"

namespace stagger {

void BackgroundBudget::Register(BackgroundConsumer* consumer,
                                const BackgroundConsumerConfig& config) {
  STAGGER_CHECK(consumer != nullptr);
  for (const Entry& e : entries_) {
    STAGGER_CHECK(e.consumer != consumer)
        << "background consumer '" << consumer->name()
        << "' registered twice";
  }
  Entry entry;
  entry.consumer = consumer;
  entry.config = config;
  // Stable insert keeps entries_ ordered by (priority, registration
  // order), so the steady-state serve order needs no per-interval sort.
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) {
                           return e.config.priority > config.priority;
                         });
  entries_.insert(it, std::move(entry));
}

void BackgroundBudget::OnIdleInterval(int64_t interval) {
  if (entries_.empty()) return;
  const int64_t idle_before = disks_->IdleAvailableCount();
  ++metrics_.intervals;
  metrics_.idle_capacity += idle_before;

  // Starvation-boosted consumers jump the priority queue for one
  // interval; everyone else follows in (priority, registration) order.
  serve_order_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.config.starvation_floor_intervals > 0 && e.consumer->HasWork() &&
        interval - e.last_progress_interval >=
            e.config.starvation_floor_intervals) {
      serve_order_.push_back(i);
      ++e.stats.boosted_runs;
    }
  }
  const size_t boosted = serve_order_.size();
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (std::find(serve_order_.begin(), serve_order_.begin() + boosted, i) ==
        serve_order_.begin() + boosted) {
      serve_order_.push_back(i);
    }
  }

  int64_t total_reads = 0;
  for (const size_t i : serve_order_) {
    Entry& e = entries_[i];
    if (!e.consumer->HasWork()) continue;
    BackgroundGrant grant(disks_, e.config.max_reads_per_interval);
    const int64_t ops = e.consumer->RunIdle(interval, &grant);
    ++e.stats.granted_intervals;
    if (ops > 0) {
      ++e.stats.progress_intervals;
      e.last_progress_interval = interval;
    } else {
      ++e.stats.starved_intervals;
    }
    e.stats.ops += ops;
    e.stats.reads += grant.reads();
    e.stats.spare_writes += grant.spare_writes();
    total_reads += grant.reads();
    metrics_.reads_granted += grant.reads();
    metrics_.spare_writes_granted += grant.spare_writes();
  }

  // Every grant read flipped a previously idle, available slot busy, so
  // this can only trip if the grant accounting itself breaks.
  if (total_reads > idle_before) {
    ++metrics_.budget_violations;
#ifdef STAGGER_AUDIT
    STAGGER_CHECK(false) << "background consumers read " << total_reads
                         << " slots in an interval with only " << idle_before
                         << " idle";
#endif
  }
}

const BackgroundConsumerStats& BackgroundBudget::stats(
    const BackgroundConsumer* consumer) const {
  for (const Entry& e : entries_) {
    if (e.consumer == consumer) return e.stats;
  }
  STAGGER_CHECK(false) << "consumer is not registered with this budget";
  static const BackgroundConsumerStats kEmpty;
  return kEmpty;
}

Status BackgroundBudget::AuditState() const {
  STAGGER_AUDIT_VERIFY(metrics_.budget_violations == 0)
      << "; background consumers exceeded the idle-bandwidth budget in "
      << metrics_.budget_violations << " intervals";
  return Status::OK();
}

}  // namespace stagger
