#include "core/multi_class.h"

#include "util/check.h"

namespace qos {
namespace {

void check_tiers(std::span<const ClassSpec> tiers) {
  QOS_EXPECTS(!tiers.empty());
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    QOS_EXPECTS(tiers[i].capacity_iops > 0);
    QOS_EXPECTS(tiers[i].delta > 0);
    if (i > 0) QOS_EXPECTS(tiers[i].delta > tiers[i - 1].delta);
  }
}

}  // namespace

MultiClassDecomposition multi_class_decompose(
    const Trace& trace, std::span<const ClassSpec> tiers) {
  check_tiers(tiers);
  const std::size_t k = tiers.size();

  // One dedicated-server replay per tier (the rtt_decompose step).
  std::vector<RttReplay> replay;
  replay.reserve(k);
  for (const auto& t : tiers)
    replay.emplace_back(t.capacity_iops, t.delta, trace.size());

  MultiClassDecomposition out;
  out.tier.assign(trace.size(), static_cast<std::uint8_t>(k));
  out.counts.assign(k + 1, 0);

  for (const auto& r : trace) {
    for (std::size_t i = 0; i < k; ++i) {
      if (replay[i].admit(r.arrival)) {
        out.tier[r.seq] = static_cast<std::uint8_t>(i);
        break;
      }
    }
    ++out.counts[out.tier[r.seq]];
  }
  return out;
}

MultiClassScheduler::MultiClassScheduler(std::vector<ClassSpec> tiers) {
  check_tiers(tiers);
  for (const auto& t : tiers)
    admissions_.emplace_back(t.capacity_iops, t.delta);
  queues_.resize(tiers.size() + 1);
  pending_.assign(tiers.size(), 0);
}

void MultiClassScheduler::on_arrival(const Request& r, Time) {
  std::uint8_t assigned = static_cast<std::uint8_t>(admissions_.size());
  for (std::size_t i = 0; i < admissions_.size(); ++i) {
    if (admissions_[i].admit(pending_[i])) {
      ++pending_[i];
      assigned = static_cast<std::uint8_t>(i);
      break;
    }
  }
  queues_[assigned].push_back(r);
  if (tier_by_seq_.size() <= r.seq) tier_by_seq_.resize(r.seq + 1, 0xff);
  tier_by_seq_[r.seq] = assigned;
}

std::optional<Scheduler::Dispatch> MultiClassScheduler::next_for(int server,
                                                                 Time) {
  QOS_EXPECTS(server == 0);
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i].empty()) continue;
    // Bounded tiers ride the primary class label; the best-effort queue is
    // the overflow class.
    Dispatch d{queues_[i].front(), i < admissions_.size()
                                       ? ServiceClass::kPrimary
                                       : ServiceClass::kOverflow};
    queues_[i].pop_front();
    return d;
  }
  return std::nullopt;
}

void MultiClassScheduler::on_complete(const Request& r, ServiceClass,
                                      int, Time) {
  const std::uint8_t tier = tier_of(r.seq);
  if (tier < pending_.size()) {
    QOS_CHECK(pending_[tier] > 0);
    --pending_[tier];
  }
}

std::uint8_t MultiClassScheduler::tier_of(std::uint64_t seq) const {
  QOS_EXPECTS(seq < tier_by_seq_.size());
  QOS_EXPECTS(tier_by_seq_[seq] != 0xff);
  return tier_by_seq_[seq];
}

}  // namespace qos
