#include "elastic/reshaper.h"

#include <algorithm>

namespace tprm::elastic {

std::optional<VictimPolicy> victimPolicyFromName(const std::string& name) {
  if (name == "min-quality-loss") return VictimPolicy::MinQualityLoss;
  if (name == "most-recent-first") return VictimPolicy::MostRecentFirst;
  if (name == "proportional-share") return VictimPolicy::ProportionalShare;
  return std::nullopt;
}

std::string toString(VictimPolicy policy) {
  switch (policy) {
    case VictimPolicy::MinQualityLoss: return "min-quality-loss";
    case VictimPolicy::MostRecentFirst: return "most-recent-first";
    case VictimPolicy::ProportionalShare: return "proportional-share";
  }
  return "unknown";
}

Reshaper::Reshaper(VictimPolicy policy) : policy_(policy) {}

// Victim ordering is a pure function of the candidate list the arbitrator
// offers.  Gang-admitted fragments (qos/sharded.h) are pinned and never
// appear in that list — a per-shard fragment of a cross-shard gang must not
// be demoted or promoted independently of its siblings, so the only
// renegotiation a gang supports is whole-job cancel/drop at the sharded
// layer.  No policy below needs gang awareness: by the time a candidate
// reaches demotionOrder/promotionOrder the pinning filter already ran.
std::vector<std::uint64_t> Reshaper::demotionOrder(
    const std::vector<qos::ElasticCandidate>& candidates,
    Time release) const {
  (void)release;
  std::vector<qos::ElasticCandidate> order = candidates;
  switch (policy_) {
    case VictimPolicy::MinQualityLoss:
      std::sort(order.begin(), order.end(),
                [](const qos::ElasticCandidate& a,
                   const qos::ElasticCandidate& b) {
                  const double dropA = a.quality - a.nextQuality;
                  const double dropB = b.quality - b.nextQuality;
                  if (dropA != dropB) return dropA < dropB;
                  return a.jobId < b.jobId;
                });
      break;
    case VictimPolicy::MostRecentFirst:
      std::sort(order.begin(), order.end(),
                [](const qos::ElasticCandidate& a,
                   const qos::ElasticCandidate& b) {
                  if (a.release != b.release) return a.release > b.release;
                  return a.jobId > b.jobId;
                });
      break;
    case VictimPolicy::ProportionalShare:
      std::sort(order.begin(), order.end(),
                [](const qos::ElasticCandidate& a,
                   const qos::ElasticCandidate& b) {
                  if (a.futureArea != b.futureArea) {
                    return a.futureArea > b.futureArea;
                  }
                  return a.jobId < b.jobId;
                });
      break;
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(order.size());
  for (const auto& candidate : order) ids.push_back(candidate.jobId);
  return ids;
}

std::vector<std::uint64_t> Reshaper::promotionOrder(
    const std::vector<qos::ElasticCandidate>& demoted) const {
  std::vector<qos::ElasticCandidate> order = demoted;
  std::sort(order.begin(), order.end(),
            [](const qos::ElasticCandidate& a,
               const qos::ElasticCandidate& b) {
              const double deficitA = a.admittedQuality - a.quality;
              const double deficitB = b.admittedQuality - b.quality;
              if (deficitA != deficitB) return deficitA > deficitB;
              return a.jobId < b.jobId;
            });
  std::vector<std::uint64_t> ids;
  ids.reserve(order.size());
  for (const auto& candidate : order) ids.push_back(candidate.jobId);
  return ids;
}

}  // namespace tprm::elastic
