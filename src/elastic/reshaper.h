// Elastic QoS: the policy engine for arbitrator-initiated renegotiation.
//
// The paper's negotiation model is static — a job's configuration is fixed
// at admission and only the client can resize or cancel (Section 3).  The
// DMR API and ReSHAPE invert this: the *system* reshapes running malleable
// jobs to improve cluster productivity.  This module supplies the decision
// layer for that inversion on top of the mechanism in qos::QoSArbitrator
// (undo-logged trial demotion, floor discipline, promotion passes):
//
//  * on admission failure the arbitrator asks the Reshaper to order
//    demotion victims among admitted-but-not-yet-started malleable jobs;
//    victims are shrunk one rung at a time inside a single trial scope and
//    the whole trade commits only if the newcomer then fits;
//  * when load drops (a cancel frees capacity, or a new submission arrives
//    while jobs sit demoted) the arbitrator asks for a fairness order and
//    walks demoted jobs back up their quality ladders.
//
// Floor invariant: demotion only ever lands on a chain the job *offered*,
// so a job can never be pushed below its own contract's lowest rung; with
// the multi-tenant scenario generator, offered chains are themselves
// filtered to the tenant's quality floor, so per-tenant floors hold by
// construction end to end.
//
// Every order is a deterministic pure function of the candidate list (ties
// broken on job id), so elastic decision streams record and replay
// byte-identically, and one Reshaper may serve every shard of a
// qos::ShardedArbitrator concurrently.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "qos/qos.h"

namespace tprm::elastic {

/// Victim-selection policy for the demotion pass.
enum class VictimPolicy {
  /// Cheapest quality trade first: ascending (current - next rung) quality
  /// drop.  Minimizes delivered-quality loss per admission gained.
  MinQualityLoss,
  /// LIFO fairness: the most recently released (then highest-id) admission
  /// gives way first — long-standing contracts are disturbed last.
  MostRecentFirst,
  /// Capacity fairness: jobs holding the most not-yet-started
  /// processor-ticks shrink first, pushing every tenant toward an equal
  /// share under pressure.
  ProportionalShare,
};

/// Parses "min-quality-loss" / "most-recent-first" / "proportional-share".
[[nodiscard]] std::optional<VictimPolicy> victimPolicyFromName(
    const std::string& name);
[[nodiscard]] std::string toString(VictimPolicy policy);

/// The canonical ReshapePolicy implementation.  Stateless per call and
/// therefore thread-safe; attach one instance to a QoSArbitrator or to every
/// shard of a ShardedArbitrator (ShardedArbitrator::attachReshapePolicy).
class Reshaper final : public qos::ReshapePolicy {
 public:
  explicit Reshaper(VictimPolicy policy = VictimPolicy::MinQualityLoss);

  [[nodiscard]] VictimPolicy policy() const { return policy_; }

  [[nodiscard]] std::vector<std::uint64_t> demotionOrder(
      const std::vector<qos::ElasticCandidate>& candidates,
      Time release) const override;

  /// Fairness order shared by every victim policy: the furthest-demoted job
  /// (largest admitted-minus-current quality deficit) promotes first, ties
  /// to the oldest (lowest) job id.
  [[nodiscard]] std::vector<std::uint64_t> promotionOrder(
      const std::vector<qos::ElasticCandidate>& demoted) const override;

 private:
  VictimPolicy policy_;
};

}  // namespace tprm::elastic
