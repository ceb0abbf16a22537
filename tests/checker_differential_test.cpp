// Differential test of the merge-walk oracles (analysis/checkers.cpp)
// against the reference hash-map checker (reference_checker.hpp): every
// audit must return the reference's violations exactly — kind, processes,
// seq and order. The audits come from where the simulator runs them: the
// monitor's line self-audit, hardened recovery-line selection and the
// periodic mission audits of chaos missions, the final line of general
// star and chain missions, and the hand-built adversarial lines.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "checker_cases.hpp"
#include "core/campaign.hpp"
#include "core/pool.hpp"
#include "general/campaign.hpp"
#include "reference_checker.hpp"

namespace synergy {
namespace {

using checker_cases::render;

/// Replays every audit on this thread through the reference checker
/// while in scope.
class DifferentialAudit {
 public:
  DifferentialAudit() {
    set_audit_observer([this](AuditKind kind, const GlobalState& state,
                              const std::vector<Violation>& found) {
      ++audits;
      if (!found.empty()) ++flagged;
      const std::string want = render(reference::check(kind, state));
      const std::string got = render(found);
      if (got != want && mismatches++ < 3) {
        ADD_FAILURE() << "audit " << audits << " (kind "
                      << static_cast<int>(kind) << ", "
                      << state.processes.size() << " processes)\nreference:\n"
                      << want << "merge walk:\n"
                      << got;
      }
    });
  }
  ~DifferentialAudit() { set_audit_observer({}); }
  DifferentialAudit(const DifferentialAudit&) = delete;
  DifferentialAudit& operator=(const DifferentialAudit&) = delete;

  std::size_t audits = 0;
  std::size_t flagged = 0;     ///< audits that found violations
  std::size_t mismatches = 0;
};

TEST(CheckerDifferential, EveryChaosMissionAuditMatchesTheReference) {
  // The canonical chaos campaign's first 200 missions, plus the mission
  // whose stable line keeps an orphan receipt from 240 s to the end.
  std::vector<std::uint64_t> seeds = derive_seeds(1, 200);
  seeds.push_back(15149935114129067729ULL);
  const CampaignConfig config;
  DifferentialAudit diff;
  std::size_t failed = 0;
  for (const std::uint64_t seed : seeds) {
    if (!run_mission(config, seed).ok) ++failed;
  }
  EXPECT_EQ(diff.mismatches, 0u);
  EXPECT_GT(diff.audits, seeds.size() * 20);  // 20 mission audits each
  EXPECT_GT(diff.flagged, 0u);
  EXPECT_GT(failed, 0u) << "the pinned orphan mission must still fail";
}

TEST(CheckerDifferential, GeneralStarAndChainLinesMatchTheReference) {
  DifferentialAudit diff;
  struct Shape {
    GeneralShape shape;
    std::size_t size;
    std::size_t reps;
  };
  for (const Shape s : {Shape{GeneralShape::kStar, 4, 200},
                        Shape{GeneralShape::kStar, 64, 6},
                        Shape{GeneralShape::kChain, 32, 6}}) {
    GeneralCampaignConfig config;
    config.shape = s.shape;
    config.size = s.size;
    config.mission = Duration::seconds(30);
    for (const std::uint64_t seed : derive_seeds(1, s.reps)) {
      (void)run_general_mission(config, seed);
    }
  }
  EXPECT_EQ(diff.mismatches, 0u);
  EXPECT_GE(diff.audits, 2u * (200 + 6 + 6));  // consistency + recoverability
  EXPECT_GT(diff.flagged, 0u);
}

TEST(CheckerDifferential, AdversarialLinesMatchTheReference) {
  DifferentialAudit diff;
  for (const checker_cases::Case& c : checker_cases::adversarial_cases()) {
    (void)check_consistency(c.state);
    (void)check_recoverability(c.state);
    (void)check_all(c.state);
  }
  EXPECT_EQ(diff.mismatches, 0u);
  EXPECT_EQ(diff.audits, 3 * checker_cases::adversarial_cases().size());
}

}  // namespace
}  // namespace synergy
