#include "analysis/errev.hpp"

namespace analysis {

double exact_errev(const selfish::SelfishModel& model,
                   const mdp::Policy& policy) {
  return mdp::evaluate_policy_counters(model.mdp, policy).ratio();
}

}  // namespace analysis
