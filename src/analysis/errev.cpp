#include "analysis/errev.hpp"

namespace analysis {

double exact_errev(const selfish::SelfishModel& model,
                   const mdp::Policy& policy) {
  return mdp::stationary_distribution(model.mdp, policy).rates.ratio();
}

}  // namespace analysis
