#include "engine/job.hpp"

#include <cinttypes>
#include <cstdio>

#include "support/hash.hpp"

namespace engine {

std::string canonical_double(double value) {
  // %.17g round-trips every finite double; the C locale of printf keeps
  // the rendering stable across environments.
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JobKey::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

/// SolveOptions::threads is deliberately absent: the kernel is pinned
/// bit-identical at any thread count (test_mdp_kernel), so it cannot
/// change a stored result.
std::string mean_payoff_solver_id(const mdp::SolveOptions& options) {
  return "tol=" + canonical_double(options.mean_payoff.tol) +
         "|maxit=" + std::to_string(options.mean_payoff.max_iterations);
}

std::string solver_options_id(const analysis::AnalysisOptions& options) {
  return "eps=" + canonical_double(options.epsilon) + "|" +
         mean_payoff_solver_id(options.solver) +
         "|exact=" + (options.evaluate_exact_errev ? "1" : "0");
}

std::string model_id_without_p(const selfish::AttackParams& params) {
  std::string id = "gamma=" + canonical_double(params.gamma);
  id += "|d=" + std::to_string(params.d);
  id += "|f=" + std::to_string(params.f);
  id += "|l=" + std::to_string(params.l);
  id += "|burn=" + std::string(params.burn_lost_races ? "1" : "0");
  return id;
}

JobKey analysis_job_key(const AnalysisJob& job) {
  JobKey key;
  key.canonical = "analysis/v" + std::to_string(kCodeVersionSalt) + "|" +
                  model_id_without_p(job.params) +
                  "|p=" + canonical_double(job.params.p) + "|" +
                  solver_options_id(job.options);
  key.hash = support::fnv1a64(key.canonical.data(), key.canonical.size());
  return key;
}

}  // namespace engine
