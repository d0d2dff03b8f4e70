#include "sweep/scheduler_factory.hpp"

#include <initializer_list>
#include <string>
#include <string_view>

namespace rumr::sweep {

namespace {

std::vector<AlgorithmSpec> lineup(std::initializer_list<std::string_view> names) {
  std::vector<AlgorithmSpec> specs;
  specs.reserve(names.size());
  for (const std::string_view name : names) specs.push_back(config::policy_spec(name));
  return specs;
}

}  // namespace

AlgorithmSpec rumr_spec() { return config::policy_spec("rumr"); }
AlgorithmSpec rumr_inorder_spec() { return config::policy_spec("rumr-inorder"); }
AlgorithmSpec rumr_fixed_spec(std::size_t phase1_percent) {
  return config::policy_spec("rumr-" + std::to_string(phase1_percent));
}
AlgorithmSpec rumr_adaptive_spec() { return config::policy_spec("rumr-adaptive"); }
AlgorithmSpec umr_spec() { return config::policy_spec("umr"); }
AlgorithmSpec mi_spec(std::size_t installments) {
  return config::policy_spec("mi-" + std::to_string(installments));
}
AlgorithmSpec factoring_spec() { return config::policy_spec("factoring"); }
AlgorithmSpec fsc_spec() { return config::policy_spec("fsc"); }
AlgorithmSpec weighted_factoring_spec() { return config::policy_spec("wf"); }

std::vector<AlgorithmSpec> paper_competitors() {
  return lineup({"rumr", "umr", "mi-1", "mi-2", "mi-3", "mi-4", "factoring"});
}

std::vector<AlgorithmSpec> extended_competitors() {
  return lineup({"rumr", "umr", "mi-1", "mi-2", "mi-3", "mi-4", "factoring", "fsc"});
}

std::vector<AlgorithmSpec> racing_competitors() {
  return lineup({"rumr", "rumr-50", "rumr-60", "rumr-70", "rumr-80", "rumr-90", "umr", "mi-2",
                 "factoring", "fsc"});
}

std::vector<AlgorithmSpec> loop_family_competitors() {
  return lineup({"rumr", "factoring", "wf", "gss", "tss", "fsc"});
}

}  // namespace rumr::sweep
