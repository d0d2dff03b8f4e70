#include "sweep/scheduler_factory.hpp"

#include "baselines/factoring.hpp"
#include "baselines/fsc.hpp"
#include "baselines/loop_scheduling.hpp"
#include "baselines/multi_installment.hpp"
#include "core/adaptive_rumr.hpp"
#include "core/rumr.hpp"
#include "core/umr_policy.hpp"

namespace rumr::sweep {

namespace {

/// Binds a solved plan into a PreparedPolicy whose calls build `Policy`
/// cursors over it.
template <typename Policy, typename Plan>
PreparedPolicy instances_of(std::shared_ptr<const Plan> plan) {
  return [plan = std::move(plan)] { return std::make_unique<Policy>(plan); };
}

}  // namespace

AlgorithmSpec rumr_spec() {
  return {"RUMR", [](const platform::StarPlatform& p, double w, double error) {
            core::RumrOptions options;
            options.known_error = error;
            return instances_of<core::RumrPolicy>(core::prepare_rumr(p, w, std::move(options)));
          }};
}

AlgorithmSpec rumr_inorder_spec() {
  return {"RUMR-inorder", [](const platform::StarPlatform& p, double w, double error) {
            core::RumrOptions options;
            options.known_error = error;
            options.phase1_order = core::DispatchOrder::kInOrder;
            options.name = "RUMR-inorder";
            return instances_of<core::RumrPolicy>(core::prepare_rumr(p, w, std::move(options)));
          }};
}

AlgorithmSpec rumr_fixed_spec(double phase1_percent) {
  core::RumrOptions options = core::rumr_fixed_split_options(phase1_percent);
  return {options.name, [options](const platform::StarPlatform& p, double w, double) {
            return instances_of<core::RumrPolicy>(core::prepare_rumr(p, w, options));
          }};
}

AlgorithmSpec rumr_adaptive_spec() {
  return {"RUMR-adaptive", [](const platform::StarPlatform& p, double w, double) {
            return instances_of<core::AdaptiveRumrPolicy>(core::prepare_adaptive_rumr(p, w));
          }};
}

AlgorithmSpec umr_spec() {
  // The paper's UMR competitor executes a schedule "precalculated at the
  // onset of the application" — sizes, order, AND send times. kTimetable is
  // that literal execution: a send never starts before its planned time, so
  // the master cannot opportunistically run ahead when transfers finish
  // early (the greedy component RUMR adds in phase 1).
  return {"UMR", [](const platform::StarPlatform& p, double w, double) {
            return instances_of<core::UmrPolicy>(
                core::prepare_umr(p, w, core::DispatchOrder::kTimetable));
          }};
}

AlgorithmSpec mi_spec(std::size_t installments) {
  return {"MI-" + std::to_string(installments),
          [installments](const platform::StarPlatform& p, double w, double) {
            return instances_of<baselines::StaticSequencePolicy>(
                baselines::prepare_mi(p, w, installments));
          }};
}

AlgorithmSpec factoring_spec() {
  return {"Factoring", [](const platform::StarPlatform& p, double w, double) {
            return instances_of<baselines::SelfSchedulingPolicy>(
                baselines::prepare_factoring(p, w));
          }};
}

AlgorithmSpec fsc_spec() {
  return {"FSC", [](const platform::StarPlatform& p, double w, double error) {
            return instances_of<baselines::SelfSchedulingPolicy>(
                baselines::prepare_fsc(p, w, error));
          }};
}

AlgorithmSpec gss_spec() {
  return {"GSS", [](const platform::StarPlatform& p, double w, double) {
            return instances_of<baselines::SelfSchedulingPolicy>(baselines::prepare_gss(p, w));
          }};
}

AlgorithmSpec tss_spec() {
  return {"TSS", [](const platform::StarPlatform& p, double w, double) {
            return instances_of<baselines::SelfSchedulingPolicy>(baselines::prepare_tss(p, w));
          }};
}

AlgorithmSpec weighted_factoring_spec() {
  return {"WF", [](const platform::StarPlatform& p, double w, double) {
            return instances_of<baselines::WeightedFactoringPolicy>(
                baselines::prepare_weighted_factoring(p, w));
          }};
}

std::vector<AlgorithmSpec> paper_competitors() {
  std::vector<AlgorithmSpec> specs;
  specs.push_back(rumr_spec());
  specs.push_back(umr_spec());
  for (std::size_t x = 1; x <= 4; ++x) specs.push_back(mi_spec(x));
  specs.push_back(factoring_spec());
  return specs;
}

std::vector<AlgorithmSpec> extended_competitors() {
  std::vector<AlgorithmSpec> specs = paper_competitors();
  specs.push_back(fsc_spec());
  return specs;
}

std::vector<AlgorithmSpec> racing_competitors() {
  std::vector<AlgorithmSpec> specs;
  specs.push_back(rumr_spec());
  for (double pct : {50.0, 60.0, 70.0, 80.0, 90.0}) specs.push_back(rumr_fixed_spec(pct));
  specs.push_back(umr_spec());
  specs.push_back(mi_spec(2));
  specs.push_back(factoring_spec());
  specs.push_back(fsc_spec());
  return specs;
}

std::vector<AlgorithmSpec> loop_family_competitors() {
  std::vector<AlgorithmSpec> specs;
  specs.push_back(rumr_spec());
  specs.push_back(factoring_spec());
  specs.push_back(weighted_factoring_spec());
  specs.push_back(gss_spec());
  specs.push_back(tss_spec());
  specs.push_back(fsc_spec());
  return specs;
}

}  // namespace rumr::sweep
