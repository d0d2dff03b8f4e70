#include "config/policies.hpp"

#include <charconv>
#include <span>
#include <system_error>
#include <utility>

#include "baselines/factoring.hpp"
#include "baselines/fsc.hpp"
#include "baselines/loop_scheduling.hpp"
#include "baselines/multi_installment.hpp"
#include "config/config_file.hpp"
#include "core/adaptive_rumr.hpp"
#include "core/rumr.hpp"
#include "core/umr_policy.hpp"

namespace rumr::config {

namespace {

using platform::StarPlatform;

/// One row of the registry. A family row's names are prefixes completed by
/// its parameter, which lies in [min_param, max_param] (max_param == 0 for
/// a fixed row); `evaluated` lists the members the evaluation runs. When
/// `per_worker` is set, N workers share max_param: N * param may not exceed
/// it (MI-x solves N*x unknowns).
struct PolicyEntry {
  std::string_view config_name;
  std::string_view display_name;
  PreparedPolicy (*prepare)(const StarPlatform& p, double w_total, double error,
                            std::size_t param);
  std::string_view param_name{};
  std::size_t min_param = 0;
  std::size_t max_param = 0;
  std::span<const std::size_t> evaluated{};
  bool per_worker = false;
};

/// A PreparedPolicy whose calls build `Policy` cursors over `plan`.
template <typename Policy, typename Plan>
PreparedPolicy instances_of(std::shared_ptr<const Plan> plan) {
  return [plan = std::move(plan)] { return std::make_unique<Policy>(plan); };
}

core::RumrOptions told_error(double error) {
  core::RumrOptions options;
  options.known_error = error;
  return options;
}

constexpr std::size_t kEvaluatedMi[] = {1, 2, 3, 4};
constexpr std::size_t kEvaluatedSplits[] = {50, 60, 70, 80, 90};

/// The vocabulary. Rows are in the order policy_names() lists them.
constexpr PolicyEntry kPolicies[] = {
    // RUMR told the error level: the paper's algorithm.
    {"rumr", "RUMR", [](const StarPlatform& p, double w, double error, std::size_t) {
       return instances_of<core::RumrPolicy>(core::prepare_rumr(p, w, told_error(error)));
     }},
    // UMR executed literally on its precalculated timetable (sizes, order
    // AND send times; DESIGN.md section 4), as the paper's competitor.
    {"umr", "UMR", [](const StarPlatform& p, double w, double, std::size_t) {
       return instances_of<core::UmrPolicy>(
           core::prepare_umr(p, w, core::DispatchOrder::kTimetable));
     }},
    // Multi-Installment with x installments.
    {"mi-", "MI-",
     [](const StarPlatform& p, double w, double, std::size_t x) {
       return instances_of<baselines::StaticSequencePolicy>(baselines::prepare_mi(p, w, x));
     },
     "MI installment count", 1, baselines::kMaxMiUnknowns, kEvaluatedMi, true},
    {"factoring", "Factoring", [](const StarPlatform& p, double w, double, std::size_t) {
       return instances_of<baselines::SelfSchedulingPolicy>(baselines::prepare_factoring(p, w));
     }},
    // Fixed-Size Chunking told the error level.
    {"fsc", "FSC", [](const StarPlatform& p, double w, double error, std::size_t) {
       return instances_of<baselines::SelfSchedulingPolicy>(baselines::prepare_fsc(p, w, error));
     }},
    // RUMR estimating the error on line (extension).
    {"rumr-adaptive", "RUMR-adaptive", [](const StarPlatform& p, double w, double, std::size_t) {
       return instances_of<core::AdaptiveRumrPolicy>(core::prepare_adaptive_rumr(p, w));
     }},
    // RUMR with pct% of the work in phase 1 whatever the error (Figure 6).
    {"rumr-", "RUMR-",
     [](const StarPlatform& p, double w, double, std::size_t pct) {
       return instances_of<core::RumrPolicy>(core::prepare_rumr(
           p, w, core::rumr_fixed_split_options(static_cast<double>(pct))));
     },
     "RUMR phase-1 percentage", 0, 100, kEvaluatedSplits},
    // RUMR with an in-order phase 1 (Figure 7).
    {"rumr-inorder", "RUMR-inorder",
     [](const StarPlatform& p, double w, double error, std::size_t) {
       core::RumrOptions options = told_error(error);
       options.phase1_order = core::DispatchOrder::kInOrder;
       options.name = "RUMR-inorder";
       return instances_of<core::RumrPolicy>(core::prepare_rumr(p, w, std::move(options)));
     }},
    // UMR dispatching in order as soon as the uplink frees.
    {"umr-eager", "UMR-eager", [](const StarPlatform& p, double w, double, std::size_t) {
       return instances_of<core::UmrPolicy>(
           core::prepare_umr(p, w, core::DispatchOrder::kInOrder, {}, "UMR-eager"));
     }},
    // The rest of the loop self-scheduling family.
    {"wf", "WF", [](const StarPlatform& p, double w, double, std::size_t) {
       return instances_of<baselines::WeightedFactoringPolicy>(
           baselines::prepare_weighted_factoring(p, w));
     }},
    {"gss", "GSS", [](const StarPlatform& p, double w, double, std::size_t) {
       return instances_of<baselines::SelfSchedulingPolicy>(baselines::prepare_gss(p, w));
     }},
    {"tss", "TSS", [](const StarPlatform& p, double w, double, std::size_t) {
       return instances_of<baselines::SelfSchedulingPolicy>(baselines::prepare_tss(p, w));
     }},
};

/// A resolved name: its row and parameter. When no row matches, `row` is
/// null and `family` is the family whose prefix matched, if any.
struct Lookup {
  const PolicyEntry* row = nullptr;
  std::size_t param = 0;
  const PolicyEntry* family = nullptr;
};

/// A family parameter: decimal digits only (from_chars takes no sign or
/// space, and reports overflow), no leading zero — which would give one
/// algorithm two names — and inside the row's range.
bool parse_param(std::string_view digits, const PolicyEntry& row, std::size_t& value) {
  const char* const last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, value);
  return ec == std::errc{} && end == last && (digits.size() == 1 || digits.front() != '0') &&
         value >= row.min_param && value <= row.max_param;
}

Lookup lookup(std::string_view name) noexcept {
  Lookup found;
  for (const PolicyEntry& row : kPolicies) {
    if (row.max_param == 0) {
      if (name == row.config_name) return {&row, 0, nullptr};
    } else if (name.starts_with(row.config_name)) {
      // A bad parameter keeps the scan going: "rumr-inorder" is a row too.
      if (parse_param(name.substr(row.config_name.size()), row, found.param)) {
        return {&row, found.param, nullptr};
      }
      found.family = &row;
    }
  }
  return found;
}

std::string problem_of(const Lookup& found, std::string_view name) {
  if (found.row != nullptr) return {};
  if (const PolicyEntry* family = found.family) {
    return "bad " + std::string(family->param_name) + " in: " + std::string(name) +
           " (expected a decimal integer in [" + std::to_string(family->min_param) + ", " +
           std::to_string(family->max_param) + "])";
  }
  return "unknown algorithm: " + std::string(name);
}

Lookup resolve(std::string_view name) {
  const Lookup found = lookup(name);
  if (found.row == nullptr) throw ConfigError(problem_of(found, name));
  return found;
}

}  // namespace

AlgorithmSpec policy_spec(std::string_view name) {
  const Lookup found = resolve(name);
  std::string display(found.row->display_name);
  if (found.row->max_param != 0) display += std::to_string(found.param);
  return {std::move(display),
          [prepare = found.row->prepare, param = found.param](
              const StarPlatform& p, double w_total, double error) {
            return prepare(p, w_total, error, param);
          },
          std::string(name)};
}

std::string policy_name_problem(std::string_view name) { return problem_of(lookup(name), name); }

std::string policy_size_problem(std::string_view name, std::size_t num_workers) {
  const Lookup found = lookup(name);
  // Divides rather than multiplies, as the solver does, so N * param cannot
  // overflow.
  if (found.row == nullptr || !found.row->per_worker || num_workers == 0 ||
      found.param <= found.row->max_param / num_workers) {
    return {};
  }
  return std::string(name) + " on " + std::to_string(num_workers) + " workers: " +
         std::string(found.row->param_name) + " " + std::to_string(found.param) + " exceeds " +
         std::to_string(found.row->max_param / num_workers) + " (N*x may not exceed " +
         std::to_string(found.row->max_param) + " unknowns)";
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const PolicyEntry& row : kPolicies) {
    if (row.max_param == 0) names.emplace_back(row.config_name);
    for (const std::size_t param : row.evaluated) {
      names.push_back(std::string(row.config_name) + std::to_string(param));
    }
  }
  return names;
}

std::unique_ptr<sim::SchedulerPolicy> make_policy(std::string_view name,
                                                  const StarPlatform& platform, double w_total,
                                                  double known_error) {
  const Lookup found = resolve(name);
  return found.row->prepare(platform, w_total, known_error, found.param)();
}

}  // namespace rumr::config
