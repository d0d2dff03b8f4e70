#pragma once

/// \file scheduler_factory.hpp
/// The evaluation's line-ups, drawn from the policy registry
/// (config/policies.hpp), so the sweep runner, the racer and the bench
/// harnesses share one definition of each competitor. Every factory below
/// is a registry lookup; the registry says what each algorithm is and how
/// its plan is prepared.

#include <cstddef>
#include <vector>

#include "config/policies.hpp"

namespace rumr::sweep {

using PreparedPolicy = config::PreparedPolicy;
using AlgorithmSpec = config::AlgorithmSpec;

/// RUMR with the error level known (original RUMR of the paper).
[[nodiscard]] AlgorithmSpec rumr_spec();
/// RUMR with in-order (plain UMR) phase 1 — the Figure 7 ablation.
[[nodiscard]] AlgorithmSpec rumr_inorder_spec();
/// RUMR scheduling a fixed percentage of the workload in phase 1 — Figure 6.
[[nodiscard]] AlgorithmSpec rumr_fixed_spec(std::size_t phase1_percent);
/// RUMR with on-line error estimation (extension).
[[nodiscard]] AlgorithmSpec rumr_adaptive_spec();
/// Plain UMR (Yang & Casanova, IPDPS'03).
[[nodiscard]] AlgorithmSpec umr_spec();
/// Multi-Installment with x installments (Bharadwaj et al.).
[[nodiscard]] AlgorithmSpec mi_spec(std::size_t installments);
/// Factoring (Flynn Hummel).
[[nodiscard]] AlgorithmSpec factoring_spec();
/// Fixed-Size Chunking (Hagerup / Kruskal-Weiss).
[[nodiscard]] AlgorithmSpec fsc_spec();
/// Weighted Factoring (Flynn Hummel et al. 1996).
[[nodiscard]] AlgorithmSpec weighted_factoring_spec();

/// The paper's section 5.1 line-up, reference (RUMR) first:
/// RUMR, UMR, MI-1, MI-2, MI-3, MI-4, Factoring.
[[nodiscard]] std::vector<AlgorithmSpec> paper_competitors();

/// paper_competitors() plus FSC (measured by the paper but not plotted).
[[nodiscard]] std::vector<AlgorithmSpec> extended_competitors();

/// RUMR against the whole loop self-scheduling family:
/// RUMR, Factoring, WF, GSS, TSS, FSC (extension study).
[[nodiscard]] std::vector<AlgorithmSpec> loop_family_competitors();

/// The best-arm racing line-up (race/race.hpp): RUMR and its fixed-split
/// ablations against the cross-family baselines —
/// RUMR, RUMR-50..RUMR-90, UMR, MI-2, Factoring, FSC (10 arms).
[[nodiscard]] std::vector<AlgorithmSpec> racing_competitors();

}  // namespace rumr::sweep
