#pragma once

/// \file grid.hpp
/// The experimental parameter space of the paper's Table 1:
///   N     = 10, 15, ..., 50           workers
///   W     = 1000                      workload units
///   S     = 1                         unit/s (so B is also the comm/comp ratio)
///   B     = (1.2, 1.3, ..., 2.0) * N  unit/s
///   cLat  = 0.0, 0.1, ..., 1.0        s
///   nLat  = 0.0, 0.1, ..., 1.0        s
/// bench_experiments defaults to a decimated version of the same ranges
/// (coarser steps) so a default run finishes quickly; --full selects the
/// paper-exact grid.

#include <cstddef>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace rumr::sweep {

/// One homogeneous platform configuration from the Table 1 space.
struct PlatformConfig {
  std::size_t n = 10;      ///< Worker count N.
  double b_over_n = 1.2;   ///< B / N (>= 1.2 satisfies full utilization).
  double clat = 0.0;       ///< cLat (s).
  double nlat = 0.0;       ///< nLat (s).

  /// Instantiates the homogeneous star platform (S = 1, tLat = 0, B = b_over_n * N).
  [[nodiscard]] platform::StarPlatform to_platform() const;

  /// "N=20 B=36 cLat=0.3 nLat=0.9" style label.
  [[nodiscard]] std::string label() const;
};

/// A sweepable platform: any star platform under a stable human-readable
/// label. The label doubles as the platform's *seed identity* — the sharded
/// sweep engine hashes it (FNV-1a) into every per-repetition seed — so two
/// entries with the same label replay identically and renaming a platform
/// deliberately re-randomizes it. Table 1 grids wrap via from_config();
/// hand-built platforms (e.g. the image-rendering example's 16-worker
/// cluster) pass any descriptive label.
struct SweepPlatform {
  std::string label;
  platform::StarPlatform platform;

  [[nodiscard]] static SweepPlatform from_config(const PlatformConfig& config);
};

/// Wraps every config of a grid (label = config.label()).
[[nodiscard]] std::vector<SweepPlatform> wrap_grid(const std::vector<PlatformConfig>& configs);

/// Axis values defining a (sub)grid of Table 1.
struct GridSpec {
  std::vector<std::size_t> n_values;
  std::vector<double> b_over_n_values;
  std::vector<double> clat_values;
  std::vector<double> nlat_values;

  /// The paper-exact Table 1 grid (9 x 9 x 11 x 11 = 9801 configurations).
  [[nodiscard]] static GridSpec paper_full();

  /// Coarser steps over the same ranges (5 x 5 x 6 x 6 = 900 configurations).
  [[nodiscard]] static GridSpec decimated();

  /// The low-latency subset of Figure 4(b): cLat < 0.3 and nLat < 0.3.
  [[nodiscard]] GridSpec restrict_low_latency(double clat_max = 0.3, double nlat_max = 0.3) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return n_values.size() * b_over_n_values.size() * clat_values.size() * nlat_values.size();
  }
};

/// Expands a GridSpec into the full cross product, in deterministic
/// (n, b, clat, nlat) lexicographic order.
[[nodiscard]] std::vector<PlatformConfig> make_grid(const GridSpec& spec);

/// Error axis helpers. The paper varies `error` from 0 to 0.5 and buckets
/// table results into five bands 0-0.08, 0.1-0.18, ..., 0.4-0.48.
[[nodiscard]] std::vector<double> error_axis(double max_error = 0.48, double step = 0.02);

/// Band index (0..4) for an error value, or SIZE_MAX if outside all bands.
[[nodiscard]] std::size_t error_band(double error) noexcept;

/// Offered-load axis for open-system (multi-job) sweeps: fractions of the
/// platform's aggregate compute capacity, min_load..max_load inclusive.
/// Pair with jobs::JobStreamSpec::rate_for_load to turn each point into an
/// arrival rate.
[[nodiscard]] std::vector<double> load_axis(double min_load = 0.1, double max_load = 0.9,
                                            double step = 0.2);

/// Human-readable band labels matching the paper's table headers.
[[nodiscard]] const std::vector<std::string>& error_band_labels();

}  // namespace rumr::sweep
