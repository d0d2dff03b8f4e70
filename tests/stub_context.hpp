#pragma once

// A MasterContext whose worker states a test sets by hand, for driving a
// policy's next_dispatch without the engine.

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::test_support {

class StubContext : public sim::MasterContext {
 public:
  explicit StubContext(const platform::StarPlatform& p) : platform_(p), status_(p.size()) {}

  [[nodiscard]] des::SimTime now() const override { return now_; }
  [[nodiscard]] const platform::StarPlatform& platform() const override { return platform_; }
  [[nodiscard]] std::size_t num_workers() const override { return platform_.size(); }
  [[nodiscard]] const sim::WorkerStatus& worker_status(std::size_t i) const override {
    return status_.at(i);
  }
  [[nodiscard]] bool can_receive(std::size_t i) const override {
    return receivable_.empty() || receivable_.at(i);
  }

  des::SimTime now_ = 0.0;
  const platform::StarPlatform& platform_;
  std::vector<sim::WorkerStatus> status_;
  std::vector<bool> receivable_;  ///< Empty: every worker can receive.
};

}  // namespace rumr::test_support
