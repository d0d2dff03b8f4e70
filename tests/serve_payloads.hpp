#pragma once

// Request payloads for the rumr::serve tests: a small, fully explicit query
// and the batch envelope around a list of them.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rumr::test_support {

/// A small, fully explicit query payload; vary `seed` for distinct cache keys.
inline std::string query_json(std::uint64_t seed, const std::string& algorithm = "rumr") {
  return "{\"platform\":{\"homogeneous\":{\"workers\":4,\"speed\":1,\"bandwidth\":12}},"
         "\"workload\":250,\"algorithm\":\"" +
         algorithm + "\",\"known_error\":0.3,\"error\":0.3,\"seed\":" + std::to_string(seed) +
         "}";
}

inline std::string batch_json(std::int64_t id, const std::vector<std::string>& queries) {
  std::string payload = "{\"type\":\"batch\",\"id\":" + std::to_string(id) + ",\"queries\":[";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i != 0) payload += ',';
    payload += queries[i];
  }
  payload += "]}";
  return payload;
}

}  // namespace rumr::test_support
