#pragma once

// Request payloads for the rumr::serve tests: a small, fully explicit query,
// a query that sets every field, and the batch envelope around a list of
// them.

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

/// One three-worker platform with every worker field set, as the
/// homogeneous shorthand and as the equivalent explicit list.
inline const std::string kShorthandPlatform =
    "{\"homogeneous\":{\"workers\":3,\"speed\":2,\"bandwidth\":8,\"comp_latency\":0.5,"
    "\"comm_latency\":0.25,\"transfer_latency\":0.125}}";
inline const std::string kListPlatform = [] {
  const std::string worker =
      "{\"speed\":2,\"bandwidth\":8,\"comp_latency\":0.5,\"comm_latency\":0.25,"
      "\"transfer_latency\":0.125}";
  return "{\"workers\":[" + worker + "," + worker + "," + worker + "]}";
}();

/// A query that sets every optional field on `platform` (JSON text). The
/// seed is spelled as given: a JSON number, or a quoted decimal string.
inline std::string every_field_query_json(const std::string& platform, const std::string& seed) {
  return "{\"platform\":" + platform +
         ",\"workload\":500,\"algorithm\":\"umr\",\"known_error\":0.2,\"error\":0.1,"
         "\"seed\":" +
         seed + ",\"uplink_channels\":2,\"output_ratio\":0.5,\"worker_buffer_capacity\":3}";
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
