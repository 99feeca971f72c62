// Shard topology of a gdelt_router deployment.
//
// A topology is an ordered list of logical shards; each shard is a list
// of replica endpoints that serve identical data for that shard (the
// same converted database directory behind each). The router scatters
// partition i of a scattered query to any live replica of shard i,
// so replica order within a shard is a preference order, not a
// partition assignment.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace gdelt::router {

/// One backend address (IPv4 dotted quad or "localhost").
struct Endpoint {
  std::string host;
  int port = 0;

  std::string Label() const { return host + ":" + std::to_string(port); }
};

/// shards[i] holds the replica list of logical shard i.
struct Topology {
  std::vector<std::vector<Endpoint>> shards;

  std::size_t num_shards() const noexcept { return shards.size(); }
};

/// Parses a topology spec: shards separated by ';', replicas of one
/// shard by ',', each endpoint "host:port". Example with two shards,
/// the first one replicated:
///
///   127.0.0.1:7001,127.0.0.1:7002;127.0.0.1:7003
///
/// Strict: empty shards, missing ports and out-of-range ports are
/// rejected rather than guessed at, matching the protocol parser's
/// posture.
Result<Topology> ParseTopology(std::string_view spec);

}  // namespace gdelt::router
