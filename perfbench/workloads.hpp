// The three perfbench workloads, each one closed batch job run to completion
// through the public SAGE API. See README.md for why each was chosen and
// which layer it loads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "meter.hpp"

namespace perfbench {

struct RepOptions {
  std::uint64_t seed = 1;
  /// Observability registry on, for the per-layer counts and the checks
  /// that need it (fabric conservation, stream record balance).
  bool traced = false;
  /// sharded_plane only: run the lanes on a pool of this many workers; 0
  /// runs them inline on the calling thread, the timed configuration.
  std::size_t pool_workers = 0;
};

/// What one repetition produced besides its timing.
struct RepResult {
  std::uint64_t ops_attempted = 0;
  /// Operations that reported back exactly once within their budget.
  std::uint64_t ops_reported = 0;
  /// Broken conservation identities, double reports, etc.
  std::vector<std::string> violations;
  /// Per-layer work counts; deterministic for a seed.
  std::map<std::string, double> counts;
  /// Simulated SAGE results (outcome.*); deterministic for a seed.
  std::map<std::string, double> outcome;
  /// Hash of every simulated result of the repetition.
  std::uint64_t fingerprint = 0;
};

using WorkloadFn = RepResult (*)(const RepOptions&, Meter&);

RepResult bulk_stage(const RepOptions& opts, Meter& meter);
RepResult geo_stream(const RepOptions& opts, Meter& meter);
RepResult sharded_plane(const RepOptions& opts, Meter& meter);

/// Lane count of sharded_plane, and the cap on its pool width.
inline constexpr std::size_t kShardLanes = 4;

}  // namespace perfbench
