// OraclePolicy — RoutePolicy over the exact distance oracle: every path it
// emits has provably minimal hop count.  Where route() (router.hpp) replays
// the paper's game solvers — fast, but up to the solver's stretch away from
// optimal — this policy descends the oracle's mod-3 distance table
// (DistanceOracle::optimal_route).  It is the "optimal play" reference: the
// audits in analysis/oracle_audit.hpp measure every other router against
// the oracle.  Building the oracle costs one retrograde BFS over all k!
// states (k <= kMaxOracleSymbols), so construct once and query many times.
//
// The header lives in src/networks/ beside the other policies but is
// compiled into the scg_oracle library (the oracle depends on scg_networks,
// so registering it from scg_networks would cycle).
//
// The "oracle" registry name is NOT available by default: binaries that
// want it must call register_oracle_policy() once at startup.  An explicit
// call because the linker drops self-registration objects from static
// libraries, and because oracle construction (one retrograde BFS over all
// k! states) should never be a surprise side effect.
#pragma once

#include <cstdint>
#include <vector>

#include "networks/route_policy.hpp"
#include "oracle/oracle.hpp"

namespace scg {

class OraclePolicy : public RoutePolicy {
 public:
  /// Builds the oracle for `net` (borrows the spec; it must outlive the
  /// policy).  Throws for k > kMaxOracleSymbols.
  explicit OraclePolicy(const NetworkSpec& net, ThreadPool* pool = nullptr);

  /// Adopts a previously built (or loaded) oracle.
  explicit OraclePolicy(DistanceOracle oracle);

  std::string name() const override { return "oracle"; }
  void route_path(std::uint64_t src, std::uint64_t dst,
                  std::vector<std::uint32_t>& out) override;
  int route_hops(std::uint64_t src, std::uint64_t dst) override;

 private:
  DistanceOracle oracle_;
};

/// Adds "oracle" to the route-policy registry.  Idempotent.
void register_oracle_policy();

}  // namespace scg
