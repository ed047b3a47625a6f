// Sweeps, figure series and Table 1 generation.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/figures.hpp"
#include "analysis/formulas.hpp"
#include "analysis/sweeps.hpp"
#include "networks/router.hpp"
#include "topology/metrics.hpp"

namespace scg {
namespace {

TEST(Sweeps, AllSourcesMatchesDirectLoop) {
  const NetworkSpec net = make_macro_star(2, 2);  // N = 120
  const SolverSweep sweep = sweep_all_sources(net);
  int max_steps = 0;
  std::uint64_t sum = 0;
  const Permutation target = Permutation::identity(5);
  for (std::uint64_t r = 0; r < net.num_nodes(); ++r) {
    const int steps = route_length(net, Permutation::unrank(5, r), target);
    max_steps = std::max(max_steps, steps);
    sum += static_cast<std::uint64_t>(steps);
  }
  EXPECT_EQ(sweep.max_steps, max_steps);
  EXPECT_EQ(sweep.sources, net.num_nodes());
  EXPECT_NEAR(sweep.avg_steps, static_cast<double>(sum) / net.num_nodes(), 1e-12);
  // worst_rank really achieves the maximum.
  EXPECT_EQ(route_length(net, Permutation::unrank(5, sweep.worst_rank), target),
            max_steps);
}

TEST(Sweeps, SampledIsBoundedByExhaustive) {
  const NetworkSpec net = make_complete_rotation_star(2, 2);
  const SolverSweep full = sweep_all_sources(net);
  const SolverSweep sampled = sweep_sampled(net, 500, 7);
  EXPECT_LE(sampled.max_steps, full.max_steps);
  EXPECT_EQ(sampled.sources, 500u);
  // Deterministic for a fixed seed.
  const SolverSweep again = sweep_sampled(net, 500, 7);
  EXPECT_EQ(sampled.max_steps, again.max_steps);
  EXPECT_NEAR(sampled.avg_steps, again.avg_steps, 1e-12);
}

TEST(Sweeps, SampledIsTheSameOnEveryPoolSize) {
  // Each chunk seeds its RNG from its first index, so the sample set itself
  // is only host-independent if the chunk bounds are.
  const NetworkSpec net = make_macro_star(2, 3);
  ThreadPool one(1), three(3);
  const SolverSweep a = sweep_sampled(net, 500, 7, &one);
  const SolverSweep b = sweep_sampled(net, 500, 7, &three);
  EXPECT_EQ(a.max_steps, b.max_steps);
  EXPECT_EQ(a.worst_rank, b.worst_rank);
  EXPECT_EQ(a.avg_steps, b.avg_steps);
}

TEST(Sweeps, WorstCaseIsTheAlgorithmicDiameterBoundWitness) {
  // The sweep maximum is an upper bound on the exact diameter and a lower
  // bound on no theorem; verify the sandwich on a small instance.
  const NetworkSpec net = make_macro_star(2, 2);
  const SolverSweep sweep = sweep_all_sources(net);
  const DistanceStats exact = network_distance_stats(net, false);
  EXPECT_GE(sweep.max_steps, exact.eccentricity);
  EXPECT_LE(sweep.max_steps, diameter_upper_bound(net.family, net.l, net.n));
}

TEST(Figures, PaperParameterList) {
  const auto params = paper_ln_parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0], (std::pair<int, int>{2, 2}));
  EXPECT_EQ(params[3], (std::pair<int, int>{3, 3}));
}

TEST(Figures, DegreeSeriesMatchClosedForms) {
  const auto series = figure4_degree_series();
  ASSERT_GE(series.size(), 6u);
  for (const Series& s : series) {
    EXPECT_FALSE(s.points.empty()) << s.name;
    for (const SeriesPoint& p : s.points) {
      EXPECT_GT(p.value, 0.0) << s.name;
      EXPECT_GT(p.log2_nodes, 0.0) << s.name;
    }
    if (s.name == "MS") {
      // degrees n+l-1 at (2,2),(2,3),(2,4),(3,3): 3,4,5,5.
      ASSERT_EQ(s.points.size(), 4u);
      EXPECT_EQ(s.points[0].value, 3);
      EXPECT_EQ(s.points[1].value, 4);
      EXPECT_EQ(s.points[2].value, 5);
      EXPECT_EQ(s.points[3].value, 5);
    }
    if (s.name == "RR") {
      // degrees n+1: 3,4,5,4.
      ASSERT_EQ(s.points.size(), 4u);
      EXPECT_EQ(s.points[3].value, 4);
    }
  }
}

TEST(Figures, DiameterSeriesBoundMode) {
  // With exact measurement disabled, super Cayley points carry bound values
  // and are flagged.
  const auto series = figure5_diameter_series(false);
  for (const Series& s : series) {
    if (s.name != "MS" && s.name != "RR" && s.name != "RIS") continue;
    for (const SeriesPoint& p : s.points) {
      EXPECT_FALSE(p.exact) << s.name;
      EXPECT_GT(p.value, 0.0);
    }
  }
}

TEST(Figures, CostSeriesIsDegreeTimesDiameter) {
  const auto cost = figure6_cost_series(false);
  const auto deg = figure4_degree_series();
  const auto dia = figure5_diameter_series(false);
  for (const Series& c : cost) {
    for (const Series& d : deg) {
      if (d.name != c.name) continue;
      for (const Series& m : dia) {
        if (m.name != c.name) continue;
        ASSERT_EQ(c.points.size(), std::min(d.points.size(), m.points.size()));
        for (std::size_t i = 0; i < c.points.size(); ++i) {
          EXPECT_NEAR(c.points[i].value, d.points[i].value * m.points[i].value,
                      1e-9)
              << c.name;
        }
      }
    }
  }
}

TEST(Figures, PrintSeriesIsTabSeparated) {
  std::ostringstream os;
  print_series(os, figure4_degree_series(), "degree");
  const std::string out = os.str();
  EXPECT_NE(out.find("series\tinstance\tlog2(N)\tdegree\texact"),
            std::string::npos);
  EXPECT_NE(out.find("MS(2,3)"), std::string::npos);
  EXPECT_NE(out.find("hypercube d=24"), std::string::npos);
}

TEST(Table1, RowsCoverPaperClaims) {
  const auto rows = table1_rows(false);  // bound mode: fast
  bool saw_star = false;
  bool saw_ms = false;
  bool saw_mr = false;
  for (const Table1Row& r : rows) {
    if (r.network == "star") {
      saw_star = true;
      EXPECT_DOUBLE_EQ(r.paper_ratio, 1.5);
    }
    if (r.network == "MS") {
      saw_ms = true;
      EXPECT_DOUBLE_EQ(r.paper_ratio, 1.25);
    }
    if (r.network == "MR") {
      saw_mr = true;
      EXPECT_DOUBLE_EQ(r.paper_ratio, 1.0);
    }
    EXPECT_GT(r.measured_ratio, 0.0) << r.network;
  }
  EXPECT_TRUE(saw_star);
  EXPECT_TRUE(saw_ms);
  EXPECT_TRUE(saw_mr);
}

TEST(PaperRatios, MatchTheoremStatements) {
  EXPECT_DOUBLE_EQ(paper_asymptotic_ratio(Family::kStar), 1.5);
  EXPECT_DOUBLE_EQ(paper_asymptotic_ratio(Family::kMacroStar), 1.25);
  EXPECT_DOUBLE_EQ(paper_asymptotic_ratio(Family::kCompleteRotationStar), 1.25);
  EXPECT_DOUBLE_EQ(paper_asymptotic_ratio(Family::kMacroRotator), 1.0);
  EXPECT_DOUBLE_EQ(paper_asymptotic_ratio(Family::kMacroIS), 1.0);
  EXPECT_DOUBLE_EQ(paper_asymptotic_ratio(Family::kCompleteRotationRotator), 1.0);
  EXPECT_DOUBLE_EQ(paper_asymptotic_ratio(Family::kCompleteRotationIS), 1.0);
  EXPECT_DOUBLE_EQ(paper_asymptotic_ratio(Family::kRotationStar), 0.0);
}

TEST(DiameterUpperBound, DominatesForEveryFamilyOnGrid) {
  // Sanity grid: bounds are positive and grow with size within a family.
  const Family families[] = {
      Family::kMacroStar,        Family::kCompleteRotationStar,
      Family::kMacroRotator,     Family::kMacroIS,
      Family::kRotationRotator,  Family::kCompleteRotationRotator,
      Family::kRotationIS,       Family::kCompleteRotationIS,
      Family::kRotationStar};
  for (const Family f : families) {
    for (int l = 2; l <= 4; ++l) {
      for (int n = 1; n <= 4; ++n) {
        EXPECT_GT(diameter_upper_bound(f, l, n), 0);
        EXPECT_LE(diameter_upper_bound(f, l, n), diameter_upper_bound(f, l, n + 1));
      }
    }
  }
}

}  // namespace
}  // namespace scg
