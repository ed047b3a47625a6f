// Permutation microkernel harness: the scalar Permutation ops vs the
// dispatched kernels of RouteEngine::route_batch's keying path (relabel /
// inverse / unrank / rank) at the paper's symbol counts, with a
// byte-identity check on every op.  Writes bench/baseline_kernels.json, or
// checks a run against it with --check FILE (bench/json_out.hpp):
// `identical` is exact, the *_rps / kernel_speedup fields are rates.
// Exits non-zero if any kernel output differs from the scalar reference.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "core/perm_kernels.hpp"
#include "core/permutation.hpp"
#include "json_out.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using scg::PermBlock;
using scg::Permutation;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kBatch = 4096;

std::vector<Permutation> random_perms(int k, std::size_t n,
                                      std::mt19937_64& rng) {
  std::vector<std::uint8_t> sym(static_cast<std::size_t>(k));
  std::vector<Permutation> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::iota(sym.begin(), sym.end(), std::uint8_t{1});
    std::shuffle(sym.begin(), sym.end(), rng);
    out.push_back(Permutation::from_symbols(sym));
  }
  return out;
}

void load(PermBlock& block, const std::vector<Permutation>& perms, int k) {
  block.resize(k, perms.size());
  for (std::size_t i = 0; i < perms.size(); ++i) block.set(i, perms[i]);
}

/// True iff every lane of `block` equals ref[i] (bytes [0, k)).
bool lanes_equal(const PermBlock& block, const std::vector<Permutation>& ref) {
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const std::uint8_t* lane = block.lane(i);
    for (int p = 0; p < block.k(); ++p) {
      if (lane[p] != ref[i][p] - 1) return false;
    }
  }
  return true;
}

struct OpRow {
  const char* name;
  double scalar_rps;
  double kernel_rps;
  bool identical;
};

/// Times `fn` as the best of several short trials after one warm-up pass;
/// returns ops/second.  The best-of filter keeps the recorded baseline
/// stable on machines where the bench shares a core with other load.
template <typename Fn>
double time_op(std::size_t reps, Fn&& fn) {
  fn();  // warm up (and let PermBlock scratch reach steady state)
  double best = 1e300;
  for (int trial = 0; trial < 8; ++trial) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    best = std::min(best, seconds_since(t0));
  }
  return static_cast<double>(reps * kBatch) / best;
}

std::vector<OpRow> bench_k(int k, std::uint64_t& sink) {
  std::mt19937_64 rng(0x5eedULL + static_cast<std::uint64_t>(k));
  const std::vector<Permutation> as = random_perms(k, kBatch, rng);
  const std::vector<Permutation> bs = random_perms(k, kBatch, rng);
  std::uniform_int_distribution<std::uint64_t> pick(0, scg::factorial(k) - 1);
  std::vector<std::uint64_t> ranks(kBatch);
  for (std::uint64_t& r : ranks) r = pick(rng);

  PermBlock a, b, out;
  load(a, as, k);
  load(b, bs, k);

  std::vector<Permutation> ref(kBatch, Permutation::identity(k));
  std::vector<OpRow> rows;
  const std::size_t reps = 16;

  // Pairwise relabel: out[i][p] = b[i][a[i][p]], the shuffle that forms
  // route_batch's relative permutations W = V^{-1}∘U.
  {
    const double scalar = time_op(reps, [&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        ref[i] = as[i].relabel_symbols(bs[i]);
      }
      sink += ref[0].rank() & 1;
    });
    const double kernel = time_op(reps, [&] {
      scg::perm_kernels::relabel(a, b, out);
      sink += out.lane(0)[0];
    });
    rows.push_back({"relabel", scalar, kernel, lanes_equal(out, ref)});
  }
  // Batch inverse.
  {
    const double scalar = time_op(reps, [&] {
      for (std::size_t i = 0; i < kBatch; ++i) ref[i] = as[i].inverse();
      sink += ref[0].rank() & 1;
    });
    const double kernel = time_op(reps, [&] {
      scg::perm_kernels::inverse(a, out);
      sink += out.lane(0)[0];
    });
    rows.push_back({"inverse", scalar, kernel, lanes_equal(out, ref)});
  }
  // Myrvold–Ruskey unrank / rank.
  {
    const double scalar = time_op(reps, [&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        ref[i] = Permutation::unrank(k, ranks[i]);
      }
      sink += ref[0][0];
    });
    const double kernel = time_op(reps, [&] {
      scg::perm_kernels::unrank(k, ranks, out);
      sink += out.lane(0)[0];
    });
    rows.push_back({"unrank", scalar, kernel, lanes_equal(out, ref)});
  }
  {
    std::vector<std::uint64_t> got(kBatch);
    const double scalar = time_op(reps, [&] {
      for (std::size_t i = 0; i < kBatch; ++i) got[i] = as[i].rank();
      sink += got[0] & 1;
    });
    std::vector<std::uint64_t> kernel_got(kBatch);
    const double kernel = time_op(reps, [&] {
      scg::perm_kernels::rank(a, kernel_got);
      sink += kernel_got[0] & 1;
    });
    bool same = true;
    for (std::size_t i = 0; i < kBatch; ++i) {
      same = same && kernel_got[i] == as[i].rank();
    }
    rows.push_back({"rank", scalar, kernel, same});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Json json(argc, argv, "bench/baseline_kernels.json");
  std::printf("permutation microkernels: dispatch tier = %s (batch %zu)\n\n",
              scg::kernel_tier_name(scg::active_kernel_tier()), kBatch);
  std::printf("%4s  %-8s  %12s  %12s  %8s  %s\n", "k", "op", "scalar M/s",
              "kernel M/s", "speedup", "identical");

  json.begin_array("kernels");
  std::uint64_t sink = 0;
  bool all_identical = true;
  for (const int k : {9, 13, 16, 20}) {
    for (const OpRow& r : bench_k(k, sink)) {
      const double speedup = r.kernel_rps / r.scalar_rps;
      all_identical = all_identical && r.identical;
      std::printf("%4d  %-8s  %12.2f  %12.2f  %7.2fx  %s\n", k, r.name,
                  r.scalar_rps / 1e6, r.kernel_rps / 1e6, speedup,
                  r.identical ? "yes" : "NO");
      json.row({benchjson::exact("name", std::string(r.name)),
                benchjson::exact("k", k), benchjson::exact("pairs", kBatch),
                benchjson::rate("scalar_rps", r.scalar_rps),
                benchjson::rate("kernel_rps", r.kernel_rps),
                benchjson::rate("kernel_speedup", speedup),
                benchjson::exact("identical", r.identical)});
    }
  }
  const int status = json.finish();
  std::printf("(sink %llu)\n", static_cast<unsigned long long>(sink & 7));
  if (!all_identical) {
    std::printf("FAIL: a kernel output differed from the scalar reference\n");
    return 1;
  }
  return status;
}
