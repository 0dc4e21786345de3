#ifndef DBSHERLOCK_COMMON_SIMD_SIMD_H_
#define DBSHERLOCK_COMMON_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace dbsherlock::common::simd {

// ---------------------------------------------------------------------------
// Runtime ISA dispatch (DESIGN.md §12).
//
// Every kernel below has two implementations — the scalar reference and
// AVX2 — that produce bit-identical results (see the lane discipline note),
// selected once per process from CPUID: AVX2 where the CPU has it, scalar
// everywhere else. Release builds carry no -march flags; the AVX2
// translation unit alone is compiled with -mavx2 and is only reachable
// through the dispatch table after the CPU check.
//
// Override order: DBSHERLOCK_FORCE_ISA=scalar|avx2 in the environment
// (clamped to the best supported ISA with a one-line stderr warning if the
// host can't run the request), then ScopedIsaOverride/SetActiveIsa for
// tests and benchmarks.
// ---------------------------------------------------------------------------

enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Display name: "scalar", "avx2".
const char* IsaName(Isa isa);

/// Parses an IsaName (case-insensitive); nullopt for anything else.
std::optional<Isa> ParseIsaName(const std::string& name);

/// True when this build AND this CPU can execute `isa` kernels. kScalar is
/// always supported.
bool IsaSupported(Isa isa);

/// The best ISA this host supports (what dispatch picks absent overrides).
Isa BestSupportedIsa();

/// The ISA the kernel wrappers currently route to. Resolved on first use
/// (CPUID + DBSHERLOCK_FORCE_ISA); stable afterwards unless overridden.
Isa ActiveIsa();

/// Points the dispatch table at `isa`. Returns false (and changes nothing)
/// when the ISA is unsupported on this host/build. Not meant for concurrent
/// use with in-flight kernels — tests and benchmarks call it between runs.
bool SetActiveIsa(Isa isa);

/// RAII ISA override for tests/benchmarks; restores the previous ISA.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(Isa isa) : previous_(ActiveIsa()) {
    ok_ = SetActiveIsa(isa);
  }
  ~ScopedIsaOverride() { SetActiveIsa(previous_); }
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;
  /// False when the requested ISA was unsupported (no change was made).
  bool ok() const { return ok_; }

 private:
  Isa previous_;
  bool ok_ = false;
};

// ---------------------------------------------------------------------------
// Kernels.
//
// All kernels operate on contiguous column spans (`const double* + length`)
// and are NaN-mask aware: non-finite cells never contaminate mins, sums or
// counts (PR 2's quality-gating contract).
//
// Lane discipline (why scalar == AVX2 bitwise): reductions are defined
// over eight logical lanes; element i belongs to lane i mod 8.
// (Eight, not four: two independent accumulator registers per YMM kind
// keep the ADDPD latency chain from bounding throughput.) Sums accumulate
// per lane in element order (masked cells contribute +0.0) and the lanes
// reduce as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). Min/max fold per lane
// with the x86 MINPD/MAXPD operation a < b ? a : b (returns b on ties, so
// even the ±0.0 edge matches) and reduce in the same fixed tree. The scalar
// implementation follows the identical discipline, so both tiers round the
// exact same intermediate values. Element-wise kernels are trivially
// identical (same IEEE ops per element; FP contraction is disabled in the
// SIMD translation units).
// ---------------------------------------------------------------------------

/// One-pass span statistics over finite cells.
struct SpanProfile {
  double min = 0.0;  // over finite cells; meaningless when finite_count == 0
  double max = 0.0;
  double sum = 0.0;  // lane-disciplined masked sum of finite cells
  uint64_t finite_count = 0;
  uint64_t non_finite_count = 0;
};

/// min/max/sum/finite-fraction of x[0, n) in one sweep.
SpanProfile ProfileSpan(const double* x, size_t n);

/// Lane-disciplined unmasked sum (NaN/Inf propagate, like a plain loop).
double SumSpan(const double* x, size_t n);

/// Lane-disciplined unmasked sum of (x[i] - center)^2.
double SumSquaredDiff(const double* x, size_t n, double center);

/// Predicate comparison shapes, matching core::Predicate numeric semantics
/// (NaN matches nothing).
enum class CmpKind : int {
  kLess = 0,       // v < hi
  kGreaterEq = 1,  // v >= lo
  kInRange = 2,    // v >= lo && v < hi
};

/// Number of elements of x[0, n) satisfying the comparison.
uint64_t CountMatches(const double* x, size_t n, CmpKind kind, double lo,
                      double hi);

/// PartitionIndices writes this for non-finite cells (they vote for no
/// partition; callers skip the sentinel).
inline constexpr uint32_t kNoPartition = 0xFFFFFFFFu;

/// Equi-width partition index per cell, replicating
/// core::PartitionSpace::PartitionOf for finite cells:
///   v <= min_value        -> 0
///   otherwise             -> min(trunc((v - min_value) / width),
///                              num_partitions - 1)
/// Non-finite cells get kNoPartition. Requires num_partitions >= 1 and
/// width > 0.
void PartitionIndices(const double* x, size_t n, double min_value,
                      double width, uint32_t num_partitions, uint32_t* out);

/// Min-max normalization with NaN fill:
///   out[i] = finite(x[i]) ? (x[i] - lo) / (hi - lo) : fill
/// When hi - lo <= 0 every finite cell maps to 0.0 (stats.h contract) and
/// non-finite cells still map to fill.
void NormalizeSpan(const double* x, size_t n, double lo, double hi,
                   double fill, double* out);

/// Squared Euclidean distances from point p to every point, over a
/// dimension-major layout: cols[k][q] is coordinate k of point q.
///   out[q] = sum_k (cols[k][q] - cols[k][p])^2,  k ascending
/// (out[p] computes to exactly 0). `num_cols` may be 0 (out zeroed).
void SquaredDistancesToAll(const double* const* cols, size_t num_cols,
                           size_t n, size_t p, double* out);

}  // namespace dbsherlock::common::simd

#endif  // DBSHERLOCK_COMMON_SIMD_SIMD_H_
