#ifndef DBSHERLOCK_COMMON_SIMD_KERNEL_TABLE_H_
#define DBSHERLOCK_COMMON_SIMD_KERNEL_TABLE_H_

// Internal to the simd layer: the per-ISA entry points and the dispatch
// table shape. Each ISA's translation unit defines one table; dispatch
// (simd.cc) selects one at startup. Not for inclusion outside src/common/
// simd/.

#include "common/simd/simd.h"

namespace dbsherlock::common::simd::detail {

struct KernelTable {
  SpanProfile (*profile_span)(const double*, size_t);
  double (*sum_span)(const double*, size_t);
  double (*sum_squared_diff)(const double*, size_t, double);
  uint64_t (*count_matches)(const double*, size_t, CmpKind, double, double);
  void (*partition_indices)(const double*, size_t, double, double, uint32_t,
                            uint32_t*);
  // Only called with hi - lo > 0; the degenerate range is handled by the
  // public wrapper.
  void (*normalize_span)(const double*, size_t, double, double, double,
                         double*);
  void (*squared_distances_to_all)(const double* const*, size_t, size_t,
                                   size_t, double*);
};

/// The scalar table (always available; also the tail/reference semantics).
const KernelTable& ScalarTable();

/// The AVX2 table, or the scalar table when this build has no AVX2 TU.
const KernelTable& Avx2Table();
bool Avx2KernelsCompiled();

// Shared scalar helpers, usable from the SIMD TUs for tails. MinPd/MaxPd
// mirror the x86 MINPD/MAXPD semantics (return b on ties and unordered) so
// scalar lane folds round identically to the vector ones.
inline double MinPd(double a, double b) { return a < b ? a : b; }
inline double MaxPd(double a, double b) { return a > b ? a : b; }

}  // namespace dbsherlock::common::simd::detail

#endif  // DBSHERLOCK_COMMON_SIMD_KERNEL_TABLE_H_
