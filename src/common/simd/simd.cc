// Runtime ISA dispatch for the columnar kernels. The active table is
// resolved once on first use — CPUID pick, optionally overridden by
// DBSHERLOCK_FORCE_ISA (clamped to what the host supports) — and swapped
// atomically so tests can force an ISA between runs.

#include "common/simd/simd.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/simd/kernel_table.h"

namespace dbsherlock::common::simd {

namespace {

using detail::KernelTable;

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const KernelTable& TableFor(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return detail::Avx2Table();
    case Isa::kScalar:
      break;
  }
  return detail::ScalarTable();
}

struct Dispatch {
  std::atomic<const KernelTable*> table;
  std::atomic<int> isa;
};

/// Resolves the startup ISA: best supported, clamped down if
/// DBSHERLOCK_FORCE_ISA asks for something this host/build can't run.
Isa ResolveStartupIsa() {
  Isa picked = BestSupportedIsa();
  const char* force = std::getenv("DBSHERLOCK_FORCE_ISA");
  if (force != nullptr && force[0] != '\0') {
    std::optional<Isa> requested = ParseIsaName(force);
    if (!requested.has_value()) {
      std::fprintf(stderr,
                   "dbsherlock: ignoring unknown DBSHERLOCK_FORCE_ISA=%s "
                   "(expected scalar|avx2); using %s\n",
                   force, IsaName(picked));
    } else if (!IsaSupported(*requested)) {
      std::fprintf(stderr,
                   "dbsherlock: DBSHERLOCK_FORCE_ISA=%s not supported on "
                   "this host/build; clamping to %s\n",
                   force, IsaName(picked));
    } else {
      picked = *requested;
    }
  }
  return picked;
}

Dispatch& ActiveDispatch() {
  static Dispatch dispatch = [] {
    Isa isa = ResolveStartupIsa();
    return Dispatch{{&TableFor(isa)}, {static_cast<int>(isa)}};
  }();
  return dispatch;
}

inline const KernelTable& Active() {
  return *ActiveDispatch().table.load(std::memory_order_acquire);
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<Isa> ParseIsaName(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "scalar") return Isa::kScalar;
  if (lower == "avx2") return Isa::kAvx2;
  return std::nullopt;
}

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return detail::Avx2KernelsCompiled() && CpuHasAvx2();
  }
  return false;
}

Isa BestSupportedIsa() {
  if (IsaSupported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

Isa ActiveIsa() {
  return static_cast<Isa>(
      ActiveDispatch().isa.load(std::memory_order_acquire));
}

bool SetActiveIsa(Isa isa) {
  if (!IsaSupported(isa)) return false;
  Dispatch& dispatch = ActiveDispatch();
  dispatch.table.store(&TableFor(isa), std::memory_order_release);
  dispatch.isa.store(static_cast<int>(isa), std::memory_order_release);
  return true;
}

SpanProfile ProfileSpan(const double* x, size_t n) {
  return Active().profile_span(x, n);
}

double SumSpan(const double* x, size_t n) { return Active().sum_span(x, n); }

double SumSquaredDiff(const double* x, size_t n, double center) {
  return Active().sum_squared_diff(x, n, center);
}

uint64_t CountMatches(const double* x, size_t n, CmpKind kind, double lo,
                      double hi) {
  return Active().count_matches(x, n, kind, lo, hi);
}

void PartitionIndices(const double* x, size_t n, double min_value,
                      double width, uint32_t num_partitions, uint32_t* out) {
  Active().partition_indices(x, n, min_value, width, num_partitions, out);
}

void NormalizeSpan(const double* x, size_t n, double lo, double hi,
                   double fill, double* out) {
  if (hi - lo > 0.0) {
    Active().normalize_span(x, n, lo, hi, fill, out);
    return;
  }
  // Degenerate range: stats.h maps every finite value to 0 (and keeps the
  // fill for non-finite cells). Handled here so the per-ISA kernels can
  // divide unconditionally.
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::isfinite(x[i]) ? 0.0 : fill;
  }
}

void SquaredDistancesToAll(const double* const* cols, size_t num_cols,
                           size_t n, size_t p, double* out) {
  Active().squared_distances_to_all(cols, num_cols, n, p, out);
}

}  // namespace dbsherlock::common::simd
