#ifndef DBSHERLOCK_COMMON_CRC32_H_
#define DBSHERLOCK_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace dbsherlock::common {

/// Reflected CRC-32 (poly 0xEDB88320, the zlib/ethernet variant), computed
/// slice-by-8: eight table lookups per 8-byte word instead of one per byte.
/// The one checksum of the repo — segment blocks (DESIGN.md §11), the model
/// WAL records and the MODELSYNC payload (§10, §15) all use it, so both
/// ends of every transfer agree byte for byte.
///
/// `seed` chains partial checksums: Crc32(b, nb, Crc32(a, na)) equals the
/// checksum of the concatenation a‖b (the WAL checksums seq ‖ payload that
/// way without copying them together).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace dbsherlock::common

#endif  // DBSHERLOCK_COMMON_CRC32_H_
