#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/compress.h"
#include "harnesses.h"

namespace jbs::fuzz {

namespace {

/// DecompressInto `input` into a heap buffer of exactly `capacity` bytes
/// (so ASan sees any write past it), checked against Decompress's
/// verdict `decoded`: the same bytes when it fits, a failure when the
/// decoded size does not.
void CheckDecompressInto(std::span<const uint8_t> input,
                         const StatusOr<std::vector<uint8_t>>& decoded,
                         size_t capacity) {
  std::unique_ptr<uint8_t[]> dst(new uint8_t[std::max<size_t>(capacity, 1)]);
  auto size = DecompressInto(input, {dst.get(), capacity});
  if (!decoded.ok()) {
    if (size.ok()) abort();
    return;
  }
  if (decoded->size() > capacity) {
    if (size.ok()) abort();
    return;
  }
  if (!size.ok() || *size != decoded->size()) abort();
  if (!decoded->empty() &&
      std::memcmp(dst.get(), decoded->data(), decoded->size()) != 0) {
    abort();
  }
}

}  // namespace

int FuzzCompress(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> input{data, size};

  // Decompress arbitrary bytes: must fail cleanly, never crash, never
  // allocate proportionally to a forged raw_size claim. When it *does*
  // accept, the output must fit the expansion bound the validator promised.
  auto decoded = Decompress(input);
  if (decoded.ok() && size >= 2 &&
      decoded->size() > MaxDecompressedSize(size - 2)) {
    abort();
  }
  // DecompressInto agrees with Decompress, into a destination of exactly
  // the decoded size, one byte short of it, and with room to spare.
  const size_t exact = decoded.ok() ? decoded->size() : 64;
  CheckDecompressInto(input, decoded, exact);
  if (exact > 0) CheckDecompressInto(input, decoded, exact - 1);
  CheckDecompressInto(input, decoded, exact + 160);

  // Round-trip identity: whatever bytes the mutator produced, compressing
  // then decompressing must reproduce them exactly.
  const std::vector<uint8_t> packed = Compress(input);
  auto unpacked = Decompress(packed);
  if (!unpacked.ok()) abort();
  if (unpacked->size() != size) abort();
  if (!std::equal(unpacked->begin(), unpacked->end(), data)) abort();
  CheckDecompressInto(packed, unpacked, size);
  if (size > 0) CheckDecompressInto(packed, unpacked, size - 1);

  return 0;
}

}  // namespace jbs::fuzz
