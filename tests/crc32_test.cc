// Crc32 known answers and agreement with a bit-at-a-time reference. The
// table-driven loop folds eight bytes per step and finishes the tail
// bytewise, so it is checked at every start alignment, at every short
// length, over a long run, and under seed chaining — snapshot sections and
// change-log records both depend on the chained form being exact.

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "src/io/snapshot.h"
#include "src/util/random.h"

namespace dynmis {
namespace {

// Reflected CRC32, polynomial 0xEDB88320, one bit at a time.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return ~crc;
}

std::vector<unsigned char> SeededBuffer(size_t size) {
  Rng rng(4096);
  std::vector<unsigned char> buffer(size);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.NextU64());
  }
  return buffer;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryAlignmentAndLength) {
  const std::vector<unsigned char> buffer = SeededBuffer(4096);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(Crc32(buffer.data() + start, length),
                ReferenceCrc32(buffer.data() + start, length))
          << "start " << start << " length " << length;
    }
    const size_t tail = buffer.size() - start;
    EXPECT_EQ(Crc32(buffer.data() + start, tail),
              ReferenceCrc32(buffer.data() + start, tail))
        << "start " << start << " long tail";
  }
}

TEST(Crc32Test, ChainsAcrossEverySplitPoint) {
  const std::vector<unsigned char> buffer = SeededBuffer(300);
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  EXPECT_EQ(whole, ReferenceCrc32(buffer.data(), buffer.size()));
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc32(buffer.data(), split);
    EXPECT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace dynmis
