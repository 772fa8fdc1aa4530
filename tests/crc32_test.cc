// Crc32 known answers and agreement with a bit-at-a-time reference. Crc32
// dispatches: on hosts with carry-less multiply, inputs of 64 bytes or more
// fold their 16-byte blocks in a PCLMULQDQ kernel and finish the tail in the
// slicing-by-8 table loop; elsewhere the table loop runs alone. Every case
// runs against both the dispatched Crc32 and the table loop on its own
// (internal::Crc32Portable), so each kernel is checked whatever the host:
// at every start alignment, at every length across the 64-byte threshold
// and every 16-byte body/tail split, over a long run, and under seed
// chaining — snapshot sections and change-log records both depend on the
// chained form being exact.

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

using CrcFn = uint32_t (*)(const void*, size_t, uint32_t);

class Crc32Test : public testing::TestWithParam<CrcFn> {
 protected:
  uint32_t Crc(const void* data, size_t size, uint32_t seed = 0) const {
    return GetParam()(data, size, seed);
  }
};

TEST_P(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc("", 0), 0u);
  EXPECT_EQ(Crc(nullptr, 0, 0x12345678u), 0x12345678u);
}

TEST_P(Crc32Test, MatchesBytewiseReferenceAtEveryAlignmentAndLength) {
  const std::vector<unsigned char> buffer = SeededBuffer(4096);
  for (size_t start = 0; start < 16; ++start) {
    for (size_t length = 0; length <= 300; ++length) {
      EXPECT_EQ(Crc(buffer.data() + start, length),
                ReferenceCrc32(buffer.data() + start, length))
          << "start " << start << " length " << length;
    }
    const size_t tail = buffer.size() - start;
    EXPECT_EQ(Crc(buffer.data() + start, tail),
              ReferenceCrc32(buffer.data() + start, tail))
        << "start " << start << " long tail";
  }
}

TEST_P(Crc32Test, MatchesBytewiseReferenceOnAMegabyte) {
  const std::vector<unsigned char> buffer = SeededBuffer(1 << 20);
  const uint32_t expected = ReferenceCrc32(buffer.data(), buffer.size());
  EXPECT_EQ(Crc(buffer.data(), buffer.size()), expected);
  EXPECT_EQ(Crc(buffer.data() + 3, buffer.size() - 3),
            ReferenceCrc32(buffer.data() + 3, buffer.size() - 3));
}

TEST_P(Crc32Test, ChainsAcrossEverySplitPoint) {
  const std::vector<unsigned char> buffer = SeededBuffer(300);
  const uint32_t whole = Crc(buffer.data(), buffer.size());
  EXPECT_EQ(whole, ReferenceCrc32(buffer.data(), buffer.size()));
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc(buffer.data(), split);
    EXPECT_EQ(Crc(buffer.data() + split, buffer.size() - split, head), whole)
        << "split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32Test,
                         testing::Values(&Crc32, &internal::Crc32Portable),
                         [](const testing::TestParamInfo<CrcFn>& info) {
                           return info.index == 0 ? "Dispatched" : "Portable";
                         });

}  // namespace
}  // namespace dynmis
