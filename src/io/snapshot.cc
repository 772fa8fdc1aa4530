#include "src/io/snapshot.h"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "src/util/check.h"

// The carry-less-multiply CRC kernel needs x86-64 and GCC/Clang target
// attributes; every other build runs the table loop alone.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DYNMIS_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace dynmis {
namespace {

// Arrays travel as their in-memory bytes (memcpy both ways) and the CRC
// loads eight input bytes as two native u32s; both assume a little-endian
// host, which is the only kind this library builds for.
static_assert(std::endian::native == std::endian::little,
              "snapshot codecs assume a little-endian host");

constexpr char kMagic[8] = {'D', 'Y', 'N', 'M', 'I', 'S', 'S', 'N'};
// A snapshot holds a handful of sections (engine, graph, one or two per
// maintainer); a five-digit count in the header is certainly corruption.
constexpr uint32_t kMaxSections = 4096;
constexpr size_t kMaxSectionNameLen = 512;
// Payloads stream in bounded chunks so a corrupt length field cannot force
// one huge allocation before truncation is detected.
constexpr size_t kReadChunk = 1 << 20;

void AppendLe(std::string* out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint64_t DecodeLe(const char* data, int bytes) {
  uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(data[i]))
             << (8 * i);
  }
  return value;
}

bool ReadExact(std::istream& in, char* data, size_t size) {
  in.read(data, static_cast<std::streamsize>(size));
  return static_cast<size_t>(in.gcount()) == size;
}

// Slicing-by-8 tables: table[0] is the classic bytewise table, and
// table[k][b] is the CRC register after byte b followed by k zero bytes, so
// one step folds eight input bytes with eight independent lookups.
struct CrcTables {
  uint32_t table[8][256];
};

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t.table[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t.table[k - 1][i];
      t.table[k][i] = (prev >> 8) ^ t.table[0][prev & 0xff];
    }
  }
  return t;
}

constexpr CrcTables kCrc = MakeCrcTables();

#ifdef DYNMIS_CRC32_CLMUL
// One folding step: x.lo * k.lo ^ x.hi * k.hi moves the 128-bit remainder x
// forward by the distance the constant pair k encodes, onto `next`.
__attribute__((target("pclmul,sse4.1"))) __m128i Fold(__m128i x, __m128i k,
                                                       __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Intel, "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ"; the constants k1..k5, mu and P' are those
// of Linux's crc32-pclmul_asm.S). Four 128-bit lanes fold 64 bytes per
// step, collapse into one lane, fold the remaining 16-byte blocks, then
// reduce to 32 bits with a Barrett step. Takes and returns the raw
// (pre-inverted) register; `size` is a multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32Clmul(
    const unsigned char* bytes, size_t size, uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };

  __m128i x0 =
      _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(bytes + 16);
  __m128i x2 = load(bytes + 32);
  __m128i x3 = load(bytes + 48);
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64) {
    x0 = Fold(x0, k1k2, load(bytes));
    x1 = Fold(x1, k1k2, load(bytes + 16));
    x2 = Fold(x2, k1k2, load(bytes + 32));
    x3 = Fold(x3, k1k2, load(bytes + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; bytes += 16, size -= 16) {
    x0 = Fold(x0, k3k4, load(bytes));
  }
  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));
  // Barrett reduction: q = floor(x * mu), crc = x ^ q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

bool HasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}
#endif

// The slicing-by-8 loop, on the raw (pre-inverted) register.
uint32_t Crc32Table(const unsigned char* bytes, size_t size, uint32_t crc) {
  const auto& t = kCrc.table;
  for (; size >= 8; bytes += 8, size -= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
#ifdef DYNMIS_CRC32_CLMUL
  if (size >= 64 && HasClmul()) {
    const size_t body = size & ~size_t{15};
    crc = Crc32Clmul(bytes, body, crc);
    bytes += body;
    size -= body;
  }
#endif
  return ~Crc32Table(bytes, size, crc);
}

namespace internal {
uint32_t Crc32Portable(const void* data, size_t size, uint32_t seed) {
  return ~Crc32Table(static_cast<const unsigned char*>(data), size, ~seed);
}
}  // namespace internal

// --- SnapshotWriter ----------------------------------------------------------

void SnapshotWriter::BeginSection(const std::string& name) {
  DYNMIS_CHECK(!in_section_);
  DYNMIS_CHECK(!name.empty());
  std::string full = prefix_ + name;
  DYNMIS_CHECK(full.size() <= kMaxSectionNameLen);
  sections_.push_back(Section{std::move(full), {}, {}});
  in_section_ = true;
}

void SnapshotWriter::EndSection() {
  DYNMIS_CHECK(in_section_);
  in_section_ = false;
}

void SnapshotWriter::PutU8(uint8_t value) {
  DYNMIS_CHECK(in_section_);
  AppendLe(&sections_.back().copied, value, 1);
}

void SnapshotWriter::PutU32(uint32_t value) {
  DYNMIS_CHECK(in_section_);
  AppendLe(&sections_.back().copied, value, 4);
}

void SnapshotWriter::PutU64(uint64_t value) {
  DYNMIS_CHECK(in_section_);
  AppendLe(&sections_.back().copied, value, 8);
}

void SnapshotWriter::PutDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits);
}

void SnapshotWriter::PutString(const std::string& value) {
  PutU64(value.size());
  DYNMIS_CHECK(in_section_);
  sections_.back().copied.append(value);
}

void SnapshotWriter::PutI32Array(const std::vector<int32_t>& values) {
  PutU64(values.size());
  std::string& copied = sections_.back().copied;
  copied.append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(int32_t));
}

void SnapshotWriter::PutU8Array(const std::vector<uint8_t>& values) {
  PutU64(values.size());
  std::string& copied = sections_.back().copied;
  copied.append(reinterpret_cast<const char*>(values.data()), values.size());
}

void SnapshotWriter::BorrowSpan(const void* data, size_t count) {
  PutU64(count);
  Section& section = sections_.back();
  const size_t bytes = count * sizeof(int32_t);
  section.borrowed.push_back(
      Borrowed{section.copied.size(), static_cast<const char*>(data), bytes});
}

template <typename Fn>
void SnapshotWriter::ForEachPiece(const Section& section, Fn&& fn) {
  size_t copied = 0;
  for (const Borrowed& span : section.borrowed) {
    fn(section.copied.data() + copied, span.offset - copied);
    fn(span.data, span.size);
    copied = span.offset;
  }
  fn(section.copied.data() + copied, section.copied.size() - copied);
}

SnapshotStatus SnapshotWriter::WriteTo(std::ostream& out) const {
  DYNMIS_CHECK(!in_section_);
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  AppendLe(&header, kSnapshotVersion, 4);
  AppendLe(&header, sections_.size(), 4);
  for (const Section& section : sections_) {
    uint64_t size = 0;
    uint32_t crc = 0;
    ForEachPiece(section, [&](const char* data, size_t bytes) {
      size += bytes;
      crc = Crc32(data, bytes, crc);
    });
    AppendLe(&header, section.name.size(), 2);
    header.append(section.name);
    AppendLe(&header, size, 8);
    AppendLe(&header, crc, 4);
  }
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const Section& section : sections_) {
    ForEachPiece(section, [&](const char* data, size_t bytes) {
      if (bytes > 0) out.write(data, static_cast<std::streamsize>(bytes));
    });
  }
  out.flush();
  if (!out.good()) return SnapshotStatus::Error("snapshot: write failed");
  return SnapshotStatus::Ok();
}

// --- SnapshotReader ----------------------------------------------------------

SnapshotStatus SnapshotReader::ReadFrom(std::istream& in) {
  auto fail = [&](const std::string& message) {
    Fail(message);
    return SnapshotStatus::Error(error_);
  };

  char magic[sizeof(kMagic)];
  if (!ReadExact(in, magic, sizeof(magic))) {
    return fail("snapshot: truncated header (magic)");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return fail("snapshot: bad magic (not a dynmis snapshot)");
  }
  char scalar[8];
  if (!ReadExact(in, scalar, 4)) {
    return fail("snapshot: truncated header (version)");
  }
  version_ = static_cast<uint32_t>(DecodeLe(scalar, 4));
  if (version_ != kSnapshotVersion) {
    return fail("snapshot: unsupported version " + std::to_string(version_) +
                " (this build reads version " +
                std::to_string(kSnapshotVersion) + ")");
  }
  if (!ReadExact(in, scalar, 4)) {
    return fail("snapshot: truncated header (section count)");
  }
  const uint32_t count = static_cast<uint32_t>(DecodeLe(scalar, 4));
  if (count > kMaxSections) {
    return fail("snapshot: implausible section count " +
                std::to_string(count));
  }

  struct TableEntry {
    std::string name;
    uint64_t size = 0;
    uint32_t crc = 0;
  };
  std::vector<TableEntry> table(count);
  for (TableEntry& entry : table) {
    if (!ReadExact(in, scalar, 2)) {
      return fail("snapshot: truncated section table");
    }
    const size_t name_len = static_cast<size_t>(DecodeLe(scalar, 2));
    if (name_len == 0 || name_len > kMaxSectionNameLen) {
      return fail("snapshot: implausible section name length");
    }
    entry.name.resize(name_len);
    if (!ReadExact(in, entry.name.data(), name_len)) {
      return fail("snapshot: truncated section table");
    }
    if (!ReadExact(in, scalar, 8)) {
      return fail("snapshot: truncated section table");
    }
    entry.size = DecodeLe(scalar, 8);
    if (!ReadExact(in, scalar, 4)) {
      return fail("snapshot: truncated section table");
    }
    entry.crc = static_cast<uint32_t>(DecodeLe(scalar, 4));
  }

  for (const TableEntry& entry : table) {
    std::string payload;
    // Size the payload up front only when the stream already holds all of
    // it, so a corrupt length still cannot force a huge allocation.
    const std::streamsize available = in.rdbuf()->in_avail();
    if (available > 0 && static_cast<uint64_t>(available) >= entry.size) {
      payload.reserve(static_cast<size_t>(entry.size));
    }
    uint64_t remaining = entry.size;
    uint32_t crc = 0;
    while (remaining > 0) {
      const size_t chunk =
          remaining > kReadChunk ? kReadChunk : static_cast<size_t>(remaining);
      const size_t offset = payload.size();
      payload.resize(offset + chunk);
      if (!ReadExact(in, payload.data() + offset, chunk)) {
        return fail("snapshot: truncated payload of section '" + entry.name +
                    "'");
      }
      // CRC the chunk while it is still in cache.
      crc = Crc32(payload.data() + offset, chunk, crc);
      remaining -= chunk;
    }
    if (crc != entry.crc) {
      return fail("snapshot: CRC mismatch in section '" + entry.name +
                  "' (corrupted data)");
    }
    if (!sections_.emplace(entry.name, std::move(payload)).second) {
      return fail("snapshot: duplicate section '" + entry.name + "'");
    }
    order_.push_back(entry.name);
  }
  return SnapshotStatus::Ok();
}

bool SnapshotReader::HasSection(const std::string& name) const {
  return sections_.count(prefix_ + name) != 0;
}

std::vector<std::string> SnapshotReader::SectionNames() const {
  return order_;
}

size_t SnapshotReader::SectionSize(const std::string& name) const {
  auto it = sections_.find(prefix_ + name);
  return it == sections_.end() ? 0 : it->second.size();
}

bool SnapshotReader::OpenSection(const std::string& name) {
  if (!ok_) return false;
  std::string full = prefix_ + name;
  auto it = sections_.find(full);
  if (it == sections_.end()) {
    Fail("snapshot: missing section '" + full + "'");
    return false;
  }
  current_ = &it->second;
  current_name_ = std::move(full);
  cursor_ = 0;
  return true;
}

void SnapshotReader::Fail(const std::string& message) {
  if (!ok_) return;  // Keep the first (root-cause) error.
  ok_ = false;
  error_ = message;
}

const char* SnapshotReader::Take(size_t size) {
  if (!ok_) return nullptr;
  if (current_ == nullptr) {
    Fail("snapshot: read before OpenSection");
    return nullptr;
  }
  if (size > current_->size() - cursor_) {
    Fail("snapshot: section '" + current_name_ +
         "' is shorter than its declared contents");
    return nullptr;
  }
  const char* data = current_->data() + cursor_;
  cursor_ += size;
  return data;
}

uint8_t SnapshotReader::GetU8() {
  const char* data = Take(1);
  return data ? static_cast<uint8_t>(DecodeLe(data, 1)) : 0;
}

uint32_t SnapshotReader::GetU32() {
  const char* data = Take(4);
  return data ? static_cast<uint32_t>(DecodeLe(data, 4)) : 0;
}

uint64_t SnapshotReader::GetU64() {
  const char* data = Take(8);
  return data ? DecodeLe(data, 8) : 0;
}

double SnapshotReader::GetDouble() {
  const uint64_t bits = GetU64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string SnapshotReader::GetString() {
  const uint64_t size = GetU64();
  if (!ok_) return {};
  if (current_ == nullptr || size > current_->size() - cursor_) {
    Fail("snapshot: malformed string length in section '" + current_name_ +
         "'");
    return {};
  }
  const char* data = Take(static_cast<size_t>(size));
  return data ? std::string(data, static_cast<size_t>(size)) : std::string();
}

const char* SnapshotReader::TakeI32Array(size_t fields, size_t* count) {
  const uint64_t declared = GetU64();
  if (!ok_) return nullptr;
  if (current_ == nullptr ||
      declared > (current_->size() - cursor_) / sizeof(int32_t)) {
    Fail("snapshot: malformed array length in section '" + current_name_ +
         "'");
    return nullptr;
  }
  if (declared % fields != 0) {
    Fail("snapshot: array in section '" + current_name_ +
         "' is not a whole number of records");
    return nullptr;
  }
  *count = static_cast<size_t>(declared);
  return Take(*count * sizeof(int32_t));
}

bool SnapshotReader::GetU8Array(std::vector<uint8_t>* out) {
  const uint64_t count = GetU64();
  if (!ok_) return false;
  if (current_ == nullptr || count > current_->size() - cursor_) {
    Fail("snapshot: malformed array length in section '" + current_name_ +
         "'");
    return false;
  }
  const char* data = Take(static_cast<size_t>(count));
  if (data == nullptr) return false;
  out->assign(reinterpret_cast<const unsigned char*>(data),
              reinterpret_cast<const unsigned char*>(data) +
                  static_cast<size_t>(count));
  return true;
}

bool SnapshotReader::AtSectionEnd() const {
  return ok_ && current_ != nullptr && cursor_ == current_->size();
}

}  // namespace dynmis
