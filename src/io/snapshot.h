// Versioned binary snapshot container: the durable on-disk format for engine
// state (dynamic graph + maintainer swap structures). Restarting a maintainer
// on a massive graph by replaying its update history is O(history); restoring
// a snapshot is O(state) — the difference between minutes of replay and a
// sub-second load on the paper's workloads.
//
// Layout (all integers little-endian, fixed width):
//
//   magic      8 bytes  "DYNMISSN"
//   version    u32      kSnapshotVersion (readers reject other versions)
//   count      u32      number of sections
//   table      count x { name_len u16, name bytes, payload_len u64, crc u32 }
//   payloads   count payloads, in table order
//
// Each section's CRC32 (IEEE 802.3 polynomial) covers its payload, so a
// flipped bit anywhere in the data is detected before any of it is
// interpreted. Sections are named ("engine", "graph", "mis", ...); producers
// append sections through SnapshotWriter, consumers locate them by name
// through SnapshotReader. Within a payload, values are a flat sequence of
// fixed-width scalars, length-prefixed strings and length-prefixed arrays.
//
// The library does not use exceptions: failures surface as SnapshotStatus
// (writer) or a sticky error on SnapshotReader whose typed getters return
// zero values once the reader has failed — malformed input can produce an
// error, never undefined behaviour.
//
// The writer does not stage the bulk of a snapshot. Scalars and small
// derived arrays are copied into the section, but the large live arrays
// (graph edge records, MisState's per-vertex and per-edge lists) are
// recorded as borrowed spans over the producer's own memory
// (BorrowI32Array). WriteTo chains each section's CRC over its pieces,
// writes the header, then streams the pieces straight to the sink. The
// lifetime contract: call WriteTo before any borrowed array is mutated,
// resized or freed — i.e. SaveTo and WriteTo back to back on the thread
// that owns the engine, at a quiescent point. The reader still buffers the
// whole container, since every payload is CRC-verified before any of it
// is interpreted.

#ifndef DYNMIS_SRC_IO_SNAPSHOT_H_
#define DYNMIS_SRC_IO_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace dynmis {

// Bumped when the section payload encodings change incompatibly. Readers
// reject files written by a different version (see README "Snapshots" for
// the compatibility policy).
inline constexpr uint32_t kSnapshotVersion = 1;

// Outcome of a snapshot save/load. `ok` with an empty message on success;
// on failure `message` names the section and the structural check that
// failed.
struct SnapshotStatus {
  bool ok = true;
  std::string message;

  static SnapshotStatus Ok() { return {}; }
  static SnapshotStatus Error(std::string msg) {
    return {false, std::move(msg)};
  }
  explicit operator bool() const { return ok; }
};

// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of `size` bytes.
// `seed` chains incremental computation; pass the previous return value.
// On x86-64 hosts with PCLMULQDQ and SSE4.1, inputs of 64 bytes or more run
// their 16-byte blocks through a carry-less-multiply folding kernel and the
// tail through the slicing-by-8 table loop; everything else runs the table
// loop alone. Both give the same value for every input.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

namespace internal {
// The slicing-by-8 table loop on its own, whatever the CPU: the reference
// the tests hold the dispatched Crc32 to.
uint32_t Crc32Portable(const void* data, size_t size, uint32_t seed = 0);
}  // namespace internal

// Accumulates named sections, then serializes the container to a stream.
// Values are appended little-endian through the typed Put* methods (copied)
// and BorrowI32Array (referenced) between BeginSection/EndSection.
class SnapshotWriter {
 public:
  void BeginSection(const std::string& name);
  void EndSection();

  // Prefix prepended to every section name passed to BeginSection until the
  // next SetSectionPrefix (empty clears it). Lets a composite producer (the
  // sharded engine) nest a component's fixed section names — "graph",
  // "mis" — uniquely per component: "shard3/graph", "shard3/mis".
  void SetSectionPrefix(std::string prefix) { prefix_ = std::move(prefix); }

  void PutU8(uint8_t value);
  void PutU32(uint32_t value);
  void PutI32(int32_t value) { PutU32(static_cast<uint32_t>(value)); }
  void PutU64(uint64_t value);
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  // IEEE-754 bit pattern, little-endian.
  void PutDouble(double value);
  // u64 length + raw bytes.
  void PutString(const std::string& value);
  // u64 count + count little-endian elements.
  void PutI32Array(const std::vector<int32_t>& values);
  void PutU8Array(const std::vector<uint8_t>& values);

  // Encodes exactly like PutI32Array over the i32 fields of `records`, but
  // references the caller's array instead of copying it. T is int32_t or a
  // trivially copyable record made only of i32 fields (the graph's EdgeRec,
  // MisState's LinkPair), read in memory order. The array must outlive the
  // last WriteTo and stay unmodified until then (see the header comment).
  template <typename T>
  void BorrowI32Array(const std::vector<T>& records) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  sizeof(T) % sizeof(int32_t) == 0);
    BorrowSpan(records.data(), records.size() * (sizeof(T) / sizeof(int32_t)));
  }

  // Serializes header + table + payloads. The writer stays intact (a caller
  // may write the same snapshot to several sinks while the borrowed arrays
  // stay untouched).
  SnapshotStatus WriteTo(std::ostream& out) const;

 private:
  // A borrowed span, spliced into the payload after the first `offset`
  // bytes of the section's copied bytes.
  struct Borrowed {
    size_t offset;
    const char* data;
    size_t size;
  };
  struct Section {
    std::string name;
    std::string copied;
    std::vector<Borrowed> borrowed;
  };

  void BorrowSpan(const void* data, size_t count);
  // Calls fn(data, size) for each run of the section's payload, in order.
  template <typename Fn>
  static void ForEachPiece(const Section& section, Fn&& fn);

  std::vector<Section> sections_;
  std::string prefix_;
  bool in_section_ = false;
};

// Parses a snapshot container and hands out typed cursors over its sections.
// All structural problems (bad magic, version mismatch, truncation, CRC
// failure, over-read of a section) are reported through the sticky error
// state: once failed, every getter returns a zero value and ok() is false.
class SnapshotReader {
 public:
  // Reads and verifies the whole container (header, table, payload CRCs).
  // On failure the reader is unusable and the status carries the reason.
  SnapshotStatus ReadFrom(std::istream& in);

  uint32_t version() const { return version_; }
  bool HasSection(const std::string& name) const;
  // Section names in file order (the `snapshot info` listing).
  std::vector<std::string> SectionNames() const;
  // Payload size of `name`, or 0 when absent.
  size_t SectionSize(const std::string& name) const;

  // Prefix prepended to the name arguments of OpenSection / HasSection /
  // SectionSize until the next SetSectionPrefix (empty clears it); the
  // mirror of SnapshotWriter::SetSectionPrefix for composite consumers.
  void SetSectionPrefix(std::string prefix) { prefix_ = std::move(prefix); }

  // Positions the value cursor at the start of `name`. Returns false and
  // fails the reader when the section is missing.
  bool OpenSection(const std::string& name);

  uint8_t GetU8();
  uint32_t GetU32();
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble();
  std::string GetString();
  // Replaces `*out` with the stored array. Returns false on a malformed
  // length (the declared element count must fit in the section's remaining
  // bytes, so a corrupt length can never trigger a huge allocation).
  bool GetI32Array(std::vector<int32_t>* out) { return GetI32Records(out); }
  bool GetU8Array(std::vector<uint8_t>* out);

  // The reader side of BorrowI32Array: decodes a stored i32 array straight
  // into records of sizeof(T) / 4 i32 fields each. Also fails when the
  // element count is not a whole number of records.
  template <typename T>
  bool GetI32Records(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  sizeof(T) % sizeof(int32_t) == 0);
    constexpr size_t kFields = sizeof(T) / sizeof(int32_t);
    size_t count = 0;
    const char* data = TakeI32Array(kFields, &count);
    if (data == nullptr) return false;
    out->resize(count / kFields);
    if (count > 0) std::memcpy(out->data(), data, count * sizeof(int32_t));
    return true;
  }

  // True when the cursor consumed the open section exactly. Loaders call
  // this after their last field: trailing bytes mean the payload was not
  // written by this revision's encoder and must be rejected, not ignored.
  bool AtSectionEnd() const;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  SnapshotStatus status() const {
    return ok_ ? SnapshotStatus::Ok() : SnapshotStatus::Error(error_);
  }

  // Marks the reader failed with a structural error message (used by the
  // graph / maintainer loaders when decoded values fail validation).
  void Fail(const std::string& message);

 private:
  // Returns a pointer to `size` readable bytes at the cursor, advancing it;
  // nullptr (and a sticky error) on section over-read.
  const char* Take(size_t size);
  // Reads an i32 array's count and returns its raw bytes (`*count` i32s,
  // a multiple of `fields`); nullptr (and a sticky error) when malformed.
  const char* TakeI32Array(size_t fields, size_t* count);

  std::map<std::string, std::string> sections_;
  std::vector<std::string> order_;
  std::string prefix_;
  uint32_t version_ = 0;
  const std::string* current_ = nullptr;
  std::string current_name_;
  size_t cursor_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_IO_SNAPSHOT_H_
