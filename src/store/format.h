#ifndef TOPODB_STORE_FORMAT_H_
#define TOPODB_STORE_FORMAT_H_

// The TopoDB store-file format: one named spatial instance with what a
// request reads of it (normalized instance text, canonical invariant
// string, counts for DESCRIBE), serialized as a single flat byte blob that
// a server memory-maps read-only at startup and serves without any
// per-request parsing or arrangement rebuild.
//
// Layout (all integers little-endian):
//
//   offset  0  u32  magic           "TPDS" (0x53445054)
//   offset  4  u32  format_version  kStoreFormatVersion (= 2)
//   offset  8  u64  payload_len     bytes following the 32-byte header
//   offset 16  u64  checksum        FNV-1a 64 over the payload bytes
//   offset 24  u64  reserved        0
//   offset 32  payload:
//     u32 section_count
//     section_count * { u32 kind, u32 reserved, u64 offset, u64 len }
//     ... section bytes (offsets relative to payload start) ...
//
// Version 2 writes sections 1, 2, 3 and 7, in that order. Readers probe by
// kind and must skip unknown kinds, so a newer writer can append sections
// without a version bump. Changing the meaning or encoding of an existing
// section IS a version bump: the golden byte-layout test in
// tests/store_test.cc exists to make any layout drift an explicit,
// reviewed change.
//
// Every version keeps this header and section table, and writes the name
// and instance text as sections 1 and 2: that is all Catalog::Open needs
// to re-ingest a file of an older version (ReadOlderStoreFile).
//
// Validation contract: Parse() checks the magic, the version, that the
// header-announced payload length matches the bytes actually present,
// the payload checksum, that every section lies inside the payload, that
// no kind repeats, and the required sections and stats size. A corrupt
// or truncated file is a clean DataLoss error (a format version other
// than this build's is Unsupported), never UB — the corrupt-store suite
// drives every one of these paths under ASan/UBSan.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace topodb {

inline constexpr uint32_t kStoreMagic = 0x53445054;  // "TPDS" as LE bytes.
inline constexpr uint32_t kStoreFormatVersion = 2;
inline constexpr size_t kStoreHeaderBytes = 32;

// Section kinds. Values are format-stable: never renumber, only append.
// Kinds 4-6 held the S-invariant, the flat invariant data and the thematic
// tables in format 1, which no request read; they are reserved, never to
// be reused.
enum class StoreSection : uint32_t {
  kName = 1,          // Catalog entry name, raw bytes.
  kInstanceText = 2,  // WriteInstanceText output (the geometry source).
  kCanonical = 3,     // Canonical invariant string (default options).
  kStats = 7,         // Four u64 counts, then a u8 flag; see StoreStats.
};

// The kStats section, surfaced by DESCRIBE.
struct StoreStats {
  uint64_t num_regions = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t num_faces = 0;
  // Region::IsRectilinear holds for every region (true when there are
  // none): exactly the instances that have an S-invariant (Fig 14).
  bool all_rectilinear = false;
};

// Everything ingest persists for one named instance.
struct StoredInstance {
  std::string name;
  std::string instance_text;
  std::string canonical;
  StoreStats stats;
};

// FNV-1a 64-bit digest — the payload checksum. Not cryptographic: it
// detects truncation and bit rot, not tampering (the catalog directory is
// trusted local state, same threat model as the data it stores).
uint64_t Fnv1a64(std::string_view bytes);

// Serializes header + payload. Deterministic: equal StoredInstances
// produce byte-identical files (the golden-layout test relies on this).
std::string EncodeStoreFile(const StoredInstance& in);

// The name and instance text of a file written by an older format
// version, which the catalog re-ingests in place.
struct OlderStoreFile {
  std::string name;
  std::string instance_text;
};

// Validates an older-version file as Parse() validates a current one, up
// to and including the section table, and requires its name and text
// sections. Unsupported unless 1 <= version < kStoreFormatVersion.
Result<OlderStoreFile> ReadOlderStoreFile(std::string_view bytes);

// A validated, zero-copy view over store-file bytes (typically an mmap).
// Holds offsets into the underlying buffer only; the buffer must outlive
// the view (the catalog guarantees this by owning the mapping and the
// view together — see catalog.h for the lifetime rules).
class StoreFileView {
 public:
  // Validates header, length, checksum, section bounds, required sections
  // and the stats section. Unsupported for any version but this build's.
  static Result<StoreFileView> Parse(std::string_view bytes);

  // Stable content id of this entry: the payload checksum, so any change
  // to any persisted byte (name, text, canonical) changes the id. Cache
  // keys derived from an entry pair this with format_version().
  uint64_t entry_id() const { return checksum_; }
  uint32_t format_version() const { return format_version_; }

  std::string_view name() const { return Section(StoreSection::kName); }
  std::string_view instance_text() const {
    return Section(StoreSection::kInstanceText);
  }
  std::string_view canonical() const {
    return Section(StoreSection::kCanonical);
  }
  // Whether the instance has an S-invariant (Fig 14): the stats flag.
  bool has_s_invariant() const { return stats().all_rectilinear; }
  StoreStats stats() const;

 private:
  friend Result<OlderStoreFile> ReadOlderStoreFile(std::string_view bytes);

  struct SectionSpan {
    uint32_t kind = 0;
    uint64_t offset = 0;  // Relative to payload start.
    uint64_t len = 0;
  };

  // The checks every format version shares: header, checksum, section
  // table, and the name and text sections. Accepts versions 1 through
  // kStoreFormatVersion.
  static Result<StoreFileView> ParseContainer(std::string_view bytes);

  bool HasSection(StoreSection kind) const;
  // Empty view for absent sections.
  std::string_view Section(StoreSection kind) const;

  std::string_view bytes_;  // The whole file, header included.
  uint32_t format_version_ = 0;
  uint64_t checksum_ = 0;
  std::vector<SectionSpan> sections_;
};

}  // namespace topodb

#endif  // TOPODB_STORE_FORMAT_H_
