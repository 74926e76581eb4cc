// Store-layer tests: golden byte layout (any drift in the persisted
// format must be a deliberate, reviewed change), corrupt-store handling
// (truncations, bit flips, bad magic/version, bounds attacks — every one
// a clean DataLoss/Unsupported error under ASan/UBSan, never UB), and
// catalog behavior (ingest durability, crash recovery, replacement
// semantics, name validation, re-ingest of older-format files).

#include "src/store/catalog.h"
#include "src/store/format.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/invariant/canonical.h"
#include "src/invariant/data.h"
#include "src/invariant/s_invariant.h"
#include "src/region/fixtures.h"
#include "src/region/io.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// Two nested rectilinear rectangles: small, deterministic, and
// rectilinear so the stats flag is set.
constexpr char kText[] =
    "A: (0 0, 4 0, 4 4, 0 4)\n"
    "B: (1 1, 3 1, 3 2, 1 2)\n";

// Builds a StoredInstance through the same pipeline Catalog::Ingest runs.
// The rectilinear flag comes from its oracle: format 1 wrote an
// S-invariant section exactly when SInvariant::Compute succeeded.
StoredInstance MakeStored(const std::string& name, const std::string& text) {
  StoredInstance stored;
  stored.name = name;
  auto instance = ParseInstanceText(text);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  stored.instance_text = WriteInstanceText(*instance);
  auto invariant = ComputeInvariant(*instance);
  EXPECT_TRUE(invariant.ok()) << invariant.status().ToString();
  auto canonical = CanonicalInvariantString(*invariant);
  EXPECT_TRUE(canonical.ok()) << canonical.status().ToString();
  stored.canonical = *canonical;
  stored.stats = StoreStats{invariant->region_names.size(),
                            invariant->vertices.size(),
                            invariant->edges.size(),
                            invariant->faces.size(),
                            SInvariant::Compute(*instance).ok()};
  return stored;
}

// The golden file of store format 1, as its writer encoded
// MakeStored("gold", kText): name, text, canonical, S-invariant, invariant
// data, thematic tables and a 32-byte stats section. Catalogs written
// before the version bump hold files like this one.
constexpr char kGoldenV1Hex[] =
    "5450445301000000bb040000000000004218bf5579275e4b000000000000000007000000"
    "0100000000000000ac0000000000000004000000000000000200000000000000b0000000"
    "0000000030000000000000000300000000000000e0000000000000005300000000000000"
    "04000000000000003301000000000000290000000000000005000000000000005c010000"
    "000000006b000000000000000600000000000000c701000000000000d402000000000000"
    "07000000000000009b040000000000002000000000000000676f6c64413a20283020302c"
    "203420302c203420342c20302034290a423a20283120312c203320312c203320322c2031"
    "2032290a6e616d65733a412c422c235b312c313b622d3b622d3b2d2d3b78557c302c303b"
    "622d3b622d3b6f2d3b69427c7b3140312c313b6f623b6f623b6f2d3b78427c302c303b6f"
    "623b6f623b6f6f3b69427c7d7b7d5d6e616d65733a412c422c2331302c31302c31302c3b"
    "31302c31312c31302c3b31302c31302c31302c3b02000000020000000200000003000000"
    "020000000100000041010000004201020001000000000000000001000000010000000102"
    "00010000010100000003000000ffffffff00020000020201000000000000000300000002"
    "000000020000000000000000000000010000000100000006000000726567696f6e020000"
    "000100000041010000004201000000060000007665727465780200000002000000763002"
    "000000763101000000040000006564676502000000020000006530020000006531010000"
    "000400000066616365030000000200000066300200000066310200000066320100000004"
    "000000666163650100000002000000663203000000040000006564676507000000766572"
    "746578310700000076657274657832020000000200000065300200000076300200000076"
    "300200000065310200000076310200000076310200000004000000666163650400000065"
    "646765040000000200000066300200000065300200000066300200000065310200000066"
    "310200000065310200000066320200000065300200000006000000726567696f6e040000"
    "006661636503000000010000004102000000663001000000410200000066310100000042"
    "02000000663104000000030000006469720600000076657274657804000000656e643104"
    "000000656e643208000000030000006363770200000076300300000065302b0300000065"
    "302d030000006363770200000076300300000065302d0300000065302b03000000636377"
    "0200000076310300000065312b0300000065312d03000000636377020000007631030000"
    "0065312d0300000065312b0200000063770200000076300300000065302b030000006530"
    "2d0200000063770200000076300300000065302d0300000065302b020000006377020000"
    "0076310300000065312b0300000065312d0200000063770200000076310300000065312d"
    "0300000065312b02000000040000006661636503000000656e6404000000020000006630"
    "0300000065302d0200000066300300000065312b0200000066310300000065312d020000"
    "0066320300000065302b02000000040000006661636503000000656e6402000000020000"
    "0066300300000065302d0200000066310300000065312d02000000000000000200000000"
    "00000002000000000000000300000000000000";

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

uint64_t ReadLE(const std::string& data, size_t pos, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  return v;
}

void WriteLE32(std::string* data, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) (*data)[pos + i] = static_cast<char>(v >> (8 * i));
}

// Rewrites the header checksum to match the (patched) payload, so tests
// can corrupt payload *structure* and still get past the checksum gate.
void FixChecksum(std::string* file) {
  const uint64_t sum = Fnv1a64(std::string_view(*file).substr(kStoreHeaderBytes));
  for (int i = 0; i < 8; ++i) (*file)[16 + i] = static_cast<char>(sum >> (8 * i));
}

// Byte offset (into the whole file) of section-table entry `index`.
size_t TableEntryAt(size_t index) {
  return kStoreHeaderBytes + 4 + index * 24;
}

std::string TempCatalogDir() {
  std::string tmpl = testing::TempDir() + "topodb_store_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// File names of the store files in `dir`, sorted.
std::vector<std::string> StoreFilesIn(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& dirent : std::filesystem::directory_iterator(dir)) {
    if (dirent.path().extension() == ".tpds") {
      names.push_back(dirent.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(FormatTest, Fnv1a64KnownAnswers) {
  // Published FNV-1a 64 vectors; a digest change silently invalidates
  // every existing store file's checksum and entry id.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(FormatTest, GoldenByteLayout) {
  const std::string file = EncodeStoreFile(MakeStored("gold", kText));
  // Header: magic "TPDS", version 2, payload length, checksum, reserved.
  ASSERT_GE(file.size(), kStoreHeaderBytes);
  EXPECT_EQ(file.substr(0, 4), "TPDS");
  EXPECT_EQ(ReadLE(file, 4, 4), kStoreFormatVersion);
  EXPECT_EQ(kStoreFormatVersion, 2u);
  EXPECT_EQ(ReadLE(file, 8, 8), file.size() - kStoreHeaderBytes);
  EXPECT_EQ(ReadLE(file, 16, 8),
            Fnv1a64(std::string_view(file).substr(kStoreHeaderBytes)));
  EXPECT_EQ(ReadLE(file, 24, 8), 0u);
  // Section table: exactly kinds 1, 2, 3 and 7 (name, text, canonical,
  // stats), in that order, contiguous bytes starting right after the
  // table. Kinds 4-6 are reserved.
  const uint32_t kinds[] = {1, 2, 3, 7};
  ASSERT_EQ(ReadLE(file, kStoreHeaderBytes, 4), 4u);
  uint64_t expect_offset = 4 + 4 * 24;
  for (size_t i = 0; i < 4; ++i) {
    const size_t entry = TableEntryAt(i);
    EXPECT_EQ(ReadLE(file, entry, 4), kinds[i]) << "section " << i;
    EXPECT_EQ(ReadLE(file, entry + 4, 4), 0u) << "section " << i;
    EXPECT_EQ(ReadLE(file, entry + 8, 8), expect_offset) << "section " << i;
    expect_offset += ReadLE(file, entry + 16, 8);
  }
  EXPECT_EQ(ReadLE(file, TableEntryAt(3) + 16, 8), 33u);  // Stats.
  EXPECT_EQ(kStoreHeaderBytes + expect_offset, file.size());
  // The whole-file digest pins every byte of the layout: header, table,
  // and each section's internal encoding. If this changes, either bump
  // kStoreFormatVersion or be certain the old files still parse.
  EXPECT_EQ(Fnv1a64(file), 0x7222b405a8b50d2dull)
      << "store layout drifted; digest is now 0x" << std::hex << Fnv1a64(file);
}

TEST(FormatTest, EncodeIsDeterministicAndRoundTrips) {
  const StoredInstance stored = MakeStored("rt", kText);
  const std::string file = EncodeStoreFile(stored);
  EXPECT_EQ(file, EncodeStoreFile(stored));  // Equal input, equal bytes.

  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->format_version(), kStoreFormatVersion);
  EXPECT_EQ(view->entry_id(), ReadLE(file, 16, 8));
  EXPECT_EQ(view->name(), "rt");
  EXPECT_EQ(view->instance_text(), stored.instance_text);
  EXPECT_EQ(view->canonical(), stored.canonical);
  EXPECT_TRUE(view->has_s_invariant());

  const StoreStats stats = view->stats();
  EXPECT_EQ(stats.num_regions, stored.stats.num_regions);
  EXPECT_EQ(stats.num_vertices, stored.stats.num_vertices);
  EXPECT_EQ(stats.num_edges, stored.stats.num_edges);
  EXPECT_EQ(stats.num_faces, stored.stats.num_faces);
  EXPECT_TRUE(stats.all_rectilinear);
  EXPECT_EQ(stats.num_regions, 2u);
  EXPECT_GT(stats.num_faces, 0u);
}

TEST(FormatTest, NonRectilinearInstanceOmitsSInvariant) {
  const StoredInstance stored =
      MakeStored("tri", "T: (0 0, 4 0, 2 3)\n");
  EXPECT_FALSE(stored.stats.all_rectilinear);
  const std::string file = EncodeStoreFile(stored);  // Outlives the view.
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view->has_s_invariant());
  EXPECT_FALSE(view->stats().all_rectilinear);
}

TEST(CorruptStoreTest, EveryTruncationIsACleanError) {
  const std::string file = EncodeStoreFile(MakeStored("t", kText));
  for (size_t len = 0; len < file.size(); ++len) {
    const Result<StoreFileView> view =
        StoreFileView::Parse(std::string_view(file).substr(0, len));
    ASSERT_FALSE(view.ok()) << "accepted a " << len << "-byte prefix of a "
                            << file.size() << "-byte file";
    EXPECT_EQ(view.status().code(), StatusCode::kDataLoss) << "len " << len;
  }
}

TEST(CorruptStoreTest, ZeroLengthBytesAreDataLoss) {
  const Result<StoreFileView> view = StoreFileView::Parse(std::string_view());
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptStoreTest, FlippedChecksumByteIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("c", kText));
  file[16] = static_cast<char>(file[16] ^ 0x01);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("checksum"), std::string::npos);
}

TEST(CorruptStoreTest, FlippedPayloadByteIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("p", kText));
  file[file.size() - 1] = static_cast<char>(file.back() ^ 0x80);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptStoreTest, WrongMagicIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("m", kText));
  file[0] = 'X';
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("magic"), std::string::npos);
}

TEST(CorruptStoreTest, UnknownVersionIsUnsupportedNotDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("v", kText));
  WriteLE32(&file, 4, kStoreFormatVersion + 1);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  // A future format is not corruption; the caller can say "upgrade me".
  EXPECT_EQ(view.status().code(), StatusCode::kUnsupported);
}

TEST(CorruptStoreTest, TrailingGarbageIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("g", kText));
  file += "extra";
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptStoreTest, SectionSpanOutsidePayloadIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("s", kText));
  // Stretch the first section's length far past the payload; the bounds
  // check must trip even though the checksum (recomputed) passes.
  const size_t len_field = TableEntryAt(0) + 16;
  for (int i = 0; i < 8; ++i) {
    file[len_field + i] = static_cast<char>(0xff);
  }
  FixChecksum(&file);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("outside"), std::string::npos);
}

TEST(CorruptStoreTest, AbsurdSectionCountIsRejectedBeforeAllocation) {
  std::string file = EncodeStoreFile(MakeStored("n", kText));
  WriteLE32(&file, kStoreHeaderBytes, 0x40000000u);
  FixChecksum(&file);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptStoreTest, DuplicateSectionKindIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("d", kText));
  // Relabel section 1 (instance text) as kind 1 (name): duplicate.
  WriteLE32(&file, TableEntryAt(1), 1);
  FixChecksum(&file);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("duplicate"), std::string::npos);
}

TEST(CorruptStoreTest, MissingRequiredSectionIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("r", kText));
  // Relabel the canonical section as an unknown kind. Unknown kinds are
  // legitimately skipped (forward compatibility), so the failure must be
  // the *absence* of a required section, not the unknown kind itself.
  WriteLE32(&file, TableEntryAt(2), 99);
  FixChecksum(&file);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("missing required"),
            std::string::npos);
}

TEST(CorruptStoreTest, WrongStatsLengthIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("l", kText));
  // Shorten the stats section (the last one) by a byte. It still lies
  // inside the payload, so only the stats-size check can reject it.
  const size_t entry =
      TableEntryAt(ReadLE(file, kStoreHeaderBytes, 4) - 1);
  ASSERT_EQ(ReadLE(file, entry, 4), 7u);
  WriteLE32(&file, entry + 16,
            static_cast<uint32_t>(ReadLE(file, entry + 16, 8) - 1));
  FixChecksum(&file);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("stats section"), std::string::npos)
      << view.status().ToString();
}

TEST(CorruptStoreTest, StatsFlagOtherThanZeroOrOneIsDataLoss) {
  std::string file = EncodeStoreFile(MakeStored("f", kText));
  // The rectilinear flag is the stats section's last byte, which is the
  // file's last byte.
  ASSERT_EQ(file.back(), 1);
  file.back() = 2;
  FixChecksum(&file);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("flag"), std::string::npos)
      << view.status().ToString();
}

TEST(CatalogTest, IngestFindListDescribeLifecycle) {
  const std::string dir = TempCatalogDir();
  MetricsRegistry metrics;
  CatalogOptions options;
  options.directory = dir;
  options.metrics = &metrics;
  auto catalog = Catalog::Open(options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const auto a = (*catalog)->Ingest("alpha", kText);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const auto b = (*catalog)->Ingest("beta", "T: (0 0, 4 0, 2 3)\n");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ((*catalog)->size(), 2u);

  const auto found = (*catalog)->Find("alpha");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->name(), "alpha");
  EXPECT_EQ((*found)->entry_id(), (*a)->entry_id());

  const auto missing = (*catalog)->Find("gamma");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("unknown instance 'gamma'"),
            std::string::npos);

  const auto listing = (*catalog)->List();
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0].name, "alpha");  // Sorted by name.
  EXPECT_EQ(listing[1].name, "beta");
  EXPECT_EQ(listing[0].entry_id, (*a)->entry_id());
  EXPECT_GT(listing[0].file_bytes, 0u);
}

TEST(CatalogTest, IngestCountsItsArrangementBuildInTheRegistry) {
  // LOAD's arrangement build is real request work, so it reports to the
  // catalog's registry like any other build: one arrangement.builds per
  // ingest, and the predicate signs it settled.
  const std::string dir = TempCatalogDir();
  MetricsRegistry metrics;
  CatalogOptions options;
  options.directory = dir;
  options.metrics = &metrics;
  auto catalog = Catalog::Open(options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_TRUE((*catalog)->Ingest("alpha", kText).ok());
  EXPECT_EQ(metrics.counter("arrangement.builds")->value(), 1u);
  EXPECT_GT(metrics.counter("predicates.static_hits")->value(), 0u);
  ASSERT_TRUE((*catalog)->Ingest("beta", "T: (0 0, 4 0, 2 3)\n").ok());
  EXPECT_EQ(metrics.counter("arrangement.builds")->value(), 2u);
}

TEST(CatalogTest, IngestIsDeterministicAndReplaceable) {
  const std::string dir = TempCatalogDir();
  CatalogOptions options;
  options.directory = dir;
  auto catalog = Catalog::Open(options);
  ASSERT_TRUE(catalog.ok());

  const auto first = (*catalog)->Ingest("x", kText);
  ASSERT_TRUE(first.ok());
  const auto again = (*catalog)->Ingest("x", kText);
  ASSERT_TRUE(again.ok());
  // Same text, same bytes, same content id — and still one entry.
  EXPECT_EQ((*again)->entry_id(), (*first)->entry_id());
  EXPECT_EQ((*catalog)->size(), 1u);

  // A request holding the old entry across a replacement keeps a valid
  // mapping (the shared_ptr owns it); the catalog serves the new one.
  const auto replaced = (*catalog)->Ingest("x", "T: (0 0, 4 0, 2 3)\n");
  ASSERT_TRUE(replaced.ok());
  EXPECT_NE((*replaced)->entry_id(), (*first)->entry_id());
  EXPECT_EQ((*first)->name(), "x");  // Old mapping still readable.
  const auto now = (*catalog)->Find("x");
  ASSERT_TRUE(now.ok());
  EXPECT_EQ((*now)->entry_id(), (*replaced)->entry_id());
  EXPECT_EQ((*catalog)->size(), 1u);
}

TEST(CatalogTest, IngestValidatesNamesAndText) {
  const std::string dir = TempCatalogDir();
  CatalogOptions options;
  options.directory = dir;
  auto catalog = Catalog::Open(options);
  ASSERT_TRUE(catalog.ok());

  EXPECT_EQ((*catalog)->Ingest("", kText).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*catalog)->Ingest("a/b", kText).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*catalog)->Ingest("a\nb", kText).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*catalog)->Ingest(std::string(300, 'n'), kText).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*catalog)->Ingest("bad", "not an instance").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ((*catalog)->size(), 0u);
}

TEST(CatalogTest, RestartServesTheSameBytes) {
  const std::string dir = TempCatalogDir();
  uint64_t entry_id = 0;
  std::string canonical;
  {
    CatalogOptions options;
    options.directory = dir;
    auto catalog = Catalog::Open(options);
    ASSERT_TRUE(catalog.ok());
    const auto entry = (*catalog)->Ingest("persist", kText);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    entry_id = (*entry)->entry_id();
    canonical = std::string((*entry)->view().canonical());
  }  // Catalog destroyed: mappings dropped, only the files remain.
  CatalogOptions options;
  options.directory = dir;
  CatalogScanReport report;
  auto reopened = Catalog::Open(options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_EQ(report.skipped_corrupt, 0u);
  const auto entry = (*reopened)->Find("persist");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->entry_id(), entry_id);
  EXPECT_EQ((*entry)->view().canonical(), canonical);
}

TEST(CatalogTest, CrashRecoveryScanSkipsCorruptAndRemovesTmp) {
  const std::string dir = TempCatalogDir();
  std::string valid_file;
  {
    CatalogOptions options;
    options.directory = dir;
    auto catalog = Catalog::Open(options);
    ASSERT_TRUE(catalog.ok());
    const auto entry = (*catalog)->Ingest("ok", kText);
    ASSERT_TRUE(entry.ok());
    valid_file = (*entry)->path();
  }
  // Simulate the crash-window artifacts an interrupted ingest can leave:
  // a stray tmp file, a truncated store file, a zero-length file, and a
  // file of garbage.
  const std::string valid_bytes = ReadFile(valid_file);
  WriteFile(dir + "/inst-dead.tpds.tmp", "partial write");
  WriteFile(dir + "/inst-trunc.tpds",
            valid_bytes.substr(0, valid_bytes.size() / 2));
  WriteFile(dir + "/inst-empty.tpds", "");
  WriteFile(dir + "/inst-junk.tpds", "this is not a store file");

  CatalogOptions options;
  options.directory = dir;
  CatalogScanReport report;
  auto catalog = Catalog::Open(options, &report);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_EQ(report.skipped_corrupt, 3u);
  EXPECT_EQ(report.removed_tmp, 1u);
  ASSERT_EQ(report.skipped.size(), 3u);
  // The healthy entry is served; the tmp stray is gone from disk;
  // corrupt files are left in place for forensics, but never loaded.
  EXPECT_TRUE((*catalog)->Find("ok").ok());
  EXPECT_EQ((*catalog)->size(), 1u);
  EXPECT_NE(access((dir + "/inst-trunc.tpds").c_str(), F_OK), -1);
  EXPECT_EQ(access((dir + "/inst-dead.tpds.tmp").c_str(), F_OK), -1);
}

TEST(CatalogTest, ScanRejectsRenamedStoreFiles) {
  // A store file copied under a name that hashes differently still loads
  // (paths are derived, not authoritative) — but two files claiming the
  // same embedded name must not both load.
  const std::string dir = TempCatalogDir();
  std::string valid_file;
  {
    CatalogOptions options;
    options.directory = dir;
    auto catalog = Catalog::Open(options);
    ASSERT_TRUE(catalog.ok());
    const auto entry = (*catalog)->Ingest("dup", kText);
    ASSERT_TRUE(entry.ok());
    valid_file = (*entry)->path();
  }
  WriteFile(dir + "/inst-copy.tpds", ReadFile(valid_file));
  CatalogOptions options;
  options.directory = dir;
  CatalogScanReport report;
  auto catalog = Catalog::Open(options, &report);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(report.loaded + report.skipped_corrupt, 2u);
  EXPECT_EQ((*catalog)->size(), 1u);
  EXPECT_TRUE((*catalog)->Find("dup").ok());
}

TEST(CatalogTest, ValidateCatalogNameContract) {
  EXPECT_TRUE(ValidateCatalogName("fig6").ok());
  EXPECT_TRUE(ValidateCatalogName("chain:64").ok());
  EXPECT_TRUE(ValidateCatalogName(std::string(256, 'x')).ok());
  EXPECT_FALSE(ValidateCatalogName("").ok());
  EXPECT_FALSE(ValidateCatalogName(std::string(257, 'x')).ok());
  EXPECT_FALSE(ValidateCatalogName("a/b").ok());
  EXPECT_FALSE(ValidateCatalogName("a\tb").ok());
}

TEST(CatalogTest, DeadlinedIngestFailsWithoutBurningTheWorker) {
  const std::string dir = TempCatalogDir();
  CatalogOptions options;
  options.directory = dir;
  auto catalog = Catalog::Open(options);
  ASSERT_TRUE(catalog.ok());
  // An already-expired deadline must stop the pipeline between stages.
  const auto entry = (*catalog)->Ingest(
      "late", kText, StopSignal(Deadline::Expired(), nullptr));
  ASSERT_FALSE(entry.ok());
  EXPECT_EQ(entry.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*catalog)->size(), 0u);
}

TEST(CatalogTest, StoredRectilinearFlagMatchesTheSInvariantOracle) {
  // Format 1 wrote its S-invariant section exactly when SInvariant::Compute
  // succeeded; the stats flag that replaced the section must agree with
  // that condition on every fixture, generator family and the empty
  // instance.
  std::vector<std::pair<std::string, SpatialInstance>> inputs;
  for (const std::string& name : FixtureNames()) {
    inputs.emplace_back(name, *FixtureByName(name));
  }
  inputs.emplace_back("chain", *ChainInstance(6));
  inputs.emplace_back("grid", *RectGridInstance(2, 3));
  inputs.emplace_back("comb", *CombInstance(3));
  inputs.emplace_back("flower", *FlowerInstance(4));
  inputs.emplace_back("nested-rings", *NestedRingsInstance(3));
  inputs.emplace_back("random-rect", *RandomRectInstance(8, 96, 42));
  inputs.emplace_back("empty", SpatialInstance());

  const std::string dir = TempCatalogDir();
  CatalogOptions options;
  options.directory = dir;
  auto catalog = Catalog::Open(options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  size_t with = 0;
  for (const auto& [name, instance] : inputs) {
    const auto entry = (*catalog)->Ingest(name, WriteInstanceText(instance));
    ASSERT_TRUE(entry.ok()) << name << ": " << entry.status().ToString();
    const bool oracle = SInvariant::Compute(instance).ok();
    EXPECT_EQ((*entry)->view().has_s_invariant(), oracle) << name;
    with += oracle ? 1 : 0;
  }
  // Both answers occur, so the check cannot pass by a constant.
  EXPECT_GT(with, 0u);
  EXPECT_LT(with, inputs.size());
}

TEST(CatalogTest, OpenReingestsAFormatOneFileInPlace) {
  const std::string v1 = FromHex(kGoldenV1Hex);
  ASSERT_EQ(v1.size(), 1243u);
  ASSERT_EQ(Fnv1a64(v1), 0x8ec014b7adca2154ull);
  // Not served as it is, but its name and text are readable.
  EXPECT_EQ(StoreFileView::Parse(v1).status().code(),
            StatusCode::kUnsupported);
  const Result<OlderStoreFile> older = ReadOlderStoreFile(v1);
  ASSERT_TRUE(older.ok()) << older.status().ToString();
  EXPECT_EQ(older->name, "gold");

  // Under a file name the catalog would never choose for "gold".
  const std::string dir = TempCatalogDir();
  WriteFile(dir + "/gold-v1.tpds", v1);
  const std::string text = WriteInstanceText(*ParseInstanceText(kText));
  const Result<std::string> fresh =
      CanonicalInvariantString(*ComputeInvariant(*ParseInstanceText(text)));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  uint64_t entry_id = 0;
  {
    MetricsRegistry metrics;
    CatalogOptions options;
    options.directory = dir;
    options.metrics = &metrics;
    CatalogScanReport report;
    auto catalog = Catalog::Open(options, &report);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    EXPECT_EQ(report.loaded, 1u);
    EXPECT_EQ(report.skipped_corrupt, 0u);
    EXPECT_EQ(metrics.counter("catalog.ingests")->value(), 1u);
    const auto entry = (*catalog)->Find("gold");
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    const StoreFileView& view = (*entry)->view();
    EXPECT_EQ(view.format_version(), 2u);
    EXPECT_EQ(view.instance_text(), text);
    EXPECT_EQ(view.canonical(), *fresh);
    EXPECT_TRUE(view.has_s_invariant());
    EXPECT_EQ(view.stats().num_regions, 2u);
    entry_id = (*entry)->entry_id();
  }
  // The version-2 file replaced the old one under its own name.
  EXPECT_EQ(StoreFilesIn(dir), std::vector<std::string>{"gold-v1.tpds"});
  const std::string upgraded_bytes = ReadFile(dir + "/gold-v1.tpds");
  const Result<StoreFileView> upgraded = StoreFileView::Parse(upgraded_bytes);
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  EXPECT_EQ(upgraded->format_version(), 2u);
  EXPECT_EQ(upgraded->entry_id(), entry_id);

  // A second open serves that file without ingesting anything.
  MetricsRegistry metrics;
  CatalogOptions options;
  options.directory = dir;
  options.metrics = &metrics;
  CatalogScanReport report;
  auto catalog = Catalog::Open(options, &report);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_EQ(report.skipped_corrupt, 0u);
  EXPECT_EQ(metrics.counter("catalog.ingests")->value(), 0u);
  const auto entry = (*catalog)->Find("gold");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->entry_id(), entry_id);
}

TEST(CatalogTest, ScanSkipsCorruptOlderFilesAndNewerVersions) {
  // A damaged format-1 file is corrupt, not re-ingested; a file of a newer
  // format than this build is skipped as Unsupported. Both stay on disk
  // untouched.
  std::string flipped = FromHex(kGoldenV1Hex);
  flipped.back() = static_cast<char>(flipped.back() ^ 0x80);
  std::string newer = EncodeStoreFile(MakeStored("newer", kText));
  WriteLE32(&newer, 4, kStoreFormatVersion + 1);
  const std::string dir = TempCatalogDir();
  WriteFile(dir + "/inst-flipped.tpds", flipped);
  WriteFile(dir + "/inst-newer.tpds", newer);

  MetricsRegistry metrics;
  CatalogOptions options;
  options.directory = dir;
  options.metrics = &metrics;
  CatalogScanReport report;
  auto catalog = Catalog::Open(options, &report);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.skipped_corrupt, 2u);
  ASSERT_EQ(report.skipped.size(), 2u);
  EXPECT_NE(report.skipped[0].find("checksum"), std::string::npos)
      << report.skipped[0];
  EXPECT_NE(report.skipped[1].find("format version 3"), std::string::npos)
      << report.skipped[1];
  EXPECT_EQ(metrics.counter("catalog.ingests")->value(), 0u);
  EXPECT_EQ((*catalog)->size(), 0u);
  EXPECT_EQ(ReadFile(dir + "/inst-flipped.tpds"), flipped);
  EXPECT_EQ(ReadFile(dir + "/inst-newer.tpds"), newer);
}

TEST(CatalogTest, IngestReplacesAnEntryUnderItsLoadedPath) {
  // An entry loaded from a file name the catalog would not choose (a
  // copied or upgraded file) is replaced in that file, so no stale copy
  // of the name is left to load after a restart.
  const std::string dir = TempCatalogDir();
  {
    CatalogOptions options;
    options.directory = dir;
    auto catalog = Catalog::Open(options);
    ASSERT_TRUE(catalog.ok());
    const auto entry = (*catalog)->Ingest("moved", kText);
    ASSERT_TRUE(entry.ok());
    ASSERT_EQ(std::rename((*entry)->path().c_str(),
                          (dir + "/moved.tpds").c_str()),
              0);
  }
  const std::string replacement = "T: (0 0, 4 0, 2 3)\n";
  {
    CatalogOptions options;
    options.directory = dir;
    auto catalog = Catalog::Open(options);
    ASSERT_TRUE(catalog.ok());
    const auto entry = (*catalog)->Ingest("moved", replacement);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    EXPECT_EQ((*entry)->path(), dir + "/moved.tpds");
  }
  EXPECT_EQ(StoreFilesIn(dir), std::vector<std::string>{"moved.tpds"});
  CatalogOptions options;
  options.directory = dir;
  auto catalog = Catalog::Open(options);
  ASSERT_TRUE(catalog.ok());
  const auto entry = (*catalog)->Find("moved");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->view().instance_text(),
            WriteInstanceText(*ParseInstanceText(replacement)));
}

}  // namespace
}  // namespace topodb
