// Store-layer tests: golden byte layout (any drift in the persisted
// format must be a deliberate, reviewed change), corrupt-store handling
// (truncations, bit flips, bad magic/version, bounds attacks — every one
// a clean DataLoss/Unsupported error under ASan/UBSan, never UB), and
// catalog behavior (ingest durability, crash recovery, replacement
// semantics, name validation).

#include "src/store/catalog.h"
#include "src/store/format.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/invariant/canonical.h"
#include "src/invariant/data.h"
#include "src/invariant/s_invariant.h"
#include "src/region/io.h"
#include "src/thematic/thematic.h"

namespace topodb {
namespace {

// Two nested rectilinear rectangles: small, deterministic, and
// rectilinear so the optional S-invariant section is exercised too.
constexpr char kText[] =
    "A: (0 0, 4 0, 4 4, 0 4)\n"
    "B: (1 1, 3 1, 3 2, 1 2)\n";

// Builds a StoredInstance through the same pipeline Catalog::Ingest runs.
StoredInstance MakeStored(const std::string& name, const std::string& text) {
  StoredInstance stored;
  stored.name = name;
  auto instance = ParseInstanceText(text);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  stored.instance_text = WriteInstanceText(*instance);
  auto invariant = ComputeInvariant(*instance);
  EXPECT_TRUE(invariant.ok()) << invariant.status().ToString();
  stored.invariant = *invariant;
  auto canonical = CanonicalInvariantString(*invariant);
  EXPECT_TRUE(canonical.ok()) << canonical.status().ToString();
  stored.canonical = *canonical;
  auto s = SInvariant::Compute(*instance);
  if (s.ok()) {
    stored.has_s_invariant = true;
    stored.s_invariant = s->canonical();
  }
  stored.thematic = ToThematic(*invariant);
  return stored;
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

TEST(FormatTest, Fnv1a64KnownAnswers) {
  // Published FNV-1a 64 vectors; a digest change silently invalidates
  // every existing store file's checksum and entry id.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(FormatTest, GoldenByteLayout) {
  const std::string file = EncodeStoreFile(MakeStored("gold", kText));
  // Header: magic "TPDS", version 1, payload length, checksum, reserved.
  ASSERT_GE(file.size(), kStoreHeaderBytes);
  EXPECT_EQ(file.substr(0, 4), "TPDS");
  EXPECT_EQ(ReadLE(file, 4, 4), kStoreFormatVersion);
  EXPECT_EQ(ReadLE(file, 8, 8), file.size() - kStoreHeaderBytes);
  EXPECT_EQ(ReadLE(file, 16, 8),
            Fnv1a64(std::string_view(file).substr(kStoreHeaderBytes)));
  EXPECT_EQ(ReadLE(file, 24, 8), 0u);
  // Section table: all seven kinds (the instance is rectilinear, so the
  // S-invariant section is present), ascending, contiguous bytes starting
  // right after the table.
  ASSERT_EQ(ReadLE(file, kStoreHeaderBytes, 4), 7u);
  uint64_t expect_offset = 4 + 7 * 24;
  for (size_t i = 0; i < 7; ++i) {
    const size_t entry = TableEntryAt(i);
    EXPECT_EQ(ReadLE(file, entry, 4), i + 1) << "section " << i;
    EXPECT_EQ(ReadLE(file, entry + 4, 4), 0u) << "section " << i;
    EXPECT_EQ(ReadLE(file, entry + 8, 8), expect_offset) << "section " << i;
    expect_offset += ReadLE(file, entry + 16, 8);
  }
  EXPECT_EQ(kStoreHeaderBytes + expect_offset, file.size());
  // The whole-file digest pins every byte of the layout: header, table,
  // and each section's internal encoding. If this changes, either bump
  // kStoreFormatVersion or be certain the old files still parse.
  EXPECT_EQ(Fnv1a64(file), 0x8ec014b7adca2154ull)
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
  ASSERT_TRUE(view->has_s_invariant());
  EXPECT_EQ(view->s_invariant(), stored.s_invariant);

  const StoreStats stats = view->stats();
  EXPECT_EQ(stats.num_regions, stored.invariant.region_names.size());
  EXPECT_EQ(stats.num_vertices, stored.invariant.vertices.size());
  EXPECT_EQ(stats.num_edges, stored.invariant.edges.size());
  EXPECT_EQ(stats.num_faces, stored.invariant.faces.size());

  const Result<InvariantData> decoded = view->DecodeInvariantData();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The decoded invariant must be semantically identical: same canonical
  // string under the same options.
  const auto canon = CanonicalInvariantString(*decoded);
  ASSERT_TRUE(canon.ok());
  EXPECT_EQ(*canon, stored.canonical);

  const Result<ThematicInstance> theme = view->DecodeThematic();
  ASSERT_TRUE(theme.ok()) << theme.status().ToString();
  EXPECT_EQ(theme->regions.size(), stored.thematic.regions.size());
  EXPECT_EQ(theme->face_edges.size(), stored.thematic.face_edges.size());
  EXPECT_EQ(theme->outer_cycle.size(), stored.thematic.outer_cycle.size());
}

TEST(FormatTest, NonRectilinearInstanceOmitsSInvariant) {
  const StoredInstance stored =
      MakeStored("tri", "T: (0 0, 4 0, 2 3)\n");
  EXPECT_FALSE(stored.has_s_invariant);
  const Result<StoreFileView> view =
      StoreFileView::Parse(EncodeStoreFile(stored));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view->has_s_invariant());
  EXPECT_TRUE(view->s_invariant().empty());
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

TEST(CorruptStoreTest, CorruptInvariantCountsFailDecodeCleanly) {
  std::string file = EncodeStoreFile(MakeStored("i", kText));
  // Locate the invariant-data section via the (specified) table layout
  // and blow up its vertex count. Parse() still succeeds — the section
  // table is fine — but DecodeInvariantData must refuse to allocate.
  const size_t entry = TableEntryAt(4);  // kinds 1..7 in order, kind 5.
  ASSERT_EQ(ReadLE(file, entry, 4), 5u);
  const size_t section = kStoreHeaderBytes + ReadLE(file, entry + 8, 8);
  WriteLE32(&file, section + 4, 0x7fffffffu);  // num_vertices.
  FixChecksum(&file);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const Result<InvariantData> decoded = view->DecodeInvariantData();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptStoreTest, WellFormednessIsRecheckedAfterDecode) {
  std::string file = EncodeStoreFile(MakeStored("w", kText));
  const size_t entry = TableEntryAt(4);
  const size_t section = kStoreHeaderBytes + ReadLE(file, entry + 8, 8);
  // exterior_face sits after the four counts; point it at a bogus face.
  WriteLE32(&file, section + 16, 0x00ffffffu);
  FixChecksum(&file);
  const Result<StoreFileView> view = StoreFileView::Parse(file);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const Result<InvariantData> decoded = view->DecodeInvariantData();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
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
  std::string valid_bytes;
  {
    std::ifstream in(valid_file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    valid_bytes = buf.str();
  }
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
  std::string bytes;
  {
    std::ifstream in(valid_file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  WriteFile(dir + "/inst-copy.tpds", bytes);
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

}  // namespace
}  // namespace topodb
