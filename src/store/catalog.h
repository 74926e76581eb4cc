#ifndef TOPODB_STORE_CATALOG_H_
#define TOPODB_STORE_CATALOG_H_

// The persistent instance catalog: a directory of store files (one per
// named instance, see format.h), memory-mapped read-only and served
// without per-request parsing or arrangement rebuilds.
//
// Lifetime rules (DESIGN.md section 5g): the catalog owns one mapping per
// entry and hands requests a shared_ptr<const CatalogEntry> that owns the
// mapping together with the validated view over it. A concurrent
// re-ingest of the same name swaps the map slot to a new entry; requests
// holding the old shared_ptr keep a valid mapping until they drop it, so
// no request ever observes an unmapped page. Views never escape their
// entry.
//
// Crash recovery: ingest writes `<path>.tmp`, fsyncs, renames into place,
// then fsyncs the directory — a crash leaves either the old file, the new
// file, or a stray `.tmp`. Open() deletes `.tmp` strays, skips files that
// fail validation (counting them and reporting each in the scan report),
// and loads the rest; a partially written ingest is therefore detected
// and skipped at startup, never served. A file of an older format version
// is re-ingested from its own name and text, the same way.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/obs/deadline.h"
#include "src/obs/metrics.h"
#include "src/store/format.h"

namespace topodb {

// The unified lookup error for a catalog name that is not present. Every
// opcode that resolves a name (COMPUTE_INVARIANT, BATCH_INVARIANTS,
// EVAL_QUERY, ISO_CHECK, DESCRIBE) surfaces exactly this status, so
// clients can match on NotFound + the offending name regardless of which
// request path failed.
inline Status UnknownInstanceError(const std::string& name) {
  return Status::NotFound("unknown instance '" + name + "'");
}

// Constraints on catalog entry names (independent of region names, which
// live inside the instance text): nonempty, at most 256 bytes, no control
// characters, no '/' (names appear in scan reports and logs; paths are
// derived by hashing, but a printable name keeps every surface sane).
Status ValidateCatalogName(const std::string& name);

// Read-only memory mapping of a whole file. Move-only; unmaps on
// destruction. A zero-length file yields an empty view without calling
// mmap (mmap of length 0 is EINVAL).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  static Result<MappedFile> Open(const std::string& path);

  std::string_view bytes() const {
    return std::string_view(static_cast<const char*>(base_), size_);
  }

 private:
  void* base_ = nullptr;
  size_t size_ = 0;
};

// One loaded catalog entry: the mapping and the validated view over it,
// bound together so the view can never outlive its bytes.
class CatalogEntry {
 public:
  CatalogEntry(std::string path, MappedFile mapping, StoreFileView view)
      : path_(std::move(path)),
        mapping_(std::move(mapping)),
        view_(std::move(view)) {}
  CatalogEntry(const CatalogEntry&) = delete;
  CatalogEntry& operator=(const CatalogEntry&) = delete;

  const std::string& path() const { return path_; }
  uint64_t file_bytes() const { return mapping_.bytes().size(); }
  const StoreFileView& view() const { return view_; }

  std::string name() const { return std::string(view_.name()); }
  uint64_t entry_id() const { return view_.entry_id(); }

 private:
  std::string path_;
  MappedFile mapping_;
  StoreFileView view_;
};

struct CatalogOptions {
  // Directory holding the store files; created if absent.
  std::string directory;
  // Optional metrics sink (counters catalog.hits / catalog.misses /
  // catalog.ingests / catalog.skipped_corrupt, gauges catalog.entries /
  // catalog.mapped_bytes, histograms catalog.ingest_us / catalog.open_us).
  // Each ingest's arrangement build also reports its arrangement.* and
  // predicates.* series here.
  MetricsRegistry* metrics = nullptr;
};

// What Open() found on disk. skipped entries are "<file>: <error>" lines.
struct CatalogScanReport {
  size_t loaded = 0;
  size_t skipped_corrupt = 0;
  size_t removed_tmp = 0;
  std::vector<std::string> skipped;
};

struct CatalogListing {
  std::string name;
  uint64_t entry_id = 0;
  uint64_t file_bytes = 0;
};

// Thread-safe: Find/List may run concurrently with each other and with
// Ingest (the server's worker pool does exactly that).
class Catalog {
 public:
  // Scans options.directory, removing `.tmp` strays and skipping corrupt
  // files (each skip is reported, counted, and logged to stderr — a
  // corrupt file is an operational event, not a reason to refuse every
  // healthy entry). A file of an older format version is re-ingested from
  // its name and text sections, the new file replacing it under the same
  // path, and counts as loaded; a newer version is skipped. Fails only
  // when the directory cannot be created or read.
  static Result<std::unique_ptr<Catalog>> Open(
      const CatalogOptions& options, CatalogScanReport* report = nullptr);

  // Full ingest pipeline: validate name, parse text, build the
  // arrangement, canonicalize, count cells and check that every region is
  // rectilinear, then atomically persist and map the store file. `stop` is
  // polled between stages, so a deadlined LOAD fails with
  // DeadlineExceeded instead of burning a worker. Re-ingesting an
  // existing name atomically replaces its file.
  Result<std::shared_ptr<const CatalogEntry>> Ingest(
      const std::string& name, const std::string& instance_text,
      const StopSignal& stop = StopSignal());

  // NotFound (UnknownInstanceError) when absent.
  Result<std::shared_ptr<const CatalogEntry>> Find(
      const std::string& name) const;

  // Sorted by name.
  std::vector<CatalogListing> List() const;

  size_t size() const;
  const std::string& directory() const { return directory_; }

 private:
  explicit Catalog(const CatalogOptions& options);

  // Loads one store file and verifies the embedded name (nullptr to skip
  // the check during scans, where the name comes *from* the file).
  static Result<std::shared_ptr<const CatalogEntry>> LoadFile(
      const std::string& path, const std::string* expect_name);

  // Ingest into `path`, or when it is empty, PathForNameLocked(name).
  Result<std::shared_ptr<const CatalogEntry>> IngestInto(
      const std::string& path, const std::string& name,
      const std::string& instance_text, const StopSignal& stop);

  // Re-ingests the older-format file at `path` in place (Open only).
  Status Reingest(const std::string& path);

  // The path serving `name`, else a free one, probing hash-suffix
  // collisions.
  std::string PathForNameLocked(const std::string& name) const;
  void UpdateGaugesLocked();

  std::string directory_;
  // Ingest builds the arrangement under this registry (may be null).
  MetricsRegistry* metrics_ = nullptr;

  // Metric handles resolved once at Open (null-safe when no registry).
  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  Counter* ingests_ = nullptr;
  Counter* skipped_corrupt_ = nullptr;
  Gauge* entries_gauge_ = nullptr;
  Gauge* mapped_bytes_gauge_ = nullptr;
  Histogram* ingest_us_ = nullptr;
  Histogram* open_us_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const CatalogEntry>> entries_;
};

}  // namespace topodb

#endif  // TOPODB_STORE_CATALOG_H_
