#include "src/store/catalog.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/arrangement/cell_complex.h"
#include "src/invariant/canonical.h"
#include "src/invariant/data.h"
#include "src/region/io.h"
#include "src/region/region.h"

namespace topodb {
namespace {

namespace fs = std::filesystem;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

std::string HexU64(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

// Writes bytes to `path` and fsyncs the file descriptor before closing,
// so the subsequent rename can only publish fully durable contents.
Status WriteFileDurably(const std::string& path, std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(ErrnoMessage("cannot create", path));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::Internal(ErrnoMessage("write to", path));
      ::close(fd);
      ::unlink(path.c_str());
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status status = Status::Internal(ErrnoMessage("fsync", path));
    ::close(fd);
    ::unlink(path.c_str());
    return status;
  }
  ::close(fd);
  return Status::OK();
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal(ErrnoMessage("cannot open directory", dir));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal(ErrnoMessage("fsync directory", dir));
  }
  return Status::OK();
}

}  // namespace

Status ValidateCatalogName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("catalog name is empty");
  }
  if (name.size() > 256) {
    return Status::InvalidArgument("catalog name exceeds 256 bytes");
  }
  for (char c : name) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      return Status::InvalidArgument(
          "catalog name contains a control character");
    }
    if (c == '/') {
      return Status::InvalidArgument("catalog name contains '/'");
    }
  }
  return Status::OK();
}

// --- MappedFile -----------------------------------------------------------

MappedFile::~MappedFile() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : base_(other.base_), size_(other.size_) {
  other.base_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) ::munmap(base_, size_);
    base_ = other.base_;
    size_ = other.size_;
    other.base_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal(ErrnoMessage("cannot open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::Internal(ErrnoMessage("cannot stat", path));
    ::close(fd);
    return status;
  }
  MappedFile mapped;
  if (st.st_size > 0) {
    void* base = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      const Status status = Status::Internal(ErrnoMessage("cannot mmap", path));
      ::close(fd);
      return status;
    }
    mapped.base_ = base;
    mapped.size_ = static_cast<size_t>(st.st_size);
  }
  ::close(fd);
  return mapped;
}

// --- Catalog --------------------------------------------------------------

Catalog::Catalog(const CatalogOptions& options)
    : directory_(options.directory),
      metrics_(options.metrics),
      hits_(RegistryCounter(options.metrics, "catalog.hits")),
      misses_(RegistryCounter(options.metrics, "catalog.misses")),
      ingests_(RegistryCounter(options.metrics, "catalog.ingests")),
      skipped_corrupt_(
          RegistryCounter(options.metrics, "catalog.skipped_corrupt")),
      entries_gauge_(RegistryGauge(options.metrics, "catalog.entries")),
      mapped_bytes_gauge_(
          RegistryGauge(options.metrics, "catalog.mapped_bytes")),
      ingest_us_(RegistryHistogram(options.metrics, "catalog.ingest_us")),
      open_us_(RegistryHistogram(options.metrics, "catalog.open_us")) {}

Result<std::shared_ptr<const CatalogEntry>> Catalog::LoadFile(
    const std::string& path, const std::string* expect_name) {
  TOPODB_ASSIGN_OR_RETURN(MappedFile mapped, MappedFile::Open(path));
  Result<StoreFileView> view = StoreFileView::Parse(mapped.bytes());
  if (!view.ok()) {
    return Status(view.status().code(),
                  path + ": " + view.status().message());
  }
  if (expect_name != nullptr && view->name() != *expect_name) {
    return Status::DataLoss(path + ": embedded name '" +
                            std::string(view->name()) +
                            "' does not match catalog name '" + *expect_name +
                            "'");
  }
  return std::make_shared<const CatalogEntry>(path, std::move(mapped),
                                              std::move(view).value());
}

Result<std::unique_ptr<Catalog>> Catalog::Open(const CatalogOptions& options,
                                               CatalogScanReport* report) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("catalog directory is empty");
  }
  std::error_code ec;
  fs::create_directories(options.directory, ec);
  if (ec) {
    return Status::Internal("cannot create catalog directory " +
                            options.directory + ": " + ec.message());
  }

  std::unique_ptr<Catalog> catalog(new Catalog(options));
  CatalogScanReport local_report;
  CatalogScanReport* scan = report != nullptr ? report : &local_report;
  *scan = CatalogScanReport();

  ScopedTimer timer(catalog->open_us_);
  std::vector<std::string> paths;
  for (const auto& dirent :
       fs::directory_iterator(options.directory, ec)) {
    if (!dirent.is_regular_file()) continue;
    const std::string path = dirent.path().string();
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".tmp") == 0) {
      // A crash between write and rename left this behind; the renamed
      // file it was meant to become either exists (ingest completed on a
      // previous attempt) or does not (the ingest never happened). Either
      // way the stray is dead weight.
      ::unlink(path.c_str());
      ++scan->removed_tmp;
      continue;
    }
    paths.push_back(path);
  }
  if (ec) {
    return Status::Internal("cannot scan catalog directory " +
                            options.directory + ": " + ec.message());
  }
  std::sort(paths.begin(), paths.end());

  auto skip = [&](const std::string& path, const Status& status) {
    ++scan->skipped_corrupt;
    scan->skipped.push_back(path + ": " + status.message());
    CounterAdd(catalog->skipped_corrupt_);
    std::fprintf(stderr, "topodb catalog: skipping %s (%s)\n", path.c_str(),
                 status.ToString().c_str());
  };
  std::vector<std::string> unsupported;
  for (const std::string& path : paths) {
    Result<std::shared_ptr<const CatalogEntry>> entry =
        LoadFile(path, /*expect_name=*/nullptr);
    if (!entry.ok()) {
      if (entry.status().code() == StatusCode::kUnsupported) {
        unsupported.push_back(path);
      } else {
        skip(path, entry.status());
      }
      continue;
    }
    const std::string name = (*entry)->name();
    if (!ValidateCatalogName(name).ok() ||
        catalog->entries_.count(name) > 0) {
      skip(path, Status::DataLoss("bad or duplicate embedded name '" + name +
                                  "'"));
      continue;
    }
    catalog->entries_.emplace(name, std::move(entry).value());
    ++scan->loaded;
  }
  // Files of an older format version are re-ingested only now, once every
  // current file has claimed its name, so an older copy never displaces a
  // current entry. A newer version stays Unsupported and is skipped.
  for (const std::string& path : unsupported) {
    const Status status = catalog->Reingest(path);
    if (!status.ok()) {
      skip(path, status);
      continue;
    }
    std::fprintf(stderr, "topodb catalog: re-ingested %s from an older "
                 "store format\n", path.c_str());
    ++scan->loaded;
  }
  catalog->UpdateGaugesLocked();  // Single-threaded here; no lock needed.
  return catalog;
}

Status Catalog::Reingest(const std::string& path) {
  OlderStoreFile older;
  {
    TOPODB_ASSIGN_OR_RETURN(MappedFile mapped, MappedFile::Open(path));
    TOPODB_ASSIGN_OR_RETURN(older, ReadOlderStoreFile(mapped.bytes()));
  }
  if (entries_.count(older.name) > 0) {
    return Status::DataLoss("duplicate embedded name '" + older.name + "'");
  }
  // Written in place: the new file replaces the old one by rename, and no
  // other file, such as an older file not yet re-ingested, is touched.
  return IngestInto(path, older.name, older.instance_text, StopSignal())
      .status();
}

std::string Catalog::PathForNameLocked(const std::string& name) const {
  // Reuse the path already serving this name, whatever its file name, so a
  // re-ingest replaces the file in place; otherwise probe for a path no
  // other entry owns (two names can share an FNV hash).
  const auto serving = entries_.find(name);
  if (serving != entries_.end()) return serving->second->path();
  const std::string stem = directory_ + "/inst-" + HexU64(Fnv1a64(name));
  for (int probe = 0;; ++probe) {
    const std::string candidate =
        probe == 0 ? stem + ".tpds"
                   : stem + "-" + std::to_string(probe) + ".tpds";
    const bool taken =
        std::any_of(entries_.begin(), entries_.end(), [&](const auto& e) {
          return e.second->path() == candidate;
        });
    if (!taken) return candidate;
  }
}

Result<std::shared_ptr<const CatalogEntry>> Catalog::Ingest(
    const std::string& name, const std::string& instance_text,
    const StopSignal& stop) {
  return IngestInto(/*path=*/"", name, instance_text, stop);
}

Result<std::shared_ptr<const CatalogEntry>> Catalog::IngestInto(
    const std::string& path, const std::string& name,
    const std::string& instance_text, const StopSignal& stop) {
  ScopedTimer timer(ingest_us_);
  TOPODB_RETURN_NOT_OK(ValidateCatalogName(name));
  TOPODB_RETURN_NOT_OK(stop.Check());

  TOPODB_ASSIGN_OR_RETURN(SpatialInstance instance,
                          ParseInstanceText(instance_text));
  TOPODB_RETURN_NOT_OK(stop.Check());

  StoredInstance stored;
  stored.name = name;
  // Persist the *writer's* normalization of the text, not the caller's
  // bytes: equal instances then produce equal store files regardless of
  // how their text was formatted, and the text section is byte-stable
  // under further parse/write round trips.
  stored.instance_text = WriteInstanceText(instance);
  ArrangementOptions arrangement;
  arrangement.metrics = metrics_;
  TOPODB_ASSIGN_OR_RETURN(CellComplex complex,
                          CellComplex::Build(instance, arrangement));
  const InvariantData invariant = InvariantData::FromComplex(complex);
  TOPODB_RETURN_NOT_OK(stop.Check());

  TOPODB_ASSIGN_OR_RETURN(stored.canonical,
                          CanonicalInvariantString(invariant));
  TOPODB_RETURN_NOT_OK(stop.Check());

  stored.stats.num_regions = invariant.region_names.size();
  stored.stats.num_vertices = invariant.vertices.size();
  stored.stats.num_edges = invariant.edges.size();
  stored.stats.num_faces = invariant.faces.size();
  stored.stats.all_rectilinear = std::all_of(
      instance.regions().begin(), instance.regions().end(),
      [](const auto& named) {
        return Region::IsRectilinear(named.second.boundary());
      });
  const std::string bytes = EncodeStoreFile(stored);

  std::lock_guard<std::mutex> lock(mu_);
  const std::string target = path.empty() ? PathForNameLocked(name) : path;
  const std::string tmp_path = target + ".tmp";
  TOPODB_RETURN_NOT_OK(WriteFileDurably(tmp_path, bytes));
  if (::rename(tmp_path.c_str(), target.c_str()) != 0) {
    const Status status =
        Status::Internal(ErrnoMessage("cannot rename into", target));
    ::unlink(tmp_path.c_str());
    return status;
  }
  TOPODB_RETURN_NOT_OK(FsyncDirectory(directory_));

  // Re-map what was just written rather than serving the in-memory copy:
  // the entry then proves the durable bytes round-trip, and the serving
  // path is identical to a restart's.
  TOPODB_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry,
                          LoadFile(target, &name));
  entries_[name] = entry;
  CounterAdd(ingests_);
  UpdateGaugesLocked();
  return entry;
}

Result<std::shared_ptr<const CatalogEntry>> Catalog::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    CounterAdd(misses_);
    return UnknownInstanceError(name);
  }
  CounterAdd(hits_);
  return it->second;
}

std::vector<CatalogListing> Catalog::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CatalogListing> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(CatalogListing{name, entry->entry_id(),
                                 entry->file_bytes()});
  }
  return out;
}

size_t Catalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void Catalog::UpdateGaugesLocked() {
  GaugeSet(entries_gauge_, static_cast<int64_t>(entries_.size()));
  int64_t mapped = 0;
  for (const auto& [name, entry] : entries_) {
    mapped += static_cast<int64_t>(entry->file_bytes());
  }
  GaugeSet(mapped_bytes_gauge_, mapped);
}

}  // namespace topodb
