#include "src/store/format.h"

namespace topodb {
namespace {

// Little-endian primitives. The store format deliberately does not share
// the wire-protocol helpers: wire frames and store files version
// independently, and a link from the store to the serving layer would
// invert the dependency order (the server links the store, not vice
// versa).

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t ReadLE(std::string_view data, size_t pos, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  return v;
}

// Four u64 counts and the u8 rectilinear flag.
constexpr size_t kStatsBytes = 4 * 8 + 1;

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string EncodeStoreFile(const StoredInstance& in) {
  std::string stats;
  AppendU64(&stats, in.stats.num_regions);
  AppendU64(&stats, in.stats.num_vertices);
  AppendU64(&stats, in.stats.num_edges);
  AppendU64(&stats, in.stats.num_faces);
  stats.push_back(in.stats.all_rectilinear ? 1 : 0);
  const struct {
    StoreSection kind;
    std::string_view bytes;
  } sections[] = {{StoreSection::kName, in.name},
                  {StoreSection::kInstanceText, in.instance_text},
                  {StoreSection::kCanonical, in.canonical},
                  {StoreSection::kStats, stats}};

  // Payload: section table first, then the section bytes back to back.
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(std::size(sections)));
  uint64_t offset = 4 + std::size(sections) * 24;  // First byte past the table.
  for (const auto& s : sections) {
    AppendU32(&payload, static_cast<uint32_t>(s.kind));
    AppendU32(&payload, 0);  // reserved
    AppendU64(&payload, offset);
    AppendU64(&payload, s.bytes.size());
    offset += s.bytes.size();
  }
  for (const auto& s : sections) payload.append(s.bytes);

  std::string file;
  file.reserve(kStoreHeaderBytes + payload.size());
  AppendU32(&file, kStoreMagic);
  AppendU32(&file, kStoreFormatVersion);
  AppendU64(&file, payload.size());
  AppendU64(&file, Fnv1a64(payload));
  AppendU64(&file, 0);  // reserved
  file.append(payload);
  return file;
}

Result<StoreFileView> StoreFileView::ParseContainer(std::string_view bytes) {
  if (bytes.size() < kStoreHeaderBytes) {
    return Status::DataLoss("store file holds " +
                            std::to_string(bytes.size()) + " bytes, below " +
                            "the " + std::to_string(kStoreHeaderBytes) +
                            "-byte header");
  }
  const uint32_t magic = static_cast<uint32_t>(ReadLE(bytes, 0, 4));
  if (magic != kStoreMagic) {
    return Status::DataLoss("bad store magic (not a TopoDB store file?)");
  }
  // Checked before anything past the version field: a newer version may
  // lay out the rest differently.
  const uint32_t version = static_cast<uint32_t>(ReadLE(bytes, 4, 4));
  if (version == 0 || version > kStoreFormatVersion) {
    return Status::Unsupported(
        "store format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kStoreFormatVersion) + ")");
  }
  const uint64_t payload_len = ReadLE(bytes, 8, 8);
  const uint64_t actual_payload = bytes.size() - kStoreHeaderBytes;
  if (payload_len != actual_payload) {
    return Status::DataLoss(
        "store header announces " + std::to_string(payload_len) +
        " payload bytes but the file holds " +
        std::to_string(actual_payload) +
        (payload_len > actual_payload ? " (truncated write?)"
                                      : " (trailing garbage?)"));
  }
  const uint64_t checksum = ReadLE(bytes, 16, 8);
  const std::string_view payload = bytes.substr(kStoreHeaderBytes);
  const uint64_t computed = Fnv1a64(payload);
  if (checksum != computed) {
    return Status::DataLoss("store payload checksum mismatch (header " +
                            std::to_string(checksum) + ", computed " +
                            std::to_string(computed) + ")");
  }

  StoreFileView view;
  view.bytes_ = bytes;
  view.format_version_ = version;
  view.checksum_ = checksum;

  if (payload.size() < 4) {
    return Status::DataLoss("store payload has no section table");
  }
  const uint32_t section_count = static_cast<uint32_t>(ReadLE(payload, 0, 4));
  // 24 bytes per table entry must fit in the payload; this bound also
  // keeps a corrupt count from driving a giant allocation below.
  if (4 + static_cast<uint64_t>(section_count) * 24 > payload.size()) {
    return Status::DataLoss("store section table announces " +
                            std::to_string(section_count) +
                            " sections, more than the payload could hold");
  }
  view.sections_.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t entry = 4 + static_cast<size_t>(i) * 24;
    const uint32_t kind = static_cast<uint32_t>(ReadLE(payload, entry, 4));
    const uint64_t offset = ReadLE(payload, entry + 8, 8);
    const uint64_t len = ReadLE(payload, entry + 16, 8);
    if (offset > payload.size() || len > payload.size() - offset) {
      return Status::DataLoss(
          "store section " + std::to_string(kind) + " spans [" +
          std::to_string(offset) + ", " + std::to_string(offset + len) +
          ") outside the " + std::to_string(payload.size()) +
          "-byte payload");
    }
    for (const SectionSpan& seen : view.sections_) {
      if (seen.kind == kind) {
        return Status::DataLoss("duplicate store section kind " +
                                std::to_string(kind));
      }
    }
    view.sections_.push_back(SectionSpan{kind, offset, len});
  }
  for (StoreSection required :
       {StoreSection::kName, StoreSection::kInstanceText}) {
    if (!view.HasSection(required)) {
      return Status::DataLoss(
          "store file is missing required section kind " +
          std::to_string(static_cast<uint32_t>(required)));
    }
  }
  return view;
}

Result<StoreFileView> StoreFileView::Parse(std::string_view bytes) {
  TOPODB_ASSIGN_OR_RETURN(StoreFileView view, ParseContainer(bytes));
  if (view.format_version_ != kStoreFormatVersion) {
    return Status::Unsupported(
        "store format version " + std::to_string(view.format_version_) +
        " (this build reads version " +
        std::to_string(kStoreFormatVersion) +
        "; opening the catalog re-ingests it)");
  }
  for (StoreSection required :
       {StoreSection::kCanonical, StoreSection::kStats}) {
    if (!view.HasSection(required)) {
      return Status::DataLoss(
          "store file is missing required section kind " +
          std::to_string(static_cast<uint32_t>(required)));
    }
  }
  const std::string_view stats = view.Section(StoreSection::kStats);
  if (stats.size() != kStatsBytes) {
    return Status::DataLoss("store stats section has " +
                            std::to_string(stats.size()) + " bytes, expected " +
                            std::to_string(kStatsBytes));
  }
  if (static_cast<unsigned char>(stats.back()) > 1) {
    return Status::DataLoss("store stats flag byte is not 0 or 1");
  }
  return view;
}

Result<OlderStoreFile> ReadOlderStoreFile(std::string_view bytes) {
  TOPODB_ASSIGN_OR_RETURN(StoreFileView view,
                          StoreFileView::ParseContainer(bytes));
  if (view.format_version() == kStoreFormatVersion) {
    return Status::Unsupported("store file is already at format version " +
                               std::to_string(kStoreFormatVersion));
  }
  return OlderStoreFile{std::string(view.name()),
                        std::string(view.instance_text())};
}

bool StoreFileView::HasSection(StoreSection kind) const {
  for (const SectionSpan& s : sections_) {
    if (s.kind == static_cast<uint32_t>(kind)) return true;
  }
  return false;
}

std::string_view StoreFileView::Section(StoreSection kind) const {
  for (const SectionSpan& s : sections_) {
    if (s.kind == static_cast<uint32_t>(kind)) {
      return bytes_.substr(kStoreHeaderBytes + s.offset, s.len);
    }
  }
  return {};
}

StoreStats StoreFileView::stats() const {
  const std::string_view raw = Section(StoreSection::kStats);
  StoreStats stats;
  stats.num_regions = ReadLE(raw, 0, 8);
  stats.num_vertices = ReadLE(raw, 8, 8);
  stats.num_edges = ReadLE(raw, 16, 8);
  stats.num_faces = ReadLE(raw, 24, 8);
  stats.all_rectilinear = raw[32] != 0;
  return stats;
}

}  // namespace topodb
