#include "columnar/table.hpp"

#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "io/crc32.hpp"
#include "io/file.hpp"
#include "io/mmap.hpp"
#include "util/strings.hpp"

namespace gdelt {
namespace {

constexpr char kMagicHead[8] = {'G', 'D', 'L', 'T', 'T', 'B', 'L', '1'};
constexpr char kMagicTail[8] = {'G', 'D', 'L', 'T', 'E', 'N', 'D', '1'};
// v2 added the body-length footer; v3 replaced the packed payloads with
// 64-byte-aligned segments named by descriptors, so columns map in place.
constexpr std::uint32_t kFormatVersion = 3;

}  // namespace

Column& Table::AddColumn(std::string_view name, ColumnType type) {
  auto [it, inserted] = columns_.emplace(std::string(name), Column(type));
  if (!inserted) std::abort();  // duplicate column name is a programming bug
  return it->second;
}

const Column* Table::FindColumn(std::string_view name) const noexcept {
  const auto it = columns_.find(std::string(name));
  return it == columns_.end() ? nullptr : &it->second;
}

const Column& Table::GetColumn(std::string_view name) const {
  const Column* col = FindColumn(name);
  if (!col) std::abort();
  return *col;
}

Result<const Column*> Table::CheckedColumn(std::string_view name,
                                           ColumnType type) const {
  const Column* col = FindColumn(name);
  if (!col) {
    return status::DataLoss("missing column '" + std::string(name) +
                            "' (re-run gdelt_convert)");
  }
  if (col->type() != type) {
    return status::DataLoss("column '" + std::string(name) +
                            "' has unexpected type (re-run gdelt_convert)");
  }
  return col;
}

std::size_t Table::num_rows() const noexcept {
  return columns_.empty() ? 0 : columns_.begin()->second.size();
}

Status Table::Validate() const {
  const std::size_t rows = num_rows();
  for (const auto& [name, col] : columns_) {
    if (col.size() != rows) {
      return status::Internal(StrFormat(
          "column '%s' has %zu rows, expected %zu", name.c_str(), col.size(),
          rows));
    }
  }
  return Status::Ok();
}

std::size_t Table::MemoryBytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [name, col] : columns_) total += col.MemoryBytes();
  return total;
}

namespace {

/// Segments start on this boundary, so a mapped column's data is aligned
/// for any element type and for 64-byte vector loads.
constexpr std::uint64_t kSegmentAlign = 64;

constexpr std::uint64_t AlignUp(std::uint64_t n) noexcept {
  return (n + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
}

/// Segment descriptors per column: the payload, or offsets + chars.
constexpr std::size_t SegmentCount(ColumnType type) noexcept {
  return type == ColumnType::kStr ? 2 : 1;
}

struct Segment {
  const void* data;
  std::uint64_t size;
  std::uint64_t offset = 0;  ///< in the file, set by the writer's layout
};

/// A column's segments in file order.
std::vector<Segment> SegmentsOf(const Column& col) {
  if (col.type() == ColumnType::kStr) {
    return {{col.offsets().data(), col.offsets().size_bytes()},
            {col.chars().data(), col.chars().size()}};
  }
  return {{col.bytes().data(), col.bytes().size()}};
}

/// Accumulates a CRC while forwarding writes to the file.
class ChecksummedWriter {
 public:
  explicit ChecksummedWriter(BinaryWriter& w) : writer_(w) {}

  Status Write(const void* data, std::size_t size) {
    crc_ = Crc32Update(crc_, data, size);
    return writer_.WriteBytes(data, size);
  }
  template <typename T>
  Status WritePod(const T& v) {
    return Write(&v, sizeof(v));
  }
  Status WriteString(std::string_view s) {
    GDELT_RETURN_IF_ERROR(WritePod(static_cast<std::uint32_t>(s.size())));
    return Write(s.data(), s.size());
  }
  /// Writes zero bytes up to file offset `to`.
  Status PadTo(std::uint64_t to) {
    static constexpr char kZeros[kSegmentAlign] = {};
    const std::uint64_t at = writer_.offset();
    return Write(kZeros, static_cast<std::size_t>(to - at));
  }
  std::uint32_t crc() const noexcept { return crc_; }

 private:
  BinaryWriter& writer_;
  std::uint32_t crc_ = 0;
};

}  // namespace

Status Table::WriteToFile(const std::string& path) const {
  GDELT_RETURN_IF_ERROR(Validate());

  // Lay the segments out first: the descriptors that precede them carry
  // their absolute offsets.
  std::uint64_t header = sizeof(kMagicHead) + sizeof(std::uint32_t) * 2 +
                         sizeof(std::uint64_t);
  for (const auto& [name, col] : columns_) {
    header += sizeof(std::uint32_t) + name.size() + sizeof(std::uint8_t) +
              SegmentCount(col.type()) * 2 * sizeof(std::uint64_t);
  }
  std::vector<Segment> segments;
  std::uint64_t cursor = header;
  for (const auto& [name, col] : columns_) {
    for (Segment seg : SegmentsOf(col)) {
      seg.offset = AlignUp(cursor);
      cursor = seg.offset + seg.size;
      segments.push_back(seg);
    }
  }

  BinaryWriter file;
  GDELT_RETURN_IF_ERROR(file.Open(path));
  ChecksummedWriter out(file);
  GDELT_RETURN_IF_ERROR(out.Write(kMagicHead, sizeof(kMagicHead)));
  GDELT_RETURN_IF_ERROR(out.WritePod(kFormatVersion));
  GDELT_RETURN_IF_ERROR(
      out.WritePod(static_cast<std::uint32_t>(columns_.size())));
  GDELT_RETURN_IF_ERROR(out.WritePod(static_cast<std::uint64_t>(num_rows())));
  auto seg = segments.begin();
  for (const auto& [name, col] : columns_) {
    GDELT_RETURN_IF_ERROR(out.WriteString(name));
    GDELT_RETURN_IF_ERROR(out.WritePod(static_cast<std::uint8_t>(col.type())));
    for (std::size_t k = 0; k < SegmentCount(col.type()); ++k, ++seg) {
      GDELT_RETURN_IF_ERROR(out.WritePod(seg->offset));
      GDELT_RETURN_IF_ERROR(out.WritePod(seg->size));
    }
  }
  for (const Segment& placed : segments) {
    GDELT_RETURN_IF_ERROR(out.PadTo(placed.offset));
    GDELT_RETURN_IF_ERROR(
        out.Write(placed.data, static_cast<std::size_t>(placed.size)));
  }

  GDELT_RETURN_IF_ERROR(file.WritePod(file.offset()));  // body length
  GDELT_RETURN_IF_ERROR(file.WritePod(out.crc()));
  GDELT_RETURN_IF_ERROR(file.WriteBytes(kMagicTail, sizeof(kMagicTail)));
  return file.Close();
}

Status Table::WriteToFileAtomic(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  GDELT_RETURN_IF_ERROR(WriteToFile(tmp));
  return AtomicReplaceFile(tmp, path);
}

std::string_view Table::mapped_bytes() const noexcept {
  return mapping_ ? mapping_->view() : std::string_view{};
}

namespace {

struct SegmentDesc {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

struct ColumnDesc {
  std::string name;
  ColumnType type = ColumnType::kU64;
  SegmentDesc segments[2];
};

/// Checks one segment descriptor against the body and the segments before
/// it, and points `out` at its bytes. `cursor` is where the previous
/// segment (or the header) ended; segments must follow in order without
/// overlapping.
Status BindSegment(std::string_view body, const SegmentDesc& seg,
                   std::uint64_t expected_length, std::uint64_t& cursor,
                   const std::string& what, std::string_view& out) {
  if (seg.offset % kSegmentAlign != 0) {
    return status::DataLoss(what + " segment is not 64-byte aligned");
  }
  if (seg.offset < cursor) {
    return status::DataLoss(what +
                            " segment overlaps the header or a segment "
                            "before it");
  }
  if (seg.offset > body.size() || seg.length > body.size() - seg.offset) {
    return status::DataLoss(what + " segment runs past the body");
  }
  if (seg.length != expected_length) {
    return status::DataLoss(StrFormat(
        "%s segment holds %llu bytes, expected %llu", what.c_str(),
        static_cast<unsigned long long>(seg.length),
        static_cast<unsigned long long>(expected_length)));
  }
  cursor = seg.offset + seg.length;
  out = body.substr(static_cast<std::size_t>(seg.offset),
                    static_cast<std::size_t>(seg.length));
  return Status::Ok();
}

template <typename T>
std::span<const T> SpanOf(std::string_view bytes) noexcept {
  // Aligned: the segment offset is a multiple of 64 and the mapping
  // starts on a page.
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}

}  // namespace

Result<Table> Table::ReadFromFile(const std::string& path) {
  GDELT_ASSIGN_OR_RETURN(MemoryMappedFile file, MemoryMappedFile::Open(path));
  auto mapping = std::make_shared<const MemoryMappedFile>(std::move(file));
  const std::string_view buffer = mapping->view();
  constexpr std::size_t kFooter = sizeof(std::uint64_t) /* body length */ +
                                  sizeof(std::uint32_t) /* crc */ +
                                  sizeof(kMagicTail);
  if (buffer.size() < sizeof(kMagicHead) + kFooter) {
    return status::DataLoss("table file '" + path + "' is truncated");
  }
  if (std::memcmp(buffer.data(), kMagicHead, sizeof(kMagicHead)) != 0) {
    return status::DataLoss("bad table header magic in '" + path + "'");
  }
  if (std::memcmp(buffer.data() + buffer.size() - sizeof(kMagicTail),
                  kMagicTail, sizeof(kMagicTail)) != 0) {
    return status::DataLoss("bad table trailer magic in '" + path + "'");
  }
  const std::size_t body_size = buffer.size() - kFooter;
  std::uint64_t stored_body_size = 0;
  std::memcpy(&stored_body_size, buffer.data() + body_size,
              sizeof(stored_body_size));
  if (stored_body_size != body_size) {
    return status::DataLoss("integrity footer length mismatch in '" + path +
                            "' (truncated or foreign file)");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc,
              buffer.data() + body_size + sizeof(stored_body_size),
              sizeof(stored_crc));
  const std::uint32_t actual_crc =
      Crc32Update(0, buffer.data(), body_size);
  if (stored_crc != actual_crc) {
    return status::DataLoss("checksum mismatch in table file '" + path + "'");
  }

  const std::string_view body = buffer.substr(0, body_size);
  BinaryReader in(body.data(), body.size());
  GDELT_RETURN_IF_ERROR(in.Skip(sizeof(kMagicHead)));
  std::uint32_t version = 0;
  std::uint32_t num_columns = 0;
  std::uint64_t num_rows = 0;
  GDELT_RETURN_IF_ERROR(in.ReadPod(version));
  if (version != kFormatVersion) {
    return status::DataLoss(StrFormat(
        "table file '%s' has format version %u, this build reads only v%u "
        "(re-run gdelt_convert)",
        path.c_str(), version, kFormatVersion));
  }
  GDELT_RETURN_IF_ERROR(in.ReadPod(num_columns));
  GDELT_RETURN_IF_ERROR(in.ReadPod(num_rows));

  // The descriptor vector below is sized by a count from the file —
  // checksummed, but a foreign or corrupt-yet-CRC-consistent file is still
  // untrusted input. Bound it against the bytes actually present BEFORE
  // allocating, so a kilobyte of garbage cannot demand gigabytes. The
  // row-count bound keeps (rows + 1) * 8 from overflowing.
  constexpr std::uint64_t kMinDescBytes =
      sizeof(std::uint32_t) /* name length */ +
      sizeof(std::uint8_t) /* type */ + sizeof(SegmentDesc);
  if (num_columns > in.remaining() / kMinDescBytes) {
    return status::DataLoss(StrFormat(
        "table file '%s' claims %u columns but only %zu bytes remain",
        path.c_str(), num_columns, in.remaining()));
  }
  if (num_rows >=
      std::numeric_limits<std::uint64_t>::max() / sizeof(std::uint64_t)) {
    return status::DataLoss(StrFormat(
        "table file '%s' claims an impossible row count %llu", path.c_str(),
        static_cast<unsigned long long>(num_rows)));
  }

  std::vector<ColumnDesc> descs(num_columns);
  for (auto& d : descs) {
    GDELT_RETURN_IF_ERROR(in.ReadString(d.name));
    std::uint8_t type = 0;
    GDELT_RETURN_IF_ERROR(in.ReadPod(type));
    if (type > static_cast<std::uint8_t>(ColumnType::kI32)) {
      return status::DataLoss("invalid column type in '" + path + "'");
    }
    d.type = static_cast<ColumnType>(type);
    for (std::size_t k = 0; k < SegmentCount(d.type); ++k) {
      GDELT_RETURN_IF_ERROR(in.ReadPod(d.segments[k].offset));
      GDELT_RETURN_IF_ERROR(in.ReadPod(d.segments[k].length));
    }
  }

  Table table;
  std::uint64_t cursor = in.offset();  // segments follow the header
  for (const auto& d : descs) {
    const std::string what = "column '" + d.name + "' in '" + path + "':";
    Column col;
    if (d.type == ColumnType::kStr) {
      std::string_view offset_bytes;
      GDELT_RETURN_IF_ERROR(BindSegment(
          body, d.segments[0], (num_rows + 1) * sizeof(std::uint64_t),
          cursor, what + " offsets", offset_bytes));
      const auto offsets = SpanOf<std::uint64_t>(offset_bytes);
      if (offsets.front() != 0) {
        return status::DataLoss(what + " offsets do not start at 0");
      }
      for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
        if (offsets[i] > offsets[i + 1]) {
          return status::DataLoss(what + " offsets not monotone");
        }
      }
      std::string_view chars;
      GDELT_RETURN_IF_ERROR(BindSegment(body, d.segments[1], offsets.back(),
                                        cursor, what + " chars", chars));
      col = Column::Mapped(d.type, {}, offsets, chars);
    } else {
      std::string_view bytes;
      GDELT_RETURN_IF_ERROR(BindSegment(body, d.segments[0],
                                        num_rows * ColumnTypeSize(d.type),
                                        cursor, what + " payload", bytes));
      col = Column::Mapped(d.type, SpanOf<std::uint8_t>(bytes), {}, {});
    }
    if (!table.columns_.emplace(d.name, std::move(col)).second) {
      return status::DataLoss(what + " duplicate column name");
    }
  }
  GDELT_RETURN_IF_ERROR(table.Validate());
  table.mapping_ = std::move(mapping);
  return table;
}

}  // namespace gdelt
