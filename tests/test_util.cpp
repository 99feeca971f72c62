#include "test_util.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "io/crc32.hpp"
#include "util/rng.hpp"

namespace gdelt::testing {

Status TestDbBuilder::WriteTo(const std::string& dir) {
  namespace ec = convert::events_col;
  namespace mc = convert::mentions_col;

  std::unordered_map<std::uint64_t, std::uint32_t> row_of;
  std::unordered_map<std::uint64_t, std::int64_t> event_time;

  Table events;
  auto& e_gid = events.AddColumn(std::string(ec::kGlobalId), ColumnType::kU64);
  auto& e_add =
      events.AddColumn(std::string(ec::kAddedInterval), ColumnType::kI32);
  auto& e_cty = events.AddColumn(std::string(ec::kCountry), ColumnType::kU16);
  auto& e_gold =
      events.AddColumn(std::string(ec::kGoldstein), ColumnType::kF64);
  auto& e_tone = events.AddColumn(std::string(ec::kAvgTone), ColumnType::kF64);
  auto& e_quad =
      events.AddColumn(std::string(ec::kQuadClass), ColumnType::kU8);
  auto& e_url =
      events.AddColumn(std::string(ec::kSourceUrl), ColumnType::kStr);
  for (const Event& ev : events_) {
    row_of.emplace(ev.global_id, static_cast<std::uint32_t>(e_gid.size()));
    event_time.emplace(ev.global_id, ev.event_interval);
    e_gid.Append<std::uint64_t>(ev.global_id);
    e_add.Append<std::int32_t>(static_cast<std::int32_t>(ev.added_interval));
    e_cty.Append<std::uint16_t>(ev.country);
    e_gold.Append<double>(0.0);
    e_tone.Append<double>(0.0);
    e_quad.Append<std::uint8_t>(1);
    e_url.AppendString(ev.source_url);
  }

  StringDictionary sources;
  Table mentions;
  auto& m_row =
      mentions.AddColumn(std::string(mc::kEventRow), ColumnType::kU32);
  auto& m_eint =
      mentions.AddColumn(std::string(mc::kEventInterval), ColumnType::kI32);
  auto& m_mint = mentions.AddColumn(std::string(mc::kMentionInterval),
                                    ColumnType::kI32);
  auto& m_src =
      mentions.AddColumn(std::string(mc::kSourceId), ColumnType::kU32);
  auto& m_conf =
      mentions.AddColumn(std::string(mc::kConfidence), ColumnType::kU8);

  // Mentions sorted by capture interval (the converter's natural order)
  // unless KeepMentionOrder() asked for insertion order.
  std::vector<const Mention*> ordered;
  ordered.reserve(mentions_.size());
  for (const Mention& m : mentions_) ordered.push_back(&m);
  if (sort_mentions_) {
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Mention* a, const Mention* b) {
                       return a->mention_interval < b->mention_interval;
                     });
  }
  for (const Mention* m : ordered) {
    const auto row_it = row_of.find(m->event_global_id);
    m_row.Append<std::uint32_t>(row_it == row_of.end()
                                    ? convert::kOrphanEventRow
                                    : row_it->second);
    const auto time_it = event_time.find(m->event_global_id);
    m_eint.Append<std::int32_t>(static_cast<std::int32_t>(
        time_it == event_time.end() ? 0 : time_it->second));
    m_mint.Append<std::int32_t>(static_cast<std::int32_t>(m->mention_interval));
    m_src.Append<std::uint32_t>(sources.GetOrAdd(m->source));
    m_conf.Append<std::uint8_t>(m->confidence);
  }

  GDELT_RETURN_IF_ERROR(events.WriteToFile(
      dir + "/" + std::string(convert::kEventsTableFile)));
  GDELT_RETURN_IF_ERROR(mentions.WriteToFile(
      dir + "/" + std::string(convert::kMentionsTableFile)));
  return sources.WriteToFile(dir + "/" +
                             std::string(convert::kSourcesDictFile));
}

Result<RawLineSocket> RawLineSocket::Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return status::Internal(std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return status::IoError("connect: " + err);
  }
  return RawLineSocket(fd);
}

RawLineSocket::RawLineSocket(RawLineSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

RawLineSocket::~RawLineSocket() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::vector<std::string>> RawLineSocket::Burst(
    const std::vector<std::string>& lines, double& ms) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  const auto t0 = std::chrono::steady_clock::now();
  if (::write(fd_, out.data(), out.size()) !=
      static_cast<ssize_t>(out.size())) {
    return status::IoError("short write");
  }
  std::vector<std::string> replies;
  while (replies.size() < lines.size()) {
    if (const auto nl = buffer_.find('\n'); nl != std::string::npos) {
      replies.push_back(buffer_.substr(0, nl));
      buffer_.erase(0, nl + 1);
      continue;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return status::IoError("connection closed mid-burst");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  ms = std::chrono::duration<double, std::milli>(
           std::chrono::steady_clock::now() - t0)
           .count();
  return replies;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

namespace {

/// Recursive-descent walk behind JsonMutations.
class JsonMutator {
 public:
  explicit JsonMutator(const std::string& text) : s_(text) { Value(); }
  std::vector<JsonEdit> Take() { return std::move(edits_); }

 private:
  /// Parses the value at pos_ and returns where it starts.
  std::size_t Value() {
    const std::size_t begin = pos_;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      ++pos_;
      std::vector<std::pair<std::size_t, std::size_t>> items;
      while (s_[pos_] != (c == '{' ? '}' : ']')) {
        if (s_[pos_] == ',') ++pos_;
        const std::size_t item = pos_;
        if (c == '{') {
          SkipString();
          ++pos_;  // ':'
          Value();
          Remove(item, pos_);  // delete the member
        } else {
          Value();
        }
        items.emplace_back(item, pos_);
      }
      if (c == '[') {
        if (items.empty()) {
          edits_.push_back({pos_, 0, "0", true});
        } else {
          Remove(items.back().first, items.back().second);
          const auto [b, e] = items.front();
          edits_.push_back({pos_, 0, "," + s_.substr(b, e - b), true});
        }
      }
      ++pos_;
    } else if (c == '"') {
      SkipString();
      edits_.push_back({begin, pos_ - begin, "7", false});
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      while (pos_ < s_.size() && std::strchr("-+.eE0123456789", s_[pos_])) {
        ++pos_;
      }
      edits_.push_back({begin, pos_ - begin, "4611686018427387904", false});
      edits_.push_back({begin, pos_ - begin, "-1", false});
    } else {
      while (pos_ < s_.size() && std::isalpha(s_[pos_])) ++pos_;
    }
    return begin;
  }

  void SkipString() {
    for (++pos_; s_[pos_] != '"'; ++pos_) {
      if (s_[pos_] == '\\') ++pos_;
    }
    ++pos_;
  }

  /// Removes the item [b, e) with one of its separating commas.
  void Remove(std::size_t b, std::size_t e) {
    if (s_[e] == ',') {
      ++e;
    } else if (s_[b - 1] == ',') {
      --b;
    }
    edits_.push_back({b, e - b, "", true});
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::vector<JsonEdit> edits_;
};

}  // namespace

std::vector<JsonEdit> JsonMutations(const std::string& text) {
  return JsonMutator(text).Take();
}

namespace {

/// Integrity footer: u64 body length, u32 CRC, 8-byte trailer magic.
constexpr std::size_t kTableFooter = 8 + 4 + 8;

std::uint64_t LoadLe(const std::string& s, std::size_t at, std::size_t width) {
  std::uint64_t v = 0;
  std::memcpy(&v, s.data() + at, width);
  return v;
}

void StoreLe(std::string& s, std::size_t at, std::size_t width,
             std::uint64_t v) {
  std::memcpy(s.data() + at, &v, width);
}

}  // namespace

TableFileLayout ParseTableFileLayout(const std::string& file) {
  TableFileLayout layout;
  layout.body_size = file.size() - kTableFooter;
  std::size_t at = 8;  // magic
  const auto field = [&](std::size_t width) {
    layout.header_fields.push_back({at, width});
    at += width;
    return LoadLe(file, at - width, width);
  };
  field(4);  // version
  const std::uint64_t columns = field(4);
  field(8);  // rows
  for (std::uint64_t c = 0; c < columns; ++c) {
    at += field(4);  // name length, then the name
    const bool is_string = field(1) == 6;
    if (is_string) {
      layout.string_offset_segments.push_back(layout.segments.size());
    }
    for (int k = 0; k < (is_string ? 2 : 1); ++k) {
      layout.descriptor_fields.push_back({at, 8});
      layout.descriptor_fields.push_back({at + 8, 8});
      const std::uint64_t offset = LoadLe(file, at, 8);
      const std::uint64_t length = LoadLe(file, at + 8, 8);
      layout.segments.emplace_back(offset, offset + length);
      at += 16;
    }
  }
  layout.header_end = at;
  return layout;
}

std::string SealTableBody(const std::string& file, std::size_t body_size) {
  std::string out = file.substr(0, body_size);
  const std::uint64_t length = body_size;
  const std::uint32_t crc = Crc32Update(0, out.data(), out.size());
  out.append(reinterpret_cast<const char*>(&length), sizeof(length));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.append(file, file.size() - 8, 8);  // trailer magic
  return out;
}

std::string ForgeTableField(const std::string& file,
                            const TableFileLayout& layout,
                            TableFileLayout::Field field,
                            std::uint64_t value) {
  std::string out = file;
  StoreLe(out, field.at, field.width, value);
  return SealTableBody(out, layout.body_size);
}

std::vector<std::string> TableFileMutations(const std::string& file,
                                            std::uint64_t seed,
                                            std::size_t count) {
  const TableFileLayout layout = ParseTableFileLayout(file);
  const std::uint64_t body = layout.body_size;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Xoshiro256 rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(UniformBelow(rng, n));
  };
  std::vector<std::string> mutants;
  mutants.reserve(count);
  while (mutants.size() < count) {
    std::string m = file;
    std::size_t body_size = layout.body_size;
    switch (pick(6)) {
      case 0:
      case 1: {  // a header field or a descriptor set to an edge value
        const auto& fields = pick(3) == 0 ? layout.header_fields
                                          : layout.descriptor_fields;
        const TableFileLayout::Field f = fields[pick(fields.size())];
        const std::uint64_t old = LoadLe(m, f.at, f.width);
        const std::uint64_t edges[] = {
            0,           1,          63,         64,
            old + 1,     old - 1,    old + 64,   old - 64,
            old + 8,     body,       body - old, body + 64,
            1ull << 31,  1ull << 32, 1ull << 63, kMax,
            kMax - 63,   kMax - old, rng()};
        StoreLe(m, f.at, f.width, edges[pick(std::size(edges))]);
        break;
      }
      case 2:  // random header bytes
        for (std::size_t n = 1 + pick(3); n > 0; --n) {
          m[pick(layout.header_end)] ^=
              static_cast<char>(1 + pick(255));
        }
        break;
      case 3: {  // one string offset overwritten
        if (layout.string_offset_segments.empty()) continue;
        const auto [b, e] =
            layout.segments[layout.string_offset_segments[pick(
                layout.string_offset_segments.size())]];
        const std::size_t at = b + 8 * pick((e - b) / 8);
        const std::uint64_t old = LoadLe(m, at, 8);
        const std::uint64_t edges[] = {0, old + 1, old - 1, kMax, body,
                                       rng()};
        StoreLe(m, at, 8, edges[pick(std::size(edges))]);
        break;
      }
      case 4: {  // a byte inside a segment or its padding
        if (body == layout.header_end) continue;
        const std::size_t at =
            layout.header_end + pick(body - layout.header_end);
        m[at] ^= static_cast<char>(1 + pick(255));
        break;
      }
      default:  // the body cut short or grown
        if (pick(2) == 0) {
          body_size = pick(body);
        } else {
          const std::size_t at = pick(body + 1);
          m.insert(at, std::string(1 + pick(64), '\x5a'));
          body_size += m.size() - file.size();
        }
        break;
    }
    mutants.push_back(SealTableBody(m, body_size));
  }
  return mutants;
}

}  // namespace gdelt::testing
