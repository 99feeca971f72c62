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
#include <utility>

namespace gdelt::testing {

Status TestDbBuilder::WriteTo(const std::string& dir) {
  namespace ec = convert::events_col;
  namespace mc = convert::mentions_col;

  std::unordered_map<std::uint64_t, std::uint32_t> row_of;
  std::unordered_map<std::uint64_t, std::int64_t> event_time;

  Table events;
  auto& e_gid = events.AddColumn(std::string(ec::kGlobalId), ColumnType::kU64);
  auto& e_int =
      events.AddColumn(std::string(ec::kEventInterval), ColumnType::kI64);
  auto& e_add =
      events.AddColumn(std::string(ec::kAddedInterval), ColumnType::kI64);
  auto& e_cty = events.AddColumn(std::string(ec::kCountry), ColumnType::kU16);
  auto& e_naw =
      events.AddColumn(std::string(ec::kNumArticlesWire), ColumnType::kU32);
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
    e_int.Append<std::int64_t>(ev.event_interval);
    e_add.Append<std::int64_t>(ev.added_interval);
    e_cty.Append<std::uint16_t>(ev.country);
    e_naw.Append<std::uint32_t>(0);
    e_gold.Append<double>(0.0);
    e_tone.Append<double>(0.0);
    e_quad.Append<std::uint8_t>(1);
    e_url.AppendString(ev.source_url);
  }

  StringDictionary sources;
  Table mentions;
  auto& m_row =
      mentions.AddColumn(std::string(mc::kEventRow), ColumnType::kU32);
  auto& m_gid =
      mentions.AddColumn(std::string(mc::kGlobalEventId), ColumnType::kU64);
  auto& m_eint =
      mentions.AddColumn(std::string(mc::kEventInterval), ColumnType::kI64);
  auto& m_mint = mentions.AddColumn(std::string(mc::kMentionInterval),
                                    ColumnType::kI64);
  auto& m_src =
      mentions.AddColumn(std::string(mc::kSourceId), ColumnType::kU32);
  auto& m_conf =
      mentions.AddColumn(std::string(mc::kConfidence), ColumnType::kU8);
  auto& m_url = mentions.AddColumn(std::string(mc::kUrl), ColumnType::kStr);

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
    m_gid.Append<std::uint64_t>(m->event_global_id);
    const auto time_it = event_time.find(m->event_global_id);
    m_eint.Append<std::int64_t>(
        time_it == event_time.end() ? 0 : time_it->second);
    m_mint.Append<std::int64_t>(m->mention_interval);
    m_src.Append<std::uint32_t>(sources.GetOrAdd(m->source));
    m_conf.Append<std::uint8_t>(m->confidence);
    m_url.AppendString("http://" + m->source + "/a");
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

}  // namespace gdelt::testing
