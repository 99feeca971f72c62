// Shared helpers for the test suite.
//
// TestDbBuilder constructs a binary database directly (bypassing CSV) so
// unit tests can assert exact analysis results on hand-authored rows.
// PipelineFixture runs the full generate -> emit -> convert -> load chain
// in a temp directory for integration tests.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/dictionary.hpp"
#include "columnar/table.hpp"
#include "convert/binary_format.hpp"
#include "engine/database.hpp"
#include "util/status.hpp"

namespace gdelt::testing {

/// Creates a unique temporary directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("gdelt_test_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const noexcept { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

/// Builds a binary database from explicit rows.
class TestDbBuilder {
 public:
  /// Adds an event; returns its global id.
  std::uint64_t AddEvent(std::int64_t event_interval,
                         CountryId country = kNoCountry,
                         const std::string& source_url = "http://x/") {
    Event ev;
    ev.global_id = next_id_++;
    ev.event_interval = event_interval;
    ev.added_interval = event_interval + 1;
    ev.country = country;
    ev.source_url = source_url;
    events_.push_back(ev);
    return ev.global_id;
  }

  /// Adds a mention of an event by a named source at a capture interval.
  void AddMention(std::uint64_t event_global_id, std::int64_t mention_interval,
                  const std::string& source_domain,
                  std::uint8_t confidence = 100) {
    Mention m;
    m.event_global_id = event_global_id;
    m.mention_interval = mention_interval;
    m.source = source_domain;
    m.confidence = confidence;
    mentions_.push_back(m);
  }

  /// Writes mentions in the order they were added instead of sorting
  /// them by capture interval (the converter's order), for tests whose
  /// subject must not depend on that order.
  void KeepMentionOrder() { sort_mentions_ = false; }

  /// Writes events.tbl / mentions.tbl / sources.dict into `dir`.
  Status WriteTo(const std::string& dir);

  /// Convenience: write to a TempDir and load.
  Result<engine::Database> Build(const std::string& dir) {
    GDELT_RETURN_IF_ERROR(WriteTo(dir));
    return engine::Database::Load(dir);
  }

 private:
  struct Event {
    std::uint64_t global_id;
    std::int64_t event_interval;
    std::int64_t added_interval;
    CountryId country;
    std::string source_url;
  };
  struct Mention {
    std::uint64_t event_global_id;
    std::int64_t mention_interval;
    std::string source;
    std::uint8_t confidence;
  };

  std::uint64_t next_id_ = 1000;
  bool sort_mentions_ = true;
  std::vector<Event> events_;
  std::vector<Mention> mentions_;
};

/// A plain loopback TCP socket with default options (Nagle on, delayed
/// ACKs on), the way an ordinary client connects. Used to time pipelined
/// bursts against a server's reply path.
class RawLineSocket {
 public:
  static Result<RawLineSocket> Connect(int port);

  RawLineSocket(RawLineSocket&& other) noexcept;
  RawLineSocket& operator=(RawLineSocket&&) = delete;
  RawLineSocket(const RawLineSocket&) = delete;
  ~RawLineSocket();

  /// Writes every line (newline-terminated) in one write(), then reads
  /// one reply line per request line. `ms` receives the time from the
  /// write to the last reply.
  Result<std::vector<std::string>> Burst(const std::vector<std::string>& lines,
                                         double& ms);

 private:
  explicit RawLineSocket(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;
};

/// Median of the values (the upper one for an even count).
double Median(std::vector<double> values);

/// One text edit of a JSON document: replace [at, at + len) with `with`.
struct JsonEdit {
  std::size_t at;
  std::size_t len;
  std::string with;
  bool structural;  ///< drops, appends or deletes rather than retypes
};

/// Walks a well-formed JSON text and lists its mutations: drop the last
/// element of an array or append a copy of its first, set a number to
/// 2^62 or -1, turn a string into a number, delete an object member.
/// Every edit leaves valid JSON, so the code under test sees well-formed
/// hostile documents rather than parse errors. Shared by the
/// partial-frame and request fuzz tests.
std::vector<JsonEdit> JsonMutations(const std::string& text);

}  // namespace gdelt::testing
