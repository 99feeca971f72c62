// The preprocessing tool: raw GDELT archives -> indexed binary database.
//
// "Before working with the data, we once convert GDELT database files with
//  our preprocessing tool in order to build indexed version of the database
//  which contains data fields in machine-readable binary format."
//  (Section IV.) Cleaning happens here; the defects found are reported in
//  the style of Table II.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "convert/fetcher.hpp"
#include "util/status.hpp"

namespace gdelt::convert {

struct ConvertOptions {
  std::string input_dir;   ///< directory with masterfilelist.txt + archives
  std::string output_dir;  ///< destination for the binary database
  /// Verify each archive's CRC against the master list before parsing.
  bool verify_archive_checksums = true;
  /// Skip archives journaled by an interrupted earlier run against the
  /// same input. The resumed run produces byte-identical tables.
  bool resume = false;
  /// Retry/backoff/quarantine policy for archive acquisition.
  FetchPolicy fetch;
};

/// Everything the conversion learned — Table II plus bookkeeping.
struct ConvertReport {
  // volume
  std::uint64_t archives_processed = 0;
  std::uint64_t event_rows = 0;
  std::uint64_t mention_rows = 0;
  std::uint32_t num_sources = 0;

  // Table II defects
  std::uint32_t malformed_master_entries = 0;
  std::uint32_t missing_archives = 0;
  std::uint32_t missing_event_source_url = 0;
  std::uint32_t future_event_dates = 0;

  // additional cleaning results
  std::uint32_t corrupt_archives = 0;     ///< CRC/zip failures after retries
  std::uint64_t malformed_rows = 0;       ///< wrong column count / bad fields
  std::uint64_t orphan_mentions = 0;      ///< mention of an unknown event

  // operational robustness
  std::uint64_t fetch_retries = 0;        ///< extra fetch attempts
  std::uint32_t quarantined_archives = 0; ///< copied to quarantine dir
  std::uint32_t resumed_archives = 0;     ///< skipped via --resume journal

  std::vector<std::string> notes;

  /// Renders the report as text (written next to the binary tables).
  std::string ToText() const;
};

/// Runs the conversion. The output directory will contain events.tbl,
/// mentions.tbl, sources.dict and convert_report.txt.
Result<ConvertReport> ConvertDataset(const ConvertOptions& options);

}  // namespace gdelt::convert
