#include "serve/partial.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "convert/binary_format.hpp"
#include "engine/filter.hpp"
#include "engine/queries.hpp"
#include "engine/sharded.hpp"
#include "parallel/parallel.hpp"
#include "schema/countries.hpp"
#include "serve/render_text.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

PartialMatrixEncoding g_matrix_encoding = PartialMatrixEncoding::kAuto;

// ---------------------------------------------------------------------------
// Partition helpers.

/// Event-row range owned by partition `shard` of `of`. SplitRange clamps
/// the part count to the element count, so partitions past the clamp own
/// an empty range (their frames carry all-zero aggregates).
IndexRange EventRangeFor(const engine::Database& db, std::uint32_t shard,
                         std::uint32_t of) {
  const auto ranges = SplitRange(db.num_events(), of);
  if (shard >= ranges.size()) return {db.num_events(), db.num_events()};
  return ranges[shard];
}

/// Mention-row range owned by partition `shard` of `of` (time shards).
engine::Shard MentionShardFor(const engine::Database& db, std::uint32_t shard,
                              std::uint32_t of) {
  const auto shards = engine::MakeTimeShards(db, of);
  if (shard >= shards.size()) return {db.num_mentions(), db.num_mentions()};
  return shards[shard];
}

/// Source ids ranked (counts desc, id asc) — the TopSourcesByArticles
/// comparator, applied to a merged count vector at the router.
std::vector<std::uint32_t> RankByCountThenId(
    const std::vector<std::uint64_t>& counts, std::size_t top_k) {
  std::vector<std::uint32_t> ids(counts.size());
  std::iota(ids.begin(), ids.end(), 0u);
  const std::size_t take = std::min(top_k, ids.size());
  std::partial_sort(ids.begin(),
                    ids.begin() + static_cast<std::ptrdiff_t>(take), ids.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      if (counts[a] != counts[b]) return counts[a] > counts[b];
                      return a < b;
                    });
  ids.resize(take);
  return ids;
}

std::vector<std::string> DomainsOf(const engine::Database& db,
                                   std::span<const std::uint32_t> ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const std::uint32_t s : ids) out.emplace_back(db.source_domain(s));
  return out;
}

std::vector<std::string> AllDomains(const engine::Database& db) {
  std::vector<std::string> out;
  out.reserve(db.num_sources());
  for (std::uint32_t s = 0; s < db.num_sources(); ++s) {
    out.emplace_back(db.source_domain(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Frame emission.

template <typename Ints>
void AppendIntArray(std::string& out, const Ints& values) {
  out += '[';
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k) out += ',';
    Appendf(out, "%lld", static_cast<long long>(values[k]));
  }
  out += ']';
}

void AppendDoubleArray(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k) out += ',';
    // %.17g round-trips every IEEE double through strtod, so the merged
    // averages re-parse to the exact bits the shard computed.
    Appendf(out, "%.17g", values[k]);
  }
  out += ']';
}

void AppendStringArray(std::string& out,
                       const std::vector<std::string>& values) {
  out += '[';
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k) out += ',';
    AppendJsonString(out, values[k]);
  }
  out += ']';
}

/// Emits a count matrix (full row-major n*n, symmetric matrices already
/// mirrored) as a frame matrix object. Symmetric matrices ship only the
/// upper triangle; the merger mirrors once after summing.
template <typename T>
void AppendCountMatrix(std::string& out, const std::vector<T>& full,
                       std::size_t n, bool sym) {
  const std::size_t dense_elems = sym ? n * (n + 1) / 2 : n * n;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = sym ? i : 0; j < n; ++j) {
      if (full[i * n + j] != 0) ++nnz;
    }
  }
  bool sparse = false;
  switch (g_matrix_encoding) {
    case PartialMatrixEncoding::kDense: sparse = false; break;
    case PartialMatrixEncoding::kSparse: sparse = true; break;
    case PartialMatrixEncoding::kAuto: sparse = 3 * nnz < dense_elems; break;
  }
  Appendf(out, "{\"n\":%zu,\"sym\":%s,\"enc\":\"%s\",", n,
          sym ? "true" : "false", sparse ? "sparse" : "dense");
  if (sparse) {
    out += "\"items\":[";
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = sym ? i : 0; j < n; ++j) {
        const T v = full[i * n + j];
        if (v == 0) continue;
        if (!first) out += ',';
        first = false;
        Appendf(out, "[%zu,%zu,%llu]", i, j,
                static_cast<unsigned long long>(v));
      }
    }
    out += ']';
  } else {
    out += sym ? "\"tri\":[" : "\"cells\":[";
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = sym ? i : 0; j < n; ++j) {
        if (!first) out += ',';
        first = false;
        Appendf(out, "%llu", static_cast<unsigned long long>(full[i * n + j]));
      }
    }
    out += ']';
  }
  out += '}';
}

// ---------------------------------------------------------------------------
// Frame parsing.

Status FrameError(std::string what) {
  return status::InvalidArgument("bad partial frame: " + std::move(what));
}

Result<std::uint64_t> U64Of(const JsonValue& v, std::string_view what) {
  if (!v.is_number() || v.AsNumber() < 0) {
    return FrameError("'" + std::string(what) +
                      "' must be a non-negative number");
  }
  return static_cast<std::uint64_t>(v.AsInt());
}

Status TakeU64Vec(const JsonValue& data, std::string_view key,
                  std::vector<std::uint64_t>& out) {
  const JsonValue* arr = data.Find(key);
  if (arr == nullptr || arr->kind() != JsonValue::Kind::kArray) {
    return FrameError("missing array '" + std::string(key) + "'");
  }
  out.clear();
  out.reserve(arr->elements().size());
  for (const JsonValue& e : arr->elements()) {
    GDELT_ASSIGN_OR_RETURN(const std::uint64_t v, U64Of(e, key));
    out.push_back(v);
  }
  return Status::Ok();
}

Status TakeI64Vec(const JsonValue& data, std::string_view key,
                  std::vector<std::int64_t>& out) {
  const JsonValue* arr = data.Find(key);
  if (arr == nullptr || arr->kind() != JsonValue::Kind::kArray) {
    return FrameError("missing array '" + std::string(key) + "'");
  }
  out.clear();
  out.reserve(arr->elements().size());
  for (const JsonValue& e : arr->elements()) {
    if (!e.is_number()) {
      return FrameError("'" + std::string(key) + "' must hold numbers");
    }
    out.push_back(e.AsInt());
  }
  return Status::Ok();
}

Status TakeDoubleVec(const JsonValue& data, std::string_view key,
                     std::vector<double>& out) {
  const JsonValue* arr = data.Find(key);
  if (arr == nullptr || arr->kind() != JsonValue::Kind::kArray) {
    return FrameError("missing array '" + std::string(key) + "'");
  }
  out.clear();
  out.reserve(arr->elements().size());
  for (const JsonValue& e : arr->elements()) {
    if (!e.is_number()) {
      return FrameError("'" + std::string(key) + "' must hold numbers");
    }
    out.push_back(e.AsNumber());
  }
  return Status::Ok();
}

Status TakeStringVec(const JsonValue& data, std::string_view key,
                     std::vector<std::string>& out) {
  const JsonValue* arr = data.Find(key);
  if (arr == nullptr || arr->kind() != JsonValue::Kind::kArray) {
    return FrameError("missing array '" + std::string(key) + "'");
  }
  out.clear();
  out.reserve(arr->elements().size());
  for (const JsonValue& e : arr->elements()) {
    if (!e.is_string()) {
      return FrameError("'" + std::string(key) + "' must hold strings");
    }
    out.push_back(e.AsString());
  }
  return Status::Ok();
}

Status TakeU64Field(const JsonValue& data, std::string_view key,
                    std::uint64_t& out) {
  const JsonValue* v = data.Find(key);
  if (v == nullptr) return FrameError("missing '" + std::string(key) + "'");
  GDELT_ASSIGN_OR_RETURN(out, U64Of(*v, key));
  return Status::Ok();
}

/// Parses a frame matrix object and ADDS it into `acc` (row-major n*n).
/// Symmetric matrices accumulate only at upper-triangle positions; call
/// MirrorUpper once after all frames are summed.
Status ParseCountMatrixInto(const JsonValue* m, std::size_t n, bool sym,
                            std::vector<std::uint64_t>& acc) {
  if (m == nullptr || !m->is_object()) {
    return FrameError("missing matrix object");
  }
  const JsonValue* nv = m->Find("n");
  if (nv == nullptr || !nv->is_number() ||
      static_cast<std::size_t>(nv->AsInt()) != n) {
    return FrameError("matrix dimension mismatch");
  }
  const JsonValue* sv = m->Find("sym");
  if (sv == nullptr || !sv->is_bool() || sv->AsBool() != sym) {
    return FrameError("matrix symmetry mismatch");
  }
  const JsonValue* enc = m->Find("enc");
  if (enc == nullptr || !enc->is_string()) {
    return FrameError("matrix needs an 'enc' string");
  }
  if (enc->AsString() == "dense") {
    const std::string_view key = sym ? "tri" : "cells";
    const JsonValue* arr = m->Find(key);
    if (arr == nullptr || arr->kind() != JsonValue::Kind::kArray) {
      return FrameError("dense matrix needs '" + std::string(key) + "'");
    }
    const std::size_t expected = sym ? n * (n + 1) / 2 : n * n;
    if (arr->elements().size() != expected) {
      return FrameError("dense matrix length mismatch");
    }
    std::size_t at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = sym ? i : 0; j < n; ++j) {
        GDELT_ASSIGN_OR_RETURN(const std::uint64_t v,
                               U64Of(arr->elements()[at++], key));
        acc[i * n + j] += v;
      }
    }
    return Status::Ok();
  }
  if (enc->AsString() == "sparse") {
    const JsonValue* items = m->Find("items");
    if (items == nullptr || items->kind() != JsonValue::Kind::kArray) {
      return FrameError("sparse matrix needs 'items'");
    }
    for (const JsonValue& item : items->elements()) {
      if (item.kind() != JsonValue::Kind::kArray ||
          item.elements().size() != 3) {
        return FrameError("sparse item must be [i,j,count]");
      }
      GDELT_ASSIGN_OR_RETURN(const std::uint64_t i,
                             U64Of(item.elements()[0], "items"));
      GDELT_ASSIGN_OR_RETURN(const std::uint64_t j,
                             U64Of(item.elements()[1], "items"));
      GDELT_ASSIGN_OR_RETURN(const std::uint64_t v,
                             U64Of(item.elements()[2], "items"));
      if (i >= n || j >= n || (sym && j < i)) {
        return FrameError("sparse item index out of range");
      }
      acc[i * n + j] += v;
    }
    return Status::Ok();
  }
  return FrameError("unknown matrix encoding '" + enc->AsString() + "'");
}

void MirrorUpper(std::vector<std::uint64_t>& full, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      full[j * n + i] = full[i * n + j];
    }
  }
}

/// First frame records a carried-global field; later frames must agree
/// byte-for-byte, or the shards answered over different data.
template <typename T>
Status CarryCheck(bool first, T& expected, T&& got, std::string_view what) {
  if (first) {
    expected = std::move(got);
    return Status::Ok();
  }
  if (!(expected == got)) {
    return status::Internal("shard partials disagree on '" +
                            std::string(what) +
                            "' (mixed data epochs behind the router?)");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Per-kind frame renderers. Each emits only the members of `"data"`.

void PartialTopSources(const engine::Database& db, const Request& r,
                       std::string& out) {
  const engine::Shard shard = MentionShardFor(db, r.shard, r.of);
  const auto src = db.mention_source_id();
  std::vector<std::uint64_t> counts(db.num_sources(), 0);
  if (r.restricted) {
    const auto sel = engine::SelectMentionsBitmap(db, r.filter);
    const IndexRange span = sel.RowSpan();
    const std::uint64_t end = std::min<std::uint64_t>(shard.end, span.end);
    for (std::uint64_t i = std::max<std::uint64_t>(shard.begin, span.begin);
         i < end; ++i) {
      if (sel.Test(i)) ++counts[src[i]];
    }
  } else {
    for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
      ++counts[src[i]];
    }
  }
  out += "\"counts\":";
  AppendIntArray(out, counts);
  out += ",\"domains\":";
  AppendStringArray(out, AllDomains(db));
}

void PartialTopEvents(const engine::Database& db, const Request& r,
                      std::string& out) {
  const IndexRange range = EventRangeFor(db, r.shard, r.of);
  const auto counts = db.event_article_count();
  std::vector<std::uint32_t> rows(range.size());
  std::iota(rows.begin(), rows.end(), static_cast<std::uint32_t>(range.begin));
  const std::size_t take = std::min(r.top_k, rows.size());
  std::partial_sort(rows.begin(),
                    rows.begin() + static_cast<std::ptrdiff_t>(take),
                    rows.end(), [&](std::uint32_t a, std::uint32_t b) {
                      if (counts[a] != counts[b]) return counts[a] > counts[b];
                      return a < b;
                    });
  rows.resize(take);
  std::vector<std::uint32_t> articles;
  std::vector<std::string> urls;
  articles.reserve(take);
  urls.reserve(take);
  for (const std::uint32_t row : rows) {
    articles.push_back(counts[row]);
    urls.emplace_back(db.event_source_url(row));
  }
  out += "\"rows\":";
  AppendIntArray(out, rows);
  out += ",\"articles\":";
  AppendIntArray(out, articles);
  out += ",\"urls\":";
  AppendStringArray(out, urls);
}

void PartialCoreport(const engine::Database& db, const Request& r,
                     std::string& out, const util::CancelToken* cancel) {
  const IndexRange range = EventRangeFor(db, r.shard, r.of);
  std::vector<std::uint32_t> top;
  analysis::CoReportMatrix matrix(0);
  if (r.restricted) {
    const auto sel = engine::SelectMentionsBitmap(db, r.filter);
    top = RankSources(engine::ArticlesPerSource(db, sel), r.top_k);
    // Partition the filtered rows by the event axis: a row contributes to
    // the shard owning its event. Orphan rows fall in no range, exactly
    // as the single-node restricted kernel skips them.
    auto rows = sel.ToRows();
    const auto event_row = db.mention_event_row();
    std::erase_if(rows, [&](std::uint64_t row) {
      const std::uint32_t ev = event_row[row];
      return ev < range.begin || ev >= range.end;
    });
    matrix = analysis::ComputeCoReporting(db, top, rows, cancel);
  } else {
    top = engine::TopSourcesByArticles(db, r.top_k);
    matrix = analysis::ComputeCoReportingOnEvents(db, top, range.begin,
                                                  range.end, cancel);
  }
  out += "\"subset\":";
  AppendIntArray(out, top);
  out += ",\"domains\":";
  AppendStringArray(out, DomainsOf(db, top));
  out += ",\"matrix\":";
  AppendCountMatrix(out, matrix.counts(), matrix.size(), /*sym=*/true);
}

void PartialFollow(const engine::Database& db, const Request& r,
                   std::string& out, const util::CancelToken* cancel) {
  const IndexRange range = EventRangeFor(db, r.shard, r.of);
  const auto top = engine::TopSourcesByArticles(db, r.top_k);
  const auto matrix =
      analysis::ComputeFollowReportingOnEvents(db, top, range.begin,
                                               range.end, cancel);
  out += "\"subset\":";
  AppendIntArray(out, top);
  out += ",\"domains\":";
  AppendStringArray(out, DomainsOf(db, top));
  out += ",\"articles\":";
  AppendIntArray(out, matrix.articles);
  out += ",\"matrix\":";
  AppendCountMatrix(out, matrix.follow_counts, matrix.n, /*sym=*/false);
}

void PartialCountryCoreport(const engine::Database& db, const Request& r,
                            std::string& out,
                            const util::CancelToken* cancel) {
  const IndexRange range = EventRangeFor(db, r.shard, r.of);
  const auto report = analysis::ComputeCountryCoReportingOnEvents(
      db, range.begin, range.end, cancel);
  const auto top = engine::CountriesByPublishedArticles(db, r.top_k);
  out += "\"top\":";
  AppendIntArray(out, top);
  out += ",\"pairs\":";
  AppendCountMatrix(out, report.pair_counts, report.n, /*sym=*/true);
}

void PartialCrossReport(const engine::Database& db, const Request& r,
                        std::string& out, const util::CancelToken* cancel) {
  const engine::Shard shard = MentionShardFor(db, r.shard, r.of);
  engine::CrossReportPartial partial;
  if (r.restricted) {
    const auto sel = engine::SelectMentionsBitmap(db, r.filter);
    partial = engine::CrossReportingOnShard(db, shard, sel, cancel);
  } else {
    partial = engine::CrossReportingOnShard(db, shard, cancel);
  }
  const std::size_t nc = Countries().size();
  out += "\"reported\":";
  AppendIntArray(out, engine::CountriesByReportedEvents(db, r.top_k));
  out += ",\"publishing\":";
  AppendIntArray(out, engine::CountriesByPublishedArticles(db, r.top_k));
  out += ",\"counts\":";
  AppendCountMatrix(out, partial.counts, nc, /*sym=*/false);
  out += ",\"untagged\":";
  AppendIntArray(out, partial.articles_per_publisher);
}

void PartialDelay(const engine::Database& db, const Request& r,
                  std::string& out, const util::CancelToken* cancel) {
  const auto top = engine::TopSourcesByArticles(db, r.top_k);
  const auto stats =
      analysis::PerSourceDelayStatsStrided(db, r.shard, r.of, cancel);
  const auto quarterly =
      analysis::QuarterlyDelayStatsStrided(db, r.shard, r.of);
  out += "\"top\":";
  AppendIntArray(out, top);
  out += ",\"domains\":";
  AppendStringArray(out, DomainsOf(db, top));
  // Owned Table VIII rows: the shard owning source id s (s % of) carries
  // that source's whole-source stats; parallel arrays over `slots`.
  std::vector<std::uint64_t> slots;
  std::vector<std::uint64_t> count;
  std::vector<std::int64_t> min;
  std::vector<std::int64_t> max;
  std::vector<double> avg;
  std::vector<std::int64_t> median;
  for (std::size_t k = 0; k < top.size(); ++k) {
    if (top[k] % r.of != r.shard) continue;
    const analysis::DelayStats& st = stats[top[k]];
    slots.push_back(k);
    count.push_back(st.article_count);
    min.push_back(st.min);
    max.push_back(st.max);
    avg.push_back(st.average);
    median.push_back(st.median);
  }
  out += ",\"slots\":";
  AppendIntArray(out, slots);
  out += ",\"count\":";
  AppendIntArray(out, count);
  out += ",\"min\":";
  AppendIntArray(out, min);
  out += ",\"max\":";
  AppendIntArray(out, max);
  out += ",\"avg\":";
  AppendDoubleArray(out, avg);
  out += ",\"median\":";
  AppendIntArray(out, median);
  // Owned Fig 10 quarters: quarter q (relative) belongs to shard q % of.
  Appendf(out, ",\"q_first\":%lld,\"q_count\":%zu",
          static_cast<long long>(quarterly.first_quarter),
          quarterly.average.size());
  std::vector<std::uint64_t> q_slots;
  std::vector<double> q_avg;
  std::vector<std::int64_t> q_median;
  for (std::size_t q = 0; q < quarterly.average.size(); ++q) {
    if (q % r.of != r.shard) continue;
    q_slots.push_back(q);
    q_avg.push_back(quarterly.average[q]);
    q_median.push_back(quarterly.median[q]);
  }
  out += ",\"q_slots\":";
  AppendIntArray(out, q_slots);
  out += ",\"q_avg\":";
  AppendDoubleArray(out, q_avg);
  out += ",\"q_median\":";
  AppendIntArray(out, q_median);
}

void PartialFirstReports(const engine::Database& db, const Request& r,
                         std::string& out, const util::CancelToken* cancel) {
  const IndexRange range = EventRangeFor(db, r.shard, r.of);
  const auto stats = analysis::ComputeFirstReportsOnEvents(
      db, range.begin, range.end, /*histogram_bins=*/18, cancel);
  out += "\"breaks\":";
  AppendIntArray(out, stats.first_reports);
  out += ",\"repeat_articles\":";
  AppendIntArray(out, stats.repeat_articles);
  Appendf(out, ",\"within_hour\":%llu",
          static_cast<unsigned long long>(stats.events_broken_within_hour));
  out += ",\"articles\":";
  AppendIntArray(out, engine::ArticlesPerSource(db));
  out += ",\"domains\":";
  AppendStringArray(out, AllDomains(db));
  Appendf(out, ",\"num_events\":%zu", db.num_events());
}

// ---------------------------------------------------------------------------
// Per-kind mergers. `frames` are the validated `"data"` objects.

Result<std::string> MergeTopSources(const Request& r,
                                    std::span<const JsonValue* const> frames) {
  std::vector<std::uint64_t> counts;
  std::vector<std::string> domains;
  bool first = true;
  for (const JsonValue* data : frames) {
    std::vector<std::uint64_t> c;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "counts", c));
    std::vector<std::string> d;
    GDELT_RETURN_IF_ERROR(TakeStringVec(*data, "domains", d));
    if (c.size() != d.size()) {
      return FrameError("counts/domains length mismatch");
    }
    if (first) {
      counts.assign(c.size(), 0);
    } else if (c.size() != counts.size()) {
      return status::Internal("shard partials disagree on 'counts' size");
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, domains, std::move(d), "domains"));
    for (std::size_t s = 0; s < c.size(); ++s) counts[s] += c[s];
    first = false;
  }
  const auto ids = r.restricted ? RankSources(counts, r.top_k)
                                : RankByCountThenId(counts, r.top_k);
  std::vector<std::string> labels;
  std::vector<std::uint64_t> top_counts;
  for (const std::uint32_t s : ids) {
    labels.push_back(domains[s]);
    top_counts.push_back(counts[s]);
  }
  std::string text;
  AppendTopSourcesText(text, labels, top_counts, r.restricted);
  return text;
}

Result<std::string> MergeTopEvents(const Request& r,
                                   std::span<const JsonValue* const> frames) {
  struct Candidate {
    std::uint64_t row;
    std::uint64_t articles;
    std::string url;
  };
  std::vector<Candidate> all;
  for (const JsonValue* data : frames) {
    std::vector<std::uint64_t> rows;
    std::vector<std::uint64_t> articles;
    std::vector<std::string> urls;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "rows", rows));
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "articles", articles));
    GDELT_RETURN_IF_ERROR(TakeStringVec(*data, "urls", urls));
    if (rows.size() != articles.size() || rows.size() != urls.size()) {
      return FrameError("rows/articles/urls length mismatch");
    }
    for (std::size_t k = 0; k < rows.size(); ++k) {
      all.push_back({rows[k], articles[k], std::move(urls[k])});
    }
  }
  // Each event row lives in exactly one shard's range, so the global
  // top-k is the top-k of the union of local top-k lists — the same
  // (articles desc, row asc) order TopReportedEvents uses.
  std::sort(all.begin(), all.end(), [](const Candidate& a, const Candidate& b) {
    if (a.articles != b.articles) return a.articles > b.articles;
    return a.row < b.row;
  });
  const std::size_t take = std::min(r.top_k, all.size());
  std::vector<std::uint32_t> articles;
  std::vector<std::string> urls;
  for (std::size_t k = 0; k < take; ++k) {
    articles.push_back(static_cast<std::uint32_t>(all[k].articles));
    urls.push_back(std::move(all[k].url));
  }
  std::string text;
  AppendTopEventsText(text, articles, urls);
  return text;
}

Result<std::string> MergeCoreport(const Request& r,
                                  std::span<const JsonValue* const> frames) {
  std::vector<std::uint64_t> subset;
  std::vector<std::string> domains;
  std::vector<std::uint64_t> acc;
  std::size_t n = 0;
  bool first = true;
  for (const JsonValue* data : frames) {
    std::vector<std::uint64_t> sub;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "subset", sub));
    std::vector<std::string> dom;
    GDELT_RETURN_IF_ERROR(TakeStringVec(*data, "domains", dom));
    if (first) {
      n = sub.size();
      // The subset a shard reports can never exceed the top_k the
      // request asked for; a larger n is a hostile or corrupt frame,
      // and n*n sizes the accumulator matrix (top_k=100k would demand
      // an 80 GB allocation), so reject before allocating.
      if (n > r.top_k) {
        return FrameError("subset larger than requested top_k");
      }
      acc.assign(n * n, 0);
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, subset, std::move(sub), "subset"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, domains, std::move(dom),
                                     "domains"));
    GDELT_RETURN_IF_ERROR(
        ParseCountMatrixInto(data->Find("matrix"), n, /*sym=*/true, acc));
    first = false;
  }
  MirrorUpper(acc, n);
  analysis::CoReportMatrix matrix(n);
  for (std::size_t k = 0; k < acc.size(); ++k) {
    matrix.mutable_counts()[k] = static_cast<std::uint32_t>(acc[k]);
  }
  std::string text;
  AppendCoreportText(text, domains, matrix, r.restricted);
  return text;
}

Result<std::string> MergeFollow(const Request& r,
                                std::span<const JsonValue* const> frames) {
  std::vector<std::uint64_t> subset;
  std::vector<std::string> domains;
  std::vector<std::uint64_t> articles;
  std::vector<std::uint64_t> acc;
  std::size_t n = 0;
  bool first = true;
  for (const JsonValue* data : frames) {
    std::vector<std::uint64_t> sub;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "subset", sub));
    std::vector<std::string> dom;
    GDELT_RETURN_IF_ERROR(TakeStringVec(*data, "domains", dom));
    std::vector<std::uint64_t> art;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "articles", art));
    if (first) {
      n = sub.size();
      // Same bound as MergeCoreport: n*n sizes the accumulator, and no
      // honest shard reports more than top_k follow candidates.
      if (n > r.top_k) {
        return FrameError("subset larger than requested top_k");
      }
      acc.assign(n * n, 0);
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, subset, std::move(sub), "subset"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, domains, std::move(dom),
                                     "domains"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, articles, std::move(art),
                                     "articles"));
    GDELT_RETURN_IF_ERROR(
        ParseCountMatrixInto(data->Find("matrix"), n, /*sym=*/false, acc));
    first = false;
  }
  analysis::FollowReportMatrix matrix;
  matrix.n = n;
  matrix.follow_counts = std::move(acc);
  matrix.articles = std::move(articles);
  std::string text;
  AppendFollowText(text, domains, matrix);
  return text;
}

Result<std::string> MergeCountryCoreport(
    const Request& /*r*/, std::span<const JsonValue* const> frames) {
  const std::size_t nc = Countries().size();
  std::vector<std::uint64_t> top;
  std::vector<std::uint64_t> acc(nc * nc, 0);
  bool first = true;
  for (const JsonValue* data : frames) {
    std::vector<std::uint64_t> t;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "top", t));
    for (const std::uint64_t c : t) {
      if (c >= nc) return FrameError("country id out of range");
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, top, std::move(t), "top"));
    GDELT_RETURN_IF_ERROR(
        ParseCountMatrixInto(data->Find("pairs"), nc, /*sym=*/true, acc));
    first = false;
  }
  MirrorUpper(acc, nc);
  analysis::CountryCoReport report;
  report.n = nc;
  report.event_counts.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    report.event_counts[c] = acc[c * nc + c];
  }
  report.pair_counts = std::move(acc);
  std::vector<CountryId> top_ids;
  for (const std::uint64_t c : top) {
    top_ids.push_back(static_cast<CountryId>(c));
  }
  std::string text;
  AppendCountryCoreportText(text, top_ids, report);
  return text;
}

Result<std::string> MergeCrossReport(const Request& r,
                                     std::span<const JsonValue* const> frames) {
  const std::size_t nc = Countries().size();
  std::vector<std::uint64_t> reported;
  std::vector<std::uint64_t> publishing;
  std::vector<std::uint64_t> counts(nc * nc, 0);
  std::vector<std::uint64_t> untagged(nc, 0);
  bool first = true;
  for (const JsonValue* data : frames) {
    std::vector<std::uint64_t> rep;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "reported", rep));
    std::vector<std::uint64_t> pub;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "publishing", pub));
    for (const std::uint64_t c : rep) {
      if (c >= nc) return FrameError("country id out of range");
    }
    for (const std::uint64_t c : pub) {
      if (c >= nc) return FrameError("country id out of range");
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, reported, std::move(rep),
                                     "reported"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, publishing, std::move(pub),
                                     "publishing"));
    GDELT_RETURN_IF_ERROR(
        ParseCountMatrixInto(data->Find("counts"), nc, /*sym=*/false, counts));
    std::vector<std::uint64_t> unt;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "untagged", unt));
    if (unt.size() != nc) return FrameError("'untagged' length mismatch");
    for (std::size_t c = 0; c < nc; ++c) untagged[c] += unt[c];
    first = false;
  }
  // The allreduce finish: publisher totals = untagged bucket + located
  // column sums.
  engine::CountryCrossReport report;
  report.num_countries = nc;
  report.articles_per_publisher = std::move(untagged);
  for (std::size_t rep = 0; rep < nc; ++rep) {
    for (std::size_t pub = 0; pub < nc; ++pub) {
      report.articles_per_publisher[pub] += counts[rep * nc + pub];
    }
  }
  report.counts = std::move(counts);
  std::vector<CountryId> rep_ids;
  for (const std::uint64_t c : reported) {
    rep_ids.push_back(static_cast<CountryId>(c));
  }
  std::vector<CountryId> pub_ids;
  for (const std::uint64_t c : publishing) {
    pub_ids.push_back(static_cast<CountryId>(c));
  }
  std::string text;
  AppendCrossReportText(text, rep_ids, pub_ids, report, r.restricted);
  return text;
}

Result<std::string> MergeDelay(const Request& /*r*/,
                               std::span<const JsonValue* const> frames) {
  std::vector<std::uint64_t> top;
  std::vector<std::string> domains;
  std::vector<analysis::DelayStats> stats;
  analysis::QuarterlyDelay quarterly;
  std::int64_t q_first = 0;
  std::uint64_t q_count = 0;
  bool first = true;
  for (const JsonValue* data : frames) {
    std::vector<std::uint64_t> t;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "top", t));
    std::vector<std::string> dom;
    GDELT_RETURN_IF_ERROR(TakeStringVec(*data, "domains", dom));
    if (first) {
      stats.assign(t.size(), analysis::DelayStats{});
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, top, std::move(t), "top"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, domains, std::move(dom),
                                     "domains"));
    std::vector<std::uint64_t> slots;
    std::vector<std::uint64_t> count;
    std::vector<std::int64_t> min;
    std::vector<std::int64_t> max;
    std::vector<double> avg;
    std::vector<std::int64_t> median;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "slots", slots));
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "count", count));
    GDELT_RETURN_IF_ERROR(TakeI64Vec(*data, "min", min));
    GDELT_RETURN_IF_ERROR(TakeI64Vec(*data, "max", max));
    GDELT_RETURN_IF_ERROR(TakeDoubleVec(*data, "avg", avg));
    GDELT_RETURN_IF_ERROR(TakeI64Vec(*data, "median", median));
    if (count.size() != slots.size() || min.size() != slots.size() ||
        max.size() != slots.size() || avg.size() != slots.size() ||
        median.size() != slots.size()) {
      return FrameError("delay slot array length mismatch");
    }
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (slots[k] >= stats.size()) {
        return FrameError("delay slot out of range");
      }
      analysis::DelayStats& st = stats[slots[k]];
      st.article_count = count[k];
      st.min = min[k];
      st.max = max[k];
      st.average = avg[k];
      st.median = median[k];
    }
    const JsonValue* qf = data->Find("q_first");
    if (qf == nullptr || !qf->is_number()) {
      return FrameError("missing 'q_first'");
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, q_first, qf->AsInt(), "q_first"));
    std::uint64_t qc = 0;
    GDELT_RETURN_IF_ERROR(TakeU64Field(*data, "q_count", qc));
    GDELT_RETURN_IF_ERROR(
        CarryCheck(first, q_count, std::move(qc), "q_count"));
    // q_count arrives in the frame and sizes two quarterly arrays; a
    // hostile 2^63 value would be an OOM, so bound it to a span no real
    // dataset approaches before allocating.
    if (q_count > kMaxQuarterSlots) {
      return FrameError("quarterly span too large");
    }
    if (first) {
      quarterly.first_quarter = static_cast<QuarterId>(q_first);
      quarterly.average.assign(q_count, 0.0);
      quarterly.median.assign(q_count, 0);
    }
    std::vector<std::uint64_t> q_slots;
    std::vector<double> q_avg;
    std::vector<std::int64_t> q_median;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "q_slots", q_slots));
    GDELT_RETURN_IF_ERROR(TakeDoubleVec(*data, "q_avg", q_avg));
    GDELT_RETURN_IF_ERROR(TakeI64Vec(*data, "q_median", q_median));
    if (q_avg.size() != q_slots.size() || q_median.size() != q_slots.size()) {
      return FrameError("quarterly slot array length mismatch");
    }
    for (std::size_t k = 0; k < q_slots.size(); ++k) {
      if (q_slots[k] >= quarterly.average.size()) {
        return FrameError("quarterly slot out of range");
      }
      quarterly.average[q_slots[k]] = q_avg[k];
      quarterly.median[q_slots[k]] = q_median[k];
    }
    first = false;
  }
  std::string text;
  AppendDelayText(text, domains, stats, quarterly);
  return text;
}

Result<std::string> MergeFirstReports(
    const Request& r, std::span<const JsonValue* const> frames) {
  std::vector<std::uint64_t> breaks;
  std::vector<std::uint64_t> repeat_articles;
  std::uint64_t within_hour = 0;
  std::vector<std::uint64_t> articles;
  std::vector<std::string> domains;
  std::uint64_t num_events = 0;
  bool first = true;
  for (const JsonValue* data : frames) {
    std::vector<std::uint64_t> br;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "breaks", br));
    std::vector<std::uint64_t> ra;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "repeat_articles", ra));
    std::uint64_t wh = 0;
    GDELT_RETURN_IF_ERROR(TakeU64Field(*data, "within_hour", wh));
    std::vector<std::uint64_t> art;
    GDELT_RETURN_IF_ERROR(TakeU64Vec(*data, "articles", art));
    std::vector<std::string> dom;
    GDELT_RETURN_IF_ERROR(TakeStringVec(*data, "domains", dom));
    std::uint64_t ne = 0;
    GDELT_RETURN_IF_ERROR(TakeU64Field(*data, "num_events", ne));
    if (br.size() != ra.size()) {
      return FrameError("breaks/repeat_articles length mismatch");
    }
    if (first) {
      breaks.assign(br.size(), 0);
      repeat_articles.assign(ra.size(), 0);
    } else if (br.size() != breaks.size()) {
      return status::Internal("shard partials disagree on 'breaks' size");
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, articles, std::move(art),
                                     "articles"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, domains, std::move(dom),
                                     "domains"));
    GDELT_RETURN_IF_ERROR(
        CarryCheck(first, num_events, std::move(ne), "num_events"));
    if (articles.size() != breaks.size() || domains.size() != breaks.size()) {
      return FrameError("first-reports array length mismatch");
    }
    for (std::size_t s = 0; s < br.size(); ++s) {
      breaks[s] += br[s];
      repeat_articles[s] += ra[s];
    }
    within_hour += wh;
    first = false;
  }
  const auto by_breaks = RankSources(breaks, r.top_k);
  std::vector<std::string> labels;
  std::vector<std::uint64_t> top_breaks;
  std::vector<std::uint64_t> top_articles;
  std::vector<double> rate_pct;
  for (const std::uint32_t s : by_breaks) {
    labels.push_back(domains[s]);
    top_breaks.push_back(breaks[s]);
    top_articles.push_back(articles[s]);
    // Exactly FirstReportStats::RepeatRate scaled to percent, as the
    // single-node renderer computes it.
    rate_pct.push_back(
        100.0 * (articles[s] == 0
                     ? 0.0
                     : static_cast<double>(repeat_articles[s]) /
                           static_cast<double>(articles[s])));
  }
  std::string text;
  AppendFirstReportsText(text, labels, top_breaks, top_articles, rate_pct,
                         within_hour, num_events);
  return text;
}

}  // namespace

void SetPartialMatrixEncoding(PartialMatrixEncoding enc) noexcept {
  g_matrix_encoding = enc;
}

Result<RenderedQuery> RenderPartialFrame(const engine::Database& db,
                                         const Request& r,
                                         parallel::Backend /*backend*/,
                                         const util::CancelToken* cancel) {
  RenderedQuery out;
  Appendf(out.text, "{\"v\":%d,\"kind\":", kPartialVersion);
  AppendJsonString(out.text, r.kind);
  Appendf(out.text, ",\"shard\":%u,\"of\":%u,\"data\":{", r.shard, r.of);
  if (r.kind == "top-sources") {
    PartialTopSources(db, r, out.text);
  } else if (r.kind == "top-events") {
    PartialTopEvents(db, r, out.text);
  } else if (r.kind == "coreport") {
    PartialCoreport(db, r, out.text, cancel);
  } else if (r.kind == "follow") {
    PartialFollow(db, r, out.text, cancel);
  } else if (r.kind == "country-coreport") {
    PartialCountryCoreport(db, r, out.text, cancel);
  } else if (r.kind == "cross-report") {
    PartialCrossReport(db, r, out.text, cancel);
  } else if (r.kind == "delay") {
    PartialDelay(db, r, out.text, cancel);
  } else if (r.kind == "first-reports") {
    PartialFirstReports(db, r, out.text, cancel);
  } else {
    return status::InvalidArgument("query '" + r.kind +
                                   "' does not decompose into partials");
  }
  out.text += "}}";
  return out;
}

Result<std::string> MergePartialFrames(const Request& r,
                                       std::span<const JsonValue> frames) {
  if (frames.empty()) {
    return status::InvalidArgument("no partial frames to merge");
  }
  std::vector<const JsonValue*> data;
  // The partition count comes from the frames themselves (the merge is
  // run on behalf of the original, non-partial request): the first
  // frame pins it, the rest must agree — a mismatch means the frames
  // belong to different scatters.
  std::int64_t of = 0;
  std::vector<bool> seen;
  for (const JsonValue& frame : frames) {
    if (!frame.is_object()) return FrameError("frame must be an object");
    const JsonValue* v = frame.Find("v");
    if (v == nullptr || !v->is_number() || v->AsInt() != kPartialVersion) {
      return FrameError(StrFormat("unsupported frame version (want %d)",
                                  kPartialVersion));
    }
    const JsonValue* kind = frame.Find("kind");
    if (kind == nullptr || !kind->is_string() || kind->AsString() != r.kind) {
      return FrameError("frame kind mismatch");
    }
    const JsonValue* of_field = frame.Find("of");
    if (of_field == nullptr || !of_field->is_number() ||
        of_field->AsInt() < 1) {
      return FrameError("frame needs a positive 'of'");
    }
    if (of == 0) {
      // The request-side `of` is parse-clamped to kMaxPartitions, but
      // this one arrives inside the frame and sizes the seen-shard
      // table below — an unbounded int64 here is an OOM on demand.
      if (of_field->AsInt() > kMaxPartitions) {
        return FrameError("frame 'of' exceeds the partition limit");
      }
      of = of_field->AsInt();
      seen.assign(static_cast<std::size_t>(of), false);
    } else if (of_field->AsInt() != of) {
      return FrameError("frame 'of' mismatch (mixed partition counts)");
    }
    const JsonValue* shard = frame.Find("shard");
    if (shard == nullptr || !shard->is_number() || shard->AsInt() < 0 ||
        shard->AsInt() >= of) {
      return FrameError("frame 'shard' out of range");
    }
    const std::size_t s = static_cast<std::size_t>(shard->AsInt());
    if (seen[s]) return FrameError("duplicate frame for one shard");
    seen[s] = true;
    const JsonValue* d = frame.Find("data");
    if (d == nullptr || !d->is_object()) {
      return FrameError("frame needs a 'data' object");
    }
    data.push_back(d);
  }
  const std::span<const JsonValue* const> view(data);
  if (r.kind == "top-sources") return MergeTopSources(r, view);
  if (r.kind == "top-events") return MergeTopEvents(r, view);
  if (r.kind == "coreport") return MergeCoreport(r, view);
  if (r.kind == "follow") return MergeFollow(r, view);
  if (r.kind == "country-coreport") return MergeCountryCoreport(r, view);
  if (r.kind == "cross-report") return MergeCrossReport(r, view);
  if (r.kind == "delay") return MergeDelay(r, view);
  if (r.kind == "first-reports") return MergeFirstReports(r, view);
  return status::InvalidArgument("query '" + r.kind +
                                 "' does not decompose into partials");
}

std::string BuildShardRequestLine(const Request& r, std::uint32_t shard,
                                  std::uint32_t of) {
  std::string out = "{\"id\":";
  AppendJsonString(out, r.id);
  out += ",\"query\":";
  AppendJsonString(out, r.kind);
  Appendf(out, ",\"top\":%zu", r.top_k);
  if (!r.from.empty()) {
    out += ",\"from\":";
    AppendJsonString(out, r.from);
  }
  if (!r.to.empty()) {
    out += ",\"to\":";
    AppendJsonString(out, r.to);
  }
  if (r.min_confidence > 0) {
    Appendf(out, ",\"min_confidence\":%d", r.min_confidence);
  }
  if (r.timeout_ms > 0) {
    Appendf(out, ",\"timeout_ms\":%lld", static_cast<long long>(r.timeout_ms));
  }
  Appendf(out, ",\"partial\":true,\"shard\":%u,\"of\":%u}\n", shard, of);
  return out;
}

}  // namespace gdelt::serve
