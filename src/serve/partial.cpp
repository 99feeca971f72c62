#include "serve/partial.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "engine/filter.hpp"
#include "engine/queries.hpp"
#include "parallel/parallel.hpp"
#include "schema/countries.hpp"
#include "serve/render_text.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

PartialMatrixEncoding g_matrix_encoding = PartialMatrixEncoding::kAuto;

// ---------------------------------------------------------------------------
// Partitions.

/// The slice of the data one partition computes: partition `shard` of
/// `of`, and the request's selection bitmap when the kind takes a filter
/// and the request restricts (null otherwise).
struct Part {
  const engine::Database& db;
  const Request& r;
  const engine::SelectionBitmap* sel;
  const util::CancelToken* cancel;
  std::uint32_t shard;
  std::uint32_t of;

  /// Part `shard` of SplitRange(n, of). SplitRange clamps the part count
  /// to n, so partitions past the clamp own an empty range (their frames
  /// carry all-zero aggregates).
  IndexRange Of(std::size_t n) const {
    const auto ranges = SplitRange(n, of);
    return shard < ranges.size() ? ranges[shard] : IndexRange{n, n};
  }
  IndexRange events() const { return Of(db.num_events()); }
  IndexRange mentions() const { return Of(db.num_mentions()); }
  /// Strided ownership, for source ids and quarters: slot s belongs to
  /// partition s % of.
  bool Owns(std::uint64_t slot) const { return slot % of == shard; }
};

std::vector<std::string_view> DomainsOf(const engine::Database& db,
                                        std::span<const std::uint32_t> ids) {
  std::vector<std::string_view> out;
  out.reserve(ids.size());
  for (const std::uint32_t s : ids) out.push_back(db.source_domain(s));
  return out;
}

/// The domain of every source id: looked up in the database where the
/// partial was computed, decoded from the frames where it was merged.
/// A single node thus labels only the ranked sources it prints.
class SourceDomains {
 public:
  SourceDomains() = default;
  explicit SourceDomains(const engine::Database& db) : db_(&db) {}

  std::size_t size() const {
    return db_ != nullptr ? db_->num_sources() : decoded_.size();
  }
  std::string_view operator[](std::size_t s) const {
    return db_ != nullptr ? db_->source_domain(static_cast<std::uint32_t>(s))
                          : decoded_[s];
  }
  std::vector<std::string_view>& decoded() { return decoded_; }

 private:
  const engine::Database* db_ = nullptr;
  std::vector<std::string_view> decoded_;
};

/// Text labels of ranked domains.
std::vector<std::string> Labels(std::span<const std::string_view> domains) {
  return {domains.begin(), domains.end()};
}

/// Text labels of the ranked source ids `ids`.
std::vector<std::string> Labels(const SourceDomains& domains,
                                std::span<const std::uint32_t> ids) {
  std::vector<std::string> out;
  for (const std::uint32_t s : ids) out.emplace_back(domains[s]);
  return out;
}

template <typename Id>
std::vector<std::uint64_t> Widen(const std::vector<Id>& ids) {
  return {ids.begin(), ids.end()};
}

std::vector<CountryId> CountryIds(const std::vector<std::uint64_t>& ids) {
  std::vector<CountryId> out;
  out.reserve(ids.size());
  for (const std::uint64_t c : ids) out.push_back(static_cast<CountryId>(c));
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

template <typename Strings>
void AppendStringArray(std::string& out, const Strings& values) {
  out += '[';
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k) out += ',';
    AppendJsonString(out, values[k]);
  }
  out += ']';
}

/// Emits a count matrix (full row-major n*n, symmetric matrices already
/// mirrored) as a frame matrix object. Symmetric matrices ship only the
/// upper triangle.
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

/// Parses the array member `key` of a frame's data. Unsigned elements
/// must be non-negative numbers; string elements stay views into `data`.
template <typename T>
Status TakeVec(const JsonValue& data, std::string_view key,
               std::vector<T>& out) {
  const JsonValue* arr = data.Find(key);
  if (arr == nullptr || arr->kind() != JsonValue::Kind::kArray) {
    return FrameError("missing array '" + std::string(key) + "'");
  }
  out.clear();
  out.reserve(arr->elements().size());
  for (const JsonValue& e : arr->elements()) {
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      GDELT_ASSIGN_OR_RETURN(const std::uint64_t v, U64Of(e, key));
      out.push_back(v);
    } else if constexpr (std::is_same_v<T, std::string_view>) {
      if (!e.is_string()) {
        return FrameError("'" + std::string(key) + "' must hold strings");
      }
      out.push_back(e.AsString());
    } else {
      if (!e.is_number()) {
        return FrameError("'" + std::string(key) + "' must hold numbers");
      }
      if constexpr (std::is_same_v<T, double>) {
        out.push_back(e.AsNumber());
      } else {
        out.push_back(e.AsInt());
      }
    }
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
/// A symmetric matrix's upper-triangle cells are added to both
/// triangles, so `acc` stays mirrored.
template <typename T>
Status ParseCountMatrixInto(const JsonValue* m, std::size_t n, bool sym,
                            std::span<T> acc) {
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
  const auto add = [&](std::size_t i, std::size_t j, std::uint64_t v) {
    acc[i * n + j] += static_cast<T>(v);
    if (sym && i != j) acc[j * n + i] += static_cast<T>(v);
  };
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
        add(i, j, v);
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
      add(i, j, v);
    }
    return Status::Ok();
  }
  return FrameError("unknown matrix encoding '" + enc->AsString() + "'");
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

Status CheckCountryIds(const std::vector<std::uint64_t>& ids) {
  for (const std::uint64_t c : ids) {
    if (c >= Countries().size()) return FrameError("country id out of range");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// The decomposable kinds. Each one defines its typed partial and four
// steps over it:
//   Compute  runs the kind's one kernel over a partition;
//   Encode   writes a partial as the members of a frame's "data";
//   Decode   parses one frame's "data" and adds it into an accumulator
//            (`first`: nothing added yet; carried globals must agree);
//   Finish   renders a partial, computed whole or summed from frames, as
//            the query's text.
// A single node is Finish(Compute(partition 0 of 1)); a shard is
// Encode(Compute(partition k of n)); the router is Finish of the Decoded
// sum. So routed output equals single-node output by construction.

/// Articles per source over a mention range (time shards) and the
/// optional selection; the ranking happens at Finish.
struct TopSources {
  static constexpr std::string_view kName = "top-sources";
  static constexpr bool kFiltered = true;
  struct Partial {
    std::vector<std::uint64_t> counts;  ///< per source id
    SourceDomains domains;
  };

  static Partial Compute(const Part& p) {
    return {engine::ArticlesPerSource(p.db, p.mentions(), p.sel, p.cancel),
            SourceDomains(p.db)};
  }
  static void Encode(const Part&, const Partial& x, std::string& out) {
    out += "\"counts\":";
    AppendIntArray(out, x.counts);
    out += ",\"domains\":";
    AppendStringArray(out, x.domains);
  }
  static Status Decode(const Request&, const JsonValue& data, bool first,
                       Partial& acc) {
    std::vector<std::uint64_t> c;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "counts", c));
    std::vector<std::string_view> d;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "domains", d));
    if (c.size() != d.size()) {
      return FrameError("counts/domains length mismatch");
    }
    if (first) {
      acc.counts.assign(c.size(), 0);
    } else if (c.size() != acc.counts.size()) {
      return status::Internal("shard partials disagree on 'counts' size");
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.domains.decoded(),
                                     std::move(d), "domains"));
    for (std::size_t s = 0; s < c.size(); ++s) acc.counts[s] += c[s];
    return Status::Ok();
  }
  static std::string Finish(const Request& r, const Partial& x) {
    const auto ids =
        r.restricted ? RankSources(x.counts, r.top_k)
                     : engine::RankByCount<std::uint32_t>(x.counts, r.top_k);
    std::vector<std::uint64_t> counts;
    for (const std::uint32_t s : ids) counts.push_back(x.counts[s]);
    std::string text;
    AppendTopSourcesText(text, Labels(x.domains, ids), counts, r.restricted);
    return text;
  }
};

/// Local top-k over an event range; the union of the local lists holds
/// the global top k.
struct TopEvents {
  static constexpr std::string_view kName = "top-events";
  static constexpr bool kFiltered = false;
  struct Candidate {
    std::uint64_t event_row = 0;
    std::uint64_t articles = 0;
    std::string_view url;
  };
  struct Partial {
    std::vector<Candidate> events;
  };

  static Partial Compute(const Part& p) {
    Partial x;
    for (const auto& ev :
         engine::TopReportedEvents(p.db, p.r.top_k, p.events())) {
      x.events.push_back(
          {ev.event_row, ev.articles, p.db.event_source_url(ev.event_row)});
    }
    return x;
  }
  static void Encode(const Part&, const Partial& x, std::string& out) {
    std::vector<std::uint64_t> rows;
    std::vector<std::uint64_t> articles;
    std::vector<std::string_view> urls;
    for (const Candidate& c : x.events) {
      rows.push_back(c.event_row);
      articles.push_back(c.articles);
      urls.push_back(c.url);
    }
    out += "\"rows\":";
    AppendIntArray(out, rows);
    out += ",\"articles\":";
    AppendIntArray(out, articles);
    out += ",\"urls\":";
    AppendStringArray(out, urls);
  }
  static Status Decode(const Request&, const JsonValue& data, bool,
                       Partial& acc) {
    std::vector<std::uint64_t> rows;
    std::vector<std::uint64_t> articles;
    std::vector<std::string_view> urls;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "rows", rows));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "articles", articles));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "urls", urls));
    if (rows.size() != articles.size() || rows.size() != urls.size()) {
      return FrameError("rows/articles/urls length mismatch");
    }
    for (std::size_t k = 0; k < rows.size(); ++k) {
      acc.events.push_back({rows[k], articles[k], urls[k]});
    }
    return Status::Ok();
  }
  static std::string Finish(const Request& r, const Partial& x) {
    engine::TopEventsSelector<Candidate> top(r.top_k);
    for (const Candidate& c : x.events) top.Offer(c);
    std::vector<std::uint32_t> articles;
    std::vector<std::string> urls;
    for (const Candidate& c : std::move(top).Take()) {
      articles.push_back(static_cast<std::uint32_t>(c.articles));
      urls.emplace_back(c.url);
    }
    std::string text;
    AppendTopEventsText(text, articles, urls);
    return text;
  }
};

/// Co-reporting pair counts over an event range, among the top sources
/// (by the selection's article counts when restricted).
struct Coreport {
  static constexpr std::string_view kName = "coreport";
  static constexpr bool kFiltered = true;
  struct Partial {
    std::vector<std::uint64_t> subset;
    std::vector<std::string_view> domains;  ///< per subset member
    analysis::CoReportMatrix matrix{0};
  };

  static Partial Compute(const Part& p) {
    const auto top =
        p.sel != nullptr
            ? RankSources(engine::ArticlesPerSource(p.db, kWholeRange, p.sel,
                                                    p.cancel),
                          p.r.top_k)
            : engine::TopSourcesByArticles(p.db, p.r.top_k);
    analysis::TiledCoReportOptions options;
    options.cancel = p.cancel;
    return {Widen(top), DomainsOf(p.db, top),
            analysis::ComputeCoReporting(p.db, top, p.events(), p.sel,
                                         options)};
  }
  static void Encode(const Part&, const Partial& x, std::string& out) {
    out += "\"subset\":";
    AppendIntArray(out, x.subset);
    out += ",\"domains\":";
    AppendStringArray(out, x.domains);
    out += ",\"matrix\":";
    AppendCountMatrix(out, x.matrix.counts(), x.matrix.size(), /*sym=*/true);
  }
  static Status Decode(const Request& r, const JsonValue& data, bool first,
                       Partial& acc) {
    std::vector<std::uint64_t> sub;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "subset", sub));
    std::vector<std::string_view> dom;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "domains", dom));
    if (first) {
      // The subset a shard reports can never exceed the top_k the
      // request asked for; a larger n is a hostile or corrupt frame, and
      // n*n sizes the accumulator matrix (top_k=100k would demand an
      // 80 GB allocation), so reject before allocating.
      if (sub.size() > r.top_k) {
        return FrameError("subset larger than requested top_k");
      }
      acc.matrix = analysis::CoReportMatrix(sub.size());
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.subset, std::move(sub),
                                     "subset"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.domains, std::move(dom),
                                     "domains"));
    return ParseCountMatrixInto(data.Find("matrix"), acc.matrix.size(),
                                /*sym=*/true,
                                std::span(acc.matrix.mutable_counts()));
  }
  static std::string Finish(const Request& r, const Partial& x) {
    std::string text;
    AppendCoreportText(text, Labels(x.domains), x.matrix, r.restricted);
    return text;
  }
};

/// Follow-reporting counts over an event range among the top sources.
struct Follow {
  static constexpr std::string_view kName = "follow";
  static constexpr bool kFiltered = false;
  struct Partial {
    std::vector<std::uint64_t> subset;
    std::vector<std::string_view> domains;  ///< per subset member
    analysis::FollowReportMatrix matrix;
  };

  static Partial Compute(const Part& p) {
    const auto top = engine::TopSourcesByArticles(p.db, p.r.top_k);
    return {Widen(top), DomainsOf(p.db, top),
            analysis::ComputeFollowReporting(p.db, top, p.events(),
                                             p.cancel)};
  }
  static void Encode(const Part&, const Partial& x, std::string& out) {
    out += "\"subset\":";
    AppendIntArray(out, x.subset);
    out += ",\"domains\":";
    AppendStringArray(out, x.domains);
    out += ",\"articles\":";
    AppendIntArray(out, x.matrix.articles);
    out += ",\"matrix\":";
    AppendCountMatrix(out, x.matrix.follow_counts, x.matrix.n,
                      /*sym=*/false);
  }
  static Status Decode(const Request& r, const JsonValue& data, bool first,
                       Partial& acc) {
    std::vector<std::uint64_t> sub;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "subset", sub));
    std::vector<std::string_view> dom;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "domains", dom));
    std::vector<std::uint64_t> art;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "articles", art));
    if (first) {
      // Same bound as Coreport: n*n sizes the accumulator, and no honest
      // shard reports more than top_k follow candidates.
      if (sub.size() > r.top_k) {
        return FrameError("subset larger than requested top_k");
      }
      acc.matrix.n = sub.size();
      acc.matrix.follow_counts.assign(sub.size() * sub.size(), 0);
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.subset, std::move(sub),
                                     "subset"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.domains, std::move(dom),
                                     "domains"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.matrix.articles,
                                     std::move(art), "articles"));
    return ParseCountMatrixInto(data.Find("matrix"), acc.matrix.n,
                                /*sym=*/false,
                                std::span(acc.matrix.follow_counts));
  }
  static std::string Finish(const Request&, const Partial& x) {
    std::string text;
    AppendFollowText(text, Labels(x.domains), x.matrix);
    return text;
  }
};

/// Country co-reporting pair counts over an event range.
struct CountryCoreport {
  static constexpr std::string_view kName = "country-coreport";
  static constexpr bool kFiltered = false;
  struct Partial {
    std::vector<std::uint64_t> top;  ///< country ids
    analysis::CountryCoReport report;
  };

  static Partial Compute(const Part& p) {
    return {Widen(engine::CountriesByPublishedArticles(p.db, p.r.top_k)),
            analysis::ComputeCountryCoReporting(p.db, p.events(), p.cancel)};
  }
  static void Encode(const Part&, const Partial& x, std::string& out) {
    out += "\"top\":";
    AppendIntArray(out, x.top);
    out += ",\"pairs\":";
    AppendCountMatrix(out, x.report.pair_counts, x.report.n, /*sym=*/true);
  }
  static Status Decode(const Request&, const JsonValue& data, bool first,
                       Partial& acc) {
    const std::size_t nc = Countries().size();
    std::vector<std::uint64_t> t;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "top", t));
    GDELT_RETURN_IF_ERROR(CheckCountryIds(t));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.top, std::move(t), "top"));
    if (first) {
      acc.report.n = nc;
      acc.report.pair_counts.assign(nc * nc, 0);
    }
    return ParseCountMatrixInto(data.Find("pairs"), nc, /*sym=*/true,
                                std::span(acc.report.pair_counts));
  }
  static std::string Finish(const Request&, const Partial& x) {
    std::string text;
    AppendCountryCoreportText(text, CountryIds(x.top), x.report);
    return text;
  }
};

/// Country cross-reporting over a mention range (time shards) and the
/// optional selection.
struct CrossReport {
  static constexpr std::string_view kName = "cross-report";
  static constexpr bool kFiltered = true;
  struct Partial {
    std::vector<std::uint64_t> reported;    ///< country ids (rows)
    std::vector<std::uint64_t> publishing;  ///< country ids (columns)
    engine::CountryCrossReport report;
  };

  static Partial Compute(const Part& p) {
    return {Widen(engine::CountriesByReportedEvents(p.db, p.r.top_k)),
            Widen(engine::CountriesByPublishedArticles(p.db, p.r.top_k)),
            engine::CountryCrossReporting(p.db, p.mentions(), p.sel,
                                          p.cancel)};
  }
  static void Encode(const Part&, const Partial& x, std::string& out) {
    const std::size_t nc = x.report.num_countries;
    // The frame ships each publisher's untagged articles: its total
    // minus the located cells of its column.
    std::vector<std::uint64_t> untagged = x.report.articles_per_publisher;
    for (std::size_t rep = 0; rep < nc; ++rep) {
      for (std::size_t pub = 0; pub < nc; ++pub) {
        untagged[pub] -= x.report.counts[rep * nc + pub];
      }
    }
    out += "\"reported\":";
    AppendIntArray(out, x.reported);
    out += ",\"publishing\":";
    AppendIntArray(out, x.publishing);
    out += ",\"counts\":";
    AppendCountMatrix(out, x.report.counts, nc, /*sym=*/false);
    out += ",\"untagged\":";
    AppendIntArray(out, untagged);
  }
  static Status Decode(const Request&, const JsonValue& data, bool first,
                       Partial& acc) {
    const std::size_t nc = Countries().size();
    std::vector<std::uint64_t> rep;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "reported", rep));
    std::vector<std::uint64_t> pub;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "publishing", pub));
    GDELT_RETURN_IF_ERROR(CheckCountryIds(rep));
    GDELT_RETURN_IF_ERROR(CheckCountryIds(pub));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.reported, std::move(rep),
                                     "reported"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.publishing, std::move(pub),
                                     "publishing"));
    // Rebuild this frame's histogram bins (matrix, then untagged) and
    // finish them as the kernel does.
    std::vector<std::uint64_t> bins(nc * nc + nc, 0);
    GDELT_RETURN_IF_ERROR(ParseCountMatrixInto(
        data.Find("counts"), nc, /*sym=*/false,
        std::span(bins).first(nc * nc)));
    std::vector<std::uint64_t> untagged;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "untagged", untagged));
    if (untagged.size() != nc) return FrameError("'untagged' length mismatch");
    std::copy(untagged.begin(), untagged.end(),
              bins.begin() + static_cast<std::ptrdiff_t>(nc * nc));
    auto frame = engine::CountryCrossReport::FromBins(nc, std::move(bins));
    if (first) {
      acc.report = std::move(frame);
      return Status::Ok();
    }
    for (std::size_t k = 0; k < nc * nc; ++k) {
      acc.report.counts[k] += frame.counts[k];
    }
    for (std::size_t c = 0; c < nc; ++c) {
      acc.report.articles_per_publisher[c] += frame.articles_per_publisher[c];
    }
    return Status::Ok();
  }
  static std::string Finish(const Request& r, const Partial& x) {
    std::string text;
    AppendCrossReportText(text, CountryIds(x.reported),
                          CountryIds(x.publishing), x.report, r.restricted);
    return text;
  }
};

/// Table VIII rows of the top sources a partition owns (source id % of)
/// and the Fig 10 quarters it owns (quarter % of): whole-source and
/// whole-quarter floats that must not be split.
struct Delay {
  static constexpr std::string_view kName = "delay";
  static constexpr bool kFiltered = false;
  struct Partial {
    std::vector<std::uint64_t> top;
    std::vector<std::string_view> domains;     ///< per top source
    std::vector<analysis::DelayStats> stats;   ///< per top source
    analysis::QuarterlyDelay quarterly;
  };

  static Partial Compute(const Part& p) {
    const auto top = engine::TopSourcesByArticles(p.db, p.r.top_k);
    std::vector<std::uint32_t> owned;
    for (const std::uint32_t s : top) {
      if (p.Owns(s)) owned.push_back(s);
    }
    const auto owned_stats =
        analysis::PerSourceDelayStats(p.db, owned, p.cancel);
    Partial x{Widen(top), DomainsOf(p.db, top),
              std::vector<analysis::DelayStats>(top.size()),
              analysis::QuarterlyDelayStats(p.db, p.shard, p.of, p.cancel)};
    for (std::size_t k = 0, j = 0; k < top.size(); ++k) {
      if (p.Owns(top[k])) x.stats[k] = owned_stats[j++];
    }
    return x;
  }
  static void Encode(const Part& p, const Partial& x, std::string& out) {
    out += "\"top\":";
    AppendIntArray(out, x.top);
    out += ",\"domains\":";
    AppendStringArray(out, x.domains);
    // Owned Table VIII rows, as parallel arrays over `slots`.
    std::vector<std::uint64_t> slots;
    std::vector<std::uint64_t> count;
    std::vector<std::int64_t> min;
    std::vector<std::int64_t> max;
    std::vector<double> avg;
    std::vector<std::int64_t> median;
    for (std::size_t k = 0; k < x.top.size(); ++k) {
      if (!p.Owns(x.top[k])) continue;
      const analysis::DelayStats& st = x.stats[k];
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
    // Owned Fig 10 quarters.
    const analysis::QuarterlyDelay& quarterly = x.quarterly;
    Appendf(out, ",\"q_first\":%lld,\"q_count\":%zu",
            static_cast<long long>(quarterly.first_quarter),
            quarterly.average.size());
    std::vector<std::uint64_t> q_slots;
    std::vector<double> q_avg;
    std::vector<std::int64_t> q_median;
    for (std::size_t q = 0; q < quarterly.average.size(); ++q) {
      if (!p.Owns(q)) continue;
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
  static Status Decode(const Request&, const JsonValue& data, bool first,
                       Partial& acc) {
    std::vector<std::uint64_t> t;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "top", t));
    std::vector<std::string_view> dom;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "domains", dom));
    if (first) acc.stats.assign(t.size(), analysis::DelayStats{});
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.top, std::move(t), "top"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.domains, std::move(dom),
                                     "domains"));
    std::vector<std::uint64_t> slots;
    std::vector<std::uint64_t> count;
    std::vector<std::int64_t> min;
    std::vector<std::int64_t> max;
    std::vector<double> avg;
    std::vector<std::int64_t> median;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "slots", slots));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "count", count));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "min", min));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "max", max));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "avg", avg));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "median", median));
    if (count.size() != slots.size() || min.size() != slots.size() ||
        max.size() != slots.size() || avg.size() != slots.size() ||
        median.size() != slots.size()) {
      return FrameError("delay slot array length mismatch");
    }
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (slots[k] >= acc.stats.size()) {
        return FrameError("delay slot out of range");
      }
      analysis::DelayStats& st = acc.stats[slots[k]];
      st.article_count = count[k];
      st.min = min[k];
      st.max = max[k];
      st.average = avg[k];
      st.median = median[k];
    }
    const JsonValue* qf = data.Find("q_first");
    if (qf == nullptr || !qf->is_number()) {
      return FrameError("missing 'q_first'");
    }
    std::int64_t q_first = acc.quarterly.first_quarter;
    GDELT_RETURN_IF_ERROR(CarryCheck(first, q_first, qf->AsInt(), "q_first"));
    std::uint64_t qc = 0;
    GDELT_RETURN_IF_ERROR(TakeU64Field(data, "q_count", qc));
    std::uint64_t q_count = acc.quarterly.average.size();
    GDELT_RETURN_IF_ERROR(CarryCheck(first, q_count, std::move(qc),
                                     "q_count"));
    // q_count arrives in the frame and sizes two quarterly arrays; a
    // hostile 2^63 value would be an OOM, so bound it to a span no real
    // dataset approaches before allocating.
    if (q_count > kMaxQuarterSlots) {
      return FrameError("quarterly span too large");
    }
    if (first) {
      acc.quarterly.first_quarter = static_cast<QuarterId>(q_first);
      acc.quarterly.average.assign(q_count, 0.0);
      acc.quarterly.median.assign(q_count, 0);
    }
    std::vector<std::uint64_t> q_slots;
    std::vector<double> q_avg;
    std::vector<std::int64_t> q_median;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "q_slots", q_slots));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "q_avg", q_avg));
    GDELT_RETURN_IF_ERROR(TakeVec(data, "q_median", q_median));
    if (q_avg.size() != q_slots.size() || q_median.size() != q_slots.size()) {
      return FrameError("quarterly slot array length mismatch");
    }
    for (std::size_t k = 0; k < q_slots.size(); ++k) {
      if (q_slots[k] >= acc.quarterly.average.size()) {
        return FrameError("quarterly slot out of range");
      }
      acc.quarterly.average[q_slots[k]] = q_avg[k];
      acc.quarterly.median[q_slots[k]] = q_median[k];
    }
    return Status::Ok();
  }
  static std::string Finish(const Request&, const Partial& x) {
    std::string text;
    AppendDelayText(text, Labels(x.domains), x.stats, x.quarterly);
    return text;
  }
};

/// First-reporter counters over an event range; the ranking happens at
/// Finish.
struct FirstReports {
  static constexpr std::string_view kName = "first-reports";
  static constexpr bool kFiltered = false;
  struct Partial {
    analysis::FirstReportStats stats;
    std::vector<std::uint64_t> articles;  ///< per source id
    SourceDomains domains;
    std::uint64_t num_events = 0;
  };

  static Partial Compute(const Part& p) {
    const auto articles = engine::ArticlesPerSource(p.db);
    return {analysis::ComputeFirstReports(p.db, p.events(),
                                          /*histogram_bins=*/18, p.cancel),
            {articles.begin(), articles.end()}, SourceDomains(p.db),
            p.db.num_events()};
  }
  static void Encode(const Part&, const Partial& x, std::string& out) {
    out += "\"breaks\":";
    AppendIntArray(out, x.stats.first_reports);
    out += ",\"repeat_articles\":";
    AppendIntArray(out, x.stats.repeat_articles);
    Appendf(out, ",\"within_hour\":%llu",
            static_cast<unsigned long long>(
                x.stats.events_broken_within_hour));
    out += ",\"articles\":";
    AppendIntArray(out, x.articles);
    out += ",\"domains\":";
    AppendStringArray(out, x.domains);
    Appendf(out, ",\"num_events\":%llu",
            static_cast<unsigned long long>(x.num_events));
  }
  static Status Decode(const Request&, const JsonValue& data, bool first,
                       Partial& acc) {
    std::vector<std::uint64_t> br;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "breaks", br));
    std::vector<std::uint64_t> ra;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "repeat_articles", ra));
    std::uint64_t wh = 0;
    GDELT_RETURN_IF_ERROR(TakeU64Field(data, "within_hour", wh));
    std::vector<std::uint64_t> art;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "articles", art));
    std::vector<std::string_view> dom;
    GDELT_RETURN_IF_ERROR(TakeVec(data, "domains", dom));
    std::uint64_t ne = 0;
    GDELT_RETURN_IF_ERROR(TakeU64Field(data, "num_events", ne));
    if (br.size() != ra.size()) {
      return FrameError("breaks/repeat_articles length mismatch");
    }
    auto& breaks = acc.stats.first_reports;
    auto& repeats = acc.stats.repeat_articles;
    if (first) {
      breaks.assign(br.size(), 0);
      repeats.assign(ra.size(), 0);
    } else if (br.size() != breaks.size()) {
      return status::Internal("shard partials disagree on 'breaks' size");
    }
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.articles, std::move(art),
                                     "articles"));
    GDELT_RETURN_IF_ERROR(CarryCheck(first, acc.domains.decoded(),
                                     std::move(dom), "domains"));
    GDELT_RETURN_IF_ERROR(
        CarryCheck(first, acc.num_events, std::move(ne), "num_events"));
    if (acc.articles.size() != breaks.size() ||
        acc.domains.size() != breaks.size()) {
      return FrameError("first-reports array length mismatch");
    }
    for (std::size_t s = 0; s < br.size(); ++s) {
      breaks[s] += br[s];
      repeats[s] += ra[s];
    }
    acc.stats.events_broken_within_hour += wh;
    return Status::Ok();
  }
  static std::string Finish(const Request& r, const Partial& x) {
    const auto by_breaks = RankSources(x.stats.first_reports, r.top_k);
    std::vector<std::uint64_t> breaks;
    std::vector<std::uint64_t> articles;
    std::vector<double> rate_pct;
    for (const std::uint32_t s : by_breaks) {
      breaks.push_back(x.stats.first_reports[s]);
      articles.push_back(x.articles[s]);
      rate_pct.push_back(100.0 * x.stats.RepeatRate(s, x.articles[s]));
    }
    std::string text;
    AppendFirstReportsText(text, Labels(x.domains, by_breaks), breaks,
                           articles, rate_pct,
                           x.stats.events_broken_within_hour, x.num_events);
    return text;
  }
};

// ---------------------------------------------------------------------------
// Dispatch.

template <typename K>
std::string RenderKind(const Part& p) {
  return K::Finish(p.r, K::Compute(p));
}

template <typename K>
void FrameKind(const Part& p, std::string& out) {
  K::Encode(p, K::Compute(p), out);
}

template <typename K>
Result<std::string> MergeKind(const Request& r,
                              std::span<const JsonValue* const> frames) {
  typename K::Partial acc;
  bool first = true;
  for (const JsonValue* data : frames) {
    GDELT_RETURN_IF_ERROR(K::Decode(r, *data, first, acc));
    first = false;
  }
  return K::Finish(r, acc);
}

struct KindOps {
  std::string_view name;
  bool filtered;  ///< takes the request's mention filter
  std::string (*render)(const Part&);
  void (*frame)(const Part&, std::string&);
  Result<std::string> (*merge)(const Request&,
                               std::span<const JsonValue* const>);
};

template <typename K>
constexpr KindOps OpsOf() {
  return {K::kName, K::kFiltered, &RenderKind<K>, &FrameKind<K>,
          &MergeKind<K>};
}

constexpr KindOps kKinds[] = {
    OpsOf<TopSources>(),      OpsOf<TopEvents>(),   OpsOf<Coreport>(),
    OpsOf<Follow>(),          OpsOf<CountryCoreport>(),
    OpsOf<CrossReport>(),     OpsOf<Delay>(),       OpsOf<FirstReports>(),
};

Result<const KindOps*> FindKind(std::string_view kind) {
  for (const KindOps& ops : kKinds) {
    if (ops.name == kind) return &ops;
  }
  return status::InvalidArgument("query '" + std::string(kind) +
                                 "' does not decompose into partials");
}

/// The selection bitmap a kind computes over: the request's filter when
/// the kind takes one and the request restricts, else none.
std::optional<engine::SelectionBitmap> SelectionFor(
    const KindOps& ops, const engine::Database& db, const Request& r) {
  if (!ops.filtered || !r.restricted) return std::nullopt;
  return engine::SelectMentionsBitmap(db, r.filter);
}

}  // namespace

void SetPartialMatrixEncoding(PartialMatrixEncoding enc) noexcept {
  g_matrix_encoding = enc;
}

Result<RenderedQuery> RenderWhole(const engine::Database& db,
                                  const Request& r,
                                  const util::CancelToken* cancel) {
  GDELT_ASSIGN_OR_RETURN(const KindOps* ops, FindKind(r.kind));
  const auto sel = SelectionFor(*ops, db, r);
  RenderedQuery out;
  if (sel) {
    out.note = StrFormat("[filter selects %llu of %zu mentions]",
                         static_cast<unsigned long long>(sel->CountSet()),
                         db.num_mentions());
  }
  out.text = ops->render({db, r, sel ? &*sel : nullptr, cancel, 0, 1});
  return out;
}

Result<RenderedQuery> RenderPartialFrame(const engine::Database& db,
                                         const Request& r,
                                         parallel::Backend /*backend*/,
                                         const util::CancelToken* cancel) {
  GDELT_ASSIGN_OR_RETURN(const KindOps* ops, FindKind(r.kind));
  const auto sel = SelectionFor(*ops, db, r);
  RenderedQuery out;
  Appendf(out.text, "{\"v\":%d,\"kind\":", kPartialVersion);
  AppendJsonString(out.text, r.kind);
  Appendf(out.text, ",\"shard\":%u,\"of\":%u,\"data\":{", r.shard, r.of);
  ops->frame({db, r, sel ? &*sel : nullptr, cancel, r.shard, r.of}, out.text);
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
  GDELT_ASSIGN_OR_RETURN(const KindOps* ops, FindKind(r.kind));
  return ops->merge(r, data);
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
