#include "serve/partial.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/distributions.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "analysis/stats.hpp"
#include "analysis/tone.hpp"
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

// ---------------------------------------------------------------------------
// Partials: one column per frame field.

/// String elements as views: into the frames where a partial was merged,
/// into the database where it was computed. Strings(db) is every source's
/// domain in id order, looked up on demand, so a single node labels only
/// the sources it prints.
class Strings {
 public:
  Strings() = default;
  explicit Strings(const engine::Database& db) : db_(&db) {}

  std::size_t size() const {
    return db_ != nullptr ? db_->num_sources() : views_.size();
  }
  std::string_view operator[](std::size_t k) const {
    return db_ != nullptr ? db_->source_domain(static_cast<std::uint32_t>(k))
                          : views_[k];
  }
  std::vector<std::string_view>& views() { return views_; }

  /// Compares decoded strings (the only ones a merge carries).
  friend bool operator==(const Strings&, const Strings&) = default;

 private:
  const engine::Database* db_ = nullptr;
  std::vector<std::string_view> views_;
};

/// One field's value in a partial. `u` holds the numeric elements as
/// 64-bit words (kI64 as two's complement, kF64 as IEEE bits) and matrix
/// cells (row-major n*n, symmetric matrices mirrored); `s` holds string
/// elements.
struct Column {
  std::vector<std::uint64_t> u;
  Strings s;
  std::size_t n = 0;  ///< matrix dimension

  friend bool operator==(const Column&, const Column&) = default;
};

/// A kind's partial: column k is the value of frame field k.
using Partial = std::vector<Column>;

Strings DomainsOf(const engine::Database& db,
                  std::span<const std::uint32_t> ids) {
  Strings out;
  for (const std::uint32_t s : ids) out.views().push_back(db.source_domain(s));
  return out;
}

/// Text labels of every string, or of the ranked ids `ids`.
std::vector<std::string> Labels(const Strings& strings) {
  std::vector<std::string> out;
  for (std::size_t k = 0; k < strings.size(); ++k) {
    out.emplace_back(strings[k]);
  }
  return out;
}
std::vector<std::string> Labels(const Strings& strings,
                                std::span<const std::uint32_t> ids) {
  std::vector<std::string> out;
  for (const std::uint32_t s : ids) out.emplace_back(strings[s]);
  return out;
}

std::vector<CountryId> CountryIds(const std::vector<std::uint64_t>& ids) {
  return {ids.begin(), ids.end()};
}

// ---------------------------------------------------------------------------
// Frame fields.

/// How a field merges across the frames of one scatter.
enum class Shape : std::uint8_t {
  kSum,     ///< u64 vector (or scalar), summed element-wise
  kMatrix,  ///< n x n count matrix, summed; dense or sparse on the wire
  kCarry,   ///< a value every frame must repeat byte-for-byte
  kAppend,  ///< a candidate list: the frames' elements concatenated
  kSlots,   ///< slot-owned rows: each frame fills the rows it owns
};

enum class Elem : std::uint8_t { kU64, kI64, kF64, kStr };

/// Bounds on frame-carried values, checked before anything is sized from
/// them.
enum class Bound : std::uint8_t {
  kNone,
  kTopK,          ///< a matrix dimension: at most the request's top_k
  kCountry,       ///< every element is a country id
  kQuarter,       ///< a QuarterId that kMaxQuarterSlots quarters cannot
                  ///< overflow
  kQuarterSlots,  ///< at most kMaxQuarterSlots
  kToneBin,       ///< every element is below analysis::NumToneBins()
};

inline constexpr int kOwnLength = -1;  ///< the first frame fixes the length
inline constexpr int kCountries = -2;  ///< the length is Countries().size()

/// One named member of a frame's "data", in frame order.
struct Field {
  std::string_view name;
  Shape shape;
  Elem elem = Elem::kU64;
  /// The dimension this field's length (a matrix: its n) must equal: an
  /// earlier field's length, or its value when that field is a scalar;
  /// else kOwnLength or kCountries. A kSlots field whose dim is a carried
  /// field lists the slots a frame owns (each < that dimension); one
  /// whose dim is such a slot list holds the owned rows, in slot order.
  int dim = kOwnLength;
  Bound bound = Bound::kNone;
  bool scalar = false;  ///< kSum/kCarry: one number, not an array
  bool sym = false;     ///< kMatrix: only the upper triangle ships
};

bool IsSlotRows(std::span<const Field> fields, const Field& f) {
  return f.shape == Shape::kSlots && fields[f.dim].shape == Shape::kSlots;
}

/// What the decoder relies on: every dim names an earlier field, only
/// u64 fields are summed, matrix dimensions are bounded, slot lists index
/// a carried dimension, and a scalar that sizes rows carries a bound.
constexpr bool ValidFields(std::span<const Field> fields) {
  for (std::size_t k = 0; k < fields.size(); ++k) {
    const Field& f = fields[k];
    if (f.dim >= static_cast<int>(k)) return false;
    if ((f.shape == Shape::kSum || f.shape == Shape::kMatrix) &&
        f.elem != Elem::kU64) {
      return false;
    }
    if (f.shape == Shape::kMatrix && f.dim != kCountries &&
        f.bound != Bound::kTopK) {
      return false;
    }
    if (f.shape == Shape::kSlots &&
        (f.dim < 0 || (fields[f.dim].shape != Shape::kSlots &&
                       fields[f.dim].shape != Shape::kCarry))) {
      return false;
    }
    if (f.dim >= 0 && fields[f.dim].scalar &&
        fields[f.dim].bound == Bound::kNone) {
      return false;
    }
  }
  return true;
}

std::size_t Len(const Field& f, const Column& c) {
  return f.elem == Elem::kStr ? c.s.size() : c.u.size();
}

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }
double Double(std::uint64_t bits) { return std::bit_cast<double>(bits); }

// ---------------------------------------------------------------------------
// Encoding: one writer per shape.

void AppendElem(std::string& out, Elem elem, const Column& c, std::size_t k) {
  switch (elem) {
    case Elem::kU64:
      Appendf(out, "%llu", static_cast<unsigned long long>(c.u[k]));
      return;
    case Elem::kI64:
      Appendf(out, "%lld", static_cast<long long>(c.u[k]));
      return;
    case Elem::kF64:
      // %.17g round-trips every IEEE double through strtod, so the merged
      // averages re-parse to the exact bits the shard computed.
      Appendf(out, "%.17g", Double(c.u[k]));
      return;
    case Elem::kStr:
      AppendJsonString(out, c.s[k]);
      return;
  }
}

/// Emits a count matrix (full row-major n*n, symmetric matrices already
/// mirrored) as a frame matrix object. Symmetric matrices ship only the
/// upper triangle.
void AppendCountMatrix(std::string& out, const std::vector<std::uint64_t>& full,
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
  out += sparse ? "\"items\":[" : sym ? "\"tri\":[" : "\"cells\":[";
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = sym ? i : 0; j < n; ++j) {
      const auto v = static_cast<unsigned long long>(full[i * n + j]);
      if (sparse && v == 0) continue;
      if (!first) out += ',';
      first = false;
      if (sparse) {
        Appendf(out, "[%zu,%zu,%llu]", i, j, v);
      } else {
        Appendf(out, "%llu", v);
      }
    }
  }
  out += "]}";
}

/// Writes partial `x` as the members of a frame's "data". Slot rows ship
/// only the rows of the slots the partition owns.
void EncodeFrame(std::span<const Field> fields, const Partial& x,
                 std::string& out) {
  for (std::size_t k = 0; k < fields.size(); ++k) {
    const Field& f = fields[k];
    const Column& c = x[k];
    if (k) out += ',';
    out += '"';
    out += f.name;
    out += "\":";
    if (f.shape == Shape::kMatrix) {
      AppendCountMatrix(out, c.u, c.n, f.sym);
      continue;
    }
    if (f.scalar) {
      AppendElem(out, f.elem, c, 0);
      continue;
    }
    const std::vector<std::uint64_t>* slots =
        IsSlotRows(fields, f) ? &x[f.dim].u : nullptr;
    const std::size_t count = slots ? slots->size() : Len(f, c);
    out += '[';
    for (std::size_t i = 0; i < count; ++i) {
      if (i) out += ',';
      AppendElem(out, f.elem, c, slots ? (*slots)[i] : i);
    }
    out += ']';
  }
}

// ---------------------------------------------------------------------------
// Decoding: one reader per shape, and every frame bound.

Status FrameError(std::string what) {
  return status::InvalidArgument("bad partial frame: " + std::move(what));
}

/// A frame error about field `f`.
Status FieldError(const Field& f, const char* what) {
  return FrameError(StrFormat("'%.*s' %s", static_cast<int>(f.name.size()),
                              f.name.data(), what));
}

Status Disagree(const Field& f) {
  return status::Internal("shard partials disagree on '" +
                          std::string(f.name) +
                          "' (mixed data epochs behind the router?)");
}

/// A frame number as a 64-bit integer (signed ones as two's complement).
/// The range check comes first: casting an out-of-range double is
/// undefined.
Result<std::uint64_t> IntOf(const JsonValue& v, std::string_view what,
                            bool is_signed = false) {
  constexpr double kTwo63 = 9223372036854775808.0;
  const double d = v.AsNumber();
  if (!v.is_number() || !(d >= (is_signed ? -kTwo63 : 0.0) && d < kTwo63)) {
    return FrameError(StrFormat("'%.*s' must hold %s integers",
                                static_cast<int>(what.size()), what.data(),
                                is_signed ? "64-bit" : "non-negative"));
  }
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(d));
}

/// Member `key` of a frame object as a non-negative integer.
Result<std::uint64_t> IntMember(const JsonValue& object,
                                std::string_view key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) {
    return FrameError(StrFormat("missing '%.*s'", static_cast<int>(key.size()),
                                key.data()));
  }
  return IntOf(*v, key);
}

/// Parses member `f` of a frame's data into `c`; a scalar is read as a
/// one-element array. Strings stay views into the frame.
Status ParseField(const Field& f, const JsonValue& data, Column& c) {
  const JsonValue* v = data.Find(f.name);
  if (v == nullptr) return FieldError(f, "is missing");
  if (!f.scalar && v->kind() != JsonValue::Kind::kArray) {
    return FieldError(f, "must be an array");
  }
  const std::span<const JsonValue> elems =
      f.scalar ? std::span(v, 1) : std::span(v->elements());
  if (f.elem == Elem::kStr) {
    c.s.views().reserve(elems.size());
    for (const JsonValue& e : elems) {
      if (!e.is_string()) return FieldError(f, "must hold strings");
      c.s.views().push_back(e.AsString());
    }
    return Status::Ok();
  }
  c.u.reserve(elems.size());
  for (const JsonValue& e : elems) {
    if (f.elem == Elem::kF64) {
      if (!e.is_number()) return FieldError(f, "must hold numbers");
      c.u.push_back(Bits(e.AsNumber()));
    } else {
      GDELT_ASSIGN_OR_RETURN(const std::uint64_t x,
                             IntOf(e, f.name, f.elem == Elem::kI64));
      c.u.push_back(x);
    }
  }
  return Status::Ok();
}

/// Parses a frame matrix object and ADDS it into `acc` (row-major n*n).
/// A symmetric matrix's upper-triangle cells are added to both
/// triangles, so `acc` stays mirrored.
Status ParseCountMatrixInto(const JsonValue* m, std::size_t n, bool sym,
                            std::span<std::uint64_t> acc) {
  if (m == nullptr) return FrameError("missing matrix object");
  GDELT_ASSIGN_OR_RETURN(const std::uint64_t dim, IntMember(*m, "n"));
  if (dim != n) return FrameError("matrix dimension mismatch");
  const JsonValue* sv = m->Find("sym");
  if (sv == nullptr || !sv->is_bool() || sv->AsBool() != sym) {
    return FrameError("matrix symmetry mismatch");
  }
  const auto add = [&](std::size_t i, std::size_t j, std::uint64_t v) {
    acc[i * n + j] += v;
    if (sym && i != j) acc[j * n + i] += v;
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
                               IntOf(arr->elements()[at++], key));
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
                             IntOf(item.elements()[0], "items"));
      GDELT_ASSIGN_OR_RETURN(const std::uint64_t j,
                             IntOf(item.elements()[1], "items"));
      GDELT_ASSIGN_OR_RETURN(const std::uint64_t v,
                             IntOf(item.elements()[2], "items"));
      if (i >= n || j >= n || (sym && j < i)) {
        return FrameError("sparse item index out of range");
      }
      add(i, j, v);
    }
    return Status::Ok();
  }
  return FrameError("unknown matrix encoding '" + enc->AsString() + "'");
}

/// Checks field `f` (length `len`; a matrix: its dimension) against its
/// bound.
Status CheckBound(const Field& f, const Request& r, const Column& c,
                  std::size_t len) {
  switch (f.bound) {
    case Bound::kNone:
      return Status::Ok();
    case Bound::kTopK:
      // n*n sizes the accumulator matrix (top_k=100k would demand an
      // 80 GB allocation), and no honest shard reports more sources than
      // the request asked for.
      if (len > r.top_k) {
        return FieldError(f, "larger than requested top_k");
      }
      return Status::Ok();
    case Bound::kCountry:
      for (const std::uint64_t id : c.u) {
        if (id >= Countries().size()) {
          return FrameError("country id out of range");
        }
      }
      return Status::Ok();
    case Bound::kQuarter: {
      // The finish labels quarters first + q for q < kMaxQuarterSlots.
      const auto q = static_cast<std::int64_t>(c.u[0]);
      if (q < std::numeric_limits<QuarterId>::min() ||
          q > std::numeric_limits<QuarterId>::max() -
                  static_cast<std::int64_t>(kMaxQuarterSlots)) {
        return FrameError("quarter out of range");
      }
      return Status::Ok();
    }
    case Bound::kQuarterSlots:
      // It sizes the quarterly rows; a hostile 2^62 would be an OOM.
      if (c.u[0] > kMaxQuarterSlots) {
        return FrameError("quarterly span too large");
      }
      return Status::Ok();
    case Bound::kToneBin:
      for (const std::uint64_t bin : c.u) {
        if (bin >= analysis::NumToneBins()) {
          return FrameError("tone bin out of range");
        }
      }
      return Status::Ok();
  }
  return Status::Ok();
}

/// Parses one frame's data and merges it into `acc` (`first`: nothing
/// merged yet). Each field is parsed, tied to its dimension, checked
/// against its bound, then merged by its shape.
Status DecodeFrame(std::span<const Field> fields, const Request& r,
                   const JsonValue& data, bool first, Partial& acc) {
  Partial cur(fields.size());
  // This frame's length of each field, or a scalar's value.
  std::vector<std::size_t> dims(fields.size(), 0);
  const auto dim_of = [&dims](int d) {
    return d == kCountries ? Countries().size()
                           : dims[static_cast<std::size_t>(d)];
  };
  for (std::size_t k = 0; k < fields.size(); ++k) {
    const Field& f = fields[k];
    Column& c = cur[k];
    Column& a = acc[k];
    if (f.shape == Shape::kMatrix) {
      const std::size_t n = dim_of(f.dim);
      if (Status s = CheckBound(f, r, c, n); !s.ok()) return s;
      if (first) {
        a.n = n;
        a.u.assign(n * n, 0);
      } else if (a.n != n) {
        return Disagree(f);
      }
      GDELT_RETURN_IF_ERROR(
          ParseCountMatrixInto(data.Find(f.name), n, f.sym, std::span(a.u)));
      continue;
    }
    GDELT_RETURN_IF_ERROR(ParseField(f, data, c));
    const std::size_t len = Len(f, c);
    dims[k] = f.scalar ? c.u[0] : len;
    const bool slot_list = f.shape == Shape::kSlots && !IsSlotRows(fields, f);
    if (f.dim != kOwnLength && !slot_list && len != dim_of(f.dim)) {
      return FieldError(f, "length does not match its dimension");
    }
    GDELT_RETURN_IF_ERROR(CheckBound(f, r, c, len));
    switch (f.shape) {
      case Shape::kSum:
        if (first) {
          a = std::move(c);
        } else if (a.u.size() != len) {
          return Disagree(f);
        } else {
          for (std::size_t i = 0; i < len; ++i) a.u[i] += c.u[i];
        }
        break;
      case Shape::kCarry:
        if (first) {
          a = std::move(c);
        } else if (a != c) {
          return Disagree(f);
        }
        break;
      case Shape::kAppend:
        a.u.insert(a.u.end(), c.u.begin(), c.u.end());
        a.s.views().insert(a.s.views().end(), c.s.views().begin(),
                           c.s.views().end());
        break;
      case Shape::kSlots: {
        if (slot_list) {
          for (const std::uint64_t slot : c.u) {
            if (slot >= dim_of(f.dim)) {
              return FieldError(f, "slot out of range");
            }
          }
          break;  // stays in `cur` for the rows that follow
        }
        const std::vector<std::uint64_t>& slots = cur[f.dim].u;
        if (first) {
          // gdelt-astcheck: allow(bounded-alloc) — the rows number a
          // carried array's length, or a scalar with a Bound (ValidFields).
          a.u.assign(dim_of(fields[f.dim].dim), 0);
        }
        for (std::size_t i = 0; i < slots.size(); ++i) a.u[slots[i]] = c.u[i];
        break;
      }
      case Shape::kMatrix:
        break;
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// The query kinds. Each declares its frame fields and two steps:
//   Compute  runs the kind's one kernel over a partition;
//   Finish   renders a partial, computed whole or decoded and summed from
//            frames, as the query's text.
// A single node is Finish(Compute(partition 0 of 1)); a shard is
// EncodeFrame(Compute(partition k of n)); the router is Finish of the
// DecodeFrame sum. So routed output equals single-node output by
// construction.

/// Table I's counts, carried, and the event-size histogram of an event
/// range; Finish fits the power law on the merged histogram.
struct Stats {
  enum { kSources, kEvents, kIntervals, kArticles, kSizes, kCounts };
  static constexpr Field kFields[] = {
      {.name = "sources", .shape = Shape::kCarry, .scalar = true},
      {.name = "events", .shape = Shape::kCarry, .scalar = true},
      {.name = "intervals", .shape = Shape::kCarry, .scalar = true},
      {.name = "articles", .shape = Shape::kCarry, .scalar = true},
      {"sizes", Shape::kAppend},
      {"counts", Shape::kAppend, Elem::kU64, kSizes},
  };

  static Partial Compute(const Part& p) {
    Partial x(std::size(kFields));
    x[kSources].u = {p.db.num_sources()};
    x[kEvents].u = {p.db.num_events()};
    x[kIntervals].u = {analysis::CaptureIntervals(p.db)};
    x[kArticles].u = {p.db.num_mentions()};
    for (const auto& [size, count] :
         analysis::EventSizeDistribution(p.db, p.events(), p.cancel)) {
      x[kSizes].u.push_back(size);
      x[kCounts].u.push_back(count);
    }
    return x;
  }
  static std::string Finish(const Request&, Partial x) {
    analysis::EventSizes sizes;
    for (std::size_t k = 0; k < x[kSizes].u.size(); ++k) {
      sizes[x[kSizes].u[k]] += x[kCounts].u[k];
    }
    std::string text =
        analysis::ComputeDatasetStatistics(
            {x[kSources].u[0], x[kEvents].u[0], x[kIntervals].u[0],
             x[kArticles].u[0]},
            sizes)
            .ToText();
    Appendf(text, "Event-size power-law alpha (MLE, xmin=2): %.2f\n",
            analysis::PowerLawAlpha(sizes, 2));
    return text;
  }
};

/// Articles per source over a mention range (time shards) and the
/// optional selection; the ranking happens at Finish.
struct TopSources {
  enum { kCounts, kDomains };
  static constexpr Field kFields[] = {
      {"counts", Shape::kSum},
      {"domains", Shape::kCarry, Elem::kStr, kCounts},
  };

  static Partial Compute(const Part& p) {
    Partial x(std::size(kFields));
    x[kCounts].u =
        engine::ArticlesPerSource(p.db, p.mentions(), p.sel, p.cancel);
    x[kDomains].s = Strings(p.db);
    return x;
  }
  static std::string Finish(const Request& r, Partial x) {
    const std::vector<std::uint64_t>& counts = x[kCounts].u;
    const auto ids =
        r.restricted ? RankSources(counts, r.top_k)
                     : engine::RankByCount<std::uint32_t>(counts, r.top_k);
    std::vector<std::uint64_t> ranked;
    for (const std::uint32_t s : ids) ranked.push_back(counts[s]);
    std::string text;
    AppendTopSourcesText(text, Labels(x[kDomains].s, ids), ranked,
                         r.restricted);
    return text;
  }
};

/// Local top-k over an event range; the union of the local lists holds
/// the global top k.
struct TopEvents {
  enum { kRows, kArticles, kUrls };
  static constexpr Field kFields[] = {
      {"rows", Shape::kAppend},
      {"articles", Shape::kAppend, Elem::kU64, kRows},
      {"urls", Shape::kAppend, Elem::kStr, kRows},
  };

  static Partial Compute(const Part& p) {
    Partial x(std::size(kFields));
    for (const auto& ev :
         engine::TopReportedEvents(p.db, p.r.top_k, p.events())) {
      x[kRows].u.push_back(ev.event_row);
      x[kArticles].u.push_back(ev.articles);
      x[kUrls].s.views().push_back(p.db.event_source_url(ev.event_row));
    }
    return x;
  }
  static std::string Finish(const Request& r, Partial x) {
    struct Candidate {
      std::uint64_t event_row;
      std::uint64_t articles;
      std::string_view url;
    };
    engine::TopEventsSelector<Candidate> top(r.top_k);
    for (std::size_t k = 0; k < x[kRows].u.size(); ++k) {
      top.Offer({x[kRows].u[k], x[kArticles].u[k], x[kUrls].s[k]});
    }
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

/// Figs 3-5: the active sources and articles of the quarters a partition
/// owns (quarter % of), and the events per quarter of an event range.
struct Quarterly {
  enum { kQFirst, kQCount, kQSlots, kActive, kArticles, kEvents };
  static constexpr Field kFields[] = {
      {.name = "q_first", .shape = Shape::kCarry, .elem = Elem::kI64,
       .bound = Bound::kQuarter, .scalar = true},
      {.name = "q_count", .shape = Shape::kCarry,
       .bound = Bound::kQuarterSlots, .scalar = true},
      {"q_slots", Shape::kSlots, Elem::kU64, kQCount},
      {"active", Shape::kSlots, Elem::kU64, kQSlots},
      {"articles", Shape::kSlots, Elem::kU64, kQSlots},
      {"events", Shape::kSum, Elem::kU64, kQCount},
  };

  static Partial Compute(const Part& p) {
    auto activity = engine::QuarterlyActivity(p.db, p.shard, p.of, p.cancel);
    Partial x(std::size(kFields));
    x[kQFirst].u = {static_cast<std::uint64_t>(
        static_cast<std::int64_t>(activity.first_quarter))};
    x[kQCount].u = {activity.articles.size()};
    for (std::size_t q = 0; q < activity.articles.size(); ++q) {
      if (p.Owns(q)) x[kQSlots].u.push_back(q);
    }
    x[kActive].u = std::move(activity.active_sources);
    x[kArticles].u = std::move(activity.articles);
    x[kEvents].u =
        engine::EventsPerQuarter(p.db, p.events(), p.cancel).values;
    return x;
  }
  static std::string Finish(const Request&, Partial x) {
    const auto first =
        static_cast<QuarterId>(static_cast<std::int64_t>(x[kQFirst].u[0]));
    std::string text;
    AppendQuarterSeries(text, "Active sources per quarter (Fig 3):",
                        {first, std::move(x[kActive].u)});
    AppendQuarterSeries(text, "Events per quarter (Fig 4):",
                        {first, std::move(x[kEvents].u)});
    AppendQuarterSeries(text, "Articles per quarter (Fig 5):",
                        {first, std::move(x[kArticles].u)});
    return text;
  }
};

/// Co-reporting pair counts over an event range, among the top sources
/// (by the selection's article counts when restricted).
struct Coreport {
  enum { kSubset, kDomains, kMatrix };
  static constexpr Field kFields[] = {
      {"subset", Shape::kCarry},
      {"domains", Shape::kCarry, Elem::kStr, kSubset},
      {.name = "matrix", .shape = Shape::kMatrix, .dim = kSubset,
       .bound = Bound::kTopK, .sym = true},
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
    const auto matrix =
        analysis::ComputeCoReporting(p.db, top, p.events(), p.sel, options);
    Partial x(std::size(kFields));
    x[kSubset].u.assign(top.begin(), top.end());
    x[kDomains].s = DomainsOf(p.db, top);
    x[kMatrix].u.assign(matrix.counts().begin(), matrix.counts().end());
    x[kMatrix].n = matrix.size();
    return x;
  }
  static std::string Finish(const Request& r, Partial x) {
    analysis::CoReportMatrix matrix(x[kMatrix].n);
    std::transform(x[kMatrix].u.begin(), x[kMatrix].u.end(),
                   matrix.mutable_counts().begin(), [](std::uint64_t v) {
                     return static_cast<std::uint32_t>(v);
                   });
    std::string text;
    AppendCoreportText(text, Labels(x[kDomains].s), matrix, r.restricted);
    return text;
  }
};

/// Follow-reporting counts over an event range among the top sources.
struct Follow {
  enum { kSubset, kDomains, kArticles, kMatrix };
  static constexpr Field kFields[] = {
      {"subset", Shape::kCarry},
      {"domains", Shape::kCarry, Elem::kStr, kSubset},
      {"articles", Shape::kCarry, Elem::kU64, kSubset},
      {"matrix", Shape::kMatrix, Elem::kU64, kSubset, Bound::kTopK},
  };

  static Partial Compute(const Part& p) {
    const auto top = engine::TopSourcesByArticles(p.db, p.r.top_k);
    auto matrix =
        analysis::ComputeFollowReporting(p.db, top, p.events(), p.cancel);
    Partial x(std::size(kFields));
    x[kSubset].u.assign(top.begin(), top.end());
    x[kDomains].s = DomainsOf(p.db, top);
    x[kArticles].u = std::move(matrix.articles);
    x[kMatrix].u = std::move(matrix.follow_counts);
    x[kMatrix].n = matrix.n;
    return x;
  }
  static std::string Finish(const Request&, Partial x) {
    analysis::FollowReportMatrix matrix;
    matrix.n = x[kMatrix].n;
    matrix.follow_counts = std::move(x[kMatrix].u);
    matrix.articles = std::move(x[kArticles].u);
    std::string text;
    AppendFollowText(text, Labels(x[kDomains].s), matrix);
    return text;
  }
};

/// Country co-reporting pair counts over an event range.
struct CountryCoreport {
  enum { kTop, kPairs };
  static constexpr Field kFields[] = {
      {"top", Shape::kCarry, Elem::kU64, kOwnLength, Bound::kCountry},
      {.name = "pairs", .shape = Shape::kMatrix, .dim = kCountries,
       .sym = true},
  };

  static Partial Compute(const Part& p) {
    const auto top = engine::CountriesByPublishedArticles(p.db, p.r.top_k);
    auto report =
        analysis::ComputeCountryCoReporting(p.db, p.events(), p.cancel);
    Partial x(std::size(kFields));
    x[kTop].u.assign(top.begin(), top.end());
    x[kPairs].u = std::move(report.pair_counts);
    x[kPairs].n = report.n;
    return x;
  }
  static std::string Finish(const Request&, Partial x) {
    analysis::CountryCoReport report;
    report.n = x[kPairs].n;
    report.pair_counts = std::move(x[kPairs].u);
    std::string text;
    AppendCountryCoreportText(text, CountryIds(x[kTop].u), report);
    return text;
  }
};

/// Country cross-reporting over a mention range (time shards) and the
/// optional selection.
struct CrossReport {
  enum { kReported, kPublishing, kCounts, kUntagged };
  static constexpr Field kFields[] = {
      {"reported", Shape::kCarry, Elem::kU64, kOwnLength, Bound::kCountry},
      {"publishing", Shape::kCarry, Elem::kU64, kOwnLength, Bound::kCountry},
      {"counts", Shape::kMatrix, Elem::kU64, kCountries},
      {"untagged", Shape::kSum, Elem::kU64, kCountries},
  };

  static Partial Compute(const Part& p) {
    auto report =
        engine::CountryCrossReporting(p.db, p.mentions(), p.sel, p.cancel);
    const std::size_t nc = report.num_countries;
    Partial x(std::size(kFields));
    const auto reported = engine::CountriesByReportedEvents(p.db, p.r.top_k);
    const auto publishing =
        engine::CountriesByPublishedArticles(p.db, p.r.top_k);
    x[kReported].u.assign(reported.begin(), reported.end());
    x[kPublishing].u.assign(publishing.begin(), publishing.end());
    // The frame ships each publisher's untagged articles: its total
    // minus the located cells of its column.
    x[kUntagged].u = std::move(report.articles_per_publisher);
    for (std::size_t rep = 0; rep < nc; ++rep) {
      for (std::size_t pub = 0; pub < nc; ++pub) {
        x[kUntagged].u[pub] -= report.counts[rep * nc + pub];
      }
    }
    x[kCounts].u = std::move(report.counts);
    x[kCounts].n = nc;
    return x;
  }
  static std::string Finish(const Request& r, Partial x) {
    // The histogram bins are the matrix, then the untagged articles;
    // finish them as the kernel does.
    std::vector<std::uint64_t> bins = std::move(x[kCounts].u);
    bins.insert(bins.end(), x[kUntagged].u.begin(), x[kUntagged].u.end());
    const auto report =
        engine::CountryCrossReport::FromBins(x[kCounts].n, std::move(bins));
    std::string text;
    AppendCrossReportText(text, CountryIds(x[kReported].u),
                          CountryIds(x[kPublishing].u), report,
                          r.restricted);
    return text;
  }
};

/// Table VIII rows of the top sources a partition owns (source id % of)
/// and the Fig 10 quarters it owns (quarter % of): whole-source and
/// whole-quarter floats that must not be split.
struct Delay {
  enum {
    kTop, kDomains,
    kSlots, kCount, kMin, kMax, kAvg, kMedian,
    kQFirst, kQCount,
    kQSlots, kQAvg, kQMedian,
  };
  static constexpr Field kFields[] = {
      {"top", Shape::kCarry},
      {"domains", Shape::kCarry, Elem::kStr, kTop},
      {"slots", Shape::kSlots, Elem::kU64, kTop},
      {"count", Shape::kSlots, Elem::kU64, kSlots},
      {"min", Shape::kSlots, Elem::kI64, kSlots},
      {"max", Shape::kSlots, Elem::kI64, kSlots},
      {"avg", Shape::kSlots, Elem::kF64, kSlots},
      {"median", Shape::kSlots, Elem::kI64, kSlots},
      {.name = "q_first", .shape = Shape::kCarry, .elem = Elem::kI64,
       .bound = Bound::kQuarter, .scalar = true},
      {.name = "q_count", .shape = Shape::kCarry,
       .bound = Bound::kQuarterSlots, .scalar = true},
      {"q_slots", Shape::kSlots, Elem::kU64, kQCount},
      {"q_avg", Shape::kSlots, Elem::kF64, kQSlots},
      {"q_median", Shape::kSlots, Elem::kI64, kQSlots},
  };

  static Partial Compute(const Part& p) {
    const auto top = engine::TopSourcesByArticles(p.db, p.r.top_k);
    std::vector<std::uint32_t> owned;
    for (const std::uint32_t s : top) {
      if (p.Owns(s)) owned.push_back(s);
    }
    const auto stats = analysis::PerSourceDelayStats(p.db, owned, p.cancel);
    const auto quarterly =
        analysis::QuarterlyDelayStats(p.db, p.shard, p.of, p.cancel);
    Partial x(std::size(kFields));
    x[kTop].u.assign(top.begin(), top.end());
    x[kDomains].s = DomainsOf(p.db, top);
    for (const int rows : {kCount, kMin, kMax, kAvg, kMedian}) {
      x[rows].u.assign(top.size(), 0);  // 0 is also the bits of 0.0
    }
    for (std::size_t k = 0, j = 0; k < top.size(); ++k) {
      if (!p.Owns(top[k])) continue;
      const analysis::DelayStats& st = stats[j++];
      x[kSlots].u.push_back(k);
      x[kCount].u[k] = st.article_count;
      x[kMin].u[k] = static_cast<std::uint64_t>(st.min);
      x[kMax].u[k] = static_cast<std::uint64_t>(st.max);
      x[kAvg].u[k] = Bits(st.average);
      x[kMedian].u[k] = static_cast<std::uint64_t>(st.median);
    }
    x[kQFirst].u = {static_cast<std::uint64_t>(
        static_cast<std::int64_t>(quarterly.first_quarter))};
    x[kQCount].u = {quarterly.average.size()};
    for (std::size_t q = 0; q < quarterly.average.size(); ++q) {
      if (p.Owns(q)) x[kQSlots].u.push_back(q);
    }
    std::transform(quarterly.average.begin(), quarterly.average.end(),
                   std::back_inserter(x[kQAvg].u), Bits);
    x[kQMedian].u.assign(quarterly.median.begin(), quarterly.median.end());
    return x;
  }
  static std::string Finish(const Request&, Partial x) {
    const auto i64 = [](std::uint64_t v) {
      return static_cast<std::int64_t>(v);
    };
    std::vector<analysis::DelayStats> stats(x[kTop].u.size());
    for (std::size_t k = 0; k < stats.size(); ++k) {
      stats[k] = {x[kCount].u[k], i64(x[kMin].u[k]), i64(x[kMax].u[k]),
                  Double(x[kAvg].u[k]), i64(x[kMedian].u[k])};
    }
    analysis::QuarterlyDelay quarterly;
    quarterly.first_quarter = static_cast<QuarterId>(i64(x[kQFirst].u[0]));
    std::transform(x[kQAvg].u.begin(), x[kQAvg].u.end(),
                   std::back_inserter(quarterly.average), Double);
    for (const std::uint64_t m : x[kQMedian].u) {
      quarterly.median.push_back(i64(m));
    }
    std::string text;
    AppendDelayText(text, Labels(x[kDomains].s), stats, quarterly);
    return text;
  }
};

/// First-reporter counters over an event range; the ranking happens at
/// Finish.
struct FirstReports {
  enum { kBreaks, kRepeats, kWithinHour, kArticles, kDomains, kNumEvents };
  static constexpr Field kFields[] = {
      {"breaks", Shape::kSum},
      {"repeat_articles", Shape::kSum, Elem::kU64, kBreaks},
      {.name = "within_hour", .shape = Shape::kSum, .scalar = true},
      {"articles", Shape::kCarry, Elem::kU64, kBreaks},
      {"domains", Shape::kCarry, Elem::kStr, kBreaks},
      {.name = "num_events", .shape = Shape::kCarry, .scalar = true},
  };

  static Partial Compute(const Part& p) {
    auto stats = analysis::ComputeFirstReports(
        p.db, p.events(), /*histogram_bins=*/18, p.cancel);
    const auto articles = engine::ArticlesPerSource(p.db);
    Partial x(std::size(kFields));
    x[kBreaks].u = std::move(stats.first_reports);
    x[kRepeats].u = std::move(stats.repeat_articles);
    x[kWithinHour].u = {stats.events_broken_within_hour};
    x[kArticles].u.assign(articles.begin(), articles.end());
    x[kDomains].s = Strings(p.db);
    x[kNumEvents].u = {p.db.num_events()};
    return x;
  }
  static std::string Finish(const Request& r, Partial x) {
    analysis::FirstReportStats stats;
    stats.first_reports = std::move(x[kBreaks].u);
    stats.repeat_articles = std::move(x[kRepeats].u);
    const std::vector<std::uint64_t>& articles = x[kArticles].u;
    const auto by_breaks = RankSources(stats.first_reports, r.top_k);
    std::vector<std::uint64_t> breaks;
    std::vector<std::uint64_t> ranked_articles;
    std::vector<double> rate_pct;
    for (const std::uint32_t s : by_breaks) {
      breaks.push_back(stats.first_reports[s]);
      ranked_articles.push_back(articles[s]);
      rate_pct.push_back(100.0 * stats.RepeatRate(s, articles[s]));
    }
    std::string text;
    AppendFirstReportsText(text, Labels(x[kDomains].s, by_breaks), breaks,
                           ranked_articles, rate_pct, x[kWithinHour].u[0],
                           x[kNumEvents].u[0]);
    return text;
  }
};

/// Tone sums of the 1024-event blocks a partition owns: each block's
/// non-empty bins of the quad classes and of the carried top reported
/// countries. Finish adds them in block order, so a merge has the bits of
/// the whole run at any partition count.
struct Tone {
  enum { kReported, kBlock, kBin, kSum, kCount };
  static constexpr Field kFields[] = {
      {"reported", Shape::kCarry, Elem::kU64, kOwnLength, Bound::kCountry},
      {"block", Shape::kAppend},
      {"bin", Shape::kAppend, Elem::kU64, kBlock, Bound::kToneBin},
      {"sum", Shape::kAppend, Elem::kF64, kBlock},
      {"count", Shape::kAppend, Elem::kU64, kBlock},
  };

  static Partial Compute(const Part& p) {
    const auto reported = engine::CountriesByReportedEvents(p.db, p.r.top_k);
    Partial x(std::size(kFields));
    x[kReported].u.assign(reported.begin(), reported.end());
    for (const analysis::ToneEntry& e : analysis::ComputeToneBlocks(
             p.db, p.Of(analysis::NumToneBlocks(p.db)), reported, p.cancel)) {
      x[kBlock].u.push_back(e.block);
      x[kBin].u.push_back(e.bin);
      x[kSum].u.push_back(Bits(e.acc.sum));
      x[kCount].u.push_back(e.acc.count);
    }
    return x;
  }
  static std::string Finish(const Request&, Partial x) {
    std::vector<analysis::ToneEntry> entries;
    for (std::size_t k = 0; k < x[kBlock].u.size(); ++k) {
      entries.push_back({x[kBlock].u[k], x[kBin].u[k],
                         {Double(x[kSum].u[k]), x[kCount].u[k]}});
    }
    const auto bins = analysis::MergeToneBlocks(std::move(entries));
    static constexpr const char* kQuadNames[] = {
        "", "verbal cooperation", "material cooperation", "verbal conflict",
        "material conflict"};
    std::string text = "Average tone / Goldstein by CAMEO quad class:\n";
    for (std::size_t q = 1; q <= 4; ++q) {
      const analysis::MeanAccumulator& tone = bins[analysis::QuadToneBin(q)];
      Appendf(text, "  %-22s tone %+6.2f  goldstein %+6.2f  (%s events)\n",
              kQuadNames[q], tone.Mean(),
              bins[analysis::QuadGoldsteinBin(q)].Mean(),
              WithThousands(tone.count).c_str());
    }
    Appendf(text, "\nAverage event tone by located country:\n");
    for (const CountryId c : CountryIds(x[kReported].u)) {
      const analysis::MeanAccumulator& tone =
          bins[analysis::CountryToneBin(c)];
      Appendf(text, "  %-14s %+6.2f  (%s events)\n",
              std::string(CountryName(c)).c_str(), tone.Mean(),
              WithThousands(tone.count).c_str());
    }
    return text;
  }
};

}  // namespace

struct KindFrame {
  std::span<const Field> fields;
  Partial (*compute)(const Part&);
  std::string (*finish)(const Request&, Partial);
};

namespace {

template <typename K>
constexpr KindFrame FrameOf() {
  static_assert(ValidFields(K::kFields));
  return {K::kFields, &K::Compute, &K::Finish};
}

template <typename K>
constexpr KindFrame kFrame = FrameOf<K>();

constexpr Lane kInteractive = Lane::kInteractive;
constexpr Lane kBatch = Lane::kBatch;

// The registry. Batch-lane kinds are the whole-table matrix kernels. The
// router relays stats, quarterly and tone whole and scatters the rest.
constexpr QueryKindSpec kQueryKinds[] = {
    {"stats", kInteractive, false, false, kFrame<Stats>},
    {"top-sources", kInteractive, true, true, kFrame<TopSources>},
    {"top-events", kInteractive, false, true, kFrame<TopEvents>},
    {"quarterly", kInteractive, false, false, kFrame<Quarterly>},
    {"coreport", kBatch, true, true, kFrame<Coreport>},
    {"follow", kBatch, false, true, kFrame<Follow>},
    {"country-coreport", kBatch, false, true, kFrame<CountryCoreport>},
    {"cross-report", kInteractive, true, true, kFrame<CrossReport>},
    {"delay", kInteractive, false, true, kFrame<Delay>},
    {"tone", kInteractive, false, false, kFrame<Tone>},
    {"first-reports", kBatch, false, true, kFrame<FirstReports>},
};

Result<const QueryKindSpec*> KindOf(const std::string& kind) {
  const QueryKindSpec* spec = FindQueryKind(kind);
  if (spec == nullptr) {
    return status::InvalidArgument("unknown query '" + kind + "'");
  }
  return spec;
}

/// The selection bitmap a kind computes over: the request's filter when
/// the kind takes one and the request restricts, else none.
std::optional<engine::SelectionBitmap> SelectionFor(
    const QueryKindSpec& spec, const engine::Database& db, const Request& r) {
  if (!spec.filtered || !r.restricted) return std::nullopt;
  return engine::SelectMentionsBitmap(db, r.filter);
}

}  // namespace

std::span<const QueryKindSpec> QueryKinds() noexcept { return kQueryKinds; }

const QueryKindSpec* FindQueryKind(std::string_view name) noexcept {
  for (const QueryKindSpec& spec : kQueryKinds) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void SetPartialMatrixEncoding(PartialMatrixEncoding enc) noexcept {
  g_matrix_encoding = enc;
}

Result<RenderedQuery> RenderWhole(const engine::Database& db,
                                  const Request& r,
                                  const util::CancelToken* cancel) {
  GDELT_ASSIGN_OR_RETURN(const QueryKindSpec* spec, KindOf(r.kind));
  const auto sel = SelectionFor(*spec, db, r);
  RenderedQuery out;
  if (sel) {
    out.note = StrFormat("[filter selects %llu of %zu mentions]",
                         static_cast<unsigned long long>(sel->CountSet()),
                         db.num_mentions());
  }
  out.text = spec->frame.finish(
      r, spec->frame.compute({db, r, sel ? &*sel : nullptr, cancel, 0, 1}));
  return out;
}

Result<RenderedQuery> RenderPartialFrame(const engine::Database& db,
                                         const Request& r,
                                         parallel::Backend /*backend*/,
                                         const util::CancelToken* cancel) {
  GDELT_ASSIGN_OR_RETURN(const QueryKindSpec* spec, KindOf(r.kind));
  const auto sel = SelectionFor(*spec, db, r);
  const KindFrame& frame = spec->frame;
  RenderedQuery out;
  Appendf(out.text, "{\"v\":%d,\"kind\":", kPartialVersion);
  AppendJsonString(out.text, r.kind);
  Appendf(out.text, ",\"shard\":%u,\"of\":%u,\"data\":{", r.shard, r.of);
  EncodeFrame(frame.fields,
              frame.compute({db, r, sel ? &*sel : nullptr, cancel, r.shard,
                             r.of}),
              out.text);
  out.text += "}}";
  return out;
}

Result<std::string> MergePartialFrames(const Request& r,
                                       std::span<const JsonValue> frames) {
  if (frames.empty()) {
    return status::InvalidArgument("no partial frames to merge");
  }
  GDELT_ASSIGN_OR_RETURN(const QueryKindSpec* spec, KindOf(r.kind));
  const KindFrame& kind_frame = spec->frame;
  Partial acc(kind_frame.fields.size());
  // The partition count comes from the frames themselves (the merge is
  // run on behalf of the original, non-partial request): the first
  // frame pins it, the rest must agree — a mismatch means the frames
  // belong to different scatters.
  std::vector<bool> seen;
  bool first = true;
  for (const JsonValue& frame : frames) {
    const JsonValue* kind = frame.Find("kind");
    const JsonValue* data = frame.Find("data");
    if (kind == nullptr || data == nullptr || !data->is_object()) {
      return FrameError("frame needs a 'kind' and a 'data' object");
    }
    GDELT_ASSIGN_OR_RETURN(const std::uint64_t v, IntMember(frame, "v"));
    if (v != kPartialVersion) {
      return FrameError(StrFormat("unsupported frame version (want %d)",
                                  kPartialVersion));
    }
    if (kind->AsString() != r.kind) return FrameError("frame kind mismatch");
    // The request-side `of` is parse-clamped to kMaxPartitions, but this
    // one arrives inside the frame and sizes the seen-shard table — an
    // unbounded int64 here is an OOM on demand.
    GDELT_ASSIGN_OR_RETURN(const std::uint64_t of, IntMember(frame, "of"));
    if (of < 1 || of > kMaxPartitions) {
      return FrameError("frame 'of' outside 1 .. the partition limit");
    }
    if (seen.empty()) {
      seen.assign(of, false);
    } else if (of != seen.size()) {
      return FrameError("frame 'of' mismatch (mixed partition counts)");
    }
    GDELT_ASSIGN_OR_RETURN(const std::uint64_t shard,
                           IntMember(frame, "shard"));
    if (shard >= of) return FrameError("frame 'shard' out of range");
    if (seen[shard]) return FrameError("duplicate frame for one shard");
    seen[shard] = true;
    GDELT_RETURN_IF_ERROR(
        DecodeFrame(kind_frame.fields, r, *data, first, acc));
    first = false;
  }
  return kind_frame.finish(r, std::move(acc));
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
