// The query-kind registry and the partial-aggregate codec
// (docs/PROTOCOL.md, "Partial-aggregate execution"; DESIGN.md §5e).
//
// Every query kind is one QueryKindSpec in one table: name, scheduler
// lane, whether it takes the mention filter, whether the router scatters
// it, and its frame. Parsing, lane choice, the router's relay-vs-scatter
// choice, RenderQuery and the gdelt_query help all read that table.
//
// Each kind has one compute kernel, which takes its partition (an event
// range, a mention-row range with the request's selection bitmap, whole
// 1024-event tone blocks, or the source ids and quarters it owns,
// id % of), and one finish, which renders the partial. Its frame is an
// ordered list of named fields, each of one shape: a summed u64 vector or
// scalar, a summed count matrix, a carried value every frame repeats, an
// appended candidate list, or slot-owned rows. One encoder and one
// decoder per shape serve every kind, and the decoder enforces every
// frame bound.
//
// A single node renders partition 0 of 1 straight through the finish; a
// `"partial":true` request encodes partition `shard` of `of` as a
// versioned JSON frame; the router decodes and sums the frames into the
// same partial and calls the same finish. Routed output is therefore
// byte-identical to a single node's by construction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "engine/database.hpp"
#include "parallel/morsel.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace gdelt::serve {

/// Version stamped into every frame as `"v"`; the merger rejects frames
/// from a different protocol revision instead of mis-summing them.
inline constexpr int kPartialVersion = 1;

/// Upper bound on a frame's `of` (partition count). Matches the clamp
/// ParseRequest applies to the request-side `of`; a frame claiming more
/// partitions than any scatter can produce is hostile or corrupt, and
/// `of` sizes the merger's seen-shard table, so it must be bounded
/// before anything allocates from it.
inline constexpr std::int64_t kMaxPartitions = 4096;

/// Upper bound on the quarterly-delay span a frame may carry. GDELT
/// coverage is a few hundred quarters; 4096 (a millennium) is far past
/// any real dataset while keeping the merge-side `assign(q_count, ...)`
/// allocations bounded against hostile frames.
inline constexpr std::uint64_t kMaxQuarterSlots = 4096;

/// The scheduler lane a kind runs on. The whole-table matrix kernels can
/// monopolize the machine for seconds, so they run at batch priority and
/// the cheap interactive kinds keep their latency under load.
enum class Lane { kInteractive, kBatch };

/// A kind's frame fields, compute kernel and finish (partial.cpp).
struct KindFrame;

/// One query kind.
struct QueryKindSpec {
  std::string_view name;
  Lane lane;
  bool filtered;  ///< takes from/to/min_confidence; other kinds ignore them
  /// The router scatters the kind over its shards; it relays the others
  /// (stats, quarterly, tone) whole to one shard.
  bool scatter;
  const KindFrame& frame;
};

/// Every query kind, in the order the CLI lists them.
std::span<const QueryKindSpec> QueryKinds() noexcept;

/// The kind named `name`, or null.
const QueryKindSpec* FindQueryKind(std::string_view name) noexcept;

/// Count-matrix encoding inside a frame. Auto picks sparse when the
/// triple list is smaller than the dense payload; the explicit values
/// are a process-global test hook to pin down both paths.
enum class PartialMatrixEncoding { kAuto, kDense, kSparse };

/// Test hook: forces every subsequently rendered frame to use `enc`.
/// Not thread-safe against in-flight renders; set it before serving.
void SetPartialMatrixEncoding(PartialMatrixEncoding enc) noexcept;

/// Renders query `r.kind` whole (RenderQuery's path). A restricted
/// request of a kind that takes the filter gets the selection count as
/// its `note`. InvalidArgument for unknown kinds.
Result<RenderedQuery> RenderWhole(const engine::Database& db,
                                  const Request& r,
                                  const util::CancelToken* cancel = nullptr);

/// Computes partition `r.shard` of `r.of` of query `r.kind` and returns
/// the partial-result frame as `RenderedQuery::text` (a single JSON
/// object, no trailing newline). OkResponse splices it in unquoted.
/// `cancel` reaches the partial kernels; RenderQuery's enforcement
/// boundary discards a cancelled frame before it can be shipped.
/// `backend` is ignored; it stays so the callers in e2ebench/ compile.
Result<RenderedQuery> RenderPartialFrame(
    const engine::Database& db, const Request& r, parallel::Backend backend,
    const util::CancelToken* cancel = nullptr);

/// Merges shard frames (the parsed `"partial"` members of backend
/// responses, in any order) into the final rendered text. Validates the
/// version, kind, `of`, shard distinctness, every field's shape, length
/// and bound, and the carried fields (which every shard must agree on);
/// a carried mismatch means the shards answered over different data and
/// yields an internal error rather than a silently wrong merge. Frames
/// may cover only a subset of the shards (degraded mode); missing
/// additive contributions simply undercount, which the router reports
/// via `"partial_failure"`.
Result<std::string> MergePartialFrames(const Request& r,
                                       std::span<const JsonValue> frames);

/// Serializes the sub-request line the router sends to the backend that
/// owns partition `shard` of `of` (terminating '\n' included).
std::string BuildShardRequestLine(const Request& r, std::uint32_t shard,
                                  std::uint32_t of);

}  // namespace gdelt::serve
