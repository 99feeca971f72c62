// Partial-aggregate execution: the one code path of every decomposable
// query kind (docs/PROTOCOL.md, "Partial-aggregate execution").
//
// Each decomposable kind (top-sources, top-events, coreport, follow,
// country-coreport, cross-report, delay, first-reports) has exactly one
// compute kernel, which takes its partition, and one finish, which
// turns the kernel's typed partial into text. A partition is one of:
//   - an event range (SplitRange over event rows): top-events (local
//     top-k), coreport, follow, country-coreport, first-reports
//   - a mention-row range (time shards, since rows are in capture
//     order) with the request's optional selection bitmap:
//     top-sources, cross-report
//   - the slots a partition owns, strided (id % of): the top sources and
//     the quarters of delay, whose per-source and per-quarter floats are
//     computed whole and must not be split
// A single node is partition 0 of 1: RenderWhole hands the typed partial
// straight to the finish. A `"partial":true` request computes partition
// `shard` of `of` and answers with a versioned JSON frame of the raw
// partial; the router parses the frames, sums them into the same typed
// partial and calls the same finish. Routed output is therefore
// byte-identical to a single node's by construction. Every partial is an
// exact integer decomposition, or owns its floats whole. The
// order-dependent floating-point kinds (stats, quarterly, tone) do not
// decompose; the router sends those to a single shard whole.
#pragma once

#include <cstdint>
#include <span>
#include <string>

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

/// Count-matrix encoding inside a frame. Auto picks sparse when the
/// triple list is smaller than the dense payload; the explicit values
/// are a process-global test hook to pin down both paths.
enum class PartialMatrixEncoding { kAuto, kDense, kSparse };

/// Test hook: forces every subsequently rendered frame to use `enc`.
/// Not thread-safe against in-flight renders; set it before serving.
void SetPartialMatrixEncoding(PartialMatrixEncoding enc) noexcept;

/// Runs decomposable kind `r.kind` as partition 0 of 1 and renders the
/// result (RenderQuery's path for these kinds). A restricted request of a
/// kind that takes the filter gets the selection count as its `note`.
/// InvalidArgument for kinds that do not decompose.
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
/// version, kind, `of`, shard distinctness and the frame-carried global
/// fields (which every shard must agree on); a mismatch means the shards
/// answered over different data and yields an internal error rather than
/// a silently wrong merge. Frames may cover only a subset of the shards
/// (degraded mode); missing additive contributions simply undercount,
/// which the router reports via `"partial_failure"`.
Result<std::string> MergePartialFrames(const Request& r,
                                       std::span<const JsonValue> frames);

/// Serializes the sub-request line the router sends to the backend that
/// owns partition `shard` of `of` (terminating '\n' included).
std::string BuildShardRequestLine(const Request& r, std::uint32_t shard,
                                  std::uint32_t of);

}  // namespace gdelt::serve
