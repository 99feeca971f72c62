// Query dispatch + text rendering shared by the gdelt_query CLI and the
// gdelt_serve daemon.
//
// The daemon's acceptance bar is byte-identical results to the CLI for
// every query kind, so both call this single renderer: the CLI prints
// `text` to stdout (and `note` to stderr), the server ships `text` in the
// response envelope and caches it. Everything here is read-only over the
// database, so any number of worker threads can render concurrently.
#pragma once

#include <string>

#include "engine/database.hpp"
#include "serve/protocol.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace gdelt::serve {

/// A rendered query result.
struct RenderedQuery {
  std::string text;  ///< exact bytes the gdelt_query CLI prints to stdout
  std::string note;  ///< side-channel diagnostics (CLI: stderr); may be empty
};

/// Dispatches `r.kind` to the engine/analysis kernels and renders the
/// result. Window/confidence restrictions apply to the same kinds they
/// apply to in the CLI (top-sources, cross-report, coreport); other kinds
/// ignore them, also like the CLI. Unknown kinds -> InvalidArgument.
///
/// `cancel` (optional) is threaded into every long-running kernel and
/// re-checked once after dispatch: a cancelled render returns
/// StatusCode::kCancelled and never leaks partially aggregated text —
/// the result is all-or-nothing by construction.
Result<RenderedQuery> RenderQuery(const engine::Database& db,
                                  const Request& r,
                                  const util::CancelToken* cancel = nullptr);

}  // namespace gdelt::serve
