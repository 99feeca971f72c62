#include "serve/render.hpp"

#include "serve/partial.hpp"

namespace gdelt::serve {

Result<RenderedQuery> RenderQuery(const engine::Database& db,
                                  const Request& r,
                                  const util::CancelToken* cancel) {
  auto out = r.partial ? RenderPartialFrame(db, r,
                                            parallel::Backend::kMorselPool,
                                            cancel)
                       : RenderWhole(db, r, cancel);
  // Enforcement boundary: a kernel that observed the token mid-scan bailed
  // with a short count, so whatever it rendered is garbage. Re-check the
  // token here and replace the result wholesale — callers either get the
  // complete text or kCancelled, never a truncated aggregate.
  if (util::Cancelled(cancel)) {
    return status::Cancelled("query cancelled during execution");
  }
  return out;
}

}  // namespace gdelt::serve
