// Seeded trace-name violations: exactly TWO span names that break the
// area.verb convention.
#define TRACE_SPAN(name)

namespace fixture {

void Run() {
  TRACE_SPAN("Engine.TopSources");  // finding: uppercase
  TRACE_SPAN("standalone");         // finding: no dot
}

}  // namespace fixture
