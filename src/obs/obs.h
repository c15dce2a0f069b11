// Observability context: one MetricsRegistry plus one Tracer per stack.
//
// A stack's context is handed to its EventLoop at construction, and every
// component built on that loop (device, cache, file system, Duet, fault
// injector, tasks, workload) reads it from EventLoop::obs() and registers its
// metric handles then. The context must outlive the loop and every component
// built on it; two stacks with two contexts never report into each other.
//
//   obs::ObsContext ctx;
//   CowRig rig(stack, workload, ctx);   // all layers report into ctx
//   ...run...
//   uint64_t fp = ctx.trace.Fingerprint();
//
// CurrentObs and ObsScope are what is left of an ambient context: a
// process-wide pointer with scoped install semantics over a leaked default.
// Their one reader is Rig's default argument, which the frozen end-to-end
// benchmark still relies on; no component reads them.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace duet {
namespace obs {

struct ObsContext {
  MetricsRegistry metrics;
  Tracer trace;
};

// The currently installed context; never null (falls back to the process
// default).
ObsContext* CurrentObs();

// Installs `ctx` as current for this scope; restores the previous context on
// destruction. Scopes nest.
class ObsScope {
 public:
  explicit ObsScope(ObsContext* ctx);
  ~ObsScope();
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  ObsContext* prev_;
};

}  // namespace obs
}  // namespace duet

#endif  // SRC_OBS_OBS_H_
