// Ambient observability context: one MetricsRegistry plus one Tracer,
// discoverable from anywhere in the stack without threading a pointer
// through every constructor.
//
// The simulation is single-threaded, so "ambient" is a plain pointer with
// scoped install semantics: a process-wide default context always exists,
// and a harness/test installs its own with an RAII ObsScope *before*
// constructing the stack. Components capture CurrentObs() (and register
// their metric handles) at construction time, so a context must outlive
// every component built under its scope.
//
//   obs::ObsContext ctx;
//   obs::ObsScope scope(&ctx);
//   CowRig rig(...);            // all layers report into ctx
//   ...run...
//   uint64_t fp = ctx.trace.Fingerprint();
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
