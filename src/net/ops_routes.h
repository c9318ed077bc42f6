// Ops-plane routes: binds the observability surfaces (MetricsRegistry,
// FlightRecorder, EventLog, QueryService stats) to an AdminServer. The
// registered endpoints:
//
//   /          route index
//   /metrics   Prometheus exposition (RenderMetrics below)
//   /healthz   liveness — 200 while the process can answer at all
//   /readyz    readiness — 200 only when a dataset-backed service is
//              attached, accepting submissions, and the server isn't
//              draining; 503 with a reason otherwise
//   /statusz   build info, uptime, ServiceStats::ToString, epoch/swap state
//   /tracez    flight-recorder summaries + slow-query traces as JSON
//   /eventz    structured event journal as JSON
//
// Also home to the helpers the shell shares: `.metrics` renders what
// /metrics does, and `.trace save` and `.slowlog` follow the service's
// injected flight recorder — the same resolution the HTTP handlers use.
#ifndef OMEGA_NET_OPS_ROUTES_H_
#define OMEGA_NET_OPS_ROUTES_H_

#include <string>

namespace omega {

class AdminServer;
class EventLog;
class FlightRecorder;
class MetricsRegistry;
class QueryService;

struct OpsPlaneOptions {
  /// Registry /metrics renders before the service's; nullptr selects
  /// MetricsRegistry::Global().
  MetricsRegistry* metrics = nullptr;
  /// Flight recorder behind /tracez; nullable (renders an empty body).
  FlightRecorder* recorder = nullptr;
  /// Event journal behind /eventz; nullptr selects EventLog::Global().
  EventLog* events = nullptr;
  /// Service whose stats/readiness /statusz and /readyz report. Nullable
  /// (readiness is then 503 "no dataset attached"). Not owned: must outlive
  /// the server or be detached by shutting the server down first.
  QueryService* service = nullptr;
  /// Extra build/deploy identification rendered on /statusz.
  std::string build_info;
  /// Summaries /tracez returns from the recent ring (0 = all retained).
  size_t tracez_recent = 64;
};

/// Registers the routes above on `server` (call before Start()). Copies
/// `options` into the handlers; the pointed-to surfaces are borrowed.
void RegisterOpsRoutes(AdminServer* server, const OpsPlaneOptions& options);

/// Exposition of `base` (process self-metrics refreshed first), then of
/// `service`'s registry if that is another one: each family renders once.
std::string RenderMetrics(MetricsRegistry* base, const QueryService* service);

/// The service's attached flight recorder, or null when `service` is null
/// or records no flights.
FlightRecorder* EffectiveFlightRecorder(const QueryService* service);

/// Compiler/standard/build-mode identification line.
std::string BuildInfoString();

}  // namespace omega

#endif  // OMEGA_NET_OPS_ROUTES_H_
