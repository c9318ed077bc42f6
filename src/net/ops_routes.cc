#include "net/ops_routes.h"

#include <cstdio>

#include "net/admin_server.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "service/query_service.h"

namespace omega {

namespace {

/// Readiness verdict shared by /readyz and /statusz: the empty string means
/// ready, anything else is the reason the instance must not receive load.
std::string NotReadyReason(const AdminServer* server,
                           const QueryService* service) {
  if (server->draining()) return "draining: admin server is shutting down";
  if (service == nullptr) return "no dataset-backed query service attached";
  if (!service->accepting()) return "query service is shutting down";
  return "";
}

}  // namespace

std::string RenderMetrics(MetricsRegistry* base, const QueryService* service) {
  // Self-metrics are pull-refreshed: the render is the poll.
  UpdateProcessSelfMetrics(base);
  std::string text = base->RenderText();
  if (service != nullptr && service->metrics_registry() != base) {
    text += service->metrics_registry()->RenderText();
  }
  return text;
}

FlightRecorder* EffectiveFlightRecorder(const QueryService* service) {
  return service != nullptr ? service->flight_recorder() : nullptr;
}

std::string BuildInfoString() {
  std::string info = "compiler: ";
#if defined(__clang__)
  info += "clang " __clang_version__;
#elif defined(__GNUC__)
  info += "gcc " __VERSION__;
#else
  info += "unknown";
#endif
  info += ", std: " + std::to_string(__cplusplus / 100 % 100);
#if defined(NDEBUG)
  info += ", asserts: off";
#else
  info += ", asserts: on";
#endif
  return info;
}

void RegisterOpsRoutes(AdminServer* server, const OpsPlaneOptions& options) {
  OpsPlaneOptions ops = options;  // resolved copy captured by the handlers
  if (ops.metrics == nullptr) ops.metrics = MetricsRegistry::Global();
  if (ops.events == nullptr) ops.events = EventLog::Global();
  if (ops.build_info.empty()) ops.build_info = BuildInfoString();

  server->Route("/", "route index", [server](const HttpRequest&) {
    std::string body = "omega admin server\n\nroutes:\n";
    for (const AdminServer::RouteInfo& route : server->routes()) {
      body += "  " + route.path;
      body.append(route.path.size() < 12 ? 12 - route.path.size() : 1, ' ');
      body += route.description + "\n";
    }
    return TextResponse(200, body);
  });

  server->Route(
      "/metrics", "Prometheus text exposition",
      [ops](const HttpRequest&) {
        HttpResponse response;
        response.content_type = "text/plain; version=0.0.4; charset=utf-8";
        response.body = RenderMetrics(ops.metrics, ops.service);
        return response;
      });

  server->Route("/healthz", "liveness probe", [](const HttpRequest&) {
    return TextResponse(200, "ok");
  });

  server->Route(
      "/readyz", "readiness probe (dataset availability + drain state)",
      [server, ops](const HttpRequest&) {
        const std::string reason = NotReadyReason(server, ops.service);
        if (reason.empty()) return TextResponse(200, "ready");
        return TextResponse(503, "not ready: " + reason);
      });

  server->Route(
      "/statusz", "build info, uptime, service stats, epoch/swap state",
      [server, ops](const HttpRequest&) {
        std::string body = "omega admin server\n";
        body += ops.build_info + "\n";
        char line[128];
        std::snprintf(line, sizeof(line), "uptime_s: %.1f\n",
                      ProcessUptimeSeconds());
        body += line;
        const std::string reason = NotReadyReason(server, ops.service);
        body += "ready: ";
        body += reason.empty() ? "yes" : ("no (" + reason + ")");
        body += "\n";
        if (ops.service != nullptr) {
          std::snprintf(line, sizeof(line),
                        "epoch: %llu  workers: %zu  queue_depth: %zu\n",
                        static_cast<unsigned long long>(
                            ops.service->dataset_epoch()),
                        ops.service->num_workers(),
                        ops.service->queue_depth());
          body += line;
          body += "\n";
          body += ops.service->stats().ToString();
        } else {
          body += "service: (none attached)\n";
        }
        if (ops.recorder != nullptr) {
          std::snprintf(
              line, sizeof(line),
              "\nflight recorder: %llu recorded, %llu slow "
              "(threshold %llu us)\n",
              static_cast<unsigned long long>(ops.recorder->recorded_total()),
              static_cast<unsigned long long>(ops.recorder->slow_total()),
              static_cast<unsigned long long>(
                  ops.recorder->slow_threshold_us()));
          body += line;
        }
        std::snprintf(line, sizeof(line), "events recorded: %llu\n",
                      static_cast<unsigned long long>(
                          ops.events->recorded_total()));
        body += line;
        return TextResponse(200, body);
      });

  server->Route(
      "/tracez", "recent + slow query flight records (JSON)",
      [ops](const HttpRequest&) {
        HttpResponse response;
        response.content_type = "application/json";
        response.body =
            ops.recorder != nullptr
                ? ops.recorder->ToJson(ops.tracez_recent, /*max_slow=*/0)
                : std::string(
                      "{\"recent\":[],\"slow\":[],\"recorded_total\":0,"
                      "\"slow_total\":0,\"slow_threshold_us\":0}");
        return response;
      });

  server->Route("/eventz", "structured event journal (JSON)",
                [ops](const HttpRequest&) {
                  HttpResponse response;
                  response.content_type = "application/json";
                  response.body = ops.events->ToJson(/*max_events=*/0);
                  return response;
                });
}

}  // namespace omega
