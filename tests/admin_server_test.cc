// AdminServer unit tests driven through real loopback sockets: routing and
// query-string handling, 404/405/400/431 error paths, request accounting,
// double-Start rejection, graceful shutdown with a request in flight, and
// the ops plane's /metrics over a registry shared with the service.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "net/admin_server.h"
#include "net/http.h"
#include "net/ops_routes.h"
#include "obs/metrics.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "test_util.h"

namespace omega {
namespace {

/// Sends `raw` to 127.0.0.1:`port` and returns everything the server wrote
/// before closing the connection (the server speaks Connection: close).
std::string RawRoundTrip(uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buffer[1024];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string Get(uint16_t port, const std::string& target) {
  return RawRoundTrip(port, "GET " + target + " HTTP/1.1\r\n"
                            "Host: localhost\r\n\r\n");
}

TEST(AdminServerTest, RoutesDispatchAndQueryStringsAreStripped) {
  MetricsRegistry registry;
  AdminServerOptions options;
  options.metrics = &registry;
  AdminServer server(options);
  server.Route("/hello", "greeting", [](const HttpRequest& request) {
    HttpResponse response = TextResponse(200, "hello");
    if (!request.query.empty()) {
      response.body += " query=" + request.query + "\n";
    }
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  const std::string plain = Get(server.port(), "/hello");
  EXPECT_NE(plain.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(plain.find("hello"), std::string::npos);
  EXPECT_NE(plain.find("Connection: close"), std::string::npos);
  EXPECT_NE(plain.find("Content-Length:"), std::string::npos);

  // `?` is not part of the route path; the handler still sees the query.
  const std::string with_query = Get(server.port(), "/hello?verbose=1");
  EXPECT_NE(with_query.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(with_query.find("query=verbose=1"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(registry.GetCounter("omega_admin_requests_total")->Value(), 2u);
  server.Shutdown();
  EXPECT_FALSE(server.running());
}

TEST(AdminServerTest, UnknownPathIs404AndCounted) {
  MetricsRegistry registry;
  AdminServerOptions options;
  options.metrics = &registry;
  AdminServer server(options);
  server.Route("/known", "", [](const HttpRequest&) {
    return TextResponse(200, "ok");
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string reply = Get(server.port(), "/missing");
  EXPECT_NE(reply.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_EQ(registry.GetCounter("omega_admin_http_errors_total")->Value(),
            1u);
}

TEST(AdminServerTest, NonGetIs405WithAllowHeader) {
  AdminServer server;
  server.Route("/x", "", [](const HttpRequest&) {
    return TextResponse(200, "ok");
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string reply = RawRoundTrip(
      server.port(), "POST /x HTTP/1.1\r\nHost: h\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(reply.find("Allow: GET"), std::string::npos);
}

TEST(AdminServerTest, MalformedRequestLineIs400) {
  AdminServer server;
  ASSERT_TRUE(server.Start().ok());
  const std::string reply =
      RawRoundTrip(server.port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 400 Bad Request"), std::string::npos);
}

TEST(AdminServerTest, OversizedRequestLineIs431) {
  AdminServerOptions options;
  options.max_request_bytes = 128;
  AdminServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::string reply = RawRoundTrip(
      server.port(),
      "GET /" + std::string(4096, 'a') + " HTTP/1.1\r\nHost: h\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 431 "), std::string::npos);
}

TEST(AdminServerTest, SecondStartFailsFirstKeepsServing) {
  AdminServer server;
  server.Route("/x", "", [](const HttpRequest&) {
    return TextResponse(200, "still here");
  });
  ASSERT_TRUE(server.Start().ok());
  const Status again = server.Start();
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(Get(server.port(), "/x").find("still here"),
            std::string::npos);
}

TEST(AdminServerTest, ShutdownDrainsInFlightRequest) {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  AdminServer server;
  server.Route("/slow", "", [&](const HttpRequest&) {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return TextResponse(200, "drained");
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::string reply;
  std::thread client([&] { reply = Get(port, "/slow"); });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Shutdown begins while the handler is mid-request: draining() must flip
  // immediately, and the in-flight response must still complete.
  std::thread stopper([&] { server.Shutdown(); });
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.store(true, std::memory_order_release);
  stopper.join();
  client.join();

  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("drained"), std::string::npos);
  EXPECT_FALSE(server.running());

  // Idempotent: a second Shutdown is a no-op.
  server.Shutdown();
}

TEST(AdminServerTest, RoutesAreListedInRegistrationOrder) {
  AdminServer server;
  server.Route("/a", "first", [](const HttpRequest&) {
    return TextResponse(200, "");
  });
  server.Route("/b", "second", [](const HttpRequest&) {
    return TextResponse(200, "");
  });
  const std::vector<AdminServer::RouteInfo> routes = server.routes();
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].path, "/a");
  EXPECT_EQ(routes[0].description, "first");
  EXPECT_EQ(routes[1].path, "/b");
}

// When the ops plane and the service share one registry, /metrics renders
// it once: every family's # TYPE line appears exactly one time.
TEST(AdminServerTest, MetricsRendersEachFamilyOnceWithASharedRegistry) {
  MetricsRegistry registry;
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.metrics = &registry;
  QueryService service(
      Dataset::FromParts(omega::testing::MakeGraph({{"a", "knows", "b"}}),
                         std::nullopt),
      service_options);
  QueryRequest request;
  request.query = omega::testing::Qy("(?X) <- (?X, knows, ?Y)");
  ASSERT_TRUE(service.Execute(std::move(request)).status.ok());

  AdminServerOptions options;
  options.metrics = &registry;
  AdminServer server(options);
  OpsPlaneOptions ops;
  ops.metrics = &registry;
  ops.service = &service;
  RegisterOpsRoutes(&server, ops);
  ASSERT_TRUE(server.Start().ok());
  const std::string reply = Get(server.port(), "/metrics");
  server.Shutdown();

  EXPECT_NE(reply.find("omega_service_submitted_total 1"), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("omega_process_uptime_seconds"), std::string::npos);
  size_t families = 0;
  for (size_t at = reply.find("# TYPE "); at != std::string::npos;
       at = reply.find("# TYPE ", at + 1)) {
    const size_t name_end = reply.find(' ', at + 7);
    const std::string type_line = reply.substr(at, name_end - at + 1);
    EXPECT_EQ(reply.find(type_line, name_end), std::string::npos)
        << type_line << "rendered twice";
    ++families;
  }
  EXPECT_GT(families, 10u);
}

TEST(HttpParseTest, RequestLineParsing) {
  const Result<HttpRequest> ok =
      ParseRequestLine("GET /metrics?x=1 HTTP/1.1");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().method, "GET");
  EXPECT_EQ(ok.value().path, "/metrics");
  EXPECT_EQ(ok.value().query, "x=1");
  EXPECT_FALSE(ParseRequestLine("GET /x").ok());
  EXPECT_FALSE(ParseRequestLine("GET  /x HTTP/1.1").ok());
  EXPECT_FALSE(ParseRequestLine("GET /x SPDY/3").ok());
  EXPECT_FALSE(ParseRequestLine("GET x HTTP/1.1").ok());
}

}  // namespace
}  // namespace omega
