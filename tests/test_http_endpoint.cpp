// Live introspection endpoint (src/telemetry/http_server.*): --listen spec
// parsing, the protocol subset (GET/HEAD, 404, 405, malformed requests),
// route dispatch, the standard /metrics and /healthz bodies, and stop()
// idempotence, through the raw-socket client in http_client.hpp.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/telemetry/http_server.hpp"
#include "src/telemetry/telemetry.hpp"
#include "tests/http_client.hpp"

namespace rubic::telemetry {
namespace {

using test::http_exchange;
using test::http_get;

TEST(ListenSpec, ParsesPortAndHostPortForms) {
  const auto bare = parse_listen_spec("9100");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->host, "127.0.0.1") << "bare port stays loopback";
  EXPECT_EQ(bare->port, 9100);
  const auto pair = parse_listen_spec("0.0.0.0:8080");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->host, "0.0.0.0");
  EXPECT_EQ(pair->port, 8080);
  const auto localhost = parse_listen_spec("localhost:7000");
  ASSERT_TRUE(localhost.has_value());
  EXPECT_EQ(localhost->host, "127.0.0.1");
  const auto ephemeral = parse_listen_spec("0");
  ASSERT_TRUE(ephemeral.has_value());
  EXPECT_EQ(ephemeral->port, 0);
}

TEST(ListenSpec, RejectsMalformedInput) {
  EXPECT_FALSE(parse_listen_spec("").has_value());
  EXPECT_FALSE(parse_listen_spec("notaport").has_value());
  EXPECT_FALSE(parse_listen_spec("70000").has_value());
  EXPECT_FALSE(parse_listen_spec("-1").has_value());
  EXPECT_FALSE(parse_listen_spec("example.com:80").has_value())
      << "no resolver: numeric hosts (or localhost) only";
  EXPECT_FALSE(parse_listen_spec("1.2.3:80").has_value());
  EXPECT_FALSE(parse_listen_spec("127.0.0.1:").has_value());
  EXPECT_FALSE(parse_listen_spec(":9100").has_value());
}

class HttpEndpointTest : public ::testing::Test {
 protected:
  // Port 0: the kernel assigns a free port, so parallel ctest shards never
  // collide; port() reports the real one.
  HttpEndpointTest() : server_(ListenSpec{"127.0.0.1", 0}) {
    server_.route("/ping", [] {
      HttpResponse r;
      r.body = "pong\n";
      return r;
    });
    server_.route("/healthz", [] { return healthz_response(); });
    server_.start();
  }

  HttpServer server_;
};

TEST_F(HttpEndpointTest, ServesRegisteredRoute) {
  const std::string response = http_get(server_.port(), "/ping");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 5"), std::string::npos);
  EXPECT_NE(response.find("pong\n"), std::string::npos);
  EXPECT_GE(server_.requests(), 1u);
}

TEST_F(HttpEndpointTest, HealthzAnswersOk) {
  const std::string response = http_get(server_.port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok\n"), std::string::npos);
}

TEST_F(HttpEndpointTest, QueryStringIsIgnoredForMatching) {
  const std::string response = http_get(server_.port(), "/ping?x=1&y=2");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
}

TEST_F(HttpEndpointTest, UnknownPathIs404) {
  const std::string response = http_get(server_.port(), "/nope");
  EXPECT_NE(response.find("404"), std::string::npos) << response;
}

TEST_F(HttpEndpointTest, PostIs405) {
  const std::string response = http_get(server_.port(), "/ping", "POST");
  EXPECT_NE(response.find("405"), std::string::npos) << response;
}

TEST_F(HttpEndpointTest, HeadReturnsHeadersWithoutBody) {
  const std::string response = http_get(server_.port(), "/ping", "HEAD");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(response.find("pong"), std::string::npos)
      << "HEAD must omit the body";
}

TEST_F(HttpEndpointTest, MalformedRequestLineIs400) {
  const std::string response =
      http_exchange(server_.port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
}

TEST_F(HttpEndpointTest, MetricsResponseIsPrometheusText) {
  Registry registry;
  registry.counter("http_test_events_total").add(3);
  registry.histogram("http_test_latency_us").observe(7);
  server_.route("/metrics", [&registry] { return metrics_response(registry); });
  const std::string response = http_get(server_.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(
      response.find("Content-Type: text/plain; version=0.0.4"),
      std::string::npos)
      << response;
  EXPECT_NE(response.find("# TYPE http_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("http_test_events_total 3"), std::string::npos);
  EXPECT_NE(response.find("http_test_latency_us_bucket"), std::string::npos);
}

TEST_F(HttpEndpointTest, RouteReplacementTakesEffect) {
  server_.route("/ping", [] {
    HttpResponse r;
    r.body = "pong2\n";
    return r;
  });
  const std::string response = http_get(server_.port(), "/ping");
  EXPECT_NE(response.find("pong2\n"), std::string::npos) << response;
}

TEST(HttpServerLifecycle, StopIsIdempotentAndSafeWithoutStart) {
  {
    HttpServer server(ListenSpec{"127.0.0.1", 0});
    server.stop();  // never started
    server.stop();
  }
  std::uint16_t port = 0;
  {
    HttpServer server(ListenSpec{"127.0.0.1", 0});
    server.route("/x", [] { return healthz_response(); });
    server.start();
    port = server.port();
    EXPECT_NE(http_get(port, "/x").find("200 OK"), std::string::npos);
    server.stop();
    server.stop();  // second stop is a no-op
  }
  // Destroyed: the listener is closed, so connections are refused.
  EXPECT_TRUE(http_get(port, "/x").empty());
}

TEST(HttpServerLifecycle, TwoServersCoexistOnDistinctPorts) {
  HttpServer a(ListenSpec{"127.0.0.1", 0});
  HttpServer b(ListenSpec{"127.0.0.1", 0});
  a.route("/who", [] {
    HttpResponse r;
    r.body = "a";
    return r;
  });
  b.route("/who", [] {
    HttpResponse r;
    r.body = "b";
    return r;
  });
  a.start();
  b.start();
  EXPECT_NE(a.port(), b.port());
  EXPECT_NE(http_get(a.port(), "/who").find("\r\n\r\na"), std::string::npos);
  EXPECT_NE(http_get(b.port(), "/who").find("\r\n\r\nb"), std::string::npos);
}

}  // namespace
}  // namespace rubic::telemetry
