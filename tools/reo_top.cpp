// reo_top: live terminal dashboard for a running reo_server.
//
// Polls the in-band admin plane (HEALTH + STATS + SERIES) once per
// interval and redraws: serving status, per-window rates with sparklines,
// latency percentiles per op type, the paper's wear/miss ratios, and the
// per-stage latency attribution from sampled traces. Examples:
//
//   reo_top --port 9555
//   reo_top --port-file port.txt --interval-ms 500
//   reo_top --port-file port.txt --iterations 2 --plain   # CI / logs
//   reo_top --endpoints 127.0.0.1:9555,127.0.0.1:9556     # cluster view
//
// With --endpoints the dashboard switches to cluster mode: one column
// row per node (status, connections, requests, wire errors, ops/s) plus
// a merged totals row whose sparkline is the element-wise sum of the
// nodes' per-window rates. Down nodes render as "down" and are re-dialed
// every frame, so a killed node's recovery is visible live.
//
// Plain mode appends frames instead of redrawing in place, so the output
// is greppable. Exit code 0 after --iterations frames (or on server
// close), 2 on usage/connect errors.
#include <poll.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_initiator.h"
#include "common/flags.h"
#include "server/socket_initiator.h"
#include "telemetry/json_scan.h"

using namespace reo;

namespace {

/// Eight-level unicode sparkline of the last `width` values. NaN (empty
/// window) renders as a space.
std::string Sparkline(const std::vector<double>& v, size_t width) {
  static const char* kLevels[8] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
  size_t first = v.size() > width ? v.size() - width : 0;
  double hi = 0;
  for (size_t i = first; i < v.size(); ++i) {
    if (!std::isnan(v[i]) && v[i] > hi) hi = v[i];
  }
  std::string out;
  for (size_t i = first; i < v.size(); ++i) {
    if (std::isnan(v[i])) {
      out += ' ';
    } else {
      int level = hi > 0 ? static_cast<int>(v[i] / hi * 7.999) : 0;
      out += kLevels[level];
    }
  }
  return out;
}

/// 12.3k / 4.5M style humanized count.
std::string Human(double v) {
  char buf[32];
  if (std::isnan(v)) return "-";
  double a = std::fabs(v);
  if (a >= 1e9) std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  else if (a >= 1e6) std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  else if (a >= 1e3) std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  else std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

double LastOr(const std::vector<double>& v, double fallback) {
  for (size_t i = v.size(); i > 0; --i) {
    if (!std::isnan(v[i - 1])) return v[i - 1];
  }
  return fallback;
}

/// Pulls one series column out of a parsed SERIES reply.
std::vector<double> Column(const JsonDoc& doc, std::string_view name) {
  return doc.NumberArray(doc.Find({"series", name}));
}

double NumberAt(const JsonDoc& doc, std::initializer_list<std::string_view> p,
                double fallback = 0) {
  int node = doc.Find(p);
  return node == JsonDoc::kInvalid ? fallback : doc.number(node);
}

/// Element-wise sum of per-node series columns, aligned at the tail
/// (nodes restarted mid-run have shorter histories).
std::vector<double> SumTail(const std::vector<std::vector<double>>& cols) {
  size_t len = 0;
  for (const auto& c : cols) {
    if (c.size() > len) len = c.size();
  }
  std::vector<double> out(len, NAN);
  for (const auto& c : cols) {
    for (size_t i = 0; i < c.size(); ++i) {
      size_t j = len - c.size() + i;
      if (std::isnan(c[i])) continue;
      out[j] = std::isnan(out[j]) ? c[i] : out[j] + c[i];
    }
  }
  return out;
}

/// Cluster dashboard: one row per node plus a merged totals row. Nodes
/// that fail to connect or answer render as "down" and are re-dialed
/// next frame — the loop never exits just because a node died.
int RunClusterTop(const std::vector<ClusterEndpoint>& endpoints,
                  uint32_t interval_ms, uint64_t iterations, uint32_t width,
                  bool plain) {
  const size_t n = endpoints.size();
  std::vector<std::unique_ptr<SocketInitiator>> clients(n);
  for (uint64_t frame = 0; iterations == 0 || frame < iterations; ++frame) {
    struct Row {
      bool up = false;
      std::string status = "down";
      double uptime = NAN, conns = 0, requests = 0, responses = 0;
      double wire_errors = 0;
      double ops_rate = NAN;
      std::vector<double> ops_col;
    };
    std::vector<Row> rows(n);
    size_t up = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!clients[i]) {
        SocketInitiatorConfig cfg;
        cfg.connect_timeout_ms = 2000;
        cfg.receive_timeout_ms = 2000;
        auto c = std::make_unique<SocketInitiator>(cfg);
        if (c->Connect(endpoints[i].host, endpoints[i].port).ok()) {
          clients[i] = std::move(c);
        }
      }
      if (!clients[i]) continue;
      auto health = clients[i]->AdminRoundtrip(AdminOp::kHealth);
      auto series = clients[i]->AdminRoundtrip(AdminOp::kSeries, width);
      if (!health.ok() || health->status != 0) {
        clients[i].reset();  // re-dial next frame
        continue;
      }
      auto hdoc = JsonDoc::Parse(health->json);
      if (!hdoc) {
        clients[i].reset();
        continue;
      }
      Row& r = rows[i];
      r.up = true;
      ++up;
      r.status = hdoc->str(hdoc->member(hdoc->root(), "status"));
      r.uptime = NumberAt(*hdoc, {"uptime_ms"}, NAN);
      r.conns = NumberAt(*hdoc, {"connections"});
      r.requests = NumberAt(*hdoc, {"requests"});
      r.responses = NumberAt(*hdoc, {"responses"});
      r.wire_errors = NumberAt(*hdoc, {"crc_errors"}) +
                      NumberAt(*hdoc, {"frame_errors"}) +
                      NumberAt(*hdoc, {"decode_errors"});
      if (series.ok() && series->status == 0) {
        if (auto rdoc = JsonDoc::Parse(series->json)) {
          double window_ms = NumberAt(*rdoc, {"window_ms"}, 1000);
          double scale = window_ms > 0 ? 1000.0 / window_ms : 1.0;
          r.ops_col = Column(*rdoc, "server.requests");
          for (double& v : r.ops_col) v *= scale;
          r.ops_rate = LastOr(r.ops_col, NAN);
        }
      }
    }
    if (up == 0 && frame == 0) {
      std::fprintf(stderr, "no cluster node reachable\n");
      return 2;
    }

    if (!plain) std::printf("\x1b[2J\x1b[H");
    std::printf("reo_top — cluster %zu nodes, %zu up\n", n, up);
    std::printf("%-4s %-21s %-8s %9s %6s %9s %9s %5s %9s\n", "node",
                "endpoint", "status", "up(ms)", "conns", "reqs", "resps",
                "werr", "ops/s");
    Row sum;
    std::vector<std::vector<double>> ops_cols;
    for (size_t i = 0; i < n; ++i) {
      const Row& r = rows[i];
      char ep[64];
      std::snprintf(ep, sizeof(ep), "%s:%u", endpoints[i].host.c_str(),
                    endpoints[i].port);
      std::printf("%-4zu %-21s %-8s %9s %6.0f %9s %9s %5.0f %9s\n", i, ep,
                  r.status.c_str(), Human(r.uptime).c_str(), r.conns,
                  Human(r.requests).c_str(), Human(r.responses).c_str(),
                  r.wire_errors, Human(r.ops_rate).c_str());
      if (!r.up) continue;
      sum.conns += r.conns;
      sum.requests += r.requests;
      sum.responses += r.responses;
      sum.wire_errors += r.wire_errors;
      if (!r.ops_col.empty()) ops_cols.push_back(r.ops_col);
    }
    std::vector<double> merged_ops = SumTail(ops_cols);
    std::printf("%-4s %-21s %-8s %9s %6.0f %9s %9s %5.0f %9s  %s\n", "sum",
                "", up == n ? "all-up" : "degraded", "", sum.conns,
                Human(sum.requests).c_str(), Human(sum.responses).c_str(),
                sum.wire_errors, Human(LastOr(merged_ops, NAN)).c_str(),
                Sparkline(merged_ops, width).c_str());
    std::fflush(stdout);
    if (iterations == 0 || frame + 1 < iterations) {
      (void)poll(nullptr, 0, static_cast<int>(interval_ms));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string port_file;
  std::string endpoints_arg;
  uint16_t port = 0;
  uint32_t interval_ms = 1000;
  uint64_t iterations = 0;
  uint32_t width = 30;
  bool plain = false;

  FlagSet flags;
  flags.String("--host", "ADDR", "server address (default 127.0.0.1)", &host);
  flags.Uint("--port", "N", "server port", &port);
  flags.String("--port-file", "PATH", "read the port from PATH", &port_file);
  flags.String("--endpoints", "LIST",
               "cluster mode: host:port,... — per-node rows\n"
               "plus a merged totals row",
               &endpoints_arg);
  // poll() takes the interval as an int.
  flags.Uint("--interval-ms", "N", "poll/redraw interval (default 1000)",
             &interval_ms, {.max = INT32_MAX});
  flags.Uint("--iterations", "N",
             "frames to draw, 0 = until interrupted (default 0)",
             &iterations);
  flags.Uint("--windows", "N", "sparkline width in series windows (default 30)",
             &width);
  flags.Switch("--plain", "no ANSI clear; append frames (for CI logs)",
               &plain);
  flags.ParseOrExit(argc, argv);

  auto endpoints = ResolveEndpoints(endpoints_arg, host, port, port_file);
  if (!endpoints.ok()) {
    std::fprintf(stderr, "%s\n", endpoints.status().message().c_str());
    return 2;
  }
  if (endpoints->size() > 1) {
    return RunClusterTop(*endpoints, interval_ms, iterations, width, plain);
  }
  host = (*endpoints)[0].host;  // one endpoint: full detail view
  port = (*endpoints)[0].port;

  SocketInitiatorConfig cfg;
  cfg.connect_timeout_ms = 5000;
  cfg.receive_timeout_ms = 5000;
  SocketInitiator client(cfg);
  Status st = client.Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "connect %s:%u: %s\n", host.c_str(), port,
                 st.to_string().c_str());
    return 2;
  }

  for (uint64_t frame = 0; iterations == 0 || frame < iterations; ++frame) {
    auto health = client.AdminRoundtrip(AdminOp::kHealth);
    auto stats = client.AdminRoundtrip(AdminOp::kStats);
    auto series = client.AdminRoundtrip(AdminOp::kSeries, width);
    if (!health.ok() || !stats.ok() || !series.ok()) {
      const Status& bad = !health.ok()   ? health.status()
                          : !stats.ok() ? stats.status()
                                        : series.status();
      std::fprintf(stderr, "poll failed: %s\n", bad.to_string().c_str());
      return frame > 0 ? 0 : 2;  // server drained mid-watch: clean exit
    }
    auto hdoc = JsonDoc::Parse(health->json);
    auto sdoc = stats->status == 0 ? JsonDoc::Parse(stats->json)
                                   : std::nullopt;
    auto rdoc = series->status == 0 ? JsonDoc::Parse(series->json)
                                    : std::nullopt;
    if (!hdoc) {
      std::fprintf(stderr, "health reply did not parse\n");
      return 2;
    }

    if (!plain) std::printf("\x1b[2J\x1b[H");
    std::printf("reo_top — %s:%u   status=%s   up=%s ms   conns=%s\n",
                host.c_str(), port,
                hdoc->str(hdoc->member(hdoc->root(), "status")).c_str(),
                Human(NumberAt(*hdoc, {"uptime_ms"})).c_str(),
                Human(NumberAt(*hdoc, {"connections"})).c_str());
    std::printf("requests=%s responses=%s   wire errors: crc=%.0f frame=%.0f"
                " decode=%.0f\n",
                Human(NumberAt(*hdoc, {"requests"})).c_str(),
                Human(NumberAt(*hdoc, {"responses"})).c_str(),
                NumberAt(*hdoc, {"crc_errors"}),
                NumberAt(*hdoc, {"frame_errors"}),
                NumberAt(*hdoc, {"decode_errors"}));

    if (rdoc) {
      double window_ms = NumberAt(*rdoc, {"window_ms"}, 1000);
      double scale = window_ms > 0 ? 1000.0 / window_ms : 1.0;
      auto rate_row = [&](const char* label, std::string_view column,
                          double per_second_scale) {
        std::vector<double> v = Column(*rdoc, column);
        if (v.empty()) return;
        std::printf("  %-14s %8s/s  %s\n", label,
                    Human(LastOr(v, 0) * per_second_scale).c_str(),
                    Sparkline(v, width).c_str());
      };
      std::printf("\nper-window rates (window %.0f ms, %.0f skipped)\n",
                  window_ms, NumberAt(*rdoc, {"skipped_windows"}));
      rate_row("ops", "server.requests", scale);
      rate_row("bytes in", "server.bytes_in", scale);
      rate_row("bytes out", "server.bytes_out", scale);

      auto gauge_row = [&](const char* label, std::string_view column,
                           const char* unit) {
        std::vector<double> v = Column(*rdoc, column);
        if (v.empty()) return;
        std::printf("  %-14s %8s%s   %s\n", label,
                    Human(LastOr(v, NAN)).c_str(), unit,
                    Sparkline(v, width).c_str());
      };
      std::printf("latency (per window)\n");
      gauge_row("read p50", "server.latency.read_us.p50", "us");
      gauge_row("read p99", "server.latency.read_us.p99", "us");
      gauge_row("write p50", "server.latency.write_us.p50", "us");
      gauge_row("write p99", "server.latency.write_us.p99", "us");
      std::printf("ratios\n");
      gauge_row("read miss", "osd.read_miss_ratio", "  ");
      gauge_row("flash wr/op", "flash.writes_per_op", "  ");
      gauge_row("dram hit", "dram.hit_ratio", "  ");
    }

    if (sdoc) {
      // Stage attribution: mean microseconds per span, from the sampled
      // trace histograms. The transport row is the end-to-end envelope.
      int hists = sdoc->member(sdoc->root(), "histograms");
      if (hists != JsonDoc::kInvalid) {
        std::printf("\nstage attribution (sampled, mean us x count)\n");
        static const char* kStages[] = {
            "stage.transport.span_us",      "stage.osd_target.span_us",
            "stage.cache_manager.span_us",  "stage.data_plane.span_us",
            "stage.reconstruction.span_us", "stage.flash.span_us",
            "stage.backend.span_us"};
        for (const char* name : kStages) {
          int h = sdoc->member(hists, name);
          if (h == JsonDoc::kInvalid) continue;
          double count = NumberAt(*sdoc, {"histograms", name, "count"});
          if (count == 0) continue;
          std::printf("  %-30s %9.1f x %-8s (p99 %s)\n", name,
                      NumberAt(*sdoc, {"histograms", name, "mean"}),
                      Human(count).c_str(),
                      Human(NumberAt(*sdoc, {"histograms", name, "p99"}))
                          .c_str());
        }
      }
    }
    std::fflush(stdout);
    if (iterations == 0 || frame + 1 < iterations) {
      (void)poll(nullptr, 0, static_cast<int>(interval_ms));
    }
  }
  return 0;
}
