// admin_probe: one-shot in-band admin query against a live reo_server.
//
// Connects over the framed OSD wire, issues one ADMIN command (STATS /
// SERIES / EVENTS / HEALTH / OWNERS), prints the JSON reply, checks that
// it parses, and optionally asserts on it — the CI smoke job's probe. With
// --endpoints it probes every node of a cluster: each reply prints
// under a per-node header, assertions apply to every node, and a
// merged view (numeric fields summed across nodes) prints last.
// Examples:
//
//   admin_probe --port 9555 health
//   admin_probe --port-file port.txt stats
//   admin_probe --port-file port.txt --arg 10 series
//   admin_probe --endpoints 127.0.0.1:9555,127.0.0.1:9556 health
//   admin_probe --port 9555 --expect-zero counters.fault.crc_unrepaired stats
//
// Exit codes: 0 ok; 1 an --expect-zero value was nonzero; 2 usage /
// connect / protocol error (including status!=0 replies); 3 a reply is
// not valid JSON.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster_initiator.h"
#include "common/file_util.h"
#include "server/socket_initiator.h"
#include "telemetry/json_scan.h"
#include "telemetry/json_util.h"

using namespace reo;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] stats|series|events|health|owners\n"
      "  --host ADDR        server address (default 127.0.0.1)\n"
      "  --port N           server port\n"
      "  --port-file PATH   read the port from PATH (reo_server --port-file)\n"
      "  --endpoints LIST   probe every node of a cluster; LIST is\n"
      "                     host:port,host:port,... — prints per-node\n"
      "                     replies plus a merged (summed) view, and\n"
      "                     applies --expect-* to every node\n"
      "  --arg N            series: newest N windows; events: newest N\n"
      "                     events (default 0 = all retained)\n"
      "  --timeout-ms N     connect/receive deadline (default 5000)\n"
      "  --expect-zero PATH assert a numeric field is 0 or absent; PATH is\n"
      "                     section.metric (\"counters.server.crc_errors\")\n"
      "                     or a flat health field (\"crc_errors\");\n"
      "                     repeatable (exit 1 on violation)\n"
      "  --expect-sum SPEC  assert \"a+b=c\" over numeric fields (same PATH\n"
      "                     syntax; absent fields count as 0), e.g.\n"
      "                     counters.admit.graduated+counters.admit.dropped=\n"
      "                     counters.dram.evictions; repeatable (exit 1)\n"
      "  --quiet            suppress the JSON body on stdout\n",
      argv0);
}

/// Resolves an --expect-zero path: "section.rest" against an object-valued
/// `section` member first (metric names contain dots, so only the first
/// dot splits), then the whole path as one flat key at the root.
int ResolvePath(const JsonDoc& doc, const std::string& path) {
  size_t dot = path.find('.');
  if (dot != std::string::npos) {
    int section = doc.member(doc.root(), path.substr(0, dot));
    if (doc.is(section, JsonDoc::Type::kObject)) {
      int hit = doc.member(section, path.substr(dot + 1));
      if (hit != JsonDoc::kInvalid) return hit;
    }
  }
  return doc.member(doc.root(), path);
}

void AppendJsonNumber(std::string& out, double v) {
  char buf[40];
  // Counters are integral; keep them exact instead of drifting into
  // scientific notation past 1e6.
  if (std::floor(v) == v && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

/// Re-serializes one node of a parsed reply (the merged view needs to
/// echo sub-trees it cannot sum).
void EmitNode(const JsonDoc& doc, int node, std::string& out) {
  switch (doc.type(node)) {
    case JsonDoc::Type::kNull: out += "null"; break;
    case JsonDoc::Type::kBool: out += doc.boolean(node) ? "true" : "false"; break;
    case JsonDoc::Type::kNumber: AppendJsonNumber(out, doc.number(node)); break;
    case JsonDoc::Type::kString: AppendJsonString(out, doc.str(node)); break;
    case JsonDoc::Type::kArray:
      out += '[';
      for (size_t i = 0; i < doc.size(node); ++i) {
        if (i) out += ',';
        EmitNode(doc, doc.item(node, i), out);
      }
      out += ']';
      break;
    case JsonDoc::Type::kObject:
      out += '{';
      for (size_t i = 0; i < doc.size(node); ++i) {
        if (i) out += ',';
        AppendJsonString(out, doc.key(node, i));
        out += ':';
        EmitNode(doc, doc.value(node, i), out);
      }
      out += '}';
      break;
  }
}

/// Merges the same position across per-node replies: numbers sum,
/// objects recurse over the union of keys, scalars all nodes agree on
/// pass through, and anything else (arrays, disagreeing strings) emits
/// as a per-node column array so nothing is silently dropped.
void MergeEmit(const std::vector<JsonDoc>& docs, const std::vector<int>& nodes,
               std::string& out) {
  bool all_number = true, all_object = true, all_scalar_equal = true;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (nodes[i] == JsonDoc::kInvalid) continue;
    JsonDoc::Type t = docs[i].type(nodes[i]);
    if (t != JsonDoc::Type::kNumber) all_number = false;
    if (t != JsonDoc::Type::kObject) all_object = false;
    if (t == JsonDoc::Type::kArray || t == JsonDoc::Type::kObject) {
      all_scalar_equal = false;
    }
  }
  if (all_number) {
    double sum = 0;
    for (size_t i = 0; i < docs.size(); ++i) {
      if (nodes[i] != JsonDoc::kInvalid) sum += docs[i].number(nodes[i]);
    }
    AppendJsonNumber(out, sum);
    return;
  }
  if (all_object) {
    // Union of keys, first-seen order, so a metric present on only
    // some nodes still shows up in the merge.
    std::vector<std::string> keys;
    for (size_t i = 0; i < docs.size(); ++i) {
      if (nodes[i] == JsonDoc::kInvalid) continue;
      for (size_t k = 0; k < docs[i].size(nodes[i]); ++k) {
        const std::string& key = docs[i].key(nodes[i], k);
        bool seen = false;
        for (const std::string& have : keys) {
          if (have == key) { seen = true; break; }
        }
        if (!seen) keys.push_back(key);
      }
    }
    out += '{';
    for (size_t k = 0; k < keys.size(); ++k) {
      if (k) out += ',';
      AppendJsonString(out, keys[k]);
      out += ':';
      std::vector<int> children(docs.size(), JsonDoc::kInvalid);
      for (size_t i = 0; i < docs.size(); ++i) {
        if (nodes[i] != JsonDoc::kInvalid) {
          children[i] = docs[i].member(nodes[i], keys[k]);
        }
      }
      MergeEmit(docs, children, out);
    }
    out += '}';
    return;
  }
  if (all_scalar_equal) {
    int first_doc = -1;
    bool equal = true;
    for (size_t i = 0; i < docs.size(); ++i) {
      if (nodes[i] == JsonDoc::kInvalid) continue;
      if (first_doc < 0) {
        first_doc = static_cast<int>(i);
        continue;
      }
      const JsonDoc& a = docs[static_cast<size_t>(first_doc)];
      int an = nodes[static_cast<size_t>(first_doc)];
      if (docs[i].type(nodes[i]) != a.type(an) ||
          docs[i].str(nodes[i]) != a.str(an) ||
          docs[i].boolean(nodes[i]) != a.boolean(an)) {
        equal = false;
        break;
      }
    }
    if (first_doc >= 0 && equal) {
      EmitNode(docs[static_cast<size_t>(first_doc)],
               nodes[static_cast<size_t>(first_doc)], out);
      return;
    }
  }
  out += '[';
  bool first = true;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (nodes[i] == JsonDoc::kInvalid) continue;
    if (!first) out += ',';
    first = false;
    EmitNode(docs[i], nodes[i], out);
  }
  out += ']';
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string port_file;
  std::string endpoints_arg;
  uint16_t port = 0;
  uint32_t arg = 0;
  uint32_t timeout_ms = 5000;
  bool quiet = false;
  std::vector<std::string> expect_zero;
  std::vector<std::string> expect_sum;
  const char* op_name = nullptr;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) {
      host = next();
    } else if (!std::strcmp(argv[i], "--port")) {
      const char* v = next();
      std::optional<uint16_t> parsed = ParsePort(v);
      if (!parsed) {
        std::fprintf(stderr, "--port wants 0-65535, got %s\n", v);
        return 2;
      }
      port = *parsed;
    } else if (!std::strcmp(argv[i], "--port-file")) {
      port_file = next();
    } else if (!std::strcmp(argv[i], "--endpoints")) {
      endpoints_arg = next();
    } else if (!std::strcmp(argv[i], "--arg")) {
      arg = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--timeout-ms")) {
      timeout_ms = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--expect-zero")) {
      expect_zero.emplace_back(next());
    } else if (!std::strcmp(argv[i], "--expect-sum")) {
      expect_sum.emplace_back(next());
    } else if (!std::strcmp(argv[i], "--quiet")) {
      quiet = true;
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      Usage(argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
      return 2;
    } else if (op_name == nullptr) {
      op_name = argv[i];
    } else {
      std::fprintf(stderr, "more than one command: %s\n", argv[i]);
      return 2;
    }
  }
  if (op_name == nullptr) {
    Usage(argv[0]);
    return 2;
  }
  AdminOp op;
  if (!std::strcmp(op_name, "stats")) op = AdminOp::kStats;
  else if (!std::strcmp(op_name, "series")) op = AdminOp::kSeries;
  else if (!std::strcmp(op_name, "events")) op = AdminOp::kEvents;
  else if (!std::strcmp(op_name, "health")) op = AdminOp::kHealth;
  else if (!std::strcmp(op_name, "owners")) op = AdminOp::kOwners;
  else {
    std::fprintf(stderr, "unknown command %s\n", op_name);
    return 2;
  }
  std::vector<ClusterEndpoint> endpoints;
  if (!endpoints_arg.empty()) {
    endpoints = ParseClusterEndpoints(endpoints_arg);
    if (endpoints.empty()) {
      std::fprintf(stderr, "bad --endpoints list: %s\n", endpoints_arg.c_str());
      return 2;
    }
  } else {
    if (!port_file.empty()) {
      auto text = ReadFileToString(port_file);
      if (!text.ok()) {
        std::fprintf(stderr, "port file: %s\n",
                     text.status().to_string().c_str());
        return 2;
      }
      std::optional<uint16_t> parsed = ParsePort(*text);
      if (!parsed) {
        std::fprintf(stderr, "--port-file %s holds no port 0-65535\n",
                     port_file.c_str());
        return 2;
      }
      port = *parsed;
    }
    if (port == 0) {
      std::fprintf(stderr, "need --port, --port-file, or --endpoints\n");
      return 2;
    }
    endpoints.push_back(ClusterEndpoint{host, port});
  }
  const bool cluster = endpoints.size() > 1;

  // One parsed reply per node; a probe asserts the whole cluster, so any
  // connect / roundtrip / status failure is fatal, and so is a reply that
  // is not JSON: a probe that printed garbage has proven nothing.
  std::vector<JsonDoc> docs;
  for (size_t n = 0; n < endpoints.size(); ++n) {
    SocketInitiatorConfig cfg;
    cfg.connect_timeout_ms = timeout_ms;
    cfg.receive_timeout_ms = timeout_ms;
    SocketInitiator client(cfg);
    Status st = client.Connect(endpoints[n].host, endpoints[n].port);
    if (!st.ok()) {
      std::fprintf(stderr, "connect %s:%u: %s\n", endpoints[n].host.c_str(),
                   endpoints[n].port, st.to_string().c_str());
      return 2;
    }
    auto resp = client.AdminRoundtrip(op, arg);
    if (!resp.ok()) {
      std::fprintf(stderr, "node %zu %s failed: %s\n", n, op_name,
                   resp.status().to_string().c_str());
      return 2;
    }
    if (!quiet) {
      if (cluster) {
        std::printf("--- node %zu %s:%u ---\n", n, endpoints[n].host.c_str(),
                    endpoints[n].port);
      }
      std::printf("%s\n", resp->json.c_str());
    }
    if (resp->status != 0) {
      std::fprintf(stderr, "node %zu %s answered status %u: %s\n", n, op_name,
                   resp->status, resp->json.c_str());
      return 2;
    }
    JsonDoc::Error error;
    auto doc = JsonDoc::Parse(resp->json, &error);
    if (!doc) {
      std::fprintf(stderr,
                   "node %zu %s reply is not valid JSON at byte %zu: %s\n", n,
                   op_name, error.offset, error.reason.c_str());
      return 3;
    }
    docs.push_back(std::move(*doc));
  }

  if (cluster && !quiet) {
    std::vector<int> roots(docs.size(), 0);
    std::string merged;
    MergeEmit(docs, roots, merged);
    std::printf("--- merged (%zu nodes) ---\n%s\n", docs.size(),
                merged.c_str());
  }

  int violations = 0;
  for (size_t n = 0; n < docs.size(); ++n) {
    const JsonDoc& doc = docs[n];
    for (const std::string& path : expect_zero) {
      int node = ResolvePath(doc, path);
      if (node == JsonDoc::kInvalid) continue;  // never registered: zero
      double v = doc.number(node);
      if (v != 0.0) {
        std::fprintf(stderr, "node %zu expect-zero violated: %s = %g\n", n,
                     path.c_str(), v);
        ++violations;
      }
    }
    auto value_at = [&doc](const std::string& path) -> double {
      int node = ResolvePath(doc, path);
      return node == JsonDoc::kInvalid ? 0.0 : doc.number(node);
    };
    for (const std::string& spec : expect_sum) {
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bad --expect-sum spec (no '='): %s\n",
                     spec.c_str());
        return 2;
      }
      double lhs = 0.0;
      size_t start = 0;
      while (start <= eq) {
        size_t plus = spec.find('+', start);
        if (plus == std::string::npos || plus > eq) plus = eq;
        lhs += value_at(spec.substr(start, plus - start));
        start = plus + 1;
      }
      double rhs = value_at(spec.substr(eq + 1));
      if (lhs != rhs) {
        std::fprintf(stderr,
                     "node %zu expect-sum violated: %s (lhs %g != rhs %g)\n",
                     n, spec.c_str(), lhs, rhs);
        ++violations;
      }
    }
  }
  if (violations > 0) return 1;
  return 0;
}
