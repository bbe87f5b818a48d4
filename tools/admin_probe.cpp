// admin_probe: one-shot in-band admin query against a live reo_server.
//
// Connects over the framed OSD wire, issues one ADMIN command (STATS /
// SERIES / EVENTS / HEALTH / OWNERS), prints the JSON reply, checks that
// it parses, and optionally asserts on it — the CI smoke job's probe. With
// --endpoints it probes every node of a cluster: each reply prints
// under a per-node header, assertions apply to every node, and a
// merged view prints last: numeric fields sum across nodes, except that
// a histogram's max is the largest, its mean is sum / count, and its
// percentiles list each node's value.
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
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_initiator.h"
#include "common/flags.h"
#include "server/socket_initiator.h"
#include "telemetry/json_scan.h"
#include "telemetry/json_util.h"

using namespace reo;

namespace {

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

/// Emits the same position of every node that has it as one array, a
/// per-node column.
void EmitColumn(const std::vector<JsonDoc>& docs, const std::vector<int>& nodes,
                std::string& out) {
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

/// True for a STATS histogram summary ({count,mean,p50,p99,p999,max,sum}).
bool IsHistogram(const JsonDoc& doc, int node) {
  if (!doc.is(node, JsonDoc::Type::kObject)) return false;
  for (const char* key : {"count", "sum", "max", "mean", "p50"}) {
    if (!doc.is(doc.member(node, key), JsonDoc::Type::kNumber)) return false;
  }
  return true;
}

/// Sum of member `key` over every node that has it.
double SumMember(const std::vector<JsonDoc>& docs,
                 const std::vector<int>& nodes, const char* key) {
  double sum = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (nodes[i] != JsonDoc::kInvalid) {
      sum += docs[i].number(docs[i].member(nodes[i], key));
    }
  }
  return sum;
}

/// One field of a histogram summary, merged as the union of the nodes'
/// samples would read: count and sum add, max is the largest and mean is
/// sum / count. Percentiles do not merge from summaries, so p50, p99 and
/// p999 stay per node, as a column.
void MergeHistogramField(const std::vector<JsonDoc>& docs,
                         const std::vector<int>& histograms,
                         const std::vector<int>& fields, const std::string& key,
                         std::string& out) {
  if (key == "count" || key == "sum") {
    AppendJsonNumber(out, SumMember(docs, histograms, key.c_str()));
  } else if (key == "mean") {
    double count = SumMember(docs, histograms, "count");
    double sum = SumMember(docs, histograms, "sum");
    AppendJsonNumber(out, count > 0 ? sum / count : 0);
  } else if (key == "max") {
    double max = 0;
    for (size_t i = 0; i < docs.size(); ++i) {
      if (fields[i] != JsonDoc::kInvalid) {
        max = std::max(max, docs[i].number(fields[i]));
      }
    }
    AppendJsonNumber(out, max);
  } else {
    EmitColumn(docs, fields, out);
  }
}

/// Merges the same position across per-node replies: numbers sum,
/// histogram summaries merge field by field (MergeHistogramField),
/// objects recurse over the union of keys, scalars all nodes agree on
/// pass through, and anything else (arrays, disagreeing strings) emits
/// as a per-node column array so nothing is silently dropped.
void MergeEmit(const std::vector<JsonDoc>& docs, const std::vector<int>& nodes,
               std::string& out) {
  bool all_number = true, all_object = true, all_scalar_equal = true;
  bool all_histogram = true;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (nodes[i] == JsonDoc::kInvalid) continue;
    JsonDoc::Type t = docs[i].type(nodes[i]);
    if (t != JsonDoc::Type::kNumber) all_number = false;
    if (t != JsonDoc::Type::kObject) all_object = false;
    if (!IsHistogram(docs[i], nodes[i])) all_histogram = false;
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
      if (all_histogram) {
        MergeHistogramField(docs, nodes, children, keys[k], out);
      } else {
        MergeEmit(docs, children, out);
      }
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
  EmitColumn(docs, nodes, out);
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
  AdminOp op = AdminOp::kHealth;

  FlagSet flags;
  flags.Positional("stats|series|events|health|owners", "the admin command",
                   [&op](std::string_view v) {
                     for (AdminOp o : {AdminOp::kStats, AdminOp::kSeries,
                                       AdminOp::kEvents, AdminOp::kHealth,
                                       AdminOp::kOwners}) {
                       if (to_string(o) != v) continue;
                       op = o;
                       return std::string();
                     }
                     return FlagSet::Wants(
                         "stats|series|events|health|owners", v);
                   },
                   /*required=*/true);
  flags.String("--host", "ADDR", "server address (default 127.0.0.1)", &host);
  flags.Uint("--port", "N", "server port", &port);
  flags.String("--port-file", "PATH",
               "read the port from PATH (reo_server --port-file)", &port_file);
  flags.String("--endpoints", "LIST",
               "probe every node of host:port,...: per-node replies,\n"
               "a merged view, --expect-* on every node",
               &endpoints_arg);
  flags.Uint("--arg", "N",
             "stats: shard N-1 alone (0 = merged); series:\n"
             "newest N windows; events: newest N events\n"
             "(default 0 = all retained)",
             &arg);
  flags.Uint("--timeout-ms", "N", "connect/receive deadline (default 5000)",
             &timeout_ms);
  flags.Strings("--expect-zero", "PATH",
                "assert a section.metric (counters.server.crc_errors)\n"
                "or flat health field (crc_errors) is 0 or absent\n"
                "(exit 1 if not); repeatable",
                &expect_zero);
  flags.Strings("--expect-sum", "SPEC",
                "assert \"a+b=c\" over such fields, absent ones 0, e.g.\n"
                "counters.admit.graduated+counters.admit.dropped=\n"
                "counters.dram.evictions (exit 1 if not); repeatable",
                &expect_sum);
  flags.Switch("--quiet", "suppress the JSON body on stdout", &quiet);
  flags.ParseOrExit(argc, argv);
  const std::string op_name(to_string(op));

  auto resolved = ResolveEndpoints(endpoints_arg, host, port, port_file);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().message().c_str());
    return 2;
  }
  const std::vector<ClusterEndpoint>& endpoints = *resolved;
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
      std::fprintf(stderr, "node %zu %s failed: %s\n", n, op_name.c_str(),
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
      std::fprintf(stderr, "node %zu %s answered status %u: %s\n", n,
                   op_name.c_str(), resp->status, resp->json.c_str());
      return 2;
    }
    JsonDoc::Error error;
    auto doc = JsonDoc::Parse(resp->json, &error);
    if (!doc) {
      std::fprintf(stderr,
                   "node %zu %s reply is not valid JSON at byte %zu: %s\n", n,
                   op_name.c_str(), error.offset, error.reason.c_str());
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
