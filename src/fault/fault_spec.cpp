#include "fault/fault_spec.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "common/file_util.h"
#include "telemetry/json_scan.h"

namespace reo {

Result<FaultSite> ParseFaultSite(std::string_view name) {
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    if (name == to_string(site)) return site;
  }
  return Status{ErrorCode::kInvalidArgument,
                "unknown fault site: " + std::string(name)};
}

bool FaultSpec::Targets(FaultSite site) const {
  for (const auto& r : rules) {
    if (r.site == site) return true;
  }
  return false;
}

namespace {

using Type = JsonDoc::Type;
constexpr int64_t kMaxInt = JsonDoc::kMaxExactInteger;

Status Invalid(const std::string& what) {
  return Status{ErrorCode::kInvalidArgument, what};
}

/// JSON leaves the winner of a repeated key undefined; a spec must mean
/// one thing, so a repeat is an error.
Status CheckUniqueKeys(const JsonDoc& doc, int node) {
  for (size_t i = 1; i < doc.size(node); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (doc.key(node, i) == doc.key(node, j)) {
        return Invalid("duplicate key: " + doc.key(node, i));
      }
    }
  }
  return Status::Ok();
}

/// An integral number in [min, max] (and within 2^53); anything else —
/// a fraction, a bool, an out-of-range value — is rejected before the
/// narrowing cast.
template <typename T>
Status ReadInteger(const JsonDoc& doc, int node, const std::string& key,
                   int64_t min, int64_t max, T* out) {
  auto v = doc.integer(node, min, max);
  if (!v) {
    return Invalid(key + " must be an integer in [" + std::to_string(min) +
                   ", " + std::to_string(std::min(max, kMaxInt)) + "]");
  }
  *out = static_cast<T>(*v);
  return Status::Ok();
}

/// A number in [min, max]; max = kNoMax leaves it unbounded above.
constexpr double kNoMax = std::numeric_limits<double>::max();
Status ReadNumber(const JsonDoc& doc, int node, const std::string& key,
                  double min, double max, double* out) {
  double v = doc.number(node);
  if (!doc.is(node, Type::kNumber) || !(v >= min && v <= max)) {
    char range[64];
    if (max == kNoMax) {
      std::snprintf(range, sizeof(range), " >= %g", min);
    } else {
      std::snprintf(range, sizeof(range), " in [%g, %g]", min, max);
    }
    return Invalid(key + " must be a number" + range);
  }
  *out = v;
  return Status::Ok();
}

Status ParseRule(const JsonDoc& doc, int node, FaultRule* rule) {
  if (!doc.is(node, Type::kObject)) return Invalid("rule must be an object");
  REO_RETURN_IF_ERROR(CheckUniqueKeys(doc, node));
  bool have_site = false;
  for (size_t i = 0; i < doc.size(node); ++i) {
    const std::string& key = doc.key(node, i);
    int v = doc.value(node, i);
    if (key == "site") {
      if (!doc.is(v, Type::kString)) return Invalid("site must be a string");
      auto site = ParseFaultSite(doc.str(v));
      if (!site.ok()) return site.status();
      rule->site = *site;
      have_site = true;
    } else if (key == "window") {
      if (!doc.is(v, Type::kArray) || doc.size(v) != 2) {
        return Invalid("window must be [start, end]");
      }
      REO_RETURN_IF_ERROR(ReadInteger(doc, doc.item(v, 0), "window start", 0,
                                      kMaxInt, &rule->window_start_op));
      REO_RETURN_IF_ERROR(ReadInteger(doc, doc.item(v, 1), "window end", 0,
                                      kMaxInt, &rule->window_end_op));
      if (rule->window_end_op <= rule->window_start_op) {
        return Invalid("window end must be greater than start");
      }
    } else if (key == "probability") {
      REO_RETURN_IF_ERROR(
          ReadNumber(doc, v, key, 0.0, 1.0, &rule->probability));
    } else if (key == "burst") {
      REO_RETURN_IF_ERROR(
          ReadInteger(doc, v, key, 1, UINT32_MAX, &rule->burst));
    } else if (key == "device") {
      // -1 = any device, as in FaultRule.
      REO_RETURN_IF_ERROR(
          ReadInteger(doc, v, key, -1, INT32_MAX, &rule->device));
    } else if (key == "slow_factor") {
      REO_RETURN_IF_ERROR(
          ReadNumber(doc, v, key, 1.0, kNoMax, &rule->slow_factor));
    } else if (key == "added_latency_us") {
      double us = 0.0;
      REO_RETURN_IF_ERROR(ReadNumber(doc, v, key, 0.0, kMaxInt / 1000.0, &us));
      rule->added_latency_ns = static_cast<uint64_t>(us * 1000.0);
    } else if (key == "added_latency_ns") {
      REO_RETURN_IF_ERROR(ReadInteger(doc, v, key, 0, kMaxInt,
                                      &rule->added_latency_ns));
    } else if (key == "max_triggers") {
      REO_RETURN_IF_ERROR(ReadInteger(doc, v, key, 0, kMaxInt,
                                      &rule->max_triggers));
    } else {
      return Invalid("unknown rule key: " + key);
    }
  }
  if (!have_site) return Invalid("rule missing \"site\"");
  // A slow-site rule with no explicit probability should always fire
  // inside its window: "device 2 is fail-slow" means every op, not none.
  bool slow_site = rule->site == FaultSite::kFlashFailSlow ||
                   rule->site == FaultSite::kBackendSlow;
  if (slow_site && rule->probability == 0.0) rule->probability = 1.0;
  return Status::Ok();
}

}  // namespace

Result<FaultSpec> ParseFaultSpec(std::string_view json) {
  JsonDoc::Error error;
  auto doc = JsonDoc::Parse(json, &error);
  if (!doc) {
    return Invalid("invalid JSON at byte " + std::to_string(error.offset) +
                   ": " + error.reason);
  }
  int root = doc->root();
  if (!doc->is(root, Type::kObject)) return Invalid("spec must be an object");
  REO_RETURN_IF_ERROR(CheckUniqueKeys(*doc, root));
  FaultSpec spec;
  for (size_t i = 0; i < doc->size(root); ++i) {
    const std::string& key = doc->key(root, i);
    int v = doc->value(root, i);
    if (key == "seed") {
      REO_RETURN_IF_ERROR(ReadInteger(*doc, v, key, 0, kMaxInt, &spec.seed));
    } else if (key == "rules") {
      if (!doc->is(v, Type::kArray)) return Invalid("rules must be an array");
      for (size_t r = 0; r < doc->size(v); ++r) {
        FaultRule rule;
        Status st = ParseRule(*doc, doc->item(v, r), &rule);
        if (!st.ok()) {
          return Invalid("rules[" + std::to_string(r) +
                         "]: " + std::string(st.message()));
        }
        spec.rules.push_back(rule);
      }
    } else {
      return Invalid("unknown top-level key: " + key);
    }
  }
  return spec;
}

Result<FaultSpec> LoadFaultSpecFile(const std::string& path) {
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  auto spec = ParseFaultSpec(*contents);
  if (!spec.ok()) {
    return Status{spec.status().code(),
                  path + ": " + std::string(spec.status().message())};
  }
  return spec;
}

FlagSet::Parser FaultSpecFlag(FaultSpec* out) {
  return [out](std::string_view path) {
    auto spec = LoadFaultSpecFile(std::string(path));
    if (!spec.ok()) return "names a bad spec: " + spec.status().to_string();
    *out = std::move(*spec);
    return std::string();
  };
}

}  // namespace reo
