/// \file report_check.cpp
/// Schema validator for BENCH_<name>.json reports, used by the CI smoke
/// step. The parser itself rejects bare nan/inf (non-finite numbers are
/// serialized as null), so any non-finite metric that slipped into a report
/// fails here either as a parse error or as a null where a number belongs.
///
/// Usage: report_check FILE [FILE...]; exits non-zero on the first invalid
/// report.
///
///        report_check --compare BASELINE NEW; checks both reports, then
/// matches their result rows by "name" and fails on a row missing from
/// either side or on any change in simulated "cycles". Simulated cycles are
/// deterministic, so a baseline pins the behaviour of a bench; the host
/// wall-clock ratio NEW/BASELINE is printed per row but not gated, since it
/// depends on the machine.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/error.h"
#include "common/json.h"

namespace {

using smi::json::Value;

void Require(bool ok, const std::string& file, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "%s: %s\n", file.c_str(), what.c_str());
    std::exit(1);
  }
}

void RequireFiniteNumber(const Value& row, const char* key,
                         const std::string& file) {
  Require(row.contains(key), file,
          std::string("result missing \"") + key + "\"");
  // The parser guarantees finiteness; a null here means a non-finite value
  // was serialized (json::DumpNumber emits null for nan/inf).
  Require(row.at(key).is_number(), file,
          std::string("result \"") + key +
              "\" is not a finite number (nan/inf serialize as null)");
}

/// Optional "fidelity" section (benches run with --fidelity): mode plus the
/// modeled-cycle fraction and transition counts report_check exists to keep
/// honest — a regression that stops the flow model from engaging shows up
/// here as a malformed or missing section, not as a silently slower CI run.
void CheckFidelity(const Value& fid, const std::string& file) {
  Require(fid.is_object(), file, "\"fidelity\" is not an object");
  Require(fid.contains("mode") && fid.at("mode").is_string(), file,
          "fidelity missing string \"mode\"");
  const std::string& mode = fid.at("mode").as_string();
  Require(mode == "cycle" || mode == "flow" || mode == "auto", file,
          "fidelity \"mode\" must be cycle, flow or auto, got \"" + mode +
              "\"");
  RequireFiniteNumber(fid, "modeled_fraction", file);
  const double frac = fid.at("modeled_fraction").as_double();
  Require(frac >= 0.0 && frac <= 1.0, file,
          "fidelity \"modeled_fraction\" out of [0, 1]");
  RequireFiniteNumber(fid, "promotions", file);
  RequireFiniteNumber(fid, "thrash_warnings", file);
  Require(fid.contains("demotions") && fid.at("demotions").is_object(), file,
          "fidelity missing object \"demotions\"");
  for (const auto& [cause, count] : fid.at("demotions").as_object()) {
    Require(count.is_number(),
            file, "fidelity demotion count \"" + cause +
                      "\" is not a finite number");
  }
  if (fid.contains("links")) {
    Require(fid.at("links").is_array(), file,
            "fidelity \"links\" is not an array");
    for (const Value& row : fid.at("links").as_array()) {
      Require(row.is_object() && row.contains("link") &&
                  row.at("link").is_string(),
              file, "fidelity link row missing string \"link\"");
      RequireFiniteNumber(row, "stepped_cycles", file);
      RequireFiniteNumber(row, "modeled_cycles", file);
      RequireFiniteNumber(row, "modeled_fraction", file);
    }
  }
}

/// Optional "scaleout" section (bench_scaleout): per-point rows plus the
/// per-rank retention summary the CI shape assertion reads.
void CheckScaleout(const Value& sc, const std::string& file) {
  Require(sc.is_object(), file, "\"scaleout\" is not an object");
  Require(sc.contains("points") && sc.at("points").is_array(), file,
          "scaleout missing array \"points\"");
  Require(!sc.at("points").as_array().empty(), file,
          "scaleout \"points\" is empty");
  for (const Value& row : sc.at("points").as_array()) {
    Require(row.is_object() && row.contains("topology") &&
                row.at("topology").is_string(),
            file, "scaleout point missing string \"topology\"");
    Require(row.contains("scheme") && row.at("scheme").is_string(), file,
            "scaleout point missing string \"scheme\"");
    RequireFiniteNumber(row, "ranks", file);
    RequireFiniteNumber(row, "total_ranks", file);
    RequireFiniteNumber(row, "cycles", file);
    RequireFiniteNumber(row, "aggregate_bytes_per_cycle", file);
    RequireFiniteNumber(row, "per_rank_bytes_per_cycle", file);
    RequireFiniteNumber(row, "modeled_fraction", file);
    Require(row.contains("routing_fell_back") &&
                row.at("routing_fell_back").is_bool(),
            file, "scaleout point missing bool \"routing_fell_back\"");
  }
  Require(sc.contains("per_rank_retention") &&
              sc.at("per_rank_retention").is_object(),
          file, "scaleout missing object \"per_rank_retention\"");
  for (const auto& [topo, r] : sc.at("per_rank_retention").as_object()) {
    Require(r.is_number(), file,
            "scaleout retention \"" + topo + "\" is not a finite number");
  }
}

/// Optional "innet" section (bench_innet): per-point tree-vs-in-network
/// Reduce rows plus the per-rank-count link-byte ratios the CI assertion
/// reads (in-transit combining must beat the endpoint reduce on forwarded
/// link bytes at scale).
void CheckInnet(const Value& in, const std::string& file) {
  Require(in.is_object(), file, "\"innet\" is not an object");
  Require(in.contains("points") && in.at("points").is_array(), file,
          "innet missing array \"points\"");
  Require(!in.at("points").as_array().empty(), file,
          "innet \"points\" is empty");
  for (const Value& row : in.at("points").as_array()) {
    Require(row.is_object() && row.contains("algo") &&
                row.at("algo").is_string(),
            file, "innet point missing string \"algo\"");
    const std::string& algo = row.at("algo").as_string();
    Require(algo == "tree" || algo == "innet", file,
            "innet point \"algo\" must be tree or innet, got \"" + algo +
                "\"");
    RequireFiniteNumber(row, "ranks", file);
    RequireFiniteNumber(row, "count", file);
    RequireFiniteNumber(row, "cycles", file);
    RequireFiniteNumber(row, "link_bytes", file);
    RequireFiniteNumber(row, "handler_combined", file);
    RequireFiniteNumber(row, "handler_splits", file);
  }
  Require(in.contains("link_bytes_ratio") &&
              in.at("link_bytes_ratio").is_object(),
          file, "innet missing object \"link_bytes_ratio\"");
  for (const auto& [ranks, r] : in.at("link_bytes_ratio").as_object()) {
    Require(r.is_number(), file,
            "innet link-byte ratio \"" + ranks + "\" is not a finite number");
    Require(r.as_double() > 0.0, file,
            "innet link-byte ratio \"" + ranks + "\" is not positive");
  }
  Require(in.contains("latency_ratio") &&
              in.at("latency_ratio").is_object(),
          file, "innet missing object \"latency_ratio\"");
  for (const auto& [ranks, r] : in.at("latency_ratio").as_object()) {
    Require(r.is_number(), file,
            "innet latency ratio \"" + ranks + "\" is not a finite number");
  }
}

Value CheckReport(const std::string& file) {
  Value doc;
  try {
    doc = smi::json::ParseFile(file);
  } catch (const smi::Error& e) {
    Require(false, file, std::string("parse error: ") + e.what());
  }
  Require(doc.contains("name") && doc.at("name").is_string(), file,
          "missing string \"name\"");
  Require(doc.contains("parameters") && doc.at("parameters").is_object(),
          file, "missing object \"parameters\"");
  Require(doc.contains("results") && doc.at("results").is_array(), file,
          "missing array \"results\"");
  const auto& results = doc.at("results").as_array();
  Require(!results.empty(), file, "empty \"results\"");
  for (const Value& row : results) {
    Require(row.is_object() && row.contains("name") &&
                row.at("name").is_string(),
            file, "result row missing string \"name\"");
    RequireFiniteNumber(row, "cycles", file);
    RequireFiniteNumber(row, "simulated_microseconds", file);
    RequireFiniteNumber(row, "wall_seconds", file);
  }
  if (doc.contains("fidelity")) CheckFidelity(doc.at("fidelity"), file);
  if (doc.contains("scaleout")) CheckScaleout(doc.at("scaleout"), file);
  if (doc.contains("innet")) CheckInnet(doc.at("innet"), file);
  std::printf("%s: ok (%zu results)\n", file.c_str(), results.size());
  return doc;
}

std::map<std::string, const Value*> RowsByName(const Value& doc,
                                               const std::string& file) {
  std::map<std::string, const Value*> rows;
  for (const Value& row : doc.at("results").as_array()) {
    const std::string& name = row.at("name").as_string();
    Require(rows.emplace(name, &row).second, file,
            "duplicate result row \"" + name + "\"");
  }
  return rows;
}

/// Returns the number of rows that are missing or moved.
int Compare(const std::string& base_file, const std::string& new_file) {
  const Value base_doc = CheckReport(base_file);
  const Value new_doc = CheckReport(new_file);
  const auto base = RowsByName(base_doc, base_file);
  const auto fresh = RowsByName(new_doc, new_file);
  int failures = 0;
  for (const auto& [name, row] : base) {
    const auto it = fresh.find(name);
    if (it == fresh.end()) {
      std::printf("  %-28s missing from %s\n", name.c_str(), new_file.c_str());
      ++failures;
      continue;
    }
    const double cycles = row->at("cycles").as_double();
    const double new_cycles = it->second->at("cycles").as_double();
    const double wall = row->at("wall_seconds").as_double();
    const double new_wall = it->second->at("wall_seconds").as_double();
    const bool moved = cycles != new_cycles;
    if (moved) ++failures;
    std::printf("  %-28s cycles %.0f -> %.0f%s  wall x%.2f\n", name.c_str(),
                cycles, new_cycles, moved ? "  CHANGED" : "",
                wall > 0.0 ? new_wall / wall : 0.0);
  }
  for (const auto& [name, row] : fresh) {
    if (base.count(name) == 0) {
      std::printf("  %-28s missing from %s\n", name.c_str(),
                  base_file.c_str());
      ++failures;
    }
  }
  std::printf("%s vs %s: %s (%d of %zu rows missing or changed)\n",
              new_file.c_str(), base_file.c_str(),
              failures == 0 ? "same cycles" : "DIFFERENT", failures,
              base.size());
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--compare") {
    if (argc != 4) {
      std::fprintf(stderr, "usage: report_check --compare BASELINE NEW\n");
      return 2;
    }
    return Compare(argv[2], argv[3]) == 0 ? 0 : 1;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: report_check FILE [FILE...]\n"
                 "       report_check --compare BASELINE NEW\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) CheckReport(argv[i]);
  return 0;
}
