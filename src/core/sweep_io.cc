#include "core/sweep_io.h"

#include <charconv>
#include <cstdio>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "core/strategy.h"
#include "support/strings.h"

namespace amdrel::core {

namespace {

// %.10g keeps integral platform values ("1500", "2076") free of trailing
// zeros while round-tripping any realistic area exactly.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

std::string format_percent(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f", value);
  return buffer;
}

// Fixed four-decimal rendering for energy pJ values: enough to show the
// sub-pJ tail the models produce while staying byte-stable (no %g
// precision cliffs on 11-digit JPEG energies).
std::string format_energy(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.4f", value);
  return buffer;
}

// The emitters append into one std::string: text verbatim, integers
// through std::to_chars.
void put(std::string& out, std::string_view text) { out.append(text); }
void put(std::string& out, char c) { out.push_back(c); }
template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
void put(std::string& out, T value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

const char* bool_text(bool value) { return value ? "true" : "false"; }

// RFC-4180 quoting: fields containing the separator, quotes or newlines
// are wrapped in double quotes with embedded quotes doubled. App names
// can be arbitrary (CLI file paths); block names are generator-chosen.
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

template <typename T>
void append_index_list(std::string& out, const std::vector<T>& indices) {
  out += '[';
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i) out += ", ";
    put(out, indices[i]);
  }
  out += ']';
}

// The cell fields shared byte-for-byte by the merged artifact
// (sweep_to_json, which appends the pareto markers) and the partial
// NDJSON stream (write_partial_stream_shard, which has none): "app"
// through "engine_iterations", no braces, no trailing separator.
void append_cell_fields(std::string& out, const std::vector<std::string>& apps,
                        const SweepCell& cell) {
  const PartitionReport& report = cell.report;
  append(out, "\"app\": \"", json_escape(apps[cell.app]), "\", ",
         "\"a_fpga\": ", format_double(cell.a_fpga), ", ",
         "\"cgcs\": ", cell.cgcs, ", ",
         "\"platform_cost\": ", format_double(cell.platform_cost), ", ",
         "\"constraint\": ", cell.constraint, ", ",
         "\"strategy\": \"", strategy_name(cell.strategy), "\", ",
         "\"ordering\": \"", kernel_ordering_name(cell.ordering), "\", ",
         "\"objective\": \"", objective_name(report.objective), "\", ",
         "\"energy_budget_pj\": ", format_energy(cell.energy_budget_pj), ", ",
         "\"initial_cycles\": ", report.initial_cycles, ", ",
         "\"final_cycles\": ", report.final_cycles, ", ",
         "\"cycles_in_cgc\": ", report.cycles_in_cgc, ", ",
         "\"t_fpga\": ", report.cost.t_fpga, ", ",
         "\"t_coarse\": ", report.cost.t_coarse, ", ",
         "\"t_comm\": ", report.cost.t_comm, ", ",
         "\"reconfig_cycles\": ", report.cost.t_reconfig, ", ",
         "\"floorplan_cost\": ", format_energy(report.floorplan_cost), ", ",
         "\"initial_energy_pj\": ", format_energy(report.initial_energy_pj),
         ", ",
         "\"energy_pj\": ", format_energy(report.energy.total_pj()), ", ",
         "\"moved\": ", report.moved.size(), ", ",
         "\"moved_blocks\": [");
  for (std::size_t m = 0; m < cell.moved_names.size(); ++m) {
    if (m) out += ", ";
    append(out, '"', json_escape(cell.moved_names[m]), '"');
  }
  append(out, "], ",
         "\"met\": ", bool_text(report.met), ", ",
         "\"reduction_percent\": \"",
         format_percent(report.reduction_percent()), "\", ",
         "\"energy_reduction_percent\": \"",
         format_percent(report.energy_reduction_percent()), "\", ",
         "\"engine_iterations\": ", report.engine_iterations);
}

}  // namespace

std::string sweep_to_json(const SweepSummary& summary) {
  std::string out;
  // About 650 bytes per cell on the reference grid: one allocation.
  out.reserve(1024 + 768 * summary.cells.size());
  append(out, "{\n",
         "  \"schema_version\": ", kSweepSchemaVersion, ",\n",
         "  \"generator\": \"amdrel\",\n",
         "  \"apps\": [");
  for (std::size_t i = 0; i < summary.apps.size(); ++i) {
    if (i) out += ", ";
    append(out, '"', json_escape(summary.apps[i]), '"');
  }
  out += "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const SweepCell& cell = summary.cells[i];
    out += "    {";
    append_cell_fields(out, summary.apps, cell);
    append(out, ", ",
           "\"app_pareto\": ", bool_text(cell.on_app_pareto), ", ",
           "\"global_pareto\": ", bool_text(cell.on_global_pareto), '}',
           i + 1 < summary.cells.size() ? "," : "", '\n');
  }
  out += "  ],\n  \"app_pareto\": {";
  for (std::size_t app = 0; app < summary.apps.size(); ++app) {
    if (app) out += ", ";
    append(out, '"', json_escape(summary.apps[app]), "\": ");
    append_index_list(out, summary.app_pareto[app]);
  }
  out += "},\n  \"global_pareto\": ";
  append_index_list(out, summary.global_pareto);
  out += "\n}\n";
  return out;
}

std::string sweep_to_csv(const SweepSummary& summary) {
  std::string out =
      "app,a_fpga,cgcs,platform_cost,constraint,strategy,ordering,"
      "objective,energy_budget_pj,"
      "initial_cycles,final_cycles,cycles_in_cgc,t_fpga,t_coarse,t_comm,"
      "reconfig_cycles,floorplan_cost,"
      "initial_energy_pj,energy_pj,"
      "moved,moved_blocks,met,reduction_percent,energy_reduction_percent,"
      "engine_iterations,app_pareto,global_pareto\n";
  out.reserve(out.size() + 256 * summary.cells.size());
  for (const SweepCell& cell : summary.cells) {
    const PartitionReport& report = cell.report;
    std::string blocks;
    for (const std::string& name : cell.moved_names) {
      if (!blocks.empty()) blocks += ';';
      blocks += name;
    }
    append(out, csv_escape(summary.apps[cell.app]), ',',
           format_double(cell.a_fpga), ',', cell.cgcs, ',',
           format_double(cell.platform_cost), ',', cell.constraint, ',',
           strategy_name(cell.strategy), ',',
           kernel_ordering_name(cell.ordering), ',',
           objective_name(report.objective), ',',
           format_energy(cell.energy_budget_pj), ',', report.initial_cycles,
           ',', report.final_cycles, ',', report.cycles_in_cgc, ',',
           report.cost.t_fpga, ',', report.cost.t_coarse, ',',
           report.cost.t_comm, ',', report.cost.t_reconfig, ',',
           format_energy(report.floorplan_cost), ',',
           format_energy(report.initial_energy_pj), ',',
           format_energy(report.energy.total_pj()), ',',
           report.moved.size(), ',', csv_escape(blocks), ',',
           bool_text(report.met), ',',
           format_percent(report.reduction_percent()), ',',
           format_percent(report.energy_reduction_percent()), ',',
           report.engine_iterations, ',', bool_text(cell.on_app_pareto), ',',
           bool_text(cell.on_global_pareto), '\n');
  }
  return out;
}

std::string cache_stats_to_json(const SweepCacheStats& stats) {
  const std::uint64_t lookups = stats.cell_hits + stats.cell_misses;
  const double rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.cell_hits) /
                         static_cast<double>(lookups);
  std::string out;
  append(out, "{\n",
         "  \"schema_version\": ", kSweepCacheSchemaVersion, ",\n",
         "  \"generator\": \"amdrel\",\n",
         "  \"cell_hits\": ", stats.cell_hits, ",\n",
         "  \"cell_misses\": ", stats.cell_misses, ",\n",
         "  \"cell_hit_rate\": \"", format_percent(rate), "\",\n",
         "  \"mapper_restores\": ", stats.mapper_restores, ",\n",
         "  \"mapper_builds\": ", stats.mapper_builds, ",\n",
         "  \"all_fine_hits\": ", stats.all_fine_hits, ",\n",
         "  \"all_fine_misses\": ", stats.all_fine_misses, ",\n",
         "  \"cells\": ", stats.cells, ",\n",
         "  \"entries_loaded\": ", stats.entries_loaded, ",\n",
         "  \"lock_degraded\": ", stats.lock_degraded, ",\n",
         "  \"entries_evicted\": ", stats.entries_evicted, "\n",
         "}\n");
  return out;
}

void write_partial_stream_header(std::ostream& os, std::size_t shards) {
  os << "{\"kind\":\"sweep_partial\",\"schema_version\":"
     << kSweepSchemaVersion
     << ",\"generator\":\"amdrel\",\"shards\":" << shards << "}\n";
  os.flush();
}

void write_partial_stream_shard(std::ostream& os,
                                const std::vector<std::string>& apps,
                                std::size_t shard, const SweepCell* cells,
                                std::size_t used) {
  std::string out;
  append(out, "{\"kind\":\"shard\",\"shard\":", shard, ",\"used\":", used,
         "}\n");
  for (std::size_t slot = 0; slot < used; ++slot) {
    append(out, "{\"kind\":\"cell\",\"shard\":", shard, ",\"slot\":", slot,
           ", ");
    append_cell_fields(out, apps, cells[slot]);
    out += "}\n";
  }
  // Per-shard write and flush: the whole point is that a reader sees
  // finished shards while the sweep is still running.
  os << out;
  os.flush();
}

}  // namespace amdrel::core
