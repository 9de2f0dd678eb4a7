// perfbench_replay — the traced half of the benchmark.
//
//   perfbench_replay --mode explore|serve --corpus LIST --grid SPEC
//                    --seed N --seconds S --expect FILE --spans FILE
//                    [--cache FILE --cache-prefill FILE]
//                    [--workers N --amdrelc PATH]
//
// Replays one `amdrelc explore` (or `serve`) invocation in process, on
// one thread, through the library's public functions, and times every
// layer a sweep cell passes through from outside: each call into a
// layer is a span (name, start, end, parent span, replay index) kept in
// memory and written to --spans when the run ends. A layer's busy time
// is the self time of its spans. Every replay's sweep JSON must equal
// --expect byte for byte, so the replay provably does the CLI's work.
//
// The sweep is re-assembled from the same building blocks
// compute_sweep_shard and run_methodology_axis use (HybridMapper,
// extract_kernels, the strategy's run_axis, estimate_energy, the
// SweepCache API), because the layers inside those two functions cannot
// be timed separately from outside them.
//
// Because that re-assembly is a copy, every replay is paired with an
// untraced run of the library's own core::compute_sweep_shard over every
// shard, on one thread, from the same corpus and cache state. The ratio
// of the replay's shard time to the library's shows when the copy stops
// doing the library's work (run.py fails the run outside a stated band).
//
// In serve mode each replay builds the corpus once for the coordinator
// and once more per worker, as `amdrelc serve` and each `amdrelc worker`
// do. It encodes every worker's shards on the wire, decodes them through
// the coordinator's stream consumer, and launches one real `amdrelc
// worker --shards ...` to time its first line and its whole stream; its
// stdout must equal the in-process encoding.
//
// Prints one JSON object: per-replay medians of each layer's busy time,
// call counts, counters, and the untraced reference timings.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/kernels.h"
#include "core/cost_model.h"
#include "core/energy.h"
#include "core/explorer.h"
#include "core/fingerprint.h"
#include "core/hybrid_mapper.h"
#include "core/methodology.h"
#include "core/schema.h"
#include "core/strategy.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "core/sweep_service.h"
#include "core/wire.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "platform/platform.h"
#include "support/error.h"
#include "support/strings.h"
#include "workloads/minic_sources.h"
#include "workloads/paper_models.h"

extern char** environ;

using namespace amdrel;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// The layers the benchmark reports, in report order. Every span name is
/// one of these, so a layer that never ran still reports zero.
const char* const kLayers[] = {
    "workloads.paper_model",
    "minic.compile",
    "interp.profile",
    "ir.build_cdfg",
    "analysis.kernels",
    "core.hybrid_mapper",
    "core.strategy.greedy",
    "core.strategy.annealing",
    "core.strategy.exhaustive",
    "core.energy",
    "core.sweep_cache.load",
    "core.sweep_cache.lookup",
    "core.sweep_cache.save",
    "core.wire.encode",
    "core.wire.decode",
    "serve.worker_first_line",
    "serve.worker_stream",
    "core.explorer.finalize",
    "core.sweep_io",
};
constexpr int kLayerCount = sizeof(kLayers) / sizeof(kLayers[0]);

int layer_id(const std::string& name) {
  for (int i = 0; i < kLayerCount; ++i) {
    if (name == kLayers[i]) return i;
  }
  fail("unknown layer " + name);
}

struct Span {
  int layer = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans, -1 for a root
  int replay = 0;   ///< spans of one replay share this identifier
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Records spans in memory; nothing is written until write(). While
/// disabled, begin() returns -1 and records nothing.
class Tracer {
 public:
  int begin(int layer) {
    if (!enabled_) return -1;
    Span span;
    span.layer = layer;
    span.parent = open_.empty() ? -1 : open_.back();
    span.replay = replay_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }
  void set_replay(int replay) { replay_ = replay; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer of the spans of one replay, in seconds.
  std::vector<double> self_seconds(int replay) const {
    std::vector<std::int64_t> self(kLayerCount, 0);
    for (const Span& span : spans_) {
      if (span.replay != replay) continue;
      const std::int64_t duration = span.end_ns - span.start_ns;
      self[static_cast<std::size_t>(span.layer)] += duration;
      if (span.parent >= 0) {
        const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
        self[static_cast<std::size_t>(parent.layer)] -= duration;
      }
    }
    std::vector<double> seconds(kLayerCount);
    for (int i = 0; i < kLayerCount; ++i) seconds[i] = self[i] * 1e-9;
    return seconds;
  }

  std::vector<int> calls(int replay) const {
    std::vector<int> count(kLayerCount, 0);
    for (const Span& span : spans_) {
      if (span.replay == replay) ++count[static_cast<std::size_t>(span.layer)];
    }
    return count;
  }

  /// Writes {"layers": [...], "fields": [...], "spans": [[...], ...]};
  /// a span's layer is an index into "layers" and its parent an index
  /// into "spans" (-1 for a root).
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    out << "{\"layers\": [";
    for (int i = 0; i < kLayerCount; ++i) {
      out << (i ? ", \"" : "\"") << kLayers[i] << '"';
    }
    out << "],\n\"fields\": [\"replay\", \"layer\", \"start_ns\", "
           "\"end_ns\", \"parent\"],\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << '[' << s.replay << ',' << s.layer << ',' << s.start_ns << ','
          << s.end_ns << ',' << s.parent << ']'
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.flush();
    require(out.good(), "cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int replay_ = 0;
  bool enabled_ = true;
};

Tracer tracer;

class Scoped {
 public:
  explicit Scoped(int layer) : index_(tracer.begin(layer)) {}
  ~Scoped() { tracer.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int index_;
};

const int kPaperModel = layer_id("workloads.paper_model");
const int kCompile = layer_id("minic.compile");
const int kInterp = layer_id("interp.profile");
const int kBuildCdfg = layer_id("ir.build_cdfg");
const int kKernels = layer_id("analysis.kernels");
const int kMapper = layer_id("core.hybrid_mapper");
const int kEnergy = layer_id("core.energy");
const int kCacheLoad = layer_id("core.sweep_cache.load");
const int kCacheLookup = layer_id("core.sweep_cache.lookup");
const int kCacheSave = layer_id("core.sweep_cache.save");
const int kEncode = layer_id("core.wire.encode");
const int kDecode = layer_id("core.wire.decode");
const int kFirstLine = layer_id("serve.worker_first_line");
const int kStream = layer_id("serve.worker_stream");
const int kFinalize = layer_id("core.explorer.finalize");
const int kSweepIo = layer_id("core.sweep_io");

int strategy_layer(core::StrategyKind kind) {
  return layer_id(std::string("core.strategy.") + core::strategy_name(kind));
}

/// Counters gathered at the same boundaries as the spans, per replay.
struct Counters {
  std::uint64_t instructions = 0;
  std::uint64_t mapper_restores = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t cache_bytes = 0;
  double hit_ratio = 0;
  double shard_s = 0;  ///< wall time inside compute_shard, spans included
};

// ---------------------------------------------------------------------------
// The replayed invocation
// ---------------------------------------------------------------------------

struct Config {
  std::string mode;  ///< "explore" or "serve"
  std::string corpus_spec;  ///< the --corpus value, as amdrelc gets it
  std::vector<std::string> corpus;
  std::string grid;
  std::uint64_t seed = 1;
  double seconds = 1;
  std::string expect_path;
  std::string spans_path;
  std::string cache_path;
  std::string cache_prefill;
  int workers = 3;
  std::string amdrelc;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The corpus exactly as amdrelc's build_corpus resolves --corpus
/// entries: the paper models by name, the bundled MiniC sources, or a
/// MiniC file, each profiled on zero-initialized inputs.
std::vector<core::CorpusApp> build_corpus(const Config& config,
                                          Counters& counters) {
  std::vector<core::CorpusApp> corpus;
  for (const std::string& name : config.corpus) {
    core::CorpusApp app;
    app.name = name;
    if (name == "ofdm" || name == "jpeg") {
      Scoped span(kPaperModel);
      workloads::PaperApp model = name == "ofdm"
                                      ? workloads::build_ofdm_model()
                                      : workloads::build_jpeg_model();
      app.cdfg = std::move(model.cdfg);
      app.profile = std::move(model.profile);
      corpus.push_back(std::move(app));
      continue;
    }
    const std::string source = name == "fir"     ? workloads::fir_source()
                               : name == "sobel" ? workloads::sobel_source()
                                                 : read_file(name);
    ir::TacProgram tac;
    {
      Scoped span(kCompile);
      tac = minic::compile(source, name);
    }
    {
      Scoped span(kInterp);
      interp::Interpreter interp(tac);
      const interp::RunResult run = interp.run(4'000'000'000ULL);
      counters.instructions += run.instructions_executed;
      app.profile = run.profile;
    }
    {
      Scoped span(kBuildCdfg);
      app.cdfg = ir::build_cdfg(tac);
    }
    corpus.push_back(std::move(app));
  }
  return corpus;
}

/// amdrelc's build_sweep_spec for the flags the benchmark passes.
core::SweepSpec build_spec(const Config& config) {
  core::SweepSpec spec;
  const std::optional<core::PlatformGrid> grid =
      core::parse_platform_grid(config.grid);
  require(grid.has_value(), "malformed grid " + config.grid);
  spec.grid = *grid;
  spec.base.random_seed = config.seed;
  spec.orderings = {core::KernelOrdering::kWeightDescending,
                    core::KernelOrdering::kBenefitDescending};
  return spec;
}

// run_methodology_axis, one layer per span. The kernel ordering mirrors
// the library's (private) order_kernels for the two orderings the
// benchmark sweeps.
std::vector<core::PartitionReport> methodology_axis(
    core::HybridMapper& mapper, const ir::ProfileData& profile,
    const std::vector<core::AxisCell>& cells,
    const core::MethodologyOptions& options) {
  Scoped strategy_span(strategy_layer(options.strategy));
  std::vector<core::PartitionReport> reports(cells.size());
  if (cells.empty()) return reports;

  const std::int64_t initial_cycles = mapper.all_fine_cycles(profile);
  core::EnergyBreakdown initial_energy;
  {
    Scoped span(kEnergy);
    initial_energy = core::estimate_energy(mapper, profile, {},
                                           options.cost.objective.energy);
  }
  const double initial_pj = initial_energy.total_pj();

  std::vector<std::size_t> open;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    core::PartitionReport& report = reports[c];
    report.app = mapper.cdfg().name();
    report.timing_constraint = cells[c].timing_constraint;
    report.objective = options.cost.objective.kind;
    report.energy_budget_pj = cells[c].energy_budget_pj;
    report.initial_cycles = initial_cycles;
    report.energy = initial_energy;
    report.initial_energy_pj = initial_pj;
    report.final_cycles = initial_cycles;
    report.cost.t_fpga = initial_cycles;
    if (options.cost.objective.met(initial_cycles, initial_pj,
                                   cells[c].timing_constraint,
                                   cells[c].energy_budget_pj)) {
      report.initial_meets = true;
      report.met = true;
    } else {
      open.push_back(c);
    }
  }
  if (open.empty()) return reports;

  std::vector<analysis::KernelInfo> kernels;
  {
    Scoped span(kKernels);
    kernels = analysis::extract_kernels(mapper.cdfg(), profile,
                                        options.analysis);
  }
  if (options.ordering == core::KernelOrdering::kBenefitDescending) {
    std::vector<std::pair<std::int64_t, std::size_t>> benefit;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      benefit.emplace_back(
          mapper.move_benefit_cycles(kernels[i].block, kernels[i].exec_freq),
          i);
    }
    std::sort(benefit.begin(), benefit.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    std::vector<analysis::KernelInfo> ordered;
    ordered.reserve(kernels.size());
    for (const auto& entry : benefit) ordered.push_back(kernels[entry.second]);
    kernels = std::move(ordered);
  } else {
    require(options.ordering == core::KernelOrdering::kWeightDescending,
            "perfbench_replay: unsupported kernel ordering");
  }

  std::vector<core::AxisCell> open_cells;
  open_cells.reserve(open.size());
  for (const std::size_t c : open) open_cells.push_back(cells[c]);
  const std::vector<core::StrategyResult> results =
      core::make_strategy(options.strategy)
          ->run_axis({mapper, profile, options, kernels, open_cells});

  std::map<std::vector<ir::BlockId>, core::EnergyBreakdown> energy_memo;
  const std::unique_ptr<core::CostModel> cost_model =
      core::make_cost_model(options.cost, mapper.platform());
  for (std::size_t j = 0; j < open.size(); ++j) {
    core::PartitionReport& report = reports[open[j]];
    const core::StrategyResult& result = results[j];
    report.kernels = kernels;
    report.moved = result.moved;
    report.cost = result.cost;
    report.floorplan_cost = cost_model->floorplan_cost(
        core::CostModel::moved_units(mapper, report.moved));
    report.final_cycles = result.cost.total();
    report.cycles_in_cgc = result.cost.t_coarse;
    auto memo = energy_memo.find(report.moved);
    if (memo == energy_memo.end()) {
      Scoped span(kEnergy);
      memo = energy_memo
                 .emplace(report.moved,
                          core::estimate_energy(mapper, profile, report.moved,
                                                options.cost.objective.energy))
                 .first;
    }
    report.energy = memo->second;
    report.met = options.cost.objective.met(
        report.final_cycles, report.energy.total_pj(),
        report.timing_constraint, report.energy_budget_pj);
    report.engine_iterations = result.engine_iterations;
  }
  return reports;
}

// The explorer's default constraint axis (quarter points of the
// all-fine cycles, clamped to >= 1, duplicates dropped).
std::vector<std::int64_t> default_constraints(std::int64_t all_fine) {
  std::vector<std::int64_t> fractions;
  for (const std::int64_t raw :
       {all_fine / 4, all_fine / 2, (3 * all_fine) / 4}) {
    const std::int64_t clamped = std::max<std::int64_t>(1, raw);
    if (std::find(fractions.begin(), fractions.end(), clamped) ==
        fractions.end()) {
      fractions.push_back(clamped);
    }
  }
  return fractions;
}

// compute_sweep_shard, one layer per span.
std::size_t compute_shard(const std::vector<core::CorpusApp>& corpus,
                          const core::SweepSpec& spec,
                          const std::vector<core::Fingerprint>& app_fps,
                          std::size_t shard, core::SweepCell* slots,
                          Counters& counters) {
  core::SweepCache* cache = spec.cache;
  const std::vector<double> budgets =
      spec.energy_budgets.empty()
          ? std::vector<double>{spec.base.cost.energy_budget_pj}
          : spec.energy_budgets;
  const std::size_t app_index = shard / spec.grid.size();
  const std::size_t platform_index = shard % spec.grid.size();
  const double area =
      spec.grid.areas[platform_index / spec.grid.cgc_counts.size()];
  const int cgcs =
      spec.grid.cgc_counts[platform_index % spec.grid.cgc_counts.size()];
  const core::CorpusApp& app = corpus[app_index];
  const platform::Platform p = platform::make_paper_platform(area, cgcs);
  const double cost = platform::platform_cost(p);

  core::Fingerprint platform_fp;
  core::Fingerprint group_key;
  if (cache) {
    Scoped span(kCacheLookup);
    platform_fp = core::fingerprint(p);
    group_key = core::shard_key(app_fps[app_index], platform_fp);
  }

  std::optional<core::HybridMapper> mapper;
  auto ensure_mapper = [&]() -> core::HybridMapper& {
    if (mapper) return *mapper;
    std::shared_ptr<const core::MapperState> state;
    if (cache) {
      Scoped span(kCacheLookup);
      state = cache->find_mapper(group_key);
    }
    {
      Scoped span(kMapper);
      if (state) {
        mapper.emplace(app.cdfg, p, *state);
        ++counters.mapper_restores;
      } else {
        mapper.emplace(app.cdfg, p);
      }
    }
    if (cache && !state) {
      Scoped span(kCacheLookup);
      cache->store_mapper(group_key,
                          std::make_shared<core::MapperState>(mapper->state()));
    }
    return *mapper;
  };

  std::vector<std::int64_t> constraints = spec.constraints;
  if (constraints.empty()) {
    std::optional<std::int64_t> all_fine;
    if (cache) {
      Scoped span(kCacheLookup);
      all_fine = cache->find_all_fine(group_key);
    }
    if (!all_fine) {
      all_fine = ensure_mapper().all_fine_cycles(app.profile);
      if (cache) {
        Scoped span(kCacheLookup);
        cache->store_all_fine(group_key, *all_fine);
      }
    }
    constraints = default_constraints(*all_fine);
  }
  const std::size_t strategy_count = spec.strategies.size();
  const std::size_t ordering_count = spec.orderings.size();
  const std::size_t used =
      constraints.size() * budgets.size() * strategy_count * ordering_count;

  for (std::size_t si = 0; si < strategy_count; ++si) {
    for (std::size_t oi = 0; oi < ordering_count; ++oi) {
      core::MethodologyOptions options = spec.base;
      options.strategy = spec.strategies[si];
      options.ordering = spec.orderings[oi];
      std::vector<std::size_t> missed;
      std::vector<core::AxisCell> axis;
      for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
        for (std::size_t bi = 0; bi < budgets.size(); ++bi) {
          const std::size_t index =
              ((ci * budgets.size() + bi) * strategy_count + si) *
                  ordering_count +
              oi;
          core::SweepCell& cell = slots[index];
          cell.app = app_index;
          cell.a_fpga = area;
          cell.cgcs = cgcs;
          cell.platform_cost = cost;
          cell.constraint = constraints[ci];
          cell.energy_budget_pj = budgets[bi];
          cell.strategy = spec.strategies[si];
          cell.ordering = spec.orderings[oi];
          if (cache) {
            Scoped span(kCacheLookup);
            options.cost.energy_budget_pj = budgets[bi];
            const core::Fingerprint key = core::cell_key(
                app_fps[app_index], platform_fp, options, constraints[ci]);
            if (std::optional<core::CachedCell> hit = cache->find_cell(key)) {
              cell.report = std::move(hit->report);
              cell.moved_names = std::move(hit->moved_names);
              continue;
            }
          }
          missed.push_back(index);
          axis.push_back({constraints[ci], budgets[bi]});
        }
      }
      if (missed.empty()) continue;
      core::HybridMapper& shard_mapper = ensure_mapper();
      const std::vector<core::PartitionReport> reports =
          methodology_axis(shard_mapper, app.profile, axis, options);
      for (std::size_t m = 0; m < missed.size(); ++m) {
        core::SweepCell& cell = slots[missed[m]];
        cell.report = reports[m];
        cell.moved_names.clear();
        for (const ir::BlockId block : cell.report.moved) {
          cell.moved_names.push_back(app.cdfg.block(block).name);
        }
        if (cache) {
          Scoped span(kCacheLookup);
          options.cost.energy_budget_pj = cell.energy_budget_pj;
          core::CachedCell fresh;
          fresh.report = cell.report;
          fresh.moved_names = cell.moved_names;
          cache->store_cell(core::cell_key(app_fps[app_index], platform_fp,
                                           options, cell.constraint),
                            std::move(fresh));
        }
      }
    }
  }
  if (cache && mapper) {
    Scoped span(kCacheLookup);
    cache->store_mapper(group_key,
                        std::make_shared<core::MapperState>(mapper->state()));
  }
  return used;
}

core::wire::Header wire_header(std::size_t shards) {
  core::wire::Header header;
  header.protocol = core::kSweepWireProtocolVersion;
  header.schema_version = core::kSweepCacheSchemaVersion;
  header.fingerprint_algorithm = core::kFingerprintAlgorithmVersion;
  header.shards = shards;
  return header;
}

struct ReplayResult {
  std::string json;
  std::string worker0_stream;  ///< serve mode: worker 0's wire bytes
};

/// One invocation, start to finish, as amdrelc runs it: front end,
/// cache load, sweep, (serve: front end and wire round trip per worker),
/// finalize and table, JSON artifact, cache save.
ReplayResult replay_once(const Config& config, Counters& counters) {
  ReplayResult result;
  const std::vector<core::CorpusApp> corpus = build_corpus(config, counters);
  core::SweepSpec spec = build_spec(config);
  core::validate_sweep_inputs(corpus, spec);

  core::SweepCache cache;
  if (!config.cache_path.empty()) {
    spec.cache = &cache;
    Scoped span(kCacheLoad);
    std::string error;
    require(cache.load(config.cache_path, &error), "cache load: " + error);
  }
  std::vector<core::Fingerprint> app_fps;
  if (spec.cache) {
    Scoped span(kCacheLookup);
    app_fps = core::sweep_app_fingerprints(corpus);
  }

  const std::size_t cells_per_shard = core::sweep_cells_per_shard(spec);
  const std::size_t shards = core::sweep_shard_count(corpus, spec);
  core::SweepSummary summary;
  for (const core::CorpusApp& app : corpus) summary.apps.push_back(app.name);
  summary.cells.resize(shards * cells_per_shard);
  std::vector<std::size_t> shard_used(shards, 0);

  if (config.mode == "explore") {
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const Clock::time_point start = Clock::now();
      shard_used[shard] = compute_shard(
          corpus, spec, app_fps, shard,
          summary.cells.data() + shard * cells_per_shard, counters);
      counters.shard_s += seconds_since(start);
    }
  } else {
    const int workers = std::min<int>(config.workers, static_cast<int>(shards));
    const auto partition = core::partition_shards(shards, workers);
    for (std::size_t w = 0; w < partition.size(); ++w) {
      // Every `amdrelc worker` builds the whole corpus again.
      const std::vector<core::CorpusApp> worker_corpus =
          build_corpus(config, counters);
      std::ostringstream stream;
      {
        Scoped span(kEncode);
        core::wire::encode_header(stream, wire_header(shards));
      }
      std::size_t total = 0;
      for (const std::size_t shard : partition[w]) {
        std::vector<core::SweepCell> cells(cells_per_shard);
        const Clock::time_point start = Clock::now();
        const std::size_t used = compute_shard(worker_corpus, spec, app_fps,
                                               shard, cells.data(), counters);
        counters.shard_s += seconds_since(start);
        Scoped span(kEncode);
        core::wire::encode_shard_begin(stream, {shard, used});
        for (std::size_t i = 0; i < used; ++i) {
          core::wire::encode_cell(stream, shard, i, cells[i].report,
                                  cells[i].moved_names);
        }
        total += used;
      }
      std::string bytes;
      {
        Scoped span(kEncode);
        core::wire::encode_worker_done(stream, {total});
        bytes = stream.str();
      }
      counters.wire_bytes += bytes.size();
      {
        Scoped span(kDecode);
        std::istringstream in(bytes);
        core::consume_worker_stream(in, corpus, spec, partition[w], summary,
                                    shard_used);
      }
      if (w == 0) result.worker0_stream = std::move(bytes);
    }
  }

  {
    Scoped span(kFinalize);
    core::finalize_sweep_summary(summary, shard_used, cells_per_shard);
    const std::string table = core::describe(summary);
    require(!table.empty(), "empty sweep table");
  }
  {
    Scoped span(kSweepIo);
    result.json = core::sweep_to_json(summary);
    std::ofstream out("replay.json", std::ios::binary);
    out << result.json;
    out.flush();
    require(out.good(), "cannot write replay.json");
  }
  if (spec.cache) {
    {
      Scoped span(kCacheSave);
      std::string error;
      require(cache.save(config.cache_path, &error), "cache save: " + error);
    }
    const core::SweepCacheStats stats = cache.stats();
    const std::uint64_t lookups = stats.cell_hits + stats.cell_misses;
    counters.hit_ratio =
        lookups ? static_cast<double>(stats.cell_hits) / lookups : 0.0;
    counters.cache_bytes = std::filesystem::file_size(config.cache_path);
  }
  return result;
}

// ---------------------------------------------------------------------------
// A directly launched serve worker
// ---------------------------------------------------------------------------

/// Spawns `amdrelc worker ... --shards <list>` with stdout on a pipe and
/// returns its whole stdout; spans time the first line and the rest of
/// the stream (to EOF and exit). Throws on a non-zero exit.
std::string run_worker(const Config& config,
                       const std::vector<std::size_t>& shards) {
  std::vector<std::string> args = {config.amdrelc, "worker", "--corpus",
                                   config.corpus_spec, "--grid",
                                   config.grid, "--threads", "1", "--seed",
                                   std::to_string(config.seed), "--shards"};
  std::string list;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    list += (i ? "," : "") + std::to_string(shards[i]);
  }
  args.push_back(list);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  require(pipe(fds) == 0, "pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  std::string out;
  pid_t pid = 0;
  int first_span = tracer.begin(kFirstLine);
  const int rc = posix_spawn(&pid, config.amdrelc.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    tracer.end(first_span);
    fail("cannot spawn " + config.amdrelc);
  }
  int stream_span = -1;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
    if (stream_span < 0 && out.find('\n') != std::string::npos) {
      tracer.end(first_span);
      stream_span = tracer.begin(kStream);
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (stream_span < 0) {
    tracer.end(first_span);
    stream_span = tracer.begin(kStream);
  }
  tracer.end(stream_span);
  require(WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "amdrelc worker failed");
  return out;
}

// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_replay --mode explore|serve --corpus LIST "
               "--grid SPEC --seed N --seconds S --expect FILE --spans FILE "
               "[--cache FILE --cache-prefill FILE] [--workers N --amdrelc "
               "PATH]\n");
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--mode") {
      config.mode = value;
    } else if (flag == "--corpus") {
      config.corpus_spec = value;
      config.corpus = split(value, ',');
    } else if (flag == "--grid") {
      config.grid = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--expect") {
      config.expect_path = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else if (flag == "--cache") {
      config.cache_path = value;
    } else if (flag == "--cache-prefill") {
      config.cache_prefill = value;
    } else if (flag == "--workers") {
      config.workers = std::stoi(value);
    } else if (flag == "--amdrelc") {
      config.amdrelc = value;
    } else {
      usage();
    }
  }
  if (argc % 2 != 1 || (config.mode != "explore" && config.mode != "serve") ||
      config.corpus.empty() || config.grid.empty() ||
      config.expect_path.empty() || config.spans_path.empty() ||
      config.cache_path.empty() != config.cache_prefill.empty() ||
      (config.mode == "serve" &&
       (config.amdrelc.empty() || !config.cache_path.empty()))) {
    usage();
  }
  return config;
}

/// Untraced library reference for the replay's rebuilt sweep:
/// core::compute_sweep_shard over every shard on one thread, from the
/// cache state the replay starts from (the prefill, if any).
double library_shard_seconds(const Config& config,
                             const std::vector<core::CorpusApp>& corpus) {
  core::SweepSpec spec = build_spec(config);
  core::SweepCache cache;
  std::vector<core::Fingerprint> app_fps;
  if (!config.cache_prefill.empty()) {
    std::string error;
    require(cache.load(config.cache_prefill, &error), "cache load: " + error);
    spec.cache = &cache;
    app_fps = core::sweep_app_fingerprints(corpus);
  }
  const std::size_t cells_per_shard = core::sweep_cells_per_shard(spec);
  const std::size_t shards = core::sweep_shard_count(corpus, spec);
  std::vector<core::SweepCell> cells(shards * cells_per_shard);
  const Clock::time_point start = Clock::now();
  for (std::size_t shard = 0; shard < shards; ++shard) {
    core::compute_sweep_shard(corpus, spec, app_fps, shard,
                              cells.data() + shard * cells_per_shard);
  }
  return seconds_since(start);
}

/// Untraced in-process reference for serve.overhead_s: the front end
/// once plus sweep_design_space on `threads` threads.
double inprocess_sweep_seconds(const Config& config, int threads) {
  const Clock::time_point start = Clock::now();
  Counters ignored;
  const std::vector<core::CorpusApp> corpus = build_corpus(config, ignored);
  core::SweepSpec spec = build_spec(config);
  spec.threads = threads;
  const core::SweepSummary summary = core::sweep_design_space(corpus, spec);
  require(!summary.cells.empty(), "empty in-process sweep");
  return seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config config = parse_args(argc, argv);
    const std::string expected = read_file(config.expect_path);

    std::vector<double> walls;
    std::vector<std::vector<double>> busy;  ///< [replay][layer]
    std::vector<std::vector<int>> calls;
    std::vector<Counters> counters;
    int failed = 0;
    std::vector<double> inprocess;
    std::vector<double> library_ratio;

    tracer.set_enabled(false);
    Counters ignored;
    const std::vector<core::CorpusApp> library_corpus =
        build_corpus(config, ignored);
    tracer.set_enabled(true);

    const Clock::time_point run_start = Clock::now();
    int replay = 0;
    do {
      if (!config.cache_prefill.empty()) {
        std::filesystem::copy_file(
            config.cache_prefill, config.cache_path,
            std::filesystem::copy_options::overwrite_existing);
      }
      tracer.set_replay(replay);
      Counters counter;
      const Clock::time_point start = Clock::now();
      const ReplayResult result = replay_once(config, counter);
      const double wall = seconds_since(start);
      tracer.set_enabled(false);
      library_ratio.push_back(counter.shard_s /
                              library_shard_seconds(config, library_corpus));
      tracer.set_enabled(true);
      bool ok = result.json == expected;
      if (config.mode == "serve") {
        // Rebuild the worker's shard list exactly as serve assigns it.
        const std::size_t shards =
            config.corpus.size() * build_spec(config).grid.size();
        const auto partition = core::partition_shards(
            shards, std::min<int>(config.workers, static_cast<int>(shards)));
        ok = ok && run_worker(config, partition[0]) == result.worker0_stream;
      }
      if (!ok) ++failed;
      walls.push_back(wall);
      busy.push_back(tracer.self_seconds(replay));
      calls.push_back(tracer.calls(replay));
      counters.push_back(counter);
      ++replay;
    } while (seconds_since(run_start) < config.seconds);

    if (config.mode == "serve") {
      tracer.set_enabled(false);
      for (int rep = 0; rep < 3; ++rep) {
        inprocess.push_back(
            inprocess_sweep_seconds(config, config.workers));
      }
    }
    tracer.write(config.spans_path);

    std::vector<double> other;
    for (std::size_t r = 0; r < walls.size(); ++r) {
      double named = 0;
      for (int l = 0; l < kLayerCount; ++l) {
        // The launched worker runs after the in-process replay, outside
        // its wall time.
        if (l != kFirstLine && l != kStream) named += busy[r][l];
      }
      other.push_back(walls[r] - named);
    }
    std::vector<double> instructions, restores, wire_bytes, cache_bytes,
        hit_ratio;
    for (const Counters& c : counters) {
      instructions.push_back(static_cast<double>(c.instructions));
      restores.push_back(static_cast<double>(c.mapper_restores));
      wire_bytes.push_back(static_cast<double>(c.wire_bytes));
      cache_bytes.push_back(static_cast<double>(c.cache_bytes));
      hit_ratio.push_back(c.hit_ratio);
    }

    std::printf("{\"replays\": %zu, \"failed\": %d, \"wall_s\": %.9g, "
                "\"other_s\": %.9g, \"inprocess_sweep_s\": %.9g, "
                "\"library_ratio\": %.9g, \"spans\": %zu, \"layers\": {",
                walls.size(), failed, median(walls), median(other),
                median(inprocess), median(library_ratio),
                tracer.spans().size());
    for (int l = 0; l < kLayerCount; ++l) {
      std::vector<double> layer_busy, layer_calls;
      for (std::size_t r = 0; r < walls.size(); ++r) {
        layer_busy.push_back(busy[r][l]);
        layer_calls.push_back(calls[r][l]);
      }
      std::printf("%s\"%s\": {\"busy_s\": %.9g, \"calls\": %.9g}",
                  l ? ", " : "", kLayers[l], median(layer_busy),
                  median(layer_calls));
    }
    std::printf("}, \"counts\": {\"interp.instructions\": %.9g, "
                "\"core.mapper_restores\": %.9g, "
                "\"core.sweep_cache.hit_ratio\": %.9g, "
                "\"core.sweep_cache.bytes\": %.9g, "
                "\"core.wire.bytes\": %.9g}}\n",
                median(instructions), median(restores), median(hit_ratio),
                median(cache_bytes), median(wire_bytes));
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replay: %s\n", e.what());
    return 1;
  }
}
