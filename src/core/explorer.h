#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fingerprint.h"
#include "core/methodology.h"
#include "core/strategy.h"
#include "platform/platform.h"

namespace amdrel::core {

class SweepCache;

// ---------------------------------------------------------------------------
// Platform-grid x corpus sweeps: the "what platform should we build, and
// for which applications" question. sweep_design_space crosses a grid of
// platform instances with a corpus of applications and sweeps the
// engine's knobs on every (app, platform) pair; a single-app,
// single-platform exploration is the one-app corpus on a 1x1 grid.
// ---------------------------------------------------------------------------

/// The platform axes of a sweep: every (A_FPGA, CGC count) pair of the
/// cross product is instantiated with make_paper_platform. Order is
/// area-major, matching the paper's Table 2/3 column order.
struct PlatformGrid {
  std::vector<double> areas = {1500};
  std::vector<int> cgc_counts = {2};
  std::size_t size() const { return areas.size() * cgc_counts.size(); }
};

/// Parses the CLI grid spec "a1,a2,...xc1,c2,..." (areas, an 'x', CGC
/// counts — e.g. "1500,5000x2,3"). Returns nullopt for anything
/// malformed: missing/extra 'x', empty lists, non-numeric items,
/// non-positive or non-finite areas, CGC counts outside [1, 1024].
std::optional<PlatformGrid> parse_platform_grid(std::string_view spec);

/// One application of a sweep corpus: a profiled CDFG plus the name used
/// in reports and machine-readable output.
struct CorpusApp {
  std::string name;
  ir::Cdfg cdfg{"app"};
  ir::ProfileData profile;
};

/// The full sweep grid: platform axes crossed with the engine axes
/// (timing constraints x energy budgets x strategies x kernel orderings),
/// applied to every corpus app.
struct SweepSpec {
  PlatformGrid grid;
  /// Timing constraints; empty sweeps 1/4, 1/2 and 3/4 of each
  /// (app, platform) cell's all-fine-grain cycle count (the fractions
  /// adapt to the app's scale, so one spec serves OFDM's 10^5 cycles and
  /// JPEG's 10^7 alike).
  std::vector<std::int64_t> constraints;
  /// Energy budgets (pJ) to sweep — the energy axis of the grid,
  /// consulted by kEnergy/kCombined objectives. Empty sweeps the single
  /// budget already in base.cost.energy_budget_pj, so timing-only specs
  /// are unchanged.
  std::vector<double> energy_budgets;
  std::vector<StrategyKind> strategies = all_strategies();
  std::vector<KernelOrdering> orderings = {KernelOrdering::kWeightDescending};
  /// Per-run options (seed, annealing budget, ...); strategy, ordering
  /// and energy budget are overwritten per cell.
  MethodologyOptions base;
  /// Worker threads; 0 picks the hardware concurrency. Results are
  /// identical for any thread count.
  int threads = 0;
  /// Optional content-addressed memoization store (core/sweep_cache.h).
  /// Repeated cells hit whole cached results and repeated (cdfg,
  /// platform) pairs restore mapper snapshots instead of re-mapping.
  /// Null runs uncached; results are identical either way.
  SweepCache* cache = nullptr;
};

/// One cell of a sweep: an (app, platform, constraint, energy budget,
/// strategy, ordering) coordinate with its methodology result.
struct SweepCell {
  std::size_t app = 0;  ///< index into SweepSummary::apps
  double a_fpga = 0;
  int cgcs = 0;
  double platform_cost = 0;  ///< platform::platform_cost of the cell
  std::int64_t constraint = 0;
  double energy_budget_pj = 0;
  StrategyKind strategy = StrategyKind::kGreedyPaper;
  KernelOrdering ordering = KernelOrdering::kWeightDescending;
  PartitionReport report;
  std::vector<std::string> moved_names;  ///< report.moved as block names
  bool on_app_pareto = false;
  bool on_global_pareto = false;
};

/// Sweep output. Cells are in deterministic grid order: app-major, then
/// area, CGC count, constraint, energy budget, strategy, ordering. Two
/// kinds of Pareto front over (final cycles, kernels moved, platform
/// cost, energy pJ), all minimized: one per app (cells of that app only)
/// and one merged global front over every cell.
struct SweepSummary {
  std::vector<std::string> apps;
  std::vector<SweepCell> cells;
  std::vector<std::vector<std::size_t>> app_pareto;  ///< [app] -> cell indices
  std::vector<std::size_t> global_pareto;            ///< cell indices, ascending
};

/// Worker threads a sweep actually runs for `jobs` independent shards:
/// `requested` (0 = the hardware concurrency) clamped to [1, jobs].
/// Shared by the shard executor and the CLI's reporting.
int worker_count(std::size_t jobs, int requested);

/// Runs the whole grid x corpus sweep through run_shards_in_order. Work
/// is sharded by (app, platform) cell group: a thread claims one group,
/// builds one HybridMapper for that (cdfg, platform) pair and reuses it
/// across every (constraint, strategy, ordering) cell of the group — each
/// cell identical to a standalone run_methodology call with that cell's
/// constraint and options. Deterministic: output depends only on
/// (corpus, spec), never on thread scheduling.
SweepSummary sweep_design_space(const std::vector<CorpusApp>& corpus,
                                const SweepSpec& spec);

// ---------------------------------------------------------------------------
// Building blocks of sweep_design_space, exported so the distributed
// sweep service (core/sweep_service.h) runs workers and coordinator
// through the EXACT code path of a single-process sweep — that identity,
// not a parallel re-implementation, is what makes the distributed output
// byte-identical by construction.
// ---------------------------------------------------------------------------

/// Slot CAPACITY of one (app, platform) shard: constraint slots (3 when
/// spec.constraints is empty — the default quarter-point fractions) x
/// energy budgets x strategies x orderings. A shard may FILL fewer when
/// default fractions collapse on a tiny app; see compute_sweep_shard.
std::size_t sweep_cells_per_shard(const SweepSpec& spec);

/// Number of (app, platform) shards: corpus size x grid size. Shard s is
/// app s / grid.size(), platform s % grid.size() — the deterministic
/// index the sweep service partitions across workers.
std::size_t sweep_shard_count(const std::vector<CorpusApp>& corpus,
                              const SweepSpec& spec);

/// Where one shard sits in the sweep: its app and platform, decoded from
/// the shard index, plus the energy-budget axis its slots cycle through.
/// Slot i of a shard holds constraint i / (budgets x strategies x
/// orderings), then budget, strategy and ordering, outermost first. The
/// worker computing a shard and the coordinator merging a streamed one
/// both read their coordinates from here.
struct ShardLayout {
  std::size_t app = 0;
  double a_fpga = 0;
  int cgcs = 0;
  platform::Platform platform;  ///< make_paper_platform(a_fpga, cgcs)
  double platform_cost = 0;     ///< platform::platform_cost(platform)
  /// spec.energy_budgets, or the single base.cost.energy_budget_pj when
  /// that axis is empty.
  std::vector<double> budgets;
};
ShardLayout shard_layout(const SweepSpec& spec, std::size_t shard);

/// The argument checks sweep_design_space performs (non-empty corpus,
/// grid and strategy/ordering axes; unique app names). Throws Error.
void validate_sweep_inputs(const std::vector<CorpusApp>& corpus,
                           const SweepSpec& spec);

/// App fingerprints, one per corpus app (shared by every platform cell
/// of an app, so computed once, not per shard). Only meaningful with a
/// cache; pass the empty vector when spec.cache is null.
std::vector<Fingerprint> sweep_app_fingerprints(
    const std::vector<CorpusApp>& corpus);

/// Computes ONE shard's cell group into slots[0 .. cells_per_shard), the
/// work a sweep worker thread performs for one claimed shard: builds (or
/// cache-restores) the shard's HybridMapper lazily, resolves the
/// constraint axis, prices the grid one (strategy, ordering) walk at a
/// time, and publishes cells/mapper snapshots to spec.cache when set.
/// Returns the number of slots actually filled (the contiguous prefix;
/// fewer than capacity only when default constraints collapsed).
/// app_fps must be sweep_app_fingerprints(corpus) when spec.cache is
/// set, and is ignored otherwise.
std::size_t compute_sweep_shard(const std::vector<CorpusApp>& corpus,
                                const SweepSpec& spec,
                                const std::vector<Fingerprint>& app_fps,
                                std::size_t shard, SweepCell* slots);

/// The one shard executor: runs compute_sweep_shard over `shards` on
/// worker_count(shards.size(), spec.threads) threads, or inline on the
/// calling thread when that is 1. `slots(i)` supplies the output slots of
/// shards[i] (called on the thread computing it); `done(i, used)` is
/// called on the calling thread, in list order, as soon as shards[i] and
/// every earlier shard are finished — so callers that stream see each
/// shard as early as the order allows. An exception from a shard or from
/// `done` stops further shards and reaches the caller once every thread
/// has joined.
void run_shards_in_order(
    const std::vector<CorpusApp>& corpus, const SweepSpec& spec,
    const std::vector<Fingerprint>& app_fps,
    const std::vector<std::size_t>& shards,
    const std::function<SweepCell*(std::size_t)>& slots,
    const std::function<void(std::size_t, std::size_t)>& done);

/// The post-compute half of sweep_design_space: compacts away unused
/// tail slots (summary.cells must hold shard_used.size() x
/// cells_per_shard slots in shard order) and computes the per-app and
/// global Pareto fronts. The coordinator runs this over worker-streamed
/// cells; byte-identity follows because fronts are derived here, never
/// transmitted.
void finalize_sweep_summary(SweepSummary& summary,
                            const std::vector<std::size_t>& shard_used,
                            std::size_t cells_per_shard);

/// Renders the sweep as a fixed-width table: one row per cell, per-app
/// Pareto cells marked "*", cells also on the merged global front "**".
std::string describe(const SweepSummary& summary);

}  // namespace amdrel::core
