// Platform-grid x corpus sweep: grid-spec parsing, cell enumeration
// order, Pareto-front invariants, single-(app, platform) explorations
// (the one-app corpus on a 1x1 grid), and the cross-check property that
// pins the sharded sweep to the methodology — every cell of a batched
// sweep must be identical to a standalone run_methodology call with the
// cell's constraint and options.

#include "core/explorer.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/sweep_io.h"
#include "support/error.h"
#include "synth/cdfg_generator.h"
#include "workloads/paper_models.h"

namespace amdrel::core {
namespace {

using workloads::build_ofdm_model;
using workloads::paper_corpus;

// A one-block app that never executes: its all-fine cycle count is 0, so
// the default 1/4, 1/2, 3/4 fractions all round down to 0.
CorpusApp tiny_app() {
  CorpusApp tiny;
  tiny.name = "tiny";
  tiny.cdfg = ir::Cdfg("tiny");
  const ir::BlockId b = tiny.cdfg.add_block();
  ir::Dfg& dfg = tiny.cdfg.block(b).dfg;
  const ir::NodeId in = dfg.add_node(ir::OpKind::kInput);
  const ir::NodeId sum = dfg.add_node(ir::OpKind::kAdd, {in, in});
  dfg.add_node(ir::OpKind::kOutput, {sum});
  tiny.cdfg.set_entry(b);
  return tiny;
}

// The one-app OFDM corpus; with SweepSpec's default 1x1 grid (A_FPGA
// 1500, 2 CGCs) a sweep over it is a single-(app, platform) exploration.
std::vector<CorpusApp> ofdm_corpus() {
  std::vector<CorpusApp> corpus = paper_corpus();
  corpus.resize(1);
  return corpus;
}

TEST(PlatformGridTest, ParsesAreasCrossCgcCounts) {
  const auto grid = parse_platform_grid("1500,5000x2,3");
  ASSERT_TRUE(grid.has_value());
  EXPECT_EQ(grid->areas, (std::vector<double>{1500, 5000}));
  EXPECT_EQ(grid->cgc_counts, (std::vector<int>{2, 3}));
  EXPECT_EQ(grid->size(), 4u);
}

TEST(PlatformGridTest, ParsesSingleCell) {
  const auto grid = parse_platform_grid("800x1");
  ASSERT_TRUE(grid.has_value());
  EXPECT_EQ(grid->size(), 1u);
  EXPECT_EQ(grid->areas.front(), 800);
  EXPECT_EQ(grid->cgc_counts.front(), 1);
}

TEST(PlatformGridTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",          "1500",        "x",         "1500x",     "x2",
      "1500x2x3",  "1500,x2",     "1500x2,",   "a,bx2",     "1500x2.5",
      "-1500x2",   "0x2",         "1500x0",    "1500x-2",   "1500x9999",
      "nanx2",     "infx2",       "1500 x2",   "1500x 2",   "1,,2x3",
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(parse_platform_grid(spec).has_value()) << "'" << spec << "'";
  }
}

TEST(PlatformCostTest, AreaPlusCgcNodeEquivalent) {
  // Default fine-grain areas: MUL 60 + ALU 12 = 72 per CGC node; a 2x2
  // CGC adds 288 area-equivalent units.
  EXPECT_DOUBLE_EQ(
      platform::platform_cost(platform::make_paper_platform(1500, 2)),
      1500 + 2 * 4 * 72.0);
  EXPECT_DOUBLE_EQ(
      platform::platform_cost(platform::make_paper_platform(5000, 3)),
      5000 + 3 * 4 * 72.0);
}

TEST(SweepTest, CellOrderIsAppMajorThenPlatformThenEngineGrid) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.constraints = {50'000, 200'000};
  spec.strategies = {StrategyKind::kGreedyPaper, StrategyKind::kAnnealing};
  spec.orderings = {KernelOrdering::kWeightDescending,
                    KernelOrdering::kBenefitDescending};
  spec.threads = 2;
  const auto summary = sweep_design_space(corpus, spec);
  ASSERT_EQ(summary.apps, (std::vector<std::string>{"ofdm", "jpeg"}));
  ASSERT_EQ(summary.cells.size(), 2u * 4u * 2u * 2u * 2u);
  std::size_t index = 0;
  for (std::size_t app = 0; app < corpus.size(); ++app) {
    for (const double area : spec.grid.areas) {
      for (const int cgcs : spec.grid.cgc_counts) {
        for (const std::int64_t constraint : spec.constraints) {
          for (const StrategyKind strategy : spec.strategies) {
            for (const KernelOrdering ordering : spec.orderings) {
              const SweepCell& cell = summary.cells[index++];
              EXPECT_EQ(cell.app, app);
              EXPECT_EQ(cell.a_fpga, area);
              EXPECT_EQ(cell.cgcs, cgcs);
              EXPECT_EQ(cell.constraint, constraint);
              EXPECT_EQ(cell.strategy, strategy);
              EXPECT_EQ(cell.ordering, ordering);
            }
          }
        }
      }
    }
  }
}

// The tentpole property: random platform grids, batched sweep vs the
// documented reference for its axis walk — every cell must carry the
// report a standalone run_methodology with the cell's constraint and
// options produces, rendered byte-identical.
class SweepCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepCrossCheck, CellsEqualStandaloneExplorerRuns) {
  std::mt19937_64 rng(GetParam());
  const std::vector<double> area_pool = {800, 1500, 3000, 5000, 8000};
  const std::vector<int> cgc_pool = {1, 2, 3, 4};

  SweepSpec spec;
  spec.grid.areas.clear();
  spec.grid.cgc_counts.clear();
  const std::size_t n_areas = 1 + rng() % 3;
  const std::size_t n_cgcs = 1 + rng() % 2;
  for (std::size_t i = 0; i < n_areas; ++i) {
    spec.grid.areas.push_back(area_pool[rng() % area_pool.size()]);
  }
  for (std::size_t i = 0; i < n_cgcs; ++i) {
    spec.grid.cgc_counts.push_back(cgc_pool[rng() % cgc_pool.size()]);
  }
  spec.strategies = {StrategyKind::kGreedyPaper, StrategyKind::kExhaustive};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.base.exhaustive_max_kernels = 10;
  spec.threads = 3;

  std::vector<CorpusApp> corpus(2);
  workloads::PaperApp ofdm = build_ofdm_model();
  corpus[0].name = "ofdm";
  corpus[0].cdfg = std::move(ofdm.cdfg);
  corpus[0].profile = std::move(ofdm.profile);
  synth::CdfgGenConfig config;
  config.segments = 4;
  config.seed = GetParam();
  synth::SyntheticApp synthetic = synth::generate_app(config);
  corpus[1].name = "synthetic";
  corpus[1].cdfg = std::move(synthetic.cdfg);
  corpus[1].profile = std::move(synthetic.profile);

  const auto summary = sweep_design_space(corpus, spec);

  // Replay every cell through run_methodology, re-deriving the default
  // constraint axis (1/4, 1/2, 3/4 of all-fine) from the mapper.
  std::size_t index = 0;
  for (const CorpusApp& app : corpus) {
    for (const double area : spec.grid.areas) {
      for (const int cgcs : spec.grid.cgc_counts) {
        const auto p = platform::make_paper_platform(area, cgcs);
        const std::int64_t all_fine =
            HybridMapper(app.cdfg, p).all_fine_cycles(app.profile);
        ASSERT_GE(all_fine, 4) << "quarter points would clamp or collapse";
        for (const std::int64_t constraint :
             {all_fine / 4, all_fine / 2, (3 * all_fine) / 4}) {
          for (const StrategyKind strategy : spec.strategies) {
            for (const KernelOrdering ordering : spec.orderings) {
              ASSERT_LT(index, summary.cells.size());
              const SweepCell& cell = summary.cells[index++];
              MethodologyOptions options = spec.base;
              options.strategy = strategy;
              options.ordering = ordering;
              const PartitionReport expected = run_methodology(
                  app.cdfg, app.profile, p, constraint, options);
              EXPECT_EQ(cell.a_fpga, area);
              EXPECT_EQ(cell.cgcs, cgcs);
              EXPECT_EQ(cell.constraint, constraint);
              EXPECT_EQ(cell.strategy, strategy);
              EXPECT_EQ(cell.ordering, ordering);
              EXPECT_EQ(cell.report.moved, expected.moved);
              EXPECT_EQ(cell.report.final_cycles, expected.final_cycles);
              EXPECT_EQ(cell.report.met, expected.met);
              EXPECT_EQ(cell.report.engine_iterations,
                        expected.engine_iterations);
              // Byte-identical when rendered through the same report path.
              EXPECT_EQ(describe(cell.report, app.cdfg),
                        describe(expected, app.cdfg));
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(index, summary.cells.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(SweepTest, ParetoFrontInvariants) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 2;
  const auto summary = sweep_design_space(corpus, spec);

  auto dominates = [](const SweepCell& b, const SweepCell& a) {
    const bool no_worse = b.report.final_cycles <= a.report.final_cycles &&
                          b.report.moved.size() <= a.report.moved.size() &&
                          b.platform_cost <= a.platform_cost &&
                          b.report.energy.total_pj() <=
                              a.report.energy.total_pj();
    const bool better = b.report.final_cycles < a.report.final_cycles ||
                        b.report.moved.size() < a.report.moved.size() ||
                        b.platform_cost < a.platform_cost ||
                        b.report.energy.total_pj() <
                            a.report.energy.total_pj();
    return no_worse && better;
  };

  ASSERT_EQ(summary.app_pareto.size(), corpus.size());
  for (std::size_t app = 0; app < corpus.size(); ++app) {
    EXPECT_FALSE(summary.app_pareto[app].empty());
    for (const std::size_t i : summary.app_pareto[app]) {
      ASSERT_LT(i, summary.cells.size());
      EXPECT_EQ(summary.cells[i].app, app);
      EXPECT_TRUE(summary.cells[i].on_app_pareto);
      for (const SweepCell& other : summary.cells) {
        if (other.app != app) continue;
        EXPECT_FALSE(dominates(other, summary.cells[i]));
      }
    }
  }
  EXPECT_FALSE(summary.global_pareto.empty());
  for (const std::size_t i : summary.global_pareto) {
    EXPECT_TRUE(summary.cells[i].on_global_pareto);
    // Global front cells are on their app's front too (app cells are a
    // subset of all cells).
    EXPECT_TRUE(summary.cells[i].on_app_pareto);
    for (const SweepCell& other : summary.cells) {
      EXPECT_FALSE(dominates(other, summary.cells[i]));
    }
  }
  // Off-front cells are dominated by a same-app cell.
  for (const SweepCell& cell : summary.cells) {
    if (cell.on_app_pareto) continue;
    bool dominated = false;
    for (const SweepCell& other : summary.cells) {
      if (other.app != cell.app) continue;
      dominated = dominated || dominates(other, cell);
    }
    EXPECT_TRUE(dominated);
  }
}

TEST(SweepTest, MovedNamesMatchReportBlocks) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  for (const SweepCell& cell : summary.cells) {
    ASSERT_EQ(cell.moved_names.size(), cell.report.moved.size());
    for (std::size_t m = 0; m < cell.moved_names.size(); ++m) {
      EXPECT_EQ(cell.moved_names[m],
                corpus[cell.app].cdfg.block(cell.report.moved[m]).name);
    }
  }
}

TEST(SweepTest, EmptyCorpusAndEmptyGridRejected) {
  const auto corpus = paper_corpus();
  EXPECT_THROW(sweep_design_space({}, SweepSpec{}), Error);
  SweepSpec no_grid;
  no_grid.grid.areas.clear();
  EXPECT_THROW(sweep_design_space(corpus, no_grid), Error);
  SweepSpec no_strategies;
  no_strategies.strategies.clear();
  EXPECT_THROW(sweep_design_space(corpus, no_strategies), Error);

  // Duplicate app names would emit duplicate JSON app_pareto keys.
  auto duplicated = paper_corpus();
  duplicated[1].name = duplicated[0].name;
  SweepSpec tiny;
  tiny.strategies = {StrategyKind::kGreedyPaper};
  EXPECT_THROW(sweep_design_space(duplicated, tiny), Error);
}

TEST(SweepTest, ShardErrorsReachTheCallerAtAnyThreadCount) {
  // A shard that throws (a negative combined-objective weight, rejected
  // inside the engine) must surface as Error from sweep_design_space,
  // not end the program from a worker thread.
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2, 3};
  spec.constraints = {workloads::kOfdmTimingConstraint};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.base.cost.objective.cycle_weight = -1;
  for (const int threads : {1, 4}) {
    spec.threads = threads;
    EXPECT_THROW(sweep_design_space(paper_corpus(), spec), Error)
        << threads << " threads";
  }
}

TEST(SweepTest, EnergyBudgetAxisMultipliesCells) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500};
  spec.grid.cgc_counts = {2};
  spec.constraints = {workloads::kOfdmTimingConstraint};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.base.cost.objective.kind = ObjectiveKind::kEnergy;
  spec.energy_budgets = {1.0e6, 7.0e5};
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  // app x platform x constraint x BUDGET x strategy x ordering.
  ASSERT_EQ(summary.cells.size(), 2u * 1u * 1u * 2u * 1u * 1u);
  EXPECT_EQ(summary.cells[0].energy_budget_pj, 1.0e6);
  EXPECT_EQ(summary.cells[1].energy_budget_pj, 7.0e5);
  for (const SweepCell& cell : summary.cells) {
    EXPECT_EQ(cell.report.objective, ObjectiveKind::kEnergy);
    EXPECT_EQ(cell.report.energy_budget_pj, cell.energy_budget_pj);
    // met is the energy test under kEnergy.
    EXPECT_EQ(cell.report.met,
              cell.report.energy.total_pj() <= cell.energy_budget_pj);
  }
  // OFDM: 1e6 pJ is reachable after one move, 7e5 pJ needs four.
  EXPECT_TRUE(summary.cells[0].report.met);
  EXPECT_EQ(summary.cells[0].report.moved.size(), 1u);
  EXPECT_TRUE(summary.cells[1].report.met);
  EXPECT_EQ(summary.cells[1].report.moved.size(), 4u);
}

TEST(SweepTest, EnergyParetoAxisKeepsLowEnergyCells) {
  // Two cells with identical cycles/moves/platform cost but different
  // energy: the energy axis must keep the cheaper one undominated. The
  // timing-driven OFDM split at A=1500 vs A=5000 differs in reconfig
  // energy only when the timing results coincide — so instead compare
  // via the JSON-visible invariant: every cell beaten on all four axes
  // is off the front.
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.threads = 2;
  const auto summary = sweep_design_space(corpus, spec);
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const SweepCell& a = summary.cells[i];
    bool dominated = false;
    for (const SweepCell& b : summary.cells) {
      if (&b == &a) continue;
      const bool no_worse =
          b.report.final_cycles <= a.report.final_cycles &&
          b.report.moved.size() <= a.report.moved.size() &&
          b.platform_cost <= a.platform_cost &&
          b.report.energy.total_pj() <= a.report.energy.total_pj();
      const bool better =
          b.report.final_cycles < a.report.final_cycles ||
          b.report.moved.size() < a.report.moved.size() ||
          b.platform_cost < a.platform_cost ||
          b.report.energy.total_pj() < a.report.energy.total_pj();
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    EXPECT_EQ(a.on_global_pareto, !dominated) << "cell " << i;
  }
}

TEST(SweepTest, EnergySweepCachedEqualsUncachedAnyThreads) {
  const auto corpus = paper_corpus();
  auto spec = [&](int threads, SweepCache* cache) {
    SweepSpec s;
    s.grid.areas = {1500, 5000};
    s.grid.cgc_counts = {2};
    s.strategies = {StrategyKind::kGreedyPaper, StrategyKind::kExhaustive};
    s.orderings = {KernelOrdering::kWeightDescending};
    s.base.cost.objective.kind = ObjectiveKind::kEnergy;
    s.base.exhaustive_max_kernels = 10;
    s.energy_budgets = {1.0e6, 1.18e8};
    s.threads = threads;
    s.cache = cache;
    return s;
  };
  const std::string uncached =
      sweep_to_json(sweep_design_space(corpus, spec(2, nullptr)));
  SweepCache cache;
  const auto cold = sweep_design_space(corpus, spec(2, &cache));
  EXPECT_EQ(sweep_to_json(cold), uncached);
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {1, 2, hw}) {
    cache.reset_stats();
    const auto warm = sweep_design_space(corpus, spec(threads, &cache));
    EXPECT_EQ(sweep_to_json(warm), uncached) << threads << " threads";
    EXPECT_EQ(cache.stats().cell_misses, 0u) << threads << " threads";
    EXPECT_EQ(cache.stats().mapper_builds, 0u) << threads << " threads";
  }
  // And across a persistence round trip: energy doubles are stored as
  // bit patterns, so the reloaded cache serves byte-identical cells.
  const std::string path = testing::TempDir() + "energy_sweep_cache.jsonl";
  std::string error;
  ASSERT_TRUE(cache.save(path, &error)) << error;
  SweepCache fresh;
  ASSERT_TRUE(fresh.load(path, &error)) << error;
  const auto reloaded = sweep_design_space(corpus, spec(2, &fresh));
  EXPECT_EQ(sweep_to_json(reloaded), uncached);
  EXPECT_EQ(fresh.stats().cell_misses, 0u);
  std::remove(path.c_str());
}

TEST(SweepIoTest, JsonEmitsEnergyColumns) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.grid.areas = {1500};
  spec.grid.cgc_counts = {2};
  spec.constraints = {workloads::kOfdmTimingConstraint};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings = {KernelOrdering::kWeightDescending};
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  const std::string json = sweep_to_json(summary);
  EXPECT_NE(json.find("\"objective\": \"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_budget_pj\": "), std::string::npos);
  EXPECT_NE(json.find("\"initial_energy_pj\": "), std::string::npos);
  EXPECT_NE(json.find("\"energy_pj\": "), std::string::npos);
  EXPECT_NE(json.find("\"energy_reduction_percent\": "), std::string::npos);
  const std::string csv = sweep_to_csv(summary);
  EXPECT_NE(csv.find(",objective,energy_budget_pj,"), std::string::npos);
  EXPECT_NE(csv.find(",initial_energy_pj,energy_pj,"), std::string::npos);
}

TEST(SweepIoTest, JsonDeclaresSchemaVersionAndCellCountMatchesCsv) {
  const auto corpus = paper_corpus();
  SweepSpec spec;
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  const std::string json = sweep_to_json(summary);
  EXPECT_NE(json.find("\"schema_version\": " +
                      std::to_string(kSweepSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"apps\": [\"ofdm\", \"jpeg\"]"), std::string::npos);

  const std::string csv = sweep_to_csv(summary);
  const std::size_t csv_rows =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(csv_rows, summary.cells.size() + 1);  // header + one per cell
}

TEST(SweepTest, TinyAppDefaultConstraintSlotsCompacted) {
  // One corpus app whose all-fine cycle count collapses the default 1/4,
  // 1/2, 3/4 fractions to the single clamped constraint 1 (see
  // ExplorerTest.TinyAppDefaultConstraintsClampAndDedupe), swept next to
  // OFDM whose fractions
  // stay distinct: the tiny app's shards fill one constraint slot each
  // and the unused tail must be compacted away, not emitted as
  // uninitialized cells.
  std::vector<CorpusApp> corpus;
  corpus.push_back(tiny_app());
  const workloads::PaperApp ofdm = build_ofdm_model();
  corpus.push_back({"ofdm", ofdm.cdfg, ofdm.profile});

  SweepSpec spec;  // default constraints
  spec.grid.areas = {1500, 5000};
  spec.grid.cgc_counts = {2};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.threads = 2;
  const auto summary = sweep_design_space(corpus, spec);

  // tiny: 2 platforms x 1 deduped constraint; ofdm: 2 platforms x 3.
  ASSERT_EQ(summary.cells.size(), 2u * 1u + 2u * 3u);
  for (const SweepCell& cell : summary.cells) {
    EXPECT_GE(cell.constraint, 1) << summary.apps[cell.app];
    if (cell.app == 0) {
      EXPECT_EQ(cell.constraint, 1);
    }
  }
  // App-major cell order survives the compaction.
  EXPECT_EQ(summary.cells[0].app, 0u);
  EXPECT_EQ(summary.cells[1].app, 0u);
  for (std::size_t i = 2; i < summary.cells.size(); ++i) {
    EXPECT_EQ(summary.cells[i].app, 1u);
  }
  // The emitted formats agree with the compacted cell count.
  const std::string csv = sweep_to_csv(summary);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            summary.cells.size() + 1);
}

TEST(ExplorerTest, EnergyBudgetAxisExpandsGrid) {
  SweepSpec spec;  // 1x1 grid
  spec.constraints = {workloads::kOfdmTimingConstraint};
  spec.energy_budgets = {1.0e6, 7.0e5};
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.base.cost.objective.kind = ObjectiveKind::kEnergy;
  const auto summary = sweep_design_space(ofdm_corpus(), spec);
  ASSERT_EQ(summary.cells.size(), 2u);
  EXPECT_EQ(summary.cells[0].energy_budget_pj, 1.0e6);
  EXPECT_EQ(summary.cells[1].energy_budget_pj, 7.0e5);
  for (const SweepCell& cell : summary.cells) {
    EXPECT_EQ(cell.report.objective, ObjectiveKind::kEnergy);
    EXPECT_TRUE(cell.report.met);
    EXPECT_LE(cell.report.energy.total_pj(), cell.energy_budget_pj);
  }
  // The tighter budget needs strictly more kernels on the CGC.
  EXPECT_LT(summary.cells[0].report.moved.size(),
            summary.cells[1].report.moved.size());
}

TEST(ExplorerTest, EmptyStrategyGridRejected) {
  SweepSpec spec;
  spec.constraints = {1000};
  spec.strategies.clear();
  EXPECT_THROW(sweep_design_space(ofdm_corpus(), spec), Error);
  spec.strategies = {StrategyKind::kGreedyPaper};
  spec.orderings.clear();
  EXPECT_THROW(sweep_design_space(ofdm_corpus(), spec), Error);
}

TEST(ExplorerTest, TinyAppDefaultConstraintsClampAndDedupe) {
  // The explorer must clamp each collapsed fraction to at least one
  // cycle and drop the duplicates instead of sweeping three unmeetable
  // "finish in no cycles" constraints.
  std::vector<CorpusApp> corpus;
  corpus.push_back(tiny_app());
  ASSERT_EQ(HybridMapper(corpus[0].cdfg, platform::make_paper_platform(1500, 2))
                .all_fine_cycles(corpus[0].profile),
            0);
  SweepSpec spec;  // 1x1 grid, default constraints
  spec.threads = 1;
  const auto summary = sweep_design_space(corpus, spec);
  // All three fractions collapse to the single clamped constraint 1.
  ASSERT_EQ(summary.cells.size(),
            spec.strategies.size() * spec.orderings.size());
  for (const SweepCell& cell : summary.cells) {
    EXPECT_EQ(cell.constraint, 1);
    EXPECT_TRUE(cell.report.met);
  }
}

}  // namespace
}  // namespace amdrel::core
