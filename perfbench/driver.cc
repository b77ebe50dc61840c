// End-to-end maintenance benchmark driver (one workload per invocation).
//
// Runs the paper's maintenance loop through the public API in --rounds
// closed-loop rounds: each round sets a workload up from scratch (generate,
// ingest, materialize, attach epochs or the buffer manager), applies a fixed
// batch sequence, and then — outside every timer — checks the maintained
// views against recomputation. Round r draws its data from
// seed + r * kRoundSeedStride, so round 0 of seed 42 is the figure benches'
// experiment, and a (seed, rounds) pair always covers the same data.
//
// Writes <out>/result.json with every raw sample (setup phases, per-batch
// reports, deletion and query outcomes, a reader-latency histogram, per-round
// peak RSS, gate verdicts) and, with --trace, <out>/trace.json (Chrome
// trace) plus <out>/metrics_batch.json (the metrics registry over the insert
// batches). perfbench/run.py turns those into the benchmark's metrics; this
// program only measures.
//
// Usage:
//   avm_perfbench --workload ptf25-scan|geo-churn|ptf-serve|ptf-spill
//                 --seed N --out DIR [--rounds R] [--scale bench|tiny]
//                 [--trace] [--corrupt-view-cell]

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "cluster/distributed_array.h"
#include "common/hash.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "join/similarity_join.h"
#include "maintenance/deletions.h"
#include "maintenance/maintainer.h"
#include "maintenance/multi_view_maintainer.h"
#include "query/query_planner.h"
#include "serve/epoch_manager.h"
#include "serve/snapshot_query.h"
#include "telemetry/metrics.h"
#include "telemetry/stopwatch.h"
#include "telemetry/trace.h"
#include "view/view_set.h"
#include "workload/geo.h"
#include "workload/ptf.h"

namespace avm::perfbench {
namespace {

constexpr uint64_t kRoundSeedStride = 7919;
constexpr MaintenanceMethod kMethod = MaintenanceMethod::kReassign;

enum class Kind { kPtf25Scan, kGeoChurn, kPtfServe, kPtfSpill };

/// Fixed per-workload shape of the closed loop; see BENCHMARK.json for why
/// each workload exists.
struct Workload {
  std::string name;
  Kind kind;
  DatasetKind dataset;
  int pool_threads;  // host pool of the cluster (the caller drains too)
  int readers;       // snapshot reader threads beside the writer
  int views;         // members of the maintained view set
};

std::optional<Workload> FindWorkload(const std::string& name) {
  const std::vector<Workload> all = {
      {"ptf25-scan", Kind::kPtf25Scan, DatasetKind::kPtf25, 4, 0, 1},
      {"geo-churn", Kind::kGeoChurn, DatasetKind::kGeo, 1, 0, 1},
      {"ptf-serve", Kind::kPtfServe, DatasetKind::kPtf25, 1, 2, 4},
      {"ptf-spill", Kind::kPtfSpill, DatasetKind::kPtf5, 1, 0, 1},
  };
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

/// Dataset sizes. "bench" is what the benchmark measures; "tiny" is exactly
/// the figure benches' tiny scale (bench/bench_util.h, AVM_BENCH_SCALE=tiny),
/// which the self-tests run and which ties this driver to
/// fig3_maintenance_time.
std::optional<ExperimentScale> MakeScale(const std::string& name,
                                         const Workload& w,
                                         uint64_t data_seed) {
  ExperimentScale scale;
  scale.num_workers = 8;
  scale.num_threads = w.pool_threads;
  scale.num_batches = 10;
  scale.seed = data_seed;
  scale.ptf.time_range = 2240;
  scale.ptf.ra_range = 4000;
  scale.ptf.dec_range = 2000;
  scale.ptf.base_pointed_frac = 0.98;
  scale.ptf.pointing_ra_chunks = 4;
  scale.ptf.pointing_dec_chunks = 3;
  scale.geo.batch_frac = 0.01;
  if (name == "tiny") {
    scale.ptf.base_cells = 4000;
    scale.ptf.batch_cells_min = 600;
    scale.ptf.batch_cells_max = 1000;
    scale.geo.seed_pois = 800;
  } else if (name == "bench") {
    // Sized so one round (set-up + batches) takes a few seconds, which puts
    // several rounds and dozens of batches into one measured run. Nightly
    // batch sizes are fixed so that run-to-run spread comes from where the
    // pointings fall, not from how many detections a night drew.
    switch (w.kind) {
      case Kind::kPtf25Scan:
        scale.ptf.base_cells = 10000;
        scale.ptf.batch_cells_min = 2000;
        scale.ptf.batch_cells_max = 2000;
        break;
      case Kind::kGeoChurn:
        scale.geo.seed_pois = 4000;
        break;
      case Kind::kPtfServe:
        // Quarter-length nights shrink the any-time window (and with it the
        // union shape the multi-view pass compiles every batch) fourfold.
        scale.ptf.night_len = 28;
        scale.ptf.time_range = 560;
        scale.ptf.base_cells = 2000;
        scale.ptf.batch_cells_min = 400;
        scale.ptf.batch_cells_max = 400;
        break;
      case Kind::kPtfSpill:
        scale.ptf.base_cells = 12000;
        scale.ptf.batch_cells_min = 2400;
        scale.ptf.batch_cells_max = 2400;
        break;
    }
  } else {
    return std::nullopt;
  }
  return scale;
}

// ---------------------------------------------------------------------------
// Small helpers.

/// The process's resident-set high-water mark (VmHWM), 0 if unreadable.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Returns freed heap to the kernel and restarts the high-water mark from
/// the current resident set, so the next round's peak does not carry the
/// previous round's correctness gate. False if the kernel refused.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

/// Order-independent content digest of finalized cells inside [lo, hi]
/// (empty bounds = everything): equal digests mean equal cell sets with
/// bit-identical values, whatever order the cells were visited in.
struct Digest {
  uint64_t sum = 0;
  uint64_t cells = 0;
  bool operator==(const Digest& o) const {
    return sum == o.sum && cells == o.cells;
  }
};

Digest DigestOf(const SparseArray& finalized, const std::vector<int64_t>& lo,
                const std::vector<int64_t>& hi) {
  Digest d;
  finalized.ForEachCell(
      [&](std::span<const int64_t> coord, std::span<const double> values) {
        for (size_t i = 0; i < lo.size(); ++i) {
          if (coord[i] < lo[i] || coord[i] > hi[i]) return;
        }
        uint64_t h = HashInts(coord.data(), coord.size());
        for (double v : values) {
          uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof(bits));
          h = HashCombine(h, bits);
        }
        d.sum += HashMix(h);
        ++d.cells;
      });
  return d;
}

MetricsSnapshot SnapshotIfTracing(bool trace) {
  return trace ? MetricsRegistry::Global().Snapshot() : MetricsSnapshot{};
}

/// Adds the counter/histogram growth since `before` into `sum` and keeps
/// the current gauges: the registry windowed to the timed batches, without
/// the set-up's materialization joins.
void AccumulateDelta(const MetricsSnapshot& before, MetricsSnapshot* sum) {
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  for (size_t i = 0; i < kNumCounters; ++i) sum->counters[i] += delta.counters[i];
  for (size_t h = 0; h < kNumHistograms; ++h) {
    for (size_t b = 0; b < kNumHistogramBuckets; ++b) {
      sum->histograms[h][b] += delta.histograms[h][b];
    }
  }
  sum->gauges = delta.gauges;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Raw samples.

struct SetupSample {
  double total_s = 0, generate_s = 0, ingest_s = 0, materialize_s = 0,
         attach_s = 0;
};

struct BatchSample {
  int round = 0;
  int index = 0;
  double wall_s = 0;
  MaintenanceReport report;
  double rebalance_s = 0;
  BufferManager::Stats buffer;
  uint64_t epochs_live = 0;
};

struct DeleteSample {
  double wall_s = 0;
  DeletionStats stats;
};

struct QuerySample {
  double wall_s = 0;
  double estimate_s = 0;  // separate Estimate call (trace only)
  bool used_view = false;
  double delta_ratio = 0;
};

/// Latencies in 1%-wide logarithmic nanosecond buckets: bucket i holds
/// [kBase^i, kBase^(i+1)) ns. Fixed memory however many reads a run makes,
/// so the ptf-serve peak RSS measures the program, not the recorder.
struct LatencyHistogram {
  static constexpr double kBase = 1.01;
  static constexpr size_t kBuckets = 2400;  // up to ~23 s
  std::vector<uint64_t> buckets = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count = 0;

  void Add(int64_t ns) {
    const double x = std::log(static_cast<double>(std::max<int64_t>(ns, 1))) /
                     std::log(kBase);
    ++buckets[std::min(static_cast<size_t>(x), kBuckets - 1)];
    ++count;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
    count += o.count;
  }
};

/// What one reader saw of one (epoch, member): an epoch is immutable, so
/// every read of it must return the same content.
struct EpochReads {
  Digest digest;        // content of the first read
  uint64_t reads = 0;
  uint64_t differing = 0;  // later reads whose content differed
};

struct Gate {
  uint64_t checks = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> messages;
  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++mismatches;
      if (messages.size() < 20) messages.push_back(what);
    }
  }
};

struct RunState {
  Workload workload;
  std::string scale_name;
  ExperimentScale scale;  // round 0's scale (seed differs per round)
  uint64_t seed = 0;
  bool trace = false;
  bool corrupt = false;

  std::vector<SetupSample> setups;
  std::vector<BatchSample> batches;
  std::vector<DeleteSample> deletes;
  std::vector<QuerySample> queries;
  std::vector<double> round_timed_wall_s;
  std::vector<double> round_sim_s;
  // VmHWM at the end of each round's timed phase, before the gate.
  std::vector<double> round_peak_rss_mib;
  bool peak_rss_reset = true;  // false: only round 0's peak excludes a gate
  uint64_t delta_cells = 0;

  // ptf-serve.
  LatencyHistogram read_latency;
  double read_window_s = 0;
  uint64_t reads = 0;
  uint64_t read_mismatches = 0;
  uint64_t read_failures = 0;
  uint64_t torn_snapshots = 0;
  uint64_t epochs_live_max = 0;
  EpochManager::RetirementStats retirement;
  std::vector<uint64_t> spill_budgets;  // per round (ptf-spill)

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  Gate gate;

  MetricsSnapshot batch_metrics;  // registry growth over insert batches

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Set-up: mirrors PrepareExperiment (harness/experiment.cc) step by step so
// each step gets its own span; the self-test checks that the simulated
// makespans match fig3_maintenance_time's.

struct Fixture {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<MaterializedView>> views;  // [0] = primary
  std::vector<SparseArray> batches;
  std::vector<std::vector<int64_t>> base_sample;  // geo-churn step-0 victims
  std::optional<ArraySchema> schema;
  // Declared last so they are torn down first: the buffer manager detaches
  // (and faults back) every store before the cluster goes away.
  std::unique_ptr<EpochManager> epochs;
  std::unique_ptr<BufferManager> buffer;
};

Shape PtfShape(DatasetKind kind, int64_t time_range) {
  if (kind == DatasetKind::kPtf5) {
    return Shape::MinkowskiSum(Shape::L1Ball(3, 1, {1, 2}),
                               Shape::Window(3, 0, -(time_range - 1), 0))
        .value();
  }
  return Shape::MinkowskiSum(
             Shape::LinfBall(3, 2, {1, 2}),
             Shape::Window(3, 0, -(time_range - 1), time_range - 1))
      .value();
}

/// The four sibling shapes of bench/serve_driver.cc --views=4: the PTF-25
/// primary L∞(2) followed by L∞(1), L1(2), L1(1), all over any time.
Shape ServeMemberShape(size_t index, int64_t time_range) {
  Shape spatial = Shape::LinfBall(3, 2, {1, 2});
  switch (index) {
    case 1: spatial = Shape::LinfBall(3, 1, {1, 2}); break;
    case 2: spatial = Shape::L1Ball(3, 2, {1, 2}); break;
    case 3: spatial = Shape::L1Ball(3, 1, {1, 2}); break;
    default: break;
  }
  return Shape::MinkowskiSum(
             spatial, Shape::Window(3, 0, -(time_range - 1), time_range - 1))
      .value();
}

Result<Fixture> SetUp(const Workload& w, const ExperimentScale& scale,
                      const std::string& spill_dir, SetupSample* sample) {
  Stopwatch total;
  Fixture f;
  const bool geo = w.dataset == DatasetKind::kGeo;

  // Data generation (the program never sees the seed, only these arrays).
  std::optional<PtfGenerator> ptf_gen;
  std::optional<GeoDataset> geo_data;
  {
    Stopwatch clock;
    ScopedSpan span("workload.generate", "bench");
    if (geo) {
      GeoOptions options = scale.geo;
      options.seed ^= scale.seed;
      AVM_ASSIGN_OR_RETURN(GeoDataset data,
                           GenerateGeo(options, scale.num_batches));
      geo_data.emplace(std::move(data));
      f.batches = std::move(geo_data->random_batches);
    } else {
      PtfOptions options = scale.ptf;
      options.seed ^= scale.seed;
      AVM_ASSIGN_OR_RETURN(PtfGenerator gen, PtfGenerator::Create(options));
      ptf_gen.emplace(std::move(gen));
      AVM_ASSIGN_OR_RETURN(f.batches,
                           ptf_gen->MakeRealBatches(scale.num_batches));
    }
    sample->generate_s = clock.ElapsedSeconds();
  }

  const size_t range_dim = geo ? 0 : 1;
  {
    Stopwatch clock;
    ScopedSpan span("cluster.ingest", "bench");
    f.catalog = std::make_unique<Catalog>();
    f.cluster = std::make_unique<Cluster>(scale.num_workers, scale.cost_model,
                                          scale.num_threads);
    const SparseArray& base = geo ? geo_data->base : ptf_gen->base();
    f.schema.emplace(base.schema());
    AVM_ASSIGN_OR_RETURN(
        DistributedArray array,
        DistributedArray::Create(base.schema(), MakeRangePlacement(range_dim),
                                 f.catalog.get(), f.cluster.get()));
    AVM_RETURN_IF_ERROR(array.Ingest(base));
    if (w.kind == Kind::kGeoChurn) {
      // Step 0 deletes about half a batch worth of base POIs.
      const uint64_t want = f.batches.empty() ? 0 : f.batches[0].NumCells() / 2;
      const uint64_t every = std::max<uint64_t>(1, base.NumCells() / (want + 1));
      uint64_t i = 0;
      base.ForEachCell(
          [&](std::span<const int64_t> coord, std::span<const double>) {
            if (i++ % every == 0 && f.base_sample.size() < want) {
              f.base_sample.emplace_back(coord.begin(), coord.end());
            }
          });
    }
    sample->ingest_s = clock.ElapsedSeconds();
  }

  {
    Stopwatch clock;
    ScopedSpan span("view.materialize", "bench");
    for (int k = 0; k < w.views; ++k) {
      ViewDefinition def;
      if (geo) {
        def.view_name = "GEO_view";
        def.left_array = "GEO";
        def.right_array = "GEO";
        def.mapping = DimMapping::Identity(2);
        def.shape = Shape::LinfBall(2, 1);
      } else {
        def.view_name = w.dataset == DatasetKind::kPtf5 ? "PTF5_view"
                                                        : "PTF25_view";
        if (k > 0) def.view_name += std::to_string(k);
        def.left_array = "PTF";
        def.right_array = "PTF";
        def.mapping = DimMapping::Identity(3);
        def.shape = w.kind == Kind::kPtfServe
                        ? ServeMemberShape(static_cast<size_t>(k),
                                           scale.ptf.time_range)
                        : PtfShape(w.dataset, scale.ptf.time_range);
      }
      def.aggregates = {{AggregateFunction::kCount, 0, "cnt"}};
      AVM_ASSIGN_OR_RETURN(
          MaterializedView view,
          CreateMaterializedView(std::move(def), MakeRangePlacement(range_dim),
                                 f.catalog.get(), f.cluster.get()));
      f.views.push_back(std::make_unique<MaterializedView>(std::move(view)));
    }
    sample->materialize_s = clock.ElapsedSeconds();
  }

  {
    Stopwatch clock;
    if (w.kind == Kind::kPtfSpill) {
      ScopedSpan span("buffer.attach", "bench");
      // Budget = a quarter of the post-setup resident footprint, so the
      // maintained working set cannot stay in memory.
      uint64_t footprint = 0;
      std::vector<ChunkStore*> stores;
      for (NodeId n = 0; n < f.cluster->num_workers(); ++n) {
        stores.push_back(&f.cluster->store(n));
      }
      stores.push_back(&f.cluster->store(kCoordinatorNode));
      for (ChunkStore* store : stores) {
        const ChunkStore::FormatResidency r = store->ResidencyByFormat();
        footprint += r.sparse_bytes + r.dense_bytes;
      }
      BufferOptions options;
      options.budget_bytes = std::max<uint64_t>(1, footprint / 4);
      options.spill_dir = spill_dir;
      f.buffer = std::make_unique<BufferManager>(options);
      for (ChunkStore* store : stores) f.buffer->Register(store);
    } else if (w.kind == Kind::kPtfServe) {
      ScopedSpan span("serve.attach", "bench");
      f.epochs = std::make_unique<EpochManager>();
      std::vector<ViewPin> pins;
      for (const auto& view : f.views) {
        pins.push_back(EpochManager::PinView(*view));
      }
      f.epochs->Publish(std::move(pins));
    }
    sample->attach_s = clock.ElapsedSeconds();
  }
  f.cluster->ResetClocks();
  sample->total_s = total.ElapsedSeconds();
  return f;
}

// ---------------------------------------------------------------------------
// Correctness gate (outside every timer).

/// Probe budget (left cells x shape offsets) up to which the gate also
/// runs MaterializedView::RecomputeReferenceStates. Beyond it the offset
/// walk takes minutes (PTF-25's shape spans the whole time axis: 25 x 4479
/// offsets per cell), so only the indexed recomputation below runs.
constexpr double kReferenceProbeBudget = 3e7;

struct CoordHasher {
  size_t operator()(const std::vector<int64_t>& v) const {
    return static_cast<size_t>(HashInts(v));
  }
};

/// From-scratch recomputation of a view's aggregate states that does not
/// share code with the join kernels: the same fold as ReferenceJoinAggregate
/// (join/reference.cc), but candidate partners come from a hash index of
/// the right cells on the shape's narrow dimensions (offset extent <= 64),
/// and each candidate is accepted by Shape::Contains. Exact for any shape.
Result<SparseArray> IndexedReferenceStates(const MaterializedView& view) {
  AVM_ASSIGN_OR_RETURN(SparseArray left, view.left_base().Gather());
  AVM_ASSIGN_OR_RETURN(SparseArray right, view.right_base().Gather());
  const SimilarityJoinSpec spec = view.JoinSpec();
  const size_t nd = spec.shape.num_dims();
  std::vector<int64_t> lo(nd, INT64_MAX), hi(nd, INT64_MIN);
  for (const CellCoord& o : spec.shape.offsets()) {
    for (size_t d = 0; d < nd; ++d) {
      lo[d] = std::min(lo[d], o[d]);
      hi[d] = std::max(hi[d], o[d]);
    }
  }
  std::vector<size_t> narrow;
  for (size_t d = 0; d < nd; ++d) {
    if (hi[d] - lo[d] <= 64) narrow.push_back(d);
  }
  auto project = [&](std::span<const int64_t> c) {
    std::vector<int64_t> key(narrow.size());
    for (size_t i = 0; i < narrow.size(); ++i) key[i] = c[narrow[i]];
    return key;
  };
  std::unordered_set<std::vector<int64_t>, CoordHasher> projections;
  for (const CellCoord& o : spec.shape.offsets()) projections.insert(project(o));

  std::vector<CellCoord> right_coords;
  std::vector<std::vector<double>> right_values;
  std::unordered_map<std::vector<int64_t>, std::vector<size_t>, CoordHasher>
      index;
  right.ForEachCell(
      [&](std::span<const int64_t> c, std::span<const double> v) {
        index[project(c)].push_back(right_coords.size());
        right_coords.emplace_back(c.begin(), c.end());
        right_values.emplace_back(v.begin(), v.end());
      });

  SparseArray result(view.array().schema());
  std::vector<double> identity(spec.layout.num_state_slots());
  spec.layout.InitState(identity);
  Status status = Status::OK();
  CellCoord base, offset(nd), group(spec.group_dims.size());
  left.ForEachCell([&](std::span<const int64_t> coord,
                       std::span<const double>) {
    if (!status.ok()) return;
    spec.mapping.ApplyInto(coord, &base);
    for (size_t d = 0; d < group.size(); ++d) {
      group[d] = coord[spec.group_dims[d]];
    }
    std::vector<int64_t> key = project(base);
    const std::vector<int64_t> base_key = key;
    for (const std::vector<int64_t>& p : projections) {
      for (size_t i = 0; i < key.size(); ++i) key[i] = base_key[i] + p[i];
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (size_t r : it->second) {
        for (size_t d = 0; d < nd; ++d) offset[d] = right_coords[r][d] - base[d];
        if (!spec.shape.Contains(offset)) continue;
        if (!result.Has(group)) {
          status = result.Set(group, identity);
          if (!status.ok()) return;
        }
        Chunk* chunk = result.GetMutableChunk(result.grid().IdOfCell(group));
        double* state =
            chunk->GetMutableCell(result.grid().InChunkOffset(group));
        status = spec.layout.UpdateState(
            {state, spec.layout.num_state_slots()},
            {right_values[r].data(), right_values[r].size()}, 1);
        if (!status.ok()) return;
      }
    }
  });
  if (!status.ok()) return status;
  return result;
}

void GateViews(const Fixture& f, int round, Gate* gate) {
  for (const auto& view : f.views) {
    const std::string what = "round " + std::to_string(round) + " view " +
                             view->definition().view_name;
    Result<SparseArray> maintained = view->array().Gather();
    if (!maintained.ok()) {
      gate->Check(false, what + ": " + maintained.status().ToString());
      continue;
    }
    std::vector<std::pair<std::string, Result<SparseArray>>> oracles;
    oracles.emplace_back("indexed recomputation",
                         IndexedReferenceStates(*view));
    const double probes =
        static_cast<double>(view->left_base().NumCells()) *
        static_cast<double>(view->definition().shape.offsets().size());
    if (probes <= kReferenceProbeBudget) {
      oracles.emplace_back("RecomputeReferenceStates",
                           view->RecomputeReferenceStates());
    }
    for (const auto& [name, reference] : oracles) {
      if (!reference.ok()) {
        gate->Check(false, what + ": " + name + ": " +
                               reference.status().ToString());
        continue;
      }
      gate->Check(
          maintained.value().ContentEquals(reference.value(), 1e-9),
          what + " diverged from " + name + " (" +
              std::to_string(maintained.value().NumCells()) + " vs " +
              std::to_string(reference.value().NumCells()) + " cells)");
    }
  }
}

/// Adds one to the first state slot of one view cell, behind the
/// maintainer's back: the gate must report it.
Status CorruptOneCell(MaterializedView* view) {
  AVM_ASSIGN_OR_RETURN(SparseArray cells, view->array().Gather());
  std::vector<int64_t> coord;
  std::vector<double> values;
  cells.ForEachCell(
      [&](std::span<const int64_t> c, std::span<const double> v) {
        if (!coord.empty()) return;
        coord.assign(c.begin(), c.end());
        values.assign(v.size(), 0.0);
      });
  if (coord.empty()) return Status::FailedPrecondition("view is empty");
  values[0] = 1.0;
  SparseArray delta(view->array().schema());
  AVM_RETURN_IF_ERROR(delta.Set(coord, values));
  const ChunkId id = delta.ChunkIds().front();
  return view->array().AccumulateIntoChunk(id, *delta.GetChunk(id), 0);
}

// ---------------------------------------------------------------------------
// The timed phase of one round.

struct ServeReaders {
  std::atomic<bool> stop{false};
  std::vector<std::map<std::pair<uint64_t, uint32_t>, EpochReads>> seen;
  std::vector<LatencyHistogram> latency;
  std::vector<uint64_t> failures;
  std::vector<uint64_t> torn;
  std::vector<std::thread> threads;
};

/// Applies insert batch `b` and records its sample. Returns false (after
/// recording the failure) if the call failed.
template <typename Apply>
bool TimedBatch(RunState* run, Fixture* f, int round, int b, Apply&& apply) {
  ++run->attempted;
  const MetricsSnapshot before = SnapshotIfTracing(run->trace);
  Stopwatch clock;
  Result<MaintenanceReport> report = [&] {
    ScopedSpan span("bench.batch", "bench");
    span.AddArg("round", round);
    span.AddArg("batch", b);
    return apply(f->batches[static_cast<size_t>(b)]);
  }();
  const double wall = clock.ElapsedSeconds();
  if (!report.ok()) {
    run->Fail("round " + std::to_string(round) + " batch " +
              std::to_string(b) + ": " + report.status().ToString());
    return false;
  }
  if (run->trace) AccumulateDelta(before, &run->batch_metrics);
  BatchSample sample;
  sample.round = round;
  sample.index = b;
  sample.wall_s = wall;
  sample.report = std::move(report).value();
  if (f->buffer != nullptr) {
    Stopwatch rebalance;
    {
      ScopedSpan span("buffer.rebalance", "bench");
      span.AddArg("round", round);
      span.AddArg("batch", b);
      f->buffer->Rebalance();
    }
    sample.rebalance_s = rebalance.ElapsedSeconds();
    sample.buffer = f->buffer->GetStats();
  }
  if (f->epochs != nullptr) sample.epochs_live = f->epochs->epochs_live();
  run->delta_cells += sample.report.delta_cells;
  run->batches.push_back(std::move(sample));
  return true;
}

/// Geo-churn victims for step `b`: about half of the POIs inserted by the
/// previous step (base POIs for step 0), chosen by a seeded coin.
Result<SparseArray> DeletionVictims(const Fixture& f, int b,
                                    uint64_t data_seed) {
  SparseArray victims(*f.schema);
  Rng rng(HashCombine(data_seed, static_cast<uint64_t>(b)));
  const std::vector<double> zero(f.schema->num_attrs(), 0.0);
  if (b == 0) {
    for (const auto& coord : f.base_sample) {
      AVM_RETURN_IF_ERROR(victims.Set(coord, zero));
    }
    return victims;
  }
  Status status = Status::OK();
  f.batches[static_cast<size_t>(b - 1)].ForEachCell(
      [&](std::span<const int64_t> coord, std::span<const double>) {
        if (status.ok() && rng.Uniform(2) == 0) {
          status = victims.Set(
              std::vector<int64_t>(coord.begin(), coord.end()), zero);
        }
      });
  AVM_RETURN_IF_ERROR(status);
  return victims;
}

Status RunRound(RunState* run, int round, uint64_t data_seed,
                const std::string& spill_dir) {
  const Workload& w = run->workload;
  ExperimentScale scale = run->scale;
  scale.seed = data_seed;
  SetupSample setup;
  AVM_ASSIGN_OR_RETURN(Fixture f, SetUp(w, scale, spill_dir, &setup));
  run->setups.push_back(setup);
  if (f.buffer != nullptr) run->spill_budgets.push_back(f.buffer->budget_bytes());
  const int num_batches = static_cast<int>(f.batches.size());

  double timed_wall = 0;
  double timed_peak_rss = 0;  // read before any gate work of this round
  bool ok = true;
  const size_t first_batch = run->batches.size();

  if (w.kind == Kind::kPtfServe) {
    ViewSet set;
    for (const auto& view : f.views) AVM_RETURN_IF_ERROR(set.AddView(view.get()));
    MultiViewMaintainer maintainer(&set, kMethod);
    maintainer.AttachEpochManager(f.epochs.get());

    // Probe region as in bench/serve_driver.cc: the busiest eighth of the
    // sky, all time slices; one probe per member, readers rotate.
    const auto& dims = f.schema->dims();
    const std::vector<int64_t> lo = {dims[0].lo, dims[1].lo, dims[2].lo};
    const std::vector<int64_t> hi = {
        dims[0].hi, dims[1].lo + (dims[1].hi - dims[1].lo) / 8,
        dims[2].lo + (dims[2].hi - dims[2].lo) / 8};
    std::vector<SnapshotQuery> probes;
    for (const auto& view : f.views) {
      probes.push_back(SnapshotQuery{view->definition().view_name, lo, hi});
    }
    // Expected content of every (epoch, member), computed by the writer
    // from the catalog path after each publish. It must run while the epoch
    // is current, so it is the one check inside the peak-RSS window; it
    // holds one member's finalized copy at a time.
    std::map<std::pair<uint64_t, uint32_t>, Digest> expected;
    auto record_expected = [&](uint64_t epoch) -> Status {
      for (size_t k = 0; k < f.views.size(); ++k) {
        AVM_ASSIGN_OR_RETURN(SparseArray fin, f.views[k]->GatherFinalized());
        expected[{epoch, static_cast<uint32_t>(k)}] = DigestOf(fin, lo, hi);
      }
      return Status::OK();
    };
    AVM_RETURN_IF_ERROR(record_expected(f.epochs->current_epoch_id()));

    ServeReaders readers;
    readers.seen.resize(static_cast<size_t>(w.readers));
    readers.latency.resize(static_cast<size_t>(w.readers));
    readers.failures.assign(static_cast<size_t>(w.readers), 0);
    readers.torn.assign(static_cast<size_t>(w.readers), 0);
    const EpochManager& manager = *f.epochs;
    Stopwatch window;
    for (int r = 0; r < w.readers; ++r) {
      readers.threads.emplace_back([&, r] {
        auto& seen = readers.seen[static_cast<size_t>(r)];
        LatencyHistogram& latency_hist = readers.latency[static_cast<size_t>(r)];
        uint64_t i = static_cast<uint64_t>(r);
        while (!readers.stop.load(std::memory_order_acquire)) {
          const uint32_t member = static_cast<uint32_t>(i++ % probes.size());
          const int64_t start = TraceNowNs();
          ScopedSpan read_span("bench.read", "bench");
          read_span.AddArg("member", member);
          std::optional<ReadSnapshot> snapshot;
          {
            ScopedSpan open_span("serve.open", "bench");
            snapshot.emplace(manager.OpenSnapshot());
          }
          Result<SnapshotQueryResult> result =
              EvaluateSnapshotQuery(*snapshot, probes[member]);
          const int64_t latency = TraceNowNs() - start;
          if (!result.ok()) {
            ++readers.failures[static_cast<size_t>(r)];
            continue;
          }
          // Off the latency clock: all K members in the epoch, and the
          // result's content digest for the post-run comparison.
          for (const SnapshotQuery& probe : probes) {
            if (snapshot->epoch().Find(probe.view) == nullptr) {
              ++readers.torn[static_cast<size_t>(r)];
              break;
            }
          }
          latency_hist.Add(latency);
          const Digest digest = DigestOf(result.value().finalized, {}, {});
          auto [it, fresh] =
              seen.try_emplace({result.value().epoch_id, member});
          if (fresh) {
            it->second.digest = digest;
          } else if (!(it->second.digest == digest)) {
            ++it->second.differing;
          }
          ++it->second.reads;
        }
      });
    }
    Status status = Status::OK();
    for (int b = 0; b < num_batches && ok; ++b) {
      Stopwatch op;
      ok = TimedBatch(run, &f, round, b, [&](const SparseArray& batch) {
        return maintainer.ApplyBatch(batch);
      });
      timed_wall += op.ElapsedSeconds();
      if (ok) {
        status = record_expected(run->batches.back().report.published_epoch);
        if (!status.ok()) break;
      }
    }
    readers.stop.store(true, std::memory_order_release);
    for (std::thread& t : readers.threads) t.join();
    run->read_window_s += window.ElapsedSeconds();
    timed_peak_rss = PeakRssMiB();
    AVM_RETURN_IF_ERROR(status);

    for (int r = 0; r < w.readers; ++r) {
      const size_t ri = static_cast<size_t>(r);
      const LatencyHistogram& latency = readers.latency[ri];
      run->attempted += latency.count + readers.failures[ri];
      run->reads += latency.count;
      run->read_failures += readers.failures[ri];
      run->torn_snapshots += readers.torn[ri];
      for (uint64_t i = 0; i < readers.failures[ri]; ++i) {
        run->Fail("round " + std::to_string(round) + " reader query failed");
      }
      run->read_latency.Merge(latency);
      for (const auto& [key, reads] : readers.seen[ri]) {
        auto it = expected.find(key);
        run->read_mismatches += it == expected.end() ||
                                        !(it->second == reads.digest)
                                    ? reads.reads
                                    : reads.differing;
      }
    }
    run->gate.Check(run->read_mismatches == 0,
                    "reader results differ from the content of the epoch "
                    "they read (" + std::to_string(run->read_mismatches) +
                        " reads)");
    run->gate.Check(run->torn_snapshots == 0,
                    "snapshots missing a view-set member (" +
                        std::to_string(run->torn_snapshots) + ")");
    for (const BatchSample& b : run->batches) {
      run->epochs_live_max = std::max(run->epochs_live_max, b.epochs_live);
    }
    const EpochManager::RetirementStats retire = f.epochs->retirement();
    run->retirement.published += retire.published;
    run->retirement.retired += retire.retired;
    run->retirement.lagged += retire.lagged;
    run->retirement.total_lag_seconds += retire.total_lag_seconds;
    run->retirement.max_lag_seconds =
        std::max(run->retirement.max_lag_seconds, retire.max_lag_seconds);
  } else {
    ViewMaintainer maintainer(f.views[0].get(), kMethod);
    SimilarityQueryPlanner planner(f.views[0].get());
    const Shape query_shape = Shape::LinfBall(2, 2);
    std::optional<SimilarityQueryPlanner::QueryOutcome> last_query;
    for (int b = 0; b < num_batches && ok; ++b) {
      Stopwatch op;
      ok = TimedBatch(run, &f, round, b, [&](const SparseArray& batch) {
        return maintainer.ApplyBatch(batch);
      });
      timed_wall += op.ElapsedSeconds();
      if (!ok || w.kind != Kind::kGeoChurn) continue;

      // Deletion batch.
      AVM_ASSIGN_OR_RETURN(const SparseArray victims,
                           DeletionVictims(f, b, data_seed));
      ++run->attempted;
      Stopwatch del_clock;
      Result<DeletionStats> deleted = [&] {
        ScopedSpan span("bench.delete", "bench");
        span.AddArg("round", round);
        span.AddArg("batch", b);
        return ApplyDeletionBatch(f.views[0].get(), victims);
      }();
      const double del_wall = del_clock.ElapsedSeconds();
      timed_wall += del_wall;
      if (!deleted.ok()) {
        run->Fail("round " + std::to_string(round) + " delete " +
                  std::to_string(b) + ": " + deleted.status().ToString());
        ok = false;
        break;
      }
      run->deletes.push_back(DeleteSample{del_wall, deleted.value()});
      run->delta_cells += deleted.value().deleted_cells;

      // One similarity query with a larger shape than the view's.
      QuerySample q;
      if (run->trace) {
        Stopwatch est_clock;
        ScopedSpan span("query.estimate", "bench");
        span.AddArg("round", round);
        span.AddArg("batch", b);
        AVM_RETURN_IF_ERROR(planner.Estimate(query_shape).status());
        q.estimate_s = est_clock.ElapsedSeconds();
      }
      ++run->attempted;
      Stopwatch q_clock;
      Result<SimilarityQueryPlanner::QueryOutcome> outcome = [&] {
        ScopedSpan span("bench.simquery", "bench");
        span.AddArg("round", round);
        span.AddArg("batch", b);
        return planner.Execute(query_shape);
      }();
      q.wall_s = q_clock.ElapsedSeconds();
      timed_wall += q.wall_s;
      if (!outcome.ok()) {
        run->Fail("round " + std::to_string(round) + " query " +
                  std::to_string(b) + ": " + outcome.status().ToString());
        ok = false;
        break;
      }
      q.used_view = outcome.value().used == QueryStrategy::kDifferentialOnView;
      q.delta_ratio = outcome.value().estimate.DeltaRatio();
      run->queries.push_back(q);
      last_query = std::move(outcome).value();
    }
    timed_peak_rss = PeakRssMiB();
    if (ok && last_query.has_value()) {
      // The planner's chosen strategy must agree with a complete join.
      Result<SimilarityQueryPlanner::QueryOutcome> complete =
          planner.Execute(query_shape, QueryStrategy::kCompleteJoin);
      run->gate.Check(
          complete.ok() &&
              complete.value().states.ContentEquals(last_query->states, 1e-9),
          "round " + std::to_string(round) +
              " similarity query differs from the complete join");
    }
  }

  run->round_timed_wall_s.push_back(timed_wall);
  double sim = 0;
  for (size_t i = first_batch; i < run->batches.size(); ++i) {
    sim += run->batches[i].report.maintenance_seconds;
  }
  run->round_sim_s.push_back(sim);
  run->round_peak_rss_mib.push_back(timed_peak_rss);
  if (!ok) return Status::OK();  // failure already recorded; no gate

  if (run->corrupt && round == 0) {
    AVM_RETURN_IF_ERROR(CorruptOneCell(f.views[0].get()));
  }
  GateViews(f, round, &run->gate);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output.

void WriteResult(const RunState& run, const std::string& path,
                 uint64_t trace_events_dropped) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  const ExperimentScale& s = run.scale;
  std::fprintf(out, "{\n\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"trace\": %s, \"scale_name\": \"%s\",\n",
               run.workload.name.c_str(), run.seed, run.trace ? "true" : "false",
               run.scale_name.c_str());
  std::fprintf(out,
               "\"config\": {\"method\": \"%s\", \"pool_threads\": %d, "
               "\"readers\": %d, \"views\": %d, \"round_seed_stride\": %" PRIu64
               ", \"spill_budget_bytes\": [",
               std::string(MaintenanceMethodName(kMethod)).c_str(),
               run.workload.pool_threads, run.workload.readers,
               run.workload.views, kRoundSeedStride);
  for (size_t i = 0; i < run.spill_budgets.size(); ++i) {
    std::fprintf(out, "%s%" PRIu64, i ? ", " : "", run.spill_budgets[i]);
  }
  std::fprintf(out, "]},\n");
  std::fprintf(
      out,
      "\"experiment_scale\": {\"num_workers\": %d, \"num_threads\": %d, "
      "\"num_batches\": %d, \"placement\": \"%s\", \"seed\": %" PRIu64
      ", \"cost_model\": {\"t_ntwk_per_byte\": %.17g, \"t_cpu_per_byte\": "
      "%.17g},\n  \"ptf\": {\"time_range\": %" PRId64 ", \"time_chunk\": %" PRId64
      ", \"ra_range\": %" PRId64 ", \"ra_chunk\": %" PRId64
      ", \"dec_range\": %" PRId64 ", \"dec_chunk\": %" PRId64
      ", \"base_cells\": %" PRIu64 ", \"night_len\": %" PRId64
      ", \"base_nights\": %" PRId64 ", \"base_pointed_frac\": %.17g"
      ", \"pointing_ra_chunks\": %" PRId64 ", \"pointing_dec_chunks\": %" PRId64
      ", \"drift_chunks\": %.17g, \"batch_cells_min\": %" PRIu64
      ", \"batch_cells_max\": %" PRIu64 ", \"seed\": %" PRIu64 "},\n"
      "  \"geo\": {\"long_range\": %" PRId64 ", \"lat_range\": %" PRId64
      ", \"seed_pois\": %" PRIu64 ", \"clones_per_seed\": %d"
      ", \"batch_frac\": %.17g, \"seed\": %" PRIu64 "}},\n",
      s.num_workers, s.num_threads, s.num_batches, s.placement.c_str(),
      s.seed, s.cost_model.t_ntwk_per_byte, s.cost_model.t_cpu_per_byte,
      s.ptf.time_range, s.ptf.time_chunk, s.ptf.ra_range, s.ptf.ra_chunk,
      s.ptf.dec_range, s.ptf.dec_chunk, s.ptf.base_cells, s.ptf.night_len,
      s.ptf.base_nights, s.ptf.base_pointed_frac, s.ptf.pointing_ra_chunks,
      s.ptf.pointing_dec_chunks, s.ptf.drift_chunks, s.ptf.batch_cells_min,
      s.ptf.batch_cells_max, s.ptf.seed, s.geo.long_range, s.geo.lat_range,
      s.geo.seed_pois, s.geo.clones_per_seed, s.geo.batch_frac, s.geo.seed);

  std::fprintf(out, "\"setups\": [");
  for (size_t i = 0; i < run.setups.size(); ++i) {
    const SetupSample& x = run.setups[i];
    std::fprintf(out,
                 "%s\n {\"total_s\": %.9g, \"generate_s\": %.9g, \"ingest_s\": "
                 "%.9g, \"materialize_s\": %.9g, \"attach_s\": %.9g}",
                 i ? "," : "", x.total_s, x.generate_s, x.ingest_s,
                 x.materialize_s, x.attach_s);
  }
  std::fprintf(out, "],\n\"batches\": [");
  for (size_t i = 0; i < run.batches.size(); ++i) {
    const BatchSample& b = run.batches[i];
    const MaintenanceReport& r = b.report;
    std::fprintf(
        out,
        "%s\n {\"round\": %d, \"index\": %d, \"wall_s\": %.9g, \"sim_s\": "
        "%.17g, \"triple_gen_s\": %.9g, \"plan_s\": %.9g, \"exec_s\": %.9g, "
        "\"delta_cells\": %" PRIu64 ", \"pairs\": %zu, \"triples\": %zu, "
        "\"bytes_transferred\": %" PRIu64 ", \"bytes_joined\": %" PRIu64
        ", \"plan_candidates\": %" PRIu64 ", \"plan_accepts\": %" PRIu64
        ", \"resident_dense_bytes\": %" PRIu64
        ", \"resident_sparse_bytes\": %" PRIu64 ", \"rebalance_s\": %.9g"
        ", \"buffer_disk_bytes\": %" PRIu64 ", \"epochs_live\": %" PRIu64 "}",
        i ? "," : "", b.round, b.index, b.wall_s, r.maintenance_seconds,
        r.triple_gen_seconds, r.planning_seconds, r.execution_wall_seconds,
        r.delta_cells, r.num_pairs, r.num_triples, r.bytes_transferred,
        r.bytes_joined, r.plan_candidates, r.plan_accepts,
        r.resident_dense_bytes, r.resident_sparse_bytes, b.rebalance_s,
        b.buffer.disk_bytes, b.epochs_live);
  }
  std::fprintf(out, "],\n\"deletes\": [");
  for (size_t i = 0; i < run.deletes.size(); ++i) {
    const DeleteSample& d = run.deletes[i];
    std::fprintf(out,
                 "%s\n {\"wall_s\": %.9g, \"deleted_cells\": %" PRIu64
                 ", \"retraction_joins\": %" PRIu64
                 ", \"view_cells_removed\": %" PRIu64 ", \"sim_s\": %.17g}",
                 i ? "," : "", d.wall_s, d.stats.deleted_cells,
                 d.stats.retraction_joins, d.stats.view_cells_removed,
                 d.stats.maintenance_seconds);
  }
  std::fprintf(out, "],\n\"queries\": [");
  for (size_t i = 0; i < run.queries.size(); ++i) {
    const QuerySample& q = run.queries[i];
    std::fprintf(out,
                 "%s\n {\"wall_s\": %.9g, \"estimate_s\": %.9g, \"used_view\": "
                 "%s, \"delta_ratio\": %.9g}",
                 i ? "," : "", q.wall_s, q.estimate_s,
                 q.used_view ? "true" : "false", q.delta_ratio);
  }
  std::fprintf(out, "],\n\"round_timed_wall_s\": [");
  for (size_t i = 0; i < run.round_timed_wall_s.size(); ++i) {
    std::fprintf(out, "%s%.9g", i ? ", " : "", run.round_timed_wall_s[i]);
  }
  std::fprintf(out, "],\n\"round_sim_s\": [");
  for (size_t i = 0; i < run.round_sim_s.size(); ++i) {
    std::fprintf(out, "%s%.17g", i ? ", " : "", run.round_sim_s[i]);
  }
  std::fprintf(out, "],\n\"read_latency_hist\": {\"base\": %.17g, \"buckets\": [",
               LatencyHistogram::kBase);
  bool first = true;
  for (size_t i = 0; i < run.read_latency.buckets.size(); ++i) {
    if (run.read_latency.buckets[i] == 0) continue;
    std::fprintf(out, "%s[%zu, %" PRIu64 "]", first ? "" : ", ", i,
                 run.read_latency.buckets[i]);
    first = false;
  }
  std::fprintf(out, "]}");
  std::fprintf(
      out,
      ",\n\"serve\": {\"reads\": %" PRIu64 ", \"read_window_s\": %.9g, "
      "\"read_mismatches\": %" PRIu64 ", \"read_failures\": %" PRIu64
      ", \"torn_snapshots\": %" PRIu64 ", \"epochs_live_max\": %" PRIu64
      ", \"published\": %" PRIu64 ", \"retired\": %" PRIu64
      ", \"lagged\": %" PRIu64 ", \"total_lag_s\": %.9g, \"max_lag_s\": %.9g},\n",
      run.reads, run.read_window_s, run.read_mismatches, run.read_failures,
      run.torn_snapshots, run.epochs_live_max, run.retirement.published,
      run.retirement.retired, run.retirement.lagged,
      run.retirement.total_lag_seconds, run.retirement.max_lag_seconds);
  std::fprintf(out,
               "\"delta_cells\": %" PRIu64 ", \"peak_rss_reset\": %s, "
               "\"trace_events_dropped\": %" PRIu64 ",\n",
               run.delta_cells, run.peak_rss_reset ? "true" : "false",
               trace_events_dropped);
  std::fprintf(out, "\"round_peak_rss_mib\": [");
  for (size_t i = 0; i < run.round_peak_rss_mib.size(); ++i) {
    std::fprintf(out, "%s%.6f", i ? ", " : "", run.round_peak_rss_mib[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out,
               "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
               ", \"gate\": {\"checks\": %" PRIu64 ", \"mismatches\": %" PRIu64
               ", \"messages\": [",
               run.attempted, run.failed, run.gate.checks,
               run.gate.mismatches);
  for (size_t i = 0; i < run.gate.messages.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? ", " : "",
                 JsonEscape(run.gate.messages[i]).c_str());
  }
  std::fprintf(out, "]},\n\"errors\": [");
  for (size_t i = 0; i < run.errors.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? ", " : "",
                 JsonEscape(run.errors[i]).c_str());
  }
  std::fprintf(out, "]\n}\n");
  std::fclose(out);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --out DIR [--rounds R] "
               "[--scale bench|tiny] [--trace] [--corrupt-view-cell]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name, out_dir, scale_name = "bench";
  uint64_t seed = 0;
  bool have_seed = false, trace = false, corrupt = false;
  int rounds = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--corrupt-view-cell") {
      corrupt = true;
    } else if ((arg == "--workload" || arg == "--out" || arg == "--scale" ||
                arg == "--seed" || arg == "--rounds") &&
               (v = value()) != nullptr) {
      if (arg == "--workload") workload_name = v;
      if (arg == "--out") out_dir = v;
      if (arg == "--scale") scale_name = v;
      if (arg == "--seed") {
        seed = std::strtoull(v, nullptr, 10);
        have_seed = true;
      }
      if (arg == "--rounds") rounds = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }
  const std::optional<Workload> workload = FindWorkload(workload_name);
  if (!workload.has_value() || out_dir.empty() || !have_seed || rounds < 1) {
    return Usage(argv[0]);
  }
  const std::optional<ExperimentScale> scale =
      MakeScale(scale_name, *workload, seed);
  if (!scale.has_value()) return Usage(argv[0]);

  RunState run;
  run.workload = *workload;
  run.scale_name = scale_name;
  run.scale = *scale;
  run.seed = seed;
  run.trace = trace;
  run.corrupt = corrupt;
  std::filesystem::create_directories(out_dir);
  if (trace) EnableTelemetry();

  for (int round = 0; round < rounds; ++round) {
    const std::string spill_dir =
        out_dir + "/spill_" + std::to_string(getpid()) + "_" +
        std::to_string(round);
    const Status status = RunRound(
        &run, round, seed + static_cast<uint64_t>(round) * kRoundSeedStride,
        spill_dir);
    std::error_code ignored;
    std::filesystem::remove_all(spill_dir, ignored);
    if (!status.ok()) {
      ++run.attempted;
      run.Fail("round " + std::to_string(round) + ": " + status.ToString());
    }
    if (run.failed > 0 || run.gate.mismatches > 0) break;
    // The fixture (and the gate's copies) are gone by now.
    if (!ResetPeakRss()) run.peak_rss_reset = false;
  }

  uint64_t dropped = 0;
  if (trace) {
    DisableTelemetry();
    const MetricsSnapshot all = MetricsRegistry::Global().Snapshot();
    dropped = all.counter(CounterId::kTraceEventsDropped);
    bool ok = WriteChromeTrace(out_dir + "/trace.json");
    ok = WriteMetricsJson(run.batch_metrics, out_dir + "/metrics_batch.json") &&
         ok;
    if (!ok) {
      std::fprintf(stderr, "failed to write trace artifacts to %s\n",
                   out_dir.c_str());
      return 2;
    }
  }
  WriteResult(run, out_dir + "/result.json", dropped);
  return run.failed == 0 && run.gate.mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace avm::perfbench

int main(int argc, char** argv) { return avm::perfbench::Main(argc, argv); }
