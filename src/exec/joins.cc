#include "exec/joins.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "exec/radix.h"

namespace deeplens {

namespace {

PatchTuple Concat(const Patch& a, const Patch& b) {
  PatchTuple t;
  t.reserve(2);
  t.push_back(a);
  t.push_back(b);
  return t;
}

// Gathers the feature matrix of a collection; fails if any patch lacks
// features or dimensions disagree.
Result<size_t> FeatureDim(const PatchCollection& patches) {
  size_t dim = 0;
  for (const Patch& p : patches) {
    if (!p.has_features()) {
      return Status::InvalidArgument(
          "similarity join requires featurized patches (run a Transformer "
          "first)");
    }
    const size_t d = static_cast<size_t>(p.features().size());
    if (dim == 0) {
      dim = d;
    } else if (dim != d) {
      return Status::InvalidArgument(
          "similarity join: inconsistent feature dimensionality");
    }
  }
  return dim;
}

// Accumulates candidate pair tuples and flushes them through a compiled
// predicate batch-at-a-time, keeping only passing tuples in `out`.
class PairBatcher {
 public:
  PairBatcher(const CompiledPredicate* predicate,
              std::vector<PatchTuple>* out)
      : predicate_(predicate), out_(out) {}

  Status Add(PatchTuple tuple) {
    pending_.push_back(std::move(tuple));
    if (pending_.size() >= kDefaultBatchSize) return Flush();
    return Status::OK();
  }

  Status Flush() {
    if (pending_.empty()) return Status::OK();
    const size_t n = pending_.size();
    selection_.resize(n);
    DL_RETURN_NOT_OK(
        predicate_->EvalTupleRows(pending_.data(), n, selection_.data()));
    for (size_t i = 0; i < n; ++i) {
      if (selection_[i]) out_->push_back(std::move(pending_[i]));
    }
    pending_.clear();
    return Status::OK();
  }

 private:
  const CompiledPredicate* predicate_;
  std::vector<PatchTuple>* out_;
  std::vector<PatchTuple> pending_;
  std::vector<uint8_t> selection_;
};

// Concatenates per-morsel outputs in morsel-index order — the ordered
// merge restoring probe order after a parallel dispatch.
std::vector<PatchTuple> MergePartials(
    std::vector<std::vector<PatchTuple>>* partials) {
  std::vector<PatchTuple> out;
  size_t total = 0;
  for (const auto& partial : *partials) total += partial.size();
  out.reserve(total);
  for (auto& partial : *partials) {
    for (PatchTuple& t : partial) out.push_back(std::move(t));
  }
  return out;
}

// Morsel-parallel probe driver shared by the join cores. `probe_row` is
// called for every probe-side row, in row order within a morsel, and adds
// candidate tuples to the morsel's PairBatcher (which applies the residual
// batch-wise). Per-morsel outputs are merged in morsel order, so the
// result is byte-identical to running the same probes serially.
Result<std::vector<PatchTuple>> MorselProbeJoin(
    size_t probe_rows, const CompiledPredicate& residual,
    const MorselOptions& options, uint64_t* pairs_examined,
    const std::function<Status(size_t, std::vector<RowId>*, PairBatcher*,
                               uint64_t*)>& probe_row) {
  const MorselPlan plan = PlanMorsels(probe_rows, options);
  std::vector<std::vector<PatchTuple>> partials(plan.num_morsels);
  std::atomic<uint64_t> examined{0};
  DL_RETURN_NOT_OK(DispatchMorsels(
      probe_rows, plan, [&](size_t m, size_t lo, size_t hi) -> Status {
        PairBatcher batcher(&residual, &partials[m]);
        std::vector<RowId> matches;  // per-worker probe scratch
        uint64_t local = 0;
        for (size_t i = lo; i < hi; ++i) {
          DL_RETURN_NOT_OK(probe_row(i, &matches, &batcher, &local));
        }
        DL_RETURN_NOT_OK(batcher.Flush());
        examined.fetch_add(local, std::memory_order_relaxed);
        return Status::OK();
      }));
  if (pairs_examined != nullptr) {
    *pairs_examined = examined.load(std::memory_order_relaxed);
  }
  return MergePartials(&partials);
}

// Materializes (left_row, right_row) candidate pairs as concatenated
// tuples and applies the residual, morsel-parallel over the pair list with
// ordered merge. Used by join paths that cannot emit during the probe
// (e.g. a hash join that probed with the right side and re-sorted pairs
// into canonical left-major order).
Result<std::vector<PatchTuple>> EmitPairsParallel(
    const PatchCollection& lhs, const PatchCollection& rhs,
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const CompiledPredicate& residual, const MorselOptions& options) {
  const MorselPlan plan = PlanMorsels(pairs.size(), options);
  std::vector<std::vector<PatchTuple>> partials(plan.num_morsels);
  DL_RETURN_NOT_OK(DispatchMorsels(
      pairs.size(), plan, [&](size_t m, size_t lo, size_t hi) -> Status {
        PairBatcher batcher(&residual, &partials[m]);
        for (size_t i = lo; i < hi; ++i) {
          DL_RETURN_NOT_OK(batcher.Add(
              Concat(lhs[pairs[i].first], rhs[pairs[i].second])));
        }
        return batcher.Flush();
      }));
  return MergePartials(&partials);
}

// --- Radix hash-join core ---------------------------------------------------

// Below this combined input size the partition pass costs more than the
// shared-build core's whole run; the radix path is only entered above it
// (or when DEEPLENS_JOIN_PARTITIONS explicitly forces it).
constexpr size_t kRadixMinRows = 4096;

// One schedulable slice of a partition's probe rows. Build work is
// per-partition, but probe parallelism is chunk-level so a single hot
// partition (key skew) doesn't serialize the whole pass.
struct ProbeChunk {
  uint32_t part = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
};

Result<std::vector<PatchTuple>> RadixHashJoin(
    const PatchCollection& lhs, const PatchCollection& rhs,
    const std::string& key, const CompiledPredicate& residual,
    size_t num_parts, JoinStats* stats, const MorselOptions& options) {
  const bool build_right = rhs.size() <= lhs.size();
  const PatchCollection& build = build_right ? rhs : lhs;
  const PatchCollection& probe = build_right ? lhs : rhs;

  size_t log2_parts = 0;
  while ((size_t{1} << log2_parts) < num_parts) ++log2_parts;
  num_parts = size_t{1} << log2_parts;

  // Phase 1: partition both inputs by key hash (morsel-parallel; NULL
  // keys dropped). Keys are encoded and hashed exactly once here — the
  // build and probe phases below reuse RadixRow::hash/key.
  Stopwatch partition_timer;
  RadixPartitions build_parts;
  RadixPartitions probe_parts;
  DL_RETURN_NOT_OK(
      RadixPartitionByKey(build, key, log2_parts, options, &build_parts));
  DL_RETURN_NOT_OK(
      RadixPartitionByKey(probe, key, log2_parts, options, &probe_parts));
  const double partition_ms = partition_timer.ElapsedMillis();

  // Phase 2: per-partition local tables, zero shared state.
  Stopwatch build_timer;
  std::vector<LocalKeyTable> tables(num_parts);
  DL_RETURN_NOT_OK(DispatchMorsels(
      num_parts, PlanUnitTasks(num_parts, options),
      [&](size_t, size_t lo, size_t hi) -> Status {
        for (size_t p = lo; p < hi; ++p) tables[p].Build(build_parts.parts[p]);
        return Status::OK();
      }));
  const double build_ms = build_timer.ElapsedMillis();

  // Phase 3: chunked probe. Within a chunk, probe rows ascend and each
  // row's matches ascend, so chunk outputs concatenated in (partition,
  // chunk) order list every left row's survivors in right-ascending
  // order — which is all the stitch below needs.
  Stopwatch probe_timer;
  const size_t workers = ResolveMorselWorkers(options);
  const size_t chunk_rows =
      std::max<size_t>(kDefaultBatchSize,
                       (probe_parts.rows_kept + workers * 16 - 1) /
                           std::max<size_t>(1, workers * 16));
  std::vector<ProbeChunk> chunks;  // canonical (partition, chunk) order
  for (size_t p = 0; p < num_parts; ++p) {
    const size_t rows = probe_parts.parts[p].size();
    for (size_t lo = 0; lo < rows; lo += chunk_rows) {
      chunks.push_back(ProbeChunk{static_cast<uint32_t>(p),
                                  static_cast<uint32_t>(lo),
                                  static_cast<uint32_t>(
                                      std::min(rows, lo + chunk_rows))});
    }
  }
  // Dispatch order interleaves partitions round-robin (every partition's
  // first chunk, then every second chunk, ...): the pool schedules
  // contiguous task ranges statically, so a skewed partition's chunks
  // must not sit next to each other or one worker inherits the whole hot
  // key range. Output slots stay canonical — scheduling order can't
  // affect results.
  std::vector<uint32_t> dispatch(chunks.size());
  for (uint32_t i = 0; i < chunks.size(); ++i) dispatch[i] = i;
  std::stable_sort(dispatch.begin(), dispatch.end(),
                   [&](uint32_t a, uint32_t b) {
                     return chunks[a].lo / chunk_rows <
                            chunks[b].lo / chunk_rows;
                   });

  struct ChunkOut {
    std::vector<PatchTuple> tuples;
    std::vector<uint32_t> left_rows;  // left row id per surviving tuple
  };
  std::vector<ChunkOut> outs(chunks.size());
  std::atomic<uint64_t> examined{0};
  const bool no_residual = residual.always_true();
  DL_RETURN_NOT_OK(DispatchMorsels(
      chunks.size(), PlanUnitTasks(chunks.size(), options),
      [&](size_t, size_t task_lo, size_t task_hi) -> Status {
        std::vector<uint32_t> matches;
        // Residual scratch: a 2-slot tuple whose patches are *assigned*
        // per candidate rather than constructed, so a failing pair never
        // pays tuple materialization — only the survivors are Concat'd.
        PatchTuple scratch(2);
        uint64_t local = 0;
        for (size_t t = task_lo; t < task_hi; ++t) {
          const size_t c = dispatch[t];
          const ProbeChunk& chunk = chunks[c];
          ChunkOut& out = outs[c];
          const std::vector<RadixRow>& rows = probe_parts.parts[chunk.part];
          const LocalKeyTable& table = tables[chunk.part];
          for (size_t i = chunk.lo; i < chunk.hi; ++i) {
            const RadixRow& pr = rows[i];
            matches.clear();
            table.Lookup(pr.hash, pr.key, &matches);
            if (matches.empty()) continue;
            const size_t probe_row = pr.row;
            if (!no_residual) {
              scratch[build_right ? 0 : 1] = probe[probe_row];
            }
            for (uint32_t b : matches) {
              ++local;
              const size_t l = build_right ? probe_row : b;
              const size_t r = build_right ? b : probe_row;
              if (!no_residual) {
                scratch[build_right ? 1 : 0] = build[b];
                DL_ASSIGN_OR_RETURN(bool pass, residual.EvalOne(scratch));
                if (!pass) continue;
              }
              out.tuples.push_back(Concat(lhs[l], rhs[r]));
              out.left_rows.push_back(static_cast<uint32_t>(l));
            }
          }
        }
        examined.fetch_add(local, std::memory_order_relaxed);
        return Status::OK();
      }));
  const double probe_ms = probe_timer.ElapsedMillis();

  // Phase 4: stitch back to canonical left-major order without a sort.
  // Every left row's matches live in exactly one partition (its key
  // hashes to one partition; NULL keys joined nothing), and they appear
  // right-ascending across that partition's chunks — so counting
  // survivors per left row, prefix-summing, and scattering chunk outputs
  // in (partition, chunk) order reproduces the exact serial output in
  // O(|lhs| + |output|).
  Stopwatch merge_timer;
  size_t total = 0;
  for (const ChunkOut& o : outs) total += o.tuples.size();
  std::vector<size_t> offsets(lhs.size() + 1, 0);
  for (const ChunkOut& o : outs) {
    for (uint32_t l : o.left_rows) ++offsets[l + 1];
  }
  for (size_t i = 1; i <= lhs.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<PatchTuple> result(total);
  for (ChunkOut& o : outs) {
    for (size_t i = 0; i < o.tuples.size(); ++i) {
      result[offsets[o.left_rows[i]]++] = std::move(o.tuples[i]);
    }
  }
  const double merge_ms = merge_timer.ElapsedMillis();

  if (stats != nullptr) {
    stats->pairs_examined = examined.load(std::memory_order_relaxed);
    stats->tuples_emitted = result.size();
    stats->index_build_millis = build_ms;
    stats->partition_millis = partition_ms;
    stats->probe_millis = probe_ms;
    stats->merge_millis = merge_ms;
    stats->partitions_used = num_parts;
    const double avg =
        static_cast<double>(build_parts.rows_kept + probe_parts.rows_kept) /
        static_cast<double>(num_parts);
    if (avg > 0) {
      size_t max_rows = 0;
      for (size_t p = 0; p < num_parts; ++p) {
        max_rows = std::max(max_rows, build_parts.parts[p].size() +
                                          probe_parts.parts[p].size());
      }
      stats->max_partition_skew = static_cast<double>(max_rows) / avg;
    }
  }
  return result;
}

}  // namespace

// --- Nested-loop ------------------------------------------------------------

Result<std::vector<PatchTuple>> NestedLoopJoin(const PatchCollection& lhs,
                                               const PatchCollection& rhs,
                                               const ExprPtr& predicate,
                                               JoinStats* stats,
                                               const MorselOptions& options) {
  const CompiledPredicate compiled(predicate);
  uint64_t examined = 0;
  DL_ASSIGN_OR_RETURN(
      std::vector<PatchTuple> out,
      MorselProbeJoin(lhs.size(), compiled, options, &examined,
                      [&](size_t i, std::vector<RowId>*, PairBatcher* batcher,
                          uint64_t* local) -> Status {
                        for (const Patch& b : rhs) {
                          ++*local;
                          DL_RETURN_NOT_OK(batcher->Add(Concat(lhs[i], b)));
                        }
                        return Status::OK();
                      }));
  if (stats != nullptr) {
    stats->pairs_examined = examined;
    stats->tuples_emitted = out.size();
  }
  return out;
}

Result<std::vector<PatchTuple>> NestedLoopJoin(PatchIterator* left,
                                               PatchIterator* right,
                                               const ExprPtr& predicate,
                                               JoinStats* stats) {
  DL_ASSIGN_OR_RETURN(PatchCollection lhs, CollectPatches(left));
  DL_ASSIGN_OR_RETURN(PatchCollection rhs, CollectPatches(right));
  return NestedLoopJoin(std::move(lhs), std::move(rhs), predicate, stats);
}

// --- Hash equality ----------------------------------------------------------

Result<std::vector<PatchTuple>> HashEqualityJoin(const PatchCollection& lhs,
                                                 const PatchCollection& rhs,
                                                 const std::string& key,
                                                 const ExprPtr& residual,
                                                 JoinStats* stats,
                                                 const MorselOptions& options) {
  const CompiledPredicate compiled(residual);

  // The radix core wins when the probe work is large enough to amortize
  // its partition pass; the shared-build core below stays the serial /
  // small-join path. An explicit DEEPLENS_JOIN_PARTITIONS override forces
  // radix on any parallel plan (the differential tests rely on this to
  // exercise it at small sizes).
  const size_t workers = ResolveMorselWorkers(options);
  const uint64_t part_override = JoinPartitionOverride();
  const bool parallel_plan = workers > 1 && !ThreadPool::InWorker();
  if (parallel_plan &&
      (part_override > 0 || lhs.size() + rhs.size() >= kRadixMinRows)) {
    const size_t parts =
        part_override > 0
            ? static_cast<size_t>(part_override)
            : ChooseJoinPartitions(std::min(lhs.size(), rhs.size()), workers);
    return RadixHashJoin(lhs, rhs, key, compiled, parts, stats, options);
  }

  // Single-pass shared build over the smaller input; the larger side is
  // probed morsel-parallel so the parallelism scales with the probe work.
  const bool build_right = rhs.size() <= lhs.size();
  const PatchCollection& build = build_right ? rhs : lhs;

  Stopwatch build_timer;
  HashIndex index;
  for (size_t i = 0; i < build.size(); ++i) {
    const MetaValue& k = build[i].meta().Get(key);
    // SQL equality: NULL keys never match, so they never enter the table
    // — mirroring how Eq(attr, attr) evaluates through the expression
    // engine (null-propagating, EvalBool → false).
    if (k.is_null()) continue;
    index.Insert(Slice(k.ToIndexKey()), static_cast<RowId>(i));
  }
  const double build_ms = build_timer.ElapsedMillis();

  std::vector<PatchTuple> out;
  uint64_t examined = 0;
  if (build_right) {
    // Probing with the left yields canonical order directly: left rows in
    // input order, matches per row in lookup order.
    DL_ASSIGN_OR_RETURN(
        out, MorselProbeJoin(
                 lhs.size(), compiled, options, &examined,
                 [&](size_t i, std::vector<RowId>* matches,
                     PairBatcher* batcher, uint64_t* local) -> Status {
                   const MetaValue& k = lhs[i].meta().Get(key);
                   if (k.is_null()) return Status::OK();
                   matches->clear();
                   index.Lookup(Slice(k.ToIndexKey()), matches);
                   for (RowId r : *matches) {
                     ++*local;
                     DL_RETURN_NOT_OK(batcher->Add(
                         Concat(lhs[i], rhs[static_cast<size_t>(r)])));
                   }
                   return Status::OK();
                 }));
  } else {
    // Built over the left: probe with the right, collect (left, right)
    // row-id pairs per morsel, then restore the canonical left-major
    // order (left ascending, right ascending — lookups return insertion
    // order) before materializing in parallel.
    const MorselPlan plan = PlanMorsels(rhs.size(), options);
    std::vector<std::vector<std::pair<size_t, size_t>>> pair_partials(
        plan.num_morsels);
    DL_RETURN_NOT_OK(DispatchMorsels(
        rhs.size(), plan, [&](size_t m, size_t lo, size_t hi) -> Status {
          std::vector<RowId> matches;
          for (size_t j = lo; j < hi; ++j) {
            const MetaValue& k = rhs[j].meta().Get(key);
            if (k.is_null()) continue;
            matches.clear();
            index.Lookup(Slice(k.ToIndexKey()), &matches);
            for (RowId l : matches) {
              pair_partials[m].emplace_back(static_cast<size_t>(l), j);
            }
          }
          return Status::OK();
        }));
    std::vector<std::pair<size_t, size_t>> pairs;
    for (auto& partial : pair_partials) {
      pairs.insert(pairs.end(), partial.begin(), partial.end());
    }
    std::sort(pairs.begin(), pairs.end());
    examined = pairs.size();
    DL_ASSIGN_OR_RETURN(out,
                        EmitPairsParallel(lhs, rhs, pairs, compiled, options));
  }
  if (stats != nullptr) {
    stats->pairs_examined = examined;
    stats->tuples_emitted = out.size();
    stats->index_build_millis = build_ms;
  }
  return out;
}

Result<std::vector<PatchTuple>> HashEqualityJoin(
    PatchIterator* left, PatchIterator* right, const std::string& key,
    const ExprPtr& residual, JoinStats* stats) {
  DL_ASSIGN_OR_RETURN(PatchCollection lhs, CollectPatches(left));
  DL_ASSIGN_OR_RETURN(PatchCollection rhs, CollectPatches(right));
  return HashEqualityJoin(std::move(lhs), std::move(rhs), key, residual,
                          stats);
}

// --- Ball-tree similarity ---------------------------------------------------

Result<std::vector<PatchTuple>> BallTreeSimilarityJoin(
    const PatchCollection& lhs, const PatchCollection& rhs,
    const SimilarityJoinOptions& options, const ExprPtr& residual,
    JoinStats* stats, const MorselOptions& morsels) {
  // Index the smaller relation (paper §5), probe with the other; emitted
  // tuples always keep (left, right) order.
  const bool index_right =
      options.force_index_right || rhs.size() <= lhs.size();
  const PatchCollection& indexed = index_right ? rhs : lhs;
  const PatchCollection& probes = index_right ? lhs : rhs;

  DL_ASSIGN_OR_RETURN(size_t dim, FeatureDim(indexed));
  DL_ASSIGN_OR_RETURN(size_t probe_dim, FeatureDim(probes));
  if (dim == 0 || probe_dim != dim) {
    return Status::InvalidArgument(
        "similarity join: feature dimensions disagree across relations");
  }

  Stopwatch build_timer;
  std::vector<float> points(indexed.size() * dim);
  for (size_t i = 0; i < indexed.size(); ++i) {
    const float* f = indexed[i].features().data();
    std::copy(f, f + dim, points.begin() + static_cast<ptrdiff_t>(i * dim));
  }
  BallTree tree;
  DL_RETURN_NOT_OK(tree.Build(std::move(points), dim, {}));
  const double build_ms = build_timer.ElapsedMillis();

  const CompiledPredicate compiled(residual);
  DL_ASSIGN_OR_RETURN(
      std::vector<PatchTuple> out,
      MorselProbeJoin(probes.size(), compiled, morsels, nullptr,
                      [&](size_t i, std::vector<RowId>* matches,
                          PairBatcher* batcher, uint64_t*) -> Status {
                        const Patch& probe = probes[i];
                        matches->clear();
                        tree.RangeSearch(probe.features().data(),
                                         options.max_distance, matches);
                        for (RowId r : *matches) {
                          const Patch& hit = indexed[static_cast<size_t>(r)];
                          if (options.skip_identical_ids &&
                              probe.id() == hit.id()) {
                            continue;
                          }
                          DL_RETURN_NOT_OK(
                              batcher->Add(index_right ? Concat(probe, hit)
                                                       : Concat(hit, probe)));
                        }
                        return Status::OK();
                      }));
  if (stats != nullptr) {
    stats->pairs_examined = tree.distance_evals();
    stats->tuples_emitted = out.size();
    stats->index_build_millis = build_ms;
  }
  return out;
}

Result<std::vector<PatchTuple>> BallTreeSimilarityJoin(
    PatchIterator* left, PatchIterator* right,
    const SimilarityJoinOptions& options, const ExprPtr& residual,
    JoinStats* stats) {
  DL_ASSIGN_OR_RETURN(PatchCollection lhs, CollectPatches(left));
  DL_ASSIGN_OR_RETURN(PatchCollection rhs, CollectPatches(right));
  return BallTreeSimilarityJoin(std::move(lhs), std::move(rhs), options,
                                residual, stats);
}

// --- All-pairs (device kernel) ----------------------------------------------

Result<std::vector<PatchTuple>> AllPairsSimilarityJoin(
    const PatchCollection& lhs, const PatchCollection& rhs, float max_distance,
    nn::Device* device, const ExprPtr& residual, JoinStats* stats) {
  if (lhs.empty() || rhs.empty()) return std::vector<PatchTuple>{};

  DL_ASSIGN_OR_RETURN(size_t dim, FeatureDim(lhs));
  DL_ASSIGN_OR_RETURN(size_t rdim, FeatureDim(rhs));
  if (dim != rdim) {
    return Status::InvalidArgument(
        "similarity join: feature dimensions disagree across relations");
  }

  std::vector<float> a(lhs.size() * dim);
  std::vector<float> b(rhs.size() * dim);
  for (size_t i = 0; i < lhs.size(); ++i) {
    const float* f = lhs[i].features().data();
    std::copy(f, f + dim, a.begin() + static_cast<ptrdiff_t>(i * dim));
  }
  for (size_t j = 0; j < rhs.size(); ++j) {
    const float* f = rhs[j].features().data();
    std::copy(f, f + dim, b.begin() + static_cast<ptrdiff_t>(j * dim));
  }
  std::vector<float> d2(lhs.size() * rhs.size());
  device->PairwiseL2Squared(a.data(), lhs.size(), b.data(), rhs.size(), dim,
                            d2.data());

  const float threshold2 = max_distance * max_distance;
  const CompiledPredicate compiled(residual);
  std::vector<PatchTuple> out;
  PairBatcher batcher(&compiled, &out);
  for (size_t i = 0; i < lhs.size(); ++i) {
    for (size_t j = 0; j < rhs.size(); ++j) {
      if (d2[i * rhs.size() + j] > threshold2) continue;
      if (lhs[i].id() == rhs[j].id()) continue;
      DL_RETURN_NOT_OK(batcher.Add(Concat(lhs[i], rhs[j])));
    }
  }
  DL_RETURN_NOT_OK(batcher.Flush());
  if (stats != nullptr) {
    stats->pairs_examined = lhs.size() * rhs.size();
    stats->tuples_emitted = out.size();
  }
  return out;
}

Result<std::vector<PatchTuple>> AllPairsSimilarityJoin(
    PatchIterator* left, PatchIterator* right, float max_distance,
    nn::Device* device, const ExprPtr& residual, JoinStats* stats) {
  DL_ASSIGN_OR_RETURN(PatchCollection lhs, CollectPatches(left));
  DL_ASSIGN_OR_RETURN(PatchCollection rhs, CollectPatches(right));
  return AllPairsSimilarityJoin(std::move(lhs), std::move(rhs), max_distance,
                                device, residual, stats);
}

// --- R-tree spatial ---------------------------------------------------------

Result<std::vector<PatchTuple>> RTreeSpatialJoin(const PatchCollection& lhs,
                                                 const PatchCollection& rhs,
                                                 const ExprPtr& residual,
                                                 JoinStats* stats,
                                                 const MorselOptions& options) {
  Stopwatch build_timer;
  RTree tree;
  for (size_t i = 0; i < rhs.size(); ++i) {
    const nn::BBox& b = rhs[i].bbox();
    tree.Insert(Rect{static_cast<float>(b.x0), static_cast<float>(b.y0),
                     static_cast<float>(b.x1), static_cast<float>(b.y1)},
                static_cast<RowId>(i));
  }
  const double build_ms = build_timer.ElapsedMillis();

  const CompiledPredicate compiled(residual);
  uint64_t examined = 0;
  DL_ASSIGN_OR_RETURN(
      std::vector<PatchTuple> out,
      MorselProbeJoin(lhs.size(), compiled, options, &examined,
                      [&](size_t i, std::vector<RowId>* matches,
                          PairBatcher* batcher, uint64_t* local) -> Status {
                        matches->clear();
                        const nn::BBox& box = lhs[i].bbox();
                        tree.SearchIntersects(
                            Rect{static_cast<float>(box.x0),
                                 static_cast<float>(box.y0),
                                 static_cast<float>(box.x1),
                                 static_cast<float>(box.y1)},
                            matches);
                        for (RowId r : *matches) {
                          ++*local;
                          DL_RETURN_NOT_OK(batcher->Add(
                              Concat(lhs[i], rhs[static_cast<size_t>(r)])));
                        }
                        return Status::OK();
                      }));
  if (stats != nullptr) {
    stats->pairs_examined = examined;
    stats->tuples_emitted = out.size();
    stats->index_build_millis = build_ms;
  }
  return out;
}

Result<std::vector<PatchTuple>> RTreeSpatialJoin(PatchIterator* left,
                                                 PatchIterator* right,
                                                 const ExprPtr& residual,
                                                 JoinStats* stats) {
  DL_ASSIGN_OR_RETURN(PatchCollection lhs, CollectPatches(left));
  DL_ASSIGN_OR_RETURN(PatchCollection rhs, CollectPatches(right));
  return RTreeSpatialJoin(std::move(lhs), std::move(rhs), residual, stats);
}

}  // namespace deeplens
