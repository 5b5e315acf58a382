// Join operators (paper §5): nested-loop θ-join, index equality join,
// R-Tree spatial join, and the on-the-fly Ball-Tree similarity join that
// the paper highlights for image matching. Join outputs concatenate the
// input tuples (left ++ right).
#pragma once

#include <memory>
#include <string>

#include "exec/batch.h"
#include "exec/operators.h"
#include "exec/pipeline.h"
#include "index/balltree.h"
#include "index/hash_index.h"
#include "index/rtree.h"
#include "nn/device.h"

namespace deeplens {

/// Counters the benchmarks report (pairs examined vs emitted), plus the
/// radix join's per-phase breakdown so a parallel-join regression is
/// diagnosable from query output (Explain) instead of a bench rebuild.
struct JoinStats {
  uint64_t pairs_examined = 0;
  uint64_t tuples_emitted = 0;
  /// Index/table build time. On the radix path this is the per-partition
  /// table-build phase; on the shared-build core, the single index build.
  double index_build_millis = 0.0;
  /// Radix-only phases; all zero when the shared-build core ran.
  double partition_millis = 0.0;
  double probe_millis = 0.0;
  double merge_millis = 0.0;
  /// Partitions the radix pass fanned out to (0 = shared-build core).
  uint64_t partitions_used = 0;
  /// max partition size / mean partition size over both inputs' non-NULL
  /// rows; 1.0 is perfectly uniform. Large values mean key skew
  /// concentrated work in few partitions (probe chunking still balances
  /// it, but the partition pass can't).
  double max_partition_skew = 0.0;
};

// Every join materializes both sides, so the core takes pre-materialized
// collections; the tuple-iterator form collects its inputs and calls it
// (the baseline plans and the benches drive joins that way). Pair
// predicates/residuals are evaluated through CompiledPredicate, batch-wise
// where the join examines pairs in bulk.
//
// The probe phases are morsel-parallel (exec/pipeline.h): any index is
// built once, single-threaded, then probe morsels run on pool workers with
// per-worker output batches that are merged back in probe order. Output is
// therefore byte-identical to single-threaded execution regardless of
// scheduling; pass MorselOptions{.num_threads = 1} to force the serial
// core (the differential tests do).

/// \brief Nested-loop θ-join: every pair is tested against `predicate`.
/// The baseline all plans are compared to (Figure 4's "no index" bars).
/// Materializes both sides; outer-loop morsels run in parallel.
Result<std::vector<PatchTuple>> NestedLoopJoin(PatchIterator* left,
                                               PatchIterator* right,
                                               const ExprPtr& predicate,
                                               JoinStats* stats = nullptr);
Result<std::vector<PatchTuple>> NestedLoopJoin(
    const PatchCollection& left, const PatchCollection& right,
    const ExprPtr& predicate,
    JoinStats* stats = nullptr, const MorselOptions& options = {});

/// \brief Hash equality join on a metadata key. Two cores behind one
/// interface:
///
/// - Radix-partitioned (the parallel path): both inputs are hashed into
///   2^k partitions (k from worker count and build cardinality, or the
///   DEEPLENS_JOIN_PARTITIONS override), each partition gets its own
///   local build table with zero shared state, probes run chunk-parallel
///   within partitions, and the output is stitched back into canonical
///   order by a counts/prefix-sum/scatter pass keyed on the left row id —
///   no global sort. Chosen when the morsel plan is parallel and the
///   combined input is large enough (or the partition override is set).
/// - Shared-build (the serial core): one single-pass HashIndex over the
///   smaller input, morsel-parallel probe. Small joins and forced-serial
///   runs (`MorselOptions{.num_threads = 1}`) take this path, so tiny
///   joins never pay the partition pass.
///
/// An optional `residual` predicate filters matched pairs. NULL keys
/// never match (SQL equality, like Eq(attr, attr) through the expression
/// engine). Output order is canonical on both cores regardless of build
/// side — left input order, with each left row's matches in right input
/// order — so results are byte-identical across cores, worker counts and
/// partition counts.
Result<std::vector<PatchTuple>> HashEqualityJoin(
    PatchIterator* left, PatchIterator* right, const std::string& key,
    const ExprPtr& residual = nullptr, JoinStats* stats = nullptr);
Result<std::vector<PatchTuple>> HashEqualityJoin(
    const PatchCollection& left, const PatchCollection& right,
    const std::string& key,
    const ExprPtr& residual = nullptr, JoinStats* stats = nullptr,
    const MorselOptions& options = {});

/// \brief On-the-fly Ball-Tree similarity join (paper §5 "On-The-Fly
/// Index Similarity Join"): loads the smaller relation into an in-memory
/// Ball-Tree over patch features, probes with the other side, and emits
/// pairs within `max_distance`. `residual` optionally filters pairs.
struct SimilarityJoinOptions {
  float max_distance = 0.25f;
  /// Build the index over the right side even if it is larger.
  bool force_index_right = false;
  /// Skip self-pairs (same patch id) — needed for self-joins (q1).
  bool skip_identical_ids = true;
};
Result<std::vector<PatchTuple>> BallTreeSimilarityJoin(
    PatchIterator* left, PatchIterator* right,
    const SimilarityJoinOptions& options, const ExprPtr& residual = nullptr,
    JoinStats* stats = nullptr);
Result<std::vector<PatchTuple>> BallTreeSimilarityJoin(
    const PatchCollection& left, const PatchCollection& right,
    const SimilarityJoinOptions& options, const ExprPtr& residual = nullptr,
    JoinStats* stats = nullptr, const MorselOptions& morsels = {});

/// \brief All-pairs similarity join on a Device: computes the full
/// pairwise distance matrix with the device's matching kernel (the GPU /
/// AVX comparison of §7.4.2), then filters by threshold.
Result<std::vector<PatchTuple>> AllPairsSimilarityJoin(
    PatchIterator* left, PatchIterator* right, float max_distance,
    nn::Device* device, const ExprPtr& residual = nullptr,
    JoinStats* stats = nullptr);
Result<std::vector<PatchTuple>> AllPairsSimilarityJoin(
    const PatchCollection& left, const PatchCollection& right,
    float max_distance,
    nn::Device* device, const ExprPtr& residual = nullptr,
    JoinStats* stats = nullptr);

/// \brief R-Tree spatial join: emits pairs whose bounding boxes intersect
/// (containment/intersection queries of §3.2). Builds the R-Tree over the
/// right side.
Result<std::vector<PatchTuple>> RTreeSpatialJoin(
    PatchIterator* left, PatchIterator* right,
    const ExprPtr& residual = nullptr, JoinStats* stats = nullptr);
Result<std::vector<PatchTuple>> RTreeSpatialJoin(
    const PatchCollection& left, const PatchCollection& right,
    const ExprPtr& residual = nullptr, JoinStats* stats = nullptr,
    const MorselOptions& options = {});

}  // namespace deeplens
