// User-space CIM runtime library (paper Section III, Figure 3/4, Listing 1).
//
// "A lightweight runtime library that provides optimized performance and
// memory usage for the CIM device. The library has been designed to be used
// directly by the application programmer, or an optimizer (i.e., Loop
// Tactics). It exposes a host-callable C API, similar to what cuBLAS or MKL
// offers."
//
// Class-based core; see cim_api.hpp for the polly_cim* C-style facade that
// generated code calls.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cim/accelerator.hpp"
#include "runtime/driver.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/residency.hpp"
#include "runtime/stream.hpp"
#include "runtime/xfer.hpp"
#include "sim/system.hpp"
#include "support/status.hpp"
#include "topo/topology.hpp"

namespace tdo::rt {

/// DTO-style pseudo-asynchronous work splitting (DTO_CPU_SIZE_FRACTION):
/// a large GEMM is cut into a host stripe (run on the worker pool) and a
/// device stripe, executed concurrently and joined at the next sync point.
struct SplitConfig {
  bool enabled = false;
  /// Fraction of the M dimension routed to the host worker pool. DTO ships
  /// this as a static environment variable; the serving layer retunes it
  /// online from the admission controller's device/host EWMAs.
  double cpu_fraction = 0.0;
  /// Safety clamp: never hand more than this to the (slower) host side.
  double max_fraction = 0.5;
  /// Jobs below this many MACs skip the split — the dispatch/join overhead
  /// would dominate the stripe.
  std::uint64_t min_macs = 1ull << 20;
  HostPoolParams pool;
};

struct RuntimeConfig {
  bool double_buffering = true;
  DriverParams driver;
  /// Command-stream behaviour (depth, dynamic CPU-fallback threshold). The
  /// blocking BLAS entry points are wrappers over this stream.
  StreamParams stream;
  /// Transfer-engine behaviour: async copies riding the stream as DMA
  /// commands vs the paper's blocking host memcpy.
  XferParams xfer;
  /// Weight-residency cache: cross-call stationary-operand reuse with
  /// affinity routing. Applies to calls marked cacheable.
  ResidencyParams residency;
  /// Pseudo-asynchronous host/device work splitting.
  SplitConfig split;
};

/// Aggregate host-side costs attributable to the runtime (for reporting).
struct RuntimeStats {
  std::uint64_t offload_calls = 0;
  std::uint64_t tile_jobs = 0;
  std::uint64_t batched_calls = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t scale_scans = 0;
  // Pseudo-async splitting.
  std::uint64_t split_calls = 0;
  std::uint64_t split_host_macs = 0;
  std::uint64_t split_device_macs = 0;
};

/// One GEMM in a batched call (virtual addresses; dims shared by the batch).
struct GemmBatchItem {
  sim::VirtAddr a = 0;
  sim::VirtAddr b = 0;
  sim::VirtAddr c = 0;
};

class CimRuntime {
 public:
  CimRuntime(RuntimeConfig config, sim::System& system, cim::Accelerator& accel);

  /// Registers an additional accelerator instance; batched calls round-robin
  /// work across every registered device (DTO's multi-DSA behaviour).
  void add_accelerator(cim::Accelerator& accel) { driver_->add_device(accel); }

  /// polly_cimInit: device discovery + reset.
  support::Status init(int device_index);

  /// polly_cimMalloc / polly_cimFree: physically-contiguous device buffers.
  [[nodiscard]] support::StatusOr<sim::VirtAddr> malloc_device(std::uint64_t bytes);
  support::Status free_device(sim::VirtAddr va);

  /// polly_cimHostToDev / polly_cimDevToHost. Large transfers enqueue into
  /// the command stream as DMA copy commands and return immediately (ordered
  /// against in-flight producers by rectangle hazards); page-scattered
  /// buffers ride as scatter-gather descriptor chains. Only small or
  /// pathologically fragmented copies run as host-performed copies through
  /// the cache hierarchy (the paper's original path).
  support::Status host_to_dev(sim::VirtAddr dst, sim::VirtAddr src,
                              std::uint64_t bytes);
  support::Status dev_to_host(sim::VirtAddr dst, sim::VirtAddr src,
                              std::uint64_t bytes);

  /// Pitched (strided sub-matrix view) transfers: `rows` rows of `width`
  /// bytes, row starts `pitch` bytes apart on both sides. The transfer
  /// engine derives the segment chain from the footprint, so views of
  /// device-resident arrays ride the stream too.
  support::Status host_to_dev_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                 std::uint64_t pitch, std::uint64_t width,
                                 std::uint64_t rows);
  support::Status dev_to_host_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                 std::uint64_t pitch, std::uint64_t width,
                                 std::uint64_t rows);

  /// polly_cimBlasSGemm: C = alpha*A*B + beta*C (row-major, no transposes).
  /// Oversized operands are tiled internally to the crossbar geometry. B is
  /// stationary and A streams, the paper's naive mapping (Section III-B).
  /// Blocking: a thin wrapper over the async variant plus synchronize().
  support::Status sgemm(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                        float alpha, sim::VirtAddr a, std::uint64_t lda,
                        sim::VirtAddr b, std::uint64_t ldb, float beta,
                        sim::VirtAddr c, std::uint64_t ldc);
  /// `cacheable` marks the stationary operand as reused across calls: the
  /// runtime consults the weight-residency cache, requests skip-programming
  /// on hits, and routes the call to the accelerator holding the weights.
  support::Status sgemm_with_stationary(std::uint64_t m, std::uint64_t n,
                                        std::uint64_t k, float alpha,
                                        sim::VirtAddr a, std::uint64_t lda,
                                        sim::VirtAddr b, std::uint64_t ldb,
                                        float beta, sim::VirtAddr c,
                                        std::uint64_t ldc,
                                        cim::StationaryOperand stationary,
                                        bool cacheable = false);

  /// polly_cimBlasSGemv: y = alpha*op(A)*x + beta*y  (A is m x n row-major).
  support::Status sgemv(bool transpose, std::uint64_t m, std::uint64_t n,
                        float alpha, sim::VirtAddr a, std::uint64_t lda,
                        sim::VirtAddr x, float beta, sim::VirtAddr y);

  /// polly_cimBlasGemmBatched: same-shape GEMMs executed as one job; when
  /// the stationary operand is shared between consecutive items the crossbar
  /// image is reused — the paper's endurance-aware "smart mapping". With
  /// several accelerators the batch splits round-robin across devices.
  /// `device` >= 0 pins the whole batch to one accelerator (the serving
  /// scheduler's batch-submit hook: it has already chosen a placement from
  /// residency affinity or queue depths); -1 keeps the internal round-robin
  /// chunking across devices.
  support::Status sgemm_batched(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                                float alpha, std::span<const GemmBatchItem> items,
                                std::uint64_t lda, std::uint64_t ldb, float beta,
                                std::uint64_t ldc,
                                cim::StationaryOperand stationary,
                                bool cacheable = false, int device = -1);

  // --- asynchronous entry points (command-stream path) ---
  //
  // Enqueue tile jobs into the stream and return without draining; the
  // caller (interpreter, generated code) synchronizes at coherence points.
  // Calls whose operands overlap an in-flight producer synchronize first.

  support::Status sgemm_async(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                              float alpha, sim::VirtAddr a, std::uint64_t lda,
                              sim::VirtAddr b, std::uint64_t ldb, float beta,
                              sim::VirtAddr c, std::uint64_t ldc,
                              cim::StationaryOperand stationary,
                              bool cacheable = false);
  support::Status sgemv_async(bool transpose, std::uint64_t m, std::uint64_t n,
                              float alpha, sim::VirtAddr a, std::uint64_t lda,
                              sim::VirtAddr x, float beta, sim::VirtAddr y,
                              bool cacheable = false);
  support::Status sgemm_batched_async(std::uint64_t m, std::uint64_t n,
                                      std::uint64_t k, float alpha,
                                      std::span<const GemmBatchItem> items,
                                      std::uint64_t lda, std::uint64_t ldb,
                                      float beta, std::uint64_t ldc,
                                      cim::StationaryOperand stationary,
                                      bool cacheable = false, int device = -1);

  /// polly_cimSynchronize: drains the stream and releases deferred staging
  /// buffers. No-op when the stream is idle.
  support::Status synchronize();

  /// Residency-affinity query (serving-scheduler hook): the accelerator
  /// already holding any stationary tile of an m x n x k call whose
  /// stationary operand lives at `stat` (leading dimension `ld_stat`), or
  /// nullopt when no tile is resident. Uses the same tile keys the dispatch
  /// path builds, so a returned device is exactly where the call's reuse
  /// request would hit. Charges the stationary operand's scale scan (cached;
  /// the dispatch that follows needs the same scan).
  [[nodiscard]] std::optional<int> weight_affinity(
      std::uint64_t m, std::uint64_t n, std::uint64_t k, sim::VirtAddr stat,
      std::uint64_t ld_stat, cim::StationaryOperand stationary);

  /// Whether the call's stationary operand fits one crossbar tile, so the
  /// call runs as a single job (TilePlan geometry; serving-scheduler hook).
  [[nodiscard]] bool gemm_fits_tile(std::uint64_t m, std::uint64_t n,
                                    std::uint64_t k,
                                    cim::StationaryOperand stationary) const {
    return gemm_plan(m, n, k, stationary).fits();
  }
  [[nodiscard]] bool gemv_fits_tile(bool transpose, std::uint64_t m,
                                    std::uint64_t n) const {
    return gemv_plan(transpose, m, n).fits();
  }

  /// Retunes the pseudo-async split fraction at runtime (the admission
  /// controller's continuous knob next to the binary offload decision).
  /// Clamped to [0, split.max_fraction]; no-op splitting when 0.
  void set_split_fraction(double fraction);
  [[nodiscard]] double split_fraction() const {
    return config_.split.cpu_fraction;
  }

  /// Attaches the fabric topology (near/far accelerator tiers with link
  /// models). Placement then weighs each device's queue depth by its link
  /// latency multiplier instead of blind round-robin: near devices absorb
  /// work until their queues are ~multiplier jobs deep, at which point a far
  /// pool becomes the cheaper marginal placement. Null (the default) keeps
  /// the flat single-tier behaviour. The topology must outlive the runtime;
  /// device indices follow add_accelerator() registration order.
  void set_topology(topo::Topology* topology) { topology_ = topology; }
  [[nodiscard]] topo::Topology* topology() const { return topology_; }
  /// Placement policy (DTO_IS_NUMA_AWARE analogue). kBufferCentric (default)
  /// routes to the device already holding resident weights, then near-first
  /// by link-weighted queue depth; kCallerCentric ignores residency (host
  /// locality wins); kBlind keeps the flat round-robin.
  void set_placement(topo::Placement policy) { placement_ = policy; }
  [[nodiscard]] topo::Placement placement() const { return placement_; }

  /// Migrates a resident stationary tile to `to_device` without losing the
  /// crossbar programming investment: the tile's bytes cross peer-to-peer as
  /// a dev->dev DMA segment into a staging buffer, an Opcode::kProgram job
  /// adopts them into the destination crossbar, and the cache entry re-homes
  /// with the staging rectangle as its shadow operand. `peer_to_peer` false
  /// selects the host-bounce reference path (two serialized transfers
  /// through a host staging buffer) — the baseline the topology bench beats.
  /// Asynchronous: the caller synchronizes (or keeps dispatching) as usual.
  support::Status migrate_residency(const WeightKey& key, int to_device,
                                    bool peer_to_peer = true);

  [[nodiscard]] sim::System& system() { return system_; }
  [[nodiscard]] CimStream& stream() { return *stream_; }
  [[nodiscard]] XferEngine& xfer() { return *xfer_; }
  [[nodiscard]] ResidencyCache& residency() { return *residency_; }
  [[nodiscard]] HostWorkerPool& host_pool() { return *pool_; }
  [[nodiscard]] CimDriver& driver() { return *driver_; }
  [[nodiscard]] cim::Accelerator& accelerator() { return accel_; }
  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }
  [[nodiscard]] const RuntimeConfig& config() const { return config_; }
  [[nodiscard]] bool initialized() const { return initialized_; }

 private:
  /// One float operand of a call: a rows x cols view with row pitch `ld`
  /// elements. A vector is the rows == 1, ld == cols case, whose footprint
  /// is Rect::linear.
  struct Operand {
    Operand(sim::VirtAddr va_, std::uint64_t rows_, std::uint64_t cols_,
            std::uint64_t ld_)
        : va{va_}, rows{rows_}, cols{cols_}, ld{ld_} {}
    sim::VirtAddr va = 0;
    std::uint64_t rows = 0, cols = 0, ld = 0;
    Rect rect;             ///< physical footprint, set by locate()
    double scale = 1.0;    ///< quantization scale of max|x|, set by scan()
  };
  /// Translates the operand and sets its footprint. CIM operands must live
  /// in physically contiguous memory (functional, no host charge).
  support::Status locate(Operand& op) const;
  /// Sets the operand's quantization scale from a max|x| host scan
  /// (charged; cached per buffer).
  support::Status scan(Operand& op);

  /// The tiling of one GEMM/GEMV call onto the crossbar, and the only place
  /// tile geometry is decided (DESIGN.md §3 "Tiling"). The stationary
  /// operand spans `reduce` crossbar rows by `out` columns and is cut into
  /// tiles of at most tile_rows x tile_cols; each `out` stripe is one
  /// accumulation chain over its tiles, streaming `stream` moving vectors.
  struct TilePlan {
    cim::StationaryOperand layout = cim::StationaryOperand::kB;
    std::uint64_t reduce = 0, out = 0, stream = 0;
    std::uint64_t tile_rows = 0, tile_cols = 0;
    /// Stationary operand: reduce x out under kB; out x reduce under kA
    /// (tiles of A^T keyed with A's row-major footprint).
    sim::PhysAddr stat = 0;
    std::uint64_t stat_ld = 0;
    double stat_scale = 1.0;
    /// Moving operand; tile kk starts kk columns (kB) or kk rows (kA) in.
    sim::PhysAddr mov = 0;
    std::uint64_t mov_ld = 0;
    double mov_scale = 1.0;
    /// Output; stripe jj starts jj columns (kB) or jj rows (kA) in. Vector
    /// outputs footprint each stripe as one linear range.
    sim::PhysAddr dst = 0;
    std::uint64_t dst_ld = 0;
    bool vector_out = false;
    float alpha = 1.0f, beta = 0.0f;

    [[nodiscard]] bool fits() const {
      return reduce <= tile_rows && out <= tile_cols;
    }
    /// Takes operand addresses, leading dimensions and scales; plans that
    /// only need tile keys bind just the stationary operand.
    void bind(const Operand& stationary);
    void bind(const Operand& stationary, const Operand& moving,
              const Operand& output);
    /// Residency identity of the ks x js stationary tile at (kk, jj).
    [[nodiscard]] WeightKey key(std::uint64_t kk, std::uint64_t ks,
                                std::uint64_t jj, std::uint64_t js) const;
    /// Every tile's key, stripe by stripe (jj outer, kk inner).
    [[nodiscard]] std::vector<WeightKey> keys() const;
  };
  [[nodiscard]] TilePlan gemm_plan(std::uint64_t m, std::uint64_t n,
                                   std::uint64_t k,
                                   cim::StationaryOperand stationary) const;
  [[nodiscard]] TilePlan gemv_plan(bool transpose, std::uint64_t m,
                                   std::uint64_t n) const;

  /// Shared front half of sgemm/sgemv: locates the operands, orders the
  /// call against in-flight commands, scans `a` then `b` (the host cache
  /// model sees that order), retires cached state the output overwrites and
  /// registers the reads.
  support::Status begin_call(Operand& a, Operand& b, Operand& c);

  /// Runs every stripe of `plan`: affinity pick, output write tracking, then
  /// per tile placement, shadow substitution for migrated tiles, job image
  /// and enqueue.
  support::Status run_plan(const TilePlan& plan, bool use_cache);

  /// Builds the shared register image for a (tile) job; `scale_a` and
  /// `scale_b` are quantization scales. `tile_row0` is the crossbar row
  /// window holding (or receiving) the stationary tile.
  [[nodiscard]] cim::ContextRegs make_job_image(
      std::uint64_t m, std::uint64_t n, std::uint64_t k, float alpha, float beta,
      sim::PhysAddr pa_a, std::uint64_t lda, sim::PhysAddr pa_b, std::uint64_t ldb,
      sim::PhysAddr pa_c, std::uint64_t ldc, double scale_a, double scale_b,
      cim::StationaryOperand stationary, bool skip_weight_load,
      std::uint32_t tile_row0, cim::Opcode opcode = cim::Opcode::kGemm) const;

  /// Consults the weight-residency cache for one stationary tile: on a hit
  /// the job skips programming at the returned row window; on a miss rows
  /// are reserved (or, when `use_cache` is false / the tile cannot be
  /// cached, overlapping resident entries are retired because the job will
  /// program rows [0, key.rows) uncached).
  struct TilePlacement {
    bool skip = false;
    std::uint32_t row0 = 0;
    /// Migrated entries: substitute this staging rectangle for the job's
    /// stationary pointer so the device-side validation matches what the
    /// adoption actually programmed (bit-exact bytes, identical results).
    bool migrated = false;
    sim::PhysAddr shadow_base = 0;
    std::uint64_t shadow_ld = 0;
  };
  TilePlacement place_tile(bool use_cache, const WeightKey& key, int device);

  /// Topology-aware device pick: minimizes (queue depth + 1) x link latency
  /// multiplier across devices, rotating the scan start so equal-cost
  /// devices still round-robin. Returns -1 when no topology is attached,
  /// placement is kBlind, or the fabric has no far tier (flat round-robin is
  /// then already optimal).
  [[nodiscard]] int topo_place();

  /// Builds an Opcode::kProgram register image: program `key`'s stationary
  /// tile at crossbar rows [row0, row0 + key.rows), no stream phase. Only
  /// the stationary pointer is dereferenced; the remaining operands alias it
  /// with dimensions decode() accepts.
  [[nodiscard]] cim::ContextRegs make_program_image(const WeightKey& key,
                                                    std::uint32_t row0) const;

  /// Affinity routing for one stripe's chain of stationary tiles: the
  /// accelerator already holding any of them (so the reuse request can
  /// actually hit), else the round-robin cursor. Pass no keys to skip the
  /// affinity check.
  [[nodiscard]] int stationary_device(std::span<const WeightKey> keys);

  /// dev_to_host fast path: when the source is partitioned by in-flight
  /// stripe writes of known accelerators, drains each producer in
  /// completion order and copies its stripes while the remaining
  /// accelerators keep computing. Returns true when it handled the copy,
  /// false to fall back to the ordinary full-drain ordering.
  [[nodiscard]] support::StatusOr<bool> striped_copy_back(const CopyDesc& desc);

  /// Enqueues one tile job into the stream.
  support::Status enqueue_job(const cim::ContextRegs& image, std::uint64_t macs,
                              std::uint64_t cim_writes, int device,
                              bool allow_cpu_fallback);

  /// Synchronizes when an in-flight command writes any of the call's
  /// operand rectangles (RAW/WAW — host scans and deferred device reads must
  /// see the producer's output) or still reads a rectangle this call will
  /// write (WAR — a queued command's deferred reads must not observe it).
  support::Status sync_for_operands(std::initializer_list<Rect> reads,
                                    std::initializer_list<Rect> writes);
  support::Status sync_for_operands(std::span<const Rect> reads,
                                    std::span<const Rect> writes);

  /// Issues one pitched host<->device copy (flat copies pass rows == 1):
  /// async through the stream when the transfer engine deems it eligible,
  /// else the blocking host path.
  /// Marshals multi-segment chains into a staging CopySegEntry table the
  /// device DMA fetches (released at synchronize(), like batch tables).
  support::Status copy_view(CopyDesc::Dir dir, sim::VirtAddr dst,
                            sim::VirtAddr src, std::uint64_t pitch,
                            std::uint64_t width, std::uint64_t rows);

  /// Cached operand scales: rescanning an unchanged buffer on every call
  /// would charge the host for work a real runtime memoizes.
  struct ScaleKey {
    sim::VirtAddr va;
    std::uint64_t rows, row_len, ld;
    auto operator<=>(const ScaleKey&) const = default;
  };
  void invalidate_scales(sim::VirtAddr va, std::uint64_t bytes);

  RuntimeConfig config_;
  sim::System& system_;
  cim::Accelerator& accel_;
  std::unique_ptr<CimDriver> driver_;
  std::unique_ptr<CimStream> stream_;
  std::unique_ptr<XferEngine> xfer_;
  std::unique_ptr<ResidencyCache> residency_;
  std::unique_ptr<HostWorkerPool> pool_;
  topo::Topology* topology_ = nullptr;
  topo::Placement placement_ = topo::Placement::kBufferCentric;
  /// Rotates the topology-aware scan start so equal-cost devices round-robin.
  std::size_t place_cursor_ = 0;
  std::vector<DeviceBuffer> buffers_;
  /// Batch tables and scatter-gather copy descriptor tables in flight;
  /// released by synchronize().
  std::vector<DeviceBuffer> staging_;
  /// Staging copies of migrated stationary tiles. Each lives as long as the
  /// runtime: resident entries reference them as shadow operands and the
  /// destination crossbar validates future hits against their addresses.
  std::vector<DeviceBuffer> migration_staging_;
  std::map<ScaleKey, double> scale_cache_;
  RuntimeStats stats_;
  bool initialized_ = false;
};

}  // namespace tdo::rt
