#include "runtime/cim_blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tdo::rt {

namespace {
constexpr std::uint64_t kElem = 4;  // sizeof(float)

/// Host-stores one device-fetched table entry at `pa` (charged).
template <typename Entry>
void store_entry(sim::System& system, sim::PhysAddr pa, const Entry& entry) {
  system.memory().write(
      pa, std::span(reinterpret_cast<const std::uint8_t*>(&entry),
                    sizeof entry));
  for (std::uint64_t w = 0; w < sizeof entry; w += 8) {
    system.cpu().store(pa + w, 8);
  }
}
}  // namespace

CimRuntime::CimRuntime(RuntimeConfig config, sim::System& system,
                       cim::Accelerator& accel)
    : config_{config}, system_{system}, accel_{accel} {
  driver_ = std::make_unique<CimDriver>(config_.driver, system, accel);
  stream_ = std::make_unique<CimStream>(config_.stream, system, *driver_);
  xfer_ = std::make_unique<XferEngine>(config_.xfer, system);
  residency_ = std::make_unique<ResidencyCache>(config_.residency, *driver_,
                                                system.stats());
  pool_ = std::make_unique<HostWorkerPool>(system, config_.split.pool);
  stream_->attach_residency(residency_.get());
  stream_->attach_host_pool(pool_.get());
}

void CimRuntime::set_split_fraction(double fraction) {
  config_.split.cpu_fraction =
      std::clamp(fraction, 0.0, config_.split.max_fraction);
}

support::Status CimRuntime::init(int device_index) {
  if (device_index != 0) {
    return support::not_found("only CIM device 0 exists in this system");
  }
  // Device node open + capability query.
  system_.cpu().charge_instructions(2000);
  initialized_ = true;
  TDO_LOG(kInfo, "cim.rt") << "runtime initialized for device " << device_index
                           << " (" << driver_->device_count()
                           << " accelerator instance(s), stream depth "
                           << stream_->params().depth << ")";
  return support::Status::ok();
}

support::StatusOr<sim::VirtAddr> CimRuntime::malloc_device(std::uint64_t bytes) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  auto buffer = driver_->alloc_buffer(bytes);
  if (!buffer.is_ok()) return buffer.status();
  buffers_.push_back(*buffer);
  return buffer->va;
}

support::Status CimRuntime::free_device(sim::VirtAddr va) {
  const auto it =
      std::find_if(buffers_.begin(), buffers_.end(),
                   [va](const DeviceBuffer& b) { return b.va == va; });
  if (it == buffers_.end()) {
    return support::not_found("free of unknown device buffer");
  }
  // Drain only when an in-flight command actually touches this buffer;
  // releasing a buffer no pending rectangle covers needs no barrier.
  const Rect extent = Rect::linear(it->pa, it->bytes);
  if (stream_->writes_overlap(extent) || stream_->reads_overlap(extent)) {
    TDO_RETURN_IF_ERROR(synchronize());
  }
  // Weights programmed from this buffer must not be reused once the backing
  // memory is recycled.
  residency_->invalidate_overlapping(extent);
  TDO_RETURN_IF_ERROR(driver_->free_buffer(*it));
  buffers_.erase(it);
  return support::Status::ok();
}

support::Status CimRuntime::synchronize() {
  auto status = stream_->synchronize();
  for (const DeviceBuffer& buffer : staging_) {
    const auto freed = driver_->free_buffer(buffer);
    if (!freed.is_ok() && status.is_ok()) status = freed;
  }
  staging_.clear();
  return status;
}

support::Status CimRuntime::sync_for_operands(
    std::initializer_list<Rect> reads, std::initializer_list<Rect> writes) {
  return sync_for_operands(std::span<const Rect>(reads.begin(), reads.size()),
                           std::span<const Rect>(writes.begin(), writes.size()));
}

support::Status CimRuntime::sync_for_operands(std::span<const Rect> reads,
                                              std::span<const Rect> writes) {
  bool hazard = false;
  for (const Rect& r : reads) {
    hazard = hazard || stream_->writes_overlap(r);  // RAW
  }
  for (const Rect& r : writes) {
    hazard = hazard || stream_->writes_overlap(r)  // WAW
             || stream_->reads_overlap(r);         // WAR
  }
  if (!hazard) return support::Status::ok();
  stream_->count_hazard();
  return synchronize();
}

support::Status CimRuntime::copy_view(CopyDesc::Dir dir, sim::VirtAddr dst,
                                      sim::VirtAddr src, std::uint64_t pitch,
                                      std::uint64_t width, std::uint64_t rows) {
  const std::uint64_t bytes = width * rows;
  if (bytes == 0) return support::Status::ok();
  CopyDesc desc;
  bool planned = xfer_->plan_view(dir, dst, src, pitch, width, rows, &desc);
  bool striped = false;
  if (planned && desc.single() && dir == CopyDesc::Dir::kDevToHost) {
    auto handled = striped_copy_back(desc);
    if (!handled.is_ok()) return handled.status();
    striped = *handled;
  }
  if (planned && !striped) {
    // Order the copy against in-flight producers/consumers at rectangle
    // granularity, one check per segment: a chain whose runs are disjoint
    // from every pending rectangle rides the stream without a
    // synchronization.
    std::vector<Rect> reads;
    std::vector<Rect> writes;
    reads.reserve(desc.segments.size());
    writes.reserve(desc.segments.size());
    for (const CopySeg& seg : desc.segments) {
      reads.push_back(seg.src);
      writes.push_back(seg.dst);
    }
    TDO_RETURN_IF_ERROR(sync_for_operands(reads, writes));
  }
  if (planned && !striped && !desc.single()) {
    // Marshal the scatter-gather chain into a staging descriptor table the
    // device DMA fetches (Figure-3 style: the runtime owns the table, the
    // driver cleans its lines at submit). The buffer stays alive until
    // synchronize(), like batch tables — which is why this must come AFTER
    // the hazard ordering above: a hazard-triggered synchronize() releases
    // every staged table, and it must not release this one before the
    // device has fetched it. If the CMA cannot hold the table, the copy
    // degrades to the host path instead of failing.
    auto staging =
        driver_->alloc_buffer(desc.segments.size() * sizeof(cim::CopySegEntry));
    if (staging.is_ok()) {
      staging_.push_back(*staging);
      std::uint64_t offset = 0;
      for (const CopySeg& seg : desc.segments) {
        cim::CopySegEntry entry;
        entry.src_base = seg.src.base;
        entry.src_pitch = seg.src.pitch;
        entry.dst_base = seg.dst.base;
        entry.dst_pitch = seg.dst.pitch;
        entry.width = seg.src.width;
        entry.rows = seg.src.rows;
        store_entry(system_, staging->pa + offset, entry);
        offset += sizeof entry;
      }
      desc.table_pa = staging->pa;
    } else {
      planned = false;
    }
  }
  if (striped) {
    // Per-stripe copy-back handled the transfer: each producer drained in
    // completion order, its stripes enqueued while the rest kept computing.
  } else if (planned) {
    CimStream::Command command;
    command.kind = CimStream::Command::Kind::kCopy;
    command.copy = desc;
    TDO_RETURN_IF_ERROR(stream_->enqueue(command));
  } else {
    // Host memcpy path (small, over-fragmented, or async copies disabled).
    // The host touches both ranges immediately and they may span scattered
    // frames, so order conservatively: drain whenever the stream is busy
    // (the paper's original behaviour).
    if (!stream_->idle()) TDO_RETURN_IF_ERROR(synchronize());
    TDO_RETURN_IF_ERROR(xfer_->host_copy_2d(dst, src, pitch, width, rows));
  }
  stats_.bytes_copied += bytes;
  const std::uint64_t span = (rows - 1) * pitch + width;
  invalidate_scales(dst, span);
  // Epoch-based residency invalidation: the destination just received a
  // host-visible write, so any cached stationary tile overlapping it is
  // stale. A destination the MMU cannot resolve contiguously falls back to
  // killing everything (it cannot alias a cached tile's contiguous rect,
  // but stay conservative).
  if (planned) {
    for (const CopySeg& seg : desc.segments) {
      residency_->invalidate_overlapping(seg.dst);
    }
  } else if (system_.mmu().is_contiguous(dst, span)) {
    const auto dst_pa = system_.mmu().translate(dst);
    if (dst_pa.is_ok()) {
      residency_->invalidate_overlapping(Rect{*dst_pa, pitch, width, rows});
    } else {
      residency_->invalidate_all();
    }
  } else {
    residency_->invalidate_all();
  }
  return support::Status::ok();
}

support::StatusOr<bool> CimRuntime::striped_copy_back(const CopyDesc& desc) {
  // The split needs a contiguous transfer (span containment below is only a
  // real containment test against a gap-free source), every overlapping
  // in-flight write to be a stripe of a known accelerator, the stripes to
  // exactly partition the copy's source, and the destination to be
  // otherwise unclaimed. Anything else falls back to the ordinary
  // full-drain ordering.
  if (!desc.single()) return false;
  if (!desc.src().contiguous() || !desc.dst().contiguous()) return false;
  const auto stripes = stream_->overlapping_writes(desc.src());
  if (stripes.size() < 2 || stripes.size() > 64) return false;
  if (stream_->writes_overlap(desc.dst()) || stream_->reads_overlap(desc.dst())) {
    return false;
  }
  std::uint64_t covered = 0;
  std::vector<std::size_t> devices;  // distinct, insertion order
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const TrackedRect& s = stripes[i];
    // Unknown producers and host-pool stripes (pseudo-device past the last
    // accelerator) cannot be drained per-device; take the full-drain path.
    if (s.device < 0 ||
        s.device >= static_cast<int>(driver_->device_count())) {
      return false;
    }
    if (s.rect.base < desc.src().base ||
        s.rect.span_end() > desc.src().span_end()) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (stripes[j].rect.overlaps(s.rect)) return false;
    }
    covered += s.rect.bytes();
    const auto dev = static_cast<std::size_t>(s.device);
    if (std::find(devices.begin(), devices.end(), dev) == devices.end()) {
      devices.push_back(dev);
    }
  }
  if (covered != desc.bytes()) return false;  // gaps: not an exact partition
  if (devices.size() < 2) return false;       // one producer == full drain

  // Earliest-finishing producer first: its stripes copy out while the later
  // ones are still streaming their tiles.
  std::sort(devices.begin(), devices.end(),
            [this](std::size_t lhs, std::size_t rhs) {
              return driver_->device(lhs).work_done_tick() <
                     driver_->device(rhs).work_done_tick();
            });
  const std::int64_t shift = static_cast<std::int64_t>(desc.dst().base) -
                             static_cast<std::int64_t>(desc.src().base);
  for (const std::size_t dev : devices) {
    TDO_RETURN_IF_ERROR(stream_->drain_device(dev));
    for (const TrackedRect& s : stripes) {
      if (static_cast<std::size_t>(s.device) != dev) continue;
      CopySeg part;
      part.src = s.rect;
      part.dst = s.rect;
      part.dst.base = static_cast<sim::PhysAddr>(
          static_cast<std::int64_t>(s.rect.base) + shift);
      CimStream::Command command;
      command.kind = CimStream::Command::Kind::kCopy;
      command.device = static_cast<int>(dev);
      command.copy.dir = desc.dir;
      command.copy.segments = {part};
      TDO_RETURN_IF_ERROR(stream_->enqueue(command));
    }
  }
  return true;
}

support::Status CimRuntime::host_to_dev(sim::VirtAddr dst, sim::VirtAddr src,
                                        std::uint64_t bytes) {
  return copy_view(CopyDesc::Dir::kHostToDev, dst, src, bytes, bytes, 1);
}

void CimRuntime::invalidate_scales(sim::VirtAddr va, std::uint64_t bytes) {
  for (auto it = scale_cache_.begin(); it != scale_cache_.end();) {
    const std::uint64_t extent =
        ((it->first.rows - 1) * it->first.ld + it->first.row_len) * kElem;
    const bool overlap =
        it->first.va < va + bytes && va < it->first.va + extent;
    it = overlap ? scale_cache_.erase(it) : std::next(it);
  }
}

support::Status CimRuntime::dev_to_host(sim::VirtAddr dst, sim::VirtAddr src,
                                        std::uint64_t bytes) {
  return copy_view(CopyDesc::Dir::kDevToHost, dst, src, bytes, bytes, 1);
}

support::Status CimRuntime::host_to_dev_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                           std::uint64_t pitch,
                                           std::uint64_t width,
                                           std::uint64_t rows) {
  return copy_view(CopyDesc::Dir::kHostToDev, dst, src, pitch, width, rows);
}

support::Status CimRuntime::dev_to_host_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                           std::uint64_t pitch,
                                           std::uint64_t width,
                                           std::uint64_t rows) {
  return copy_view(CopyDesc::Dir::kDevToHost, dst, src, pitch, width, rows);
}

support::Status CimRuntime::locate(Operand& op) const {
  const std::uint64_t bytes = ((op.rows - 1) * op.ld + op.cols) * kElem;
  if (!system_.mmu().is_contiguous(op.va, bytes)) {
    return support::failed_precondition(
        "CIM operands must live in physically contiguous device buffers");
  }
  const auto pa = system_.mmu().translate(op.va);
  if (!pa.is_ok()) return pa.status();
  op.rect = Rect{*pa, op.ld * kElem, op.cols * kElem, op.rows};
  return support::Status::ok();
}

support::Status CimRuntime::scan(Operand& op) {
  // Per-buffer granularity: when the operand is a sub-view of one device
  // buffer, scan (and cache) the whole buffer once. A whole-buffer max-abs
  // is a valid (if slightly coarser) scale for any sub-view, and it is what
  // per-tensor-scale runtimes do in practice.
  Operand view = op;
  const std::uint64_t extent = ((op.rows - 1) * op.ld + op.cols) * kElem;
  for (const DeviceBuffer& buffer : buffers_) {
    if (op.va >= buffer.va && op.va + extent <= buffer.va + buffer.bytes) {
      view = Operand{buffer.va, 1, buffer.bytes / kElem, buffer.bytes / kElem};
      break;
    }
  }
  const ScaleKey key{view.va, view.rows, view.cols, view.ld};
  if (const auto it = scale_cache_.find(key); it != scale_cache_.end()) {
    op.scale = it->second;
    return support::Status::ok();
  }
  stats_.scale_scans += 1;
  TDO_RETURN_IF_ERROR(locate(view));
  auto& cpu = system_.cpu();
  auto& mem = system_.memory();
  sim::PageMemo page;
  double max_abs = 0.0;
  for (std::uint64_t r = 0; r < view.rows; ++r) {
    const sim::PhysAddr row_pa = view.rect.base + r * view.rect.pitch;
    for (std::uint64_t c = 0; c < view.cols; ++c) {
      const float v = mem.read_scalar<float>(row_pa + c * kElem, page);
      max_abs = std::max(max_abs, static_cast<double>(std::fabs(v)));
      cpu.load(row_pa + c * kElem);
      cpu.issue(sim::InstBundle{.fp_ops = 2, .branches = 1});  // fabs+max+loop
    }
  }
  if (max_abs == 0.0) max_abs = 1.0;  // all-zero operand: any scale is exact
  op.scale = scale_cache_[key] = support::QuantScale::for_max_abs(max_abs).scale;
  return support::Status::ok();
}

cim::ContextRegs CimRuntime::make_job_image(
    std::uint64_t m, std::uint64_t n, std::uint64_t k, float alpha, float beta,
    sim::PhysAddr pa_a, std::uint64_t lda, sim::PhysAddr pa_b, std::uint64_t ldb,
    sim::PhysAddr pa_c, std::uint64_t ldc, double scale_a, double scale_b,
    cim::StationaryOperand stationary, bool skip_weight_load,
    std::uint32_t tile_row0, cim::Opcode opcode) const {
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode, static_cast<std::uint64_t>(opcode));
  image.write(cim::Reg::kM, m);
  image.write(cim::Reg::kN, n);
  image.write(cim::Reg::kK, k);
  image.write(cim::Reg::kPaA, pa_a);
  image.write(cim::Reg::kPaB, pa_b);
  image.write(cim::Reg::kPaC, pa_c);
  image.write(cim::Reg::kLda, lda);
  image.write(cim::Reg::kLdb, ldb);
  image.write(cim::Reg::kLdc, ldc);
  image.write_f32(cim::Reg::kAlpha, alpha);
  image.write_f32(cim::Reg::kBeta, beta);
  image.write_f64(cim::Reg::kScaleA, scale_a);
  image.write_f64(cim::Reg::kScaleB, scale_b);
  image.write(cim::Reg::kStationary, static_cast<std::uint64_t>(stationary));
  image.write(cim::Reg::kTileRow, tile_row0);
  std::uint64_t flags = 0;
  if (config_.double_buffering) flags |= cim::JobFlags::kDoubleBuffering;
  if (skip_weight_load) flags |= cim::JobFlags::kSkipWeightLoad;
  image.write(cim::Reg::kFlags, flags);
  return image;
}

int CimRuntime::topo_place() {
  if (topology_ == nullptr || placement_ == topo::Placement::kBlind ||
      !topology_->has_far()) {
    return -1;
  }
  const std::size_t count = stream_->device_count();
  if (count == 0) return -1;
  const std::size_t start = place_cursor_++ % count;
  int best = -1;
  double best_cost = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t d = (start + i) % count;
    // Marginal cost of one more job on device d: its queue depth weighted by
    // the link's latency multiplier. Near devices win while idle; once their
    // queues run ~multiplier jobs deep, a far pool becomes cheaper and the
    // placement spills — the DTO_IS_NUMA_AWARE break-even, derived from load
    // instead of a static flag.
    const double mult = topology_->latency_multiplier(static_cast<int>(d));
    const double cost =
        static_cast<double>(stream_->device_in_flight(d) + 1) * mult;
    if (best < 0 || cost < best_cost) {
      best = static_cast<int>(d);
      best_cost = cost;
    }
  }
  return best;
}

int CimRuntime::stationary_device(std::span<const WeightKey> keys) {
  // Buffer-centric placement: the accelerator already holding a resident
  // tile wins regardless of tier — reprogramming a crossbar costs more than
  // any link penalty. Caller-centric placement skips the residency override
  // (host locality wins; the DTO_IS_NUMA_AWARE=0 analogue).
  if (placement_ != topo::Placement::kCallerCentric) {
    for (const WeightKey& key : keys) {
      if (const auto resident = residency_->peek(key)) return resident->device;
    }
  }
  if (const int device = topo_place(); device >= 0) return device;
  return static_cast<int>(stream_->next_device());
}

CimRuntime::TilePlacement CimRuntime::place_tile(bool use_cache,
                                                 const WeightKey& key,
                                                 int device) {
  if (use_cache) {
    const auto acq = residency_->acquire(key, device);
    if (acq.cached) {
      return TilePlacement{acq.hit, acq.row0, acq.migrated, acq.shadow_base,
                           acq.shadow_ld};
    }
  }
  // Uncached: the job programs rows [0, key.rows); resident tiles there die.
  residency_->on_programmed(device, 0, key.rows);
  return TilePlacement{};
}

cim::ContextRegs CimRuntime::make_program_image(const WeightKey& key,
                                                std::uint32_t row0) const {
  // Dimensions that decode() accepts and that land the stationary tile as
  // key.rows x key.cols: the moving operands are never dereferenced (no
  // stream phase), so they alias the stationary pointer.
  const sim::PhysAddr pa = key.rect.base;
  const std::uint64_t k = key.rows;
  return key.layout == cim::StationaryOperand::kB
             ? make_job_image(1, key.cols, k, 1.0f, 0.0f, pa,
                              std::max<std::uint64_t>(k, 1), pa, key.ld, pa,
                              key.cols, 1.0, key.scale, key.layout, false, row0,
                              cim::Opcode::kProgram)
             : make_job_image(key.cols, 1, k, 1.0f, 0.0f, pa, key.ld, pa, 1,
                              pa, 1, key.scale, 1.0, key.layout, false, row0,
                              cim::Opcode::kProgram);
}

support::Status CimRuntime::migrate_residency(const WeightKey& key,
                                              int to_device,
                                              bool peer_to_peer) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  if (!residency_->enabled()) {
    return support::failed_precondition("weight-residency cache is disabled");
  }
  if (to_device < 0 ||
      static_cast<std::size_t>(to_device) >= driver_->device_count()) {
    return support::invalid_argument("migration target device out of range");
  }
  const auto placement = residency_->peek(key);
  if (!placement) {
    return support::not_found("stationary tile is not resident");
  }
  const int from_device = placement->device;
  if (from_device == to_device) return support::Status::ok();
  const sim::Tick migrate_begin = system_.events().now();

  // Destination crossbar window first — nothing to undo when it cannot fit.
  std::uint32_t row0 = 0;
  if (!residency_->reserve_rows(to_device, key.rows, &row0)) {
    return support::resource_exhausted(
        "destination crossbar cannot hold the migrating tile");
  }
  // The staging copy packs the tile's rows tight; it lives as long as the
  // runtime because future hits validate against its address.
  const std::uint64_t bytes = key.rect.width * key.rect.rows;
  auto staging = driver_->alloc_buffer(bytes);
  if (!staging.is_ok()) return staging.status();
  migration_staging_.push_back(*staging);
  const Rect staging_rect{staging->pa, key.rect.width, key.rect.width,
                          key.rect.rows};
  const std::uint64_t shadow_ld = key.rect.width / kElem;

  // Order against in-flight producers of the tile bytes (RAW) and anything
  // still touching the staging window, then move the bytes.
  TDO_RETURN_IF_ERROR(sync_for_operands({key.rect}, {staging_rect}));
  if (peer_to_peer) {
    // One dev->dev hop: the adopting device's DMA pulls the tile directly
    // from the source pool — no host staging buffer, no host round trip.
    CimStream::Command command;
    command.kind = CimStream::Command::Kind::kCopy;
    command.device = to_device;
    command.copy.dir = CopyDesc::Dir::kDevToDev;
    command.copy.segments = {CopySeg{key.rect, staging_rect}};
    TDO_RETURN_IF_ERROR(stream_->enqueue(command));
  } else {
    // Host-bounce reference path: tile crosses to a host-side staging
    // buffer, then crosses again to the destination. The second hop reads
    // what the first wrote, so the hazard machinery serializes them — two
    // full transfers plus a drain, which is exactly what peer-to-peer saves.
    auto bounce = driver_->alloc_buffer(bytes);
    if (!bounce.is_ok()) return bounce.status();
    migration_staging_.push_back(*bounce);
    const Rect bounce_rect{bounce->pa, key.rect.width, key.rect.width,
                           key.rect.rows};
    CimStream::Command out;
    out.kind = CimStream::Command::Kind::kCopy;
    out.device = from_device;
    out.copy.dir = CopyDesc::Dir::kDevToHost;
    out.copy.segments = {CopySeg{key.rect, bounce_rect}};
    TDO_RETURN_IF_ERROR(stream_->enqueue(out));
    TDO_RETURN_IF_ERROR(sync_for_operands({bounce_rect}, {staging_rect}));
    CimStream::Command in;
    in.kind = CimStream::Command::Kind::kCopy;
    in.device = to_device;
    in.copy.dir = CopyDesc::Dir::kHostToDev;
    in.copy.segments = {CopySeg{bounce_rect, staging_rect}};
    TDO_RETURN_IF_ERROR(stream_->enqueue(in));
  }

  // Adopt: program the destination crossbar from the staging copy (the
  // functional bytes already landed — copies execute eagerly — and the
  // kProgram queues behind nothing else on the destination's engine).
  WeightKey shadow_key = key;
  shadow_key.rect = staging_rect;
  shadow_key.ld = shadow_ld;
  stream_->note_read(staging_rect, to_device);
  const auto image = make_program_image(shadow_key, row0);
  TDO_RETURN_IF_ERROR(enqueue_job(
      image, /*macs=*/0,
      static_cast<std::uint64_t>(key.rows) * key.cols, to_device,
      /*allow_cpu_fallback=*/false));

  // Re-home the cache entry. A miss here means a host write invalidated the
  // entry mid-migration: the destination crossbar then holds an unclaimed
  // stale tile and the next use of these weights simply reprograms — the
  // degradation is a wasted program, never a wrong result.
  if (!residency_->rehome(key, from_device, to_device, row0, staging_rect,
                          shadow_ld)) {
    TDO_LOG(kDebug, "cim.rt")
        << "tile invalidated mid-migration; destination reprograms on next use";
  }
  if (obs::enabled()) {
    // Host-side orchestration window of the migration (the copies and the
    // adopting kProgram trace their own spans on the dma/engine tracks).
    const sim::Tick migrate_end = system_.events().now();
    obs::Tracer::instance().span(
        "residency", "migrate_window", migrate_begin,
        migrate_end - migrate_begin,
        {{"from", static_cast<std::uint64_t>(from_device)},
         {"to", static_cast<std::uint64_t>(to_device)},
         {"bytes", bytes},
         {"p2p", peer_to_peer ? 1u : 0u}});
  }
  return support::Status::ok();
}

support::Status CimRuntime::enqueue_job(const cim::ContextRegs& image,
                                        std::uint64_t macs,
                                        std::uint64_t cim_writes, int device,
                                        bool allow_cpu_fallback) {
  stats_.tile_jobs += 1;
  CimStream::Command command;
  command.image = image;
  command.macs = macs;
  command.cim_writes = cim_writes;
  command.device = device;
  command.allow_cpu_fallback = allow_cpu_fallback;
  return stream_->enqueue(command);
}

support::Status CimRuntime::sgemm(std::uint64_t m, std::uint64_t n,
                                  std::uint64_t k, float alpha, sim::VirtAddr a,
                                  std::uint64_t lda, sim::VirtAddr b,
                                  std::uint64_t ldb, float beta, sim::VirtAddr c,
                                  std::uint64_t ldc) {
  return sgemm_with_stationary(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                               cim::StationaryOperand::kB);
}

support::Status CimRuntime::sgemm_with_stationary(
    std::uint64_t m, std::uint64_t n, std::uint64_t k, float alpha,
    sim::VirtAddr a, std::uint64_t lda, sim::VirtAddr b, std::uint64_t ldb,
    float beta, sim::VirtAddr c, std::uint64_t ldc,
    cim::StationaryOperand stationary, bool cacheable) {
  TDO_RETURN_IF_ERROR(sgemm_async(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                                  stationary, cacheable));
  return synchronize();
}

CimRuntime::TilePlan CimRuntime::gemm_plan(
    std::uint64_t m, std::uint64_t n, std::uint64_t k,
    cim::StationaryOperand stationary) const {
  // Stationary B: k x n tiles, rows of A stream. Stationary A: tiles of A^T
  // (k x m), columns of B stream.
  const bool stationary_b = stationary == cim::StationaryOperand::kB;
  return TilePlan{.layout = stationary,
                  .reduce = k,
                  .out = stationary_b ? n : m,
                  .stream = stationary_b ? m : n,
                  .tile_rows = accel_.tile().rows(),
                  .tile_cols = accel_.tile().cols()};
}

CimRuntime::TilePlan CimRuntime::gemv_plan(bool transpose, std::uint64_t m,
                                           std::uint64_t n) const {
  // y = A x keeps A^T stationary (reduce n, out m); y = A^T x keeps A itself
  // (reduce m, out n). Either way one vector streams.
  TilePlan plan = transpose ? gemm_plan(1, n, m, cim::StationaryOperand::kB)
                            : gemm_plan(m, 1, n, cim::StationaryOperand::kA);
  plan.vector_out = true;
  return plan;
}

void CimRuntime::TilePlan::bind(const Operand& stationary) {
  stat = stationary.rect.base;
  stat_ld = stationary.ld;
  stat_scale = stationary.scale;
}

void CimRuntime::TilePlan::bind(const Operand& stationary,
                                const Operand& moving, const Operand& output) {
  bind(stationary);
  mov = moving.rect.base;
  mov_ld = moving.ld;
  mov_scale = moving.scale;
  dst = output.rect.base;
  dst_ld = output.ld;
}

WeightKey CimRuntime::TilePlan::key(std::uint64_t kk, std::uint64_t ks,
                                    std::uint64_t jj, std::uint64_t js) const {
  const Rect rect =
      layout == cim::StationaryOperand::kB
          ? Rect{stat + (kk * stat_ld + jj) * kElem, stat_ld * kElem,
                 js * kElem, ks}
          : Rect{stat + (jj * stat_ld + kk) * kElem, stat_ld * kElem,
                 ks * kElem, js};
  return WeightKey{rect, stat_ld, stat_scale, layout,
                   static_cast<std::uint32_t>(ks),
                   static_cast<std::uint32_t>(js)};
}

std::vector<WeightKey> CimRuntime::TilePlan::keys() const {
  std::vector<WeightKey> all;
  for (std::uint64_t jj = 0; jj < out; jj += tile_cols) {
    for (std::uint64_t kk = 0; kk < reduce; kk += tile_rows) {
      all.push_back(key(kk, std::min(tile_rows, reduce - kk), jj,
                        std::min(tile_cols, out - jj)));
    }
  }
  return all;
}

support::Status CimRuntime::begin_call(Operand& a, Operand& b, Operand& c) {
  TDO_RETURN_IF_ERROR(locate(a));
  TDO_RETURN_IF_ERROR(locate(b));
  TDO_RETURN_IF_ERROR(locate(c));
  // Exact operand footprints: {base, pitch, width, rows} rectangles rather
  // than flat byte ranges, so the disjoint column stripes of different calls
  // never force a hazard synchronization.
  TDO_RETURN_IF_ERROR(sync_for_operands({a.rect, b.rect}, {c.rect}));
  TDO_RETURN_IF_ERROR(scan(a));
  TDO_RETURN_IF_ERROR(scan(b));
  invalidate_scales(c.va, c.rect.span_end() - c.rect.base);
  // The output is a host-visible write like any other: a cached stationary
  // tile backed by memory this call overwrites must die.
  residency_->invalidate_overlapping(c.rect);
  stream_->note_read(a.rect);
  stream_->note_read(b.rect);
  return support::Status::ok();
}

support::Status CimRuntime::run_plan(const TilePlan& plan, bool use_cache) {
  const bool stationary_b = plan.layout == cim::StationaryOperand::kB;
  const std::vector<WeightKey> keys = plan.keys();
  const std::size_t per_stripe =
      (plan.reduce + plan.tile_rows - 1) / plan.tile_rows;
  for (std::size_t first = 0; first < keys.size(); first += per_stripe) {
    // Each stripe is element-disjoint in the output, so stripes round-robin
    // across accelerators (and are tracked per device for per-stripe
    // copy-back); the accumulation chain stays on one queue. A stripe whose
    // weights are resident on some accelerator lands there instead —
    // affinity routing makes the reuse request actually hit.
    const std::span<const WeightKey> stripe(keys.data() + first, per_stripe);
    const std::uint64_t jj = first / per_stripe * plan.tile_cols;
    const std::uint64_t js = stripe.front().cols;
    const int device =
        stationary_device(use_cache ? stripe : std::span<const WeightKey>{});
    const sim::PhysAddr dst =
        plan.dst + (stationary_b ? jj : jj * plan.dst_ld) * kElem;
    const Rect written =
        plan.vector_out ? Rect::linear(dst, js * kElem)
        : stationary_b  ? Rect{dst, plan.dst_ld * kElem, js * kElem, plan.stream}
                        : Rect{dst, plan.dst_ld * kElem, plan.stream * kElem, js};
    stream_->note_write(written, device);
    for (std::size_t t = 0; t < stripe.size(); ++t) {
      const WeightKey& key = stripe[t];
      const std::uint64_t kk = t * plan.tile_rows;
      const TilePlacement tile = place_tile(use_cache, key, device);
      // Migrated tiles: the destination crossbar was programmed from the
      // peer-to-peer staging copy, so the job's stationary pointer must
      // reference it for the device-side validation to match.
      const bool shadow = tile.skip && tile.migrated;
      const sim::PhysAddr stat = shadow ? tile.shadow_base : key.rect.base;
      const std::uint64_t stat_ld = shadow ? tile.shadow_ld : key.ld;
      const sim::PhysAddr mov =
          plan.mov + (stationary_b ? kk : kk * plan.mov_ld) * kElem;
      const float beta = kk == 0 ? plan.beta : 1.0f;
      const auto image =
          stationary_b
              ? make_job_image(plan.stream, js, key.rows, plan.alpha, beta, mov,
                               plan.mov_ld, stat, stat_ld, dst, plan.dst_ld,
                               plan.mov_scale, plan.stat_scale, plan.layout,
                               tile.skip, tile.row0)
              : make_job_image(js, plan.stream, key.rows, plan.alpha, beta,
                               stat, stat_ld, mov, plan.mov_ld, dst,
                               plan.dst_ld, plan.stat_scale, plan.mov_scale,
                               plan.layout, tile.skip, tile.row0);
      TDO_RETURN_IF_ERROR(enqueue_job(image, plan.stream * js * key.rows,
                                      tile.skip ? 0 : key.rows * js, device,
                                      /*allow_cpu_fallback=*/kk == 0));
    }
  }
  return support::Status::ok();
}

support::Status CimRuntime::sgemm_async(std::uint64_t m, std::uint64_t n,
                                        std::uint64_t k, float alpha,
                                        sim::VirtAddr a, std::uint64_t lda,
                                        sim::VirtAddr b, std::uint64_t ldb,
                                        float beta, sim::VirtAddr c,
                                        std::uint64_t ldc,
                                        cim::StationaryOperand stationary,
                                        bool cacheable) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  if (m == 0 || n == 0 || k == 0) {
    return support::invalid_argument("zero GEMM dimension");
  }
  stats_.offload_calls += 1;

  Operand op_a{a, m, k, lda};
  Operand op_b{b, k, n, ldb};
  Operand op_c{c, m, n, ldc};
  TDO_RETURN_IF_ERROR(begin_call(op_a, op_b, op_c));

  const bool stationary_b = stationary == cim::StationaryOperand::kB;
  TilePlan plan = gemm_plan(m, n, k, stationary);
  plan.alpha = alpha;
  plan.beta = beta;
  plan.bind(stationary_b ? op_b : op_a, stationary_b ? op_a : op_b, op_c);

  // Pseudo-asynchronous split (DTO's DTO_CPU_SIZE_FRACTION), stationary B
  // only: peel the last rows of the streamed M dimension off onto the host
  // worker pool, which runs them concurrently with the accelerators'
  // stripes; the two halves join at the next synchronization point.
  // Row-splitting C keeps both halves element-disjoint, so the only
  // ordering needed is the join.
  if (stationary_b && config_.split.enabled && pool_->enabled() &&
      config_.split.cpu_fraction > 0.0 && m >= 2 &&
      m * n * k >= config_.split.min_macs) {
    const double fraction = std::clamp(config_.split.cpu_fraction, 0.0,
                                       config_.split.max_fraction);
    const std::uint64_t m_host = std::min<std::uint64_t>(
        m - 1,
        static_cast<std::uint64_t>(static_cast<double>(m) * fraction + 0.5));
    if (m_host >= 1) {
      HostStripeJob job;
      job.m = m_host;
      job.n = n;
      job.k = k;
      job.lda = lda;
      job.ldb = ldb;
      job.ldc = ldc;
      job.pa_a = op_a.rect.base + (m - m_host) * lda * kElem;
      job.pa_b = op_b.rect.base;
      job.pa_c = op_c.rect.base + (m - m_host) * ldc * kElem;
      job.alpha = alpha;
      job.beta = beta;
      const HostPoolTicket ticket = pool_->submit(job);
      if (ticket.accepted) {
        plan.stream = m - m_host;
        stats_.split_calls += 1;
        stats_.split_host_macs += m_host * n * k;
        stats_.split_device_macs += plan.stream * n * k;
        // The stripe read A/B eagerly, so it leaves no deferred-read
        // hazard; its C rows stay tracked until the join so later
        // consumers order behind the pool.
        stream_->note_write(Rect{job.pa_c, ldc * kElem, n * kElem, m_host},
                            stream_->host_pool_device_id());
      }
    }
  }
  return run_plan(plan, cacheable && residency_->enabled());
}

support::Status CimRuntime::sgemv(bool transpose, std::uint64_t m,
                                  std::uint64_t n, float alpha, sim::VirtAddr a,
                                  std::uint64_t lda, sim::VirtAddr x, float beta,
                                  sim::VirtAddr y) {
  TDO_RETURN_IF_ERROR(sgemv_async(transpose, m, n, alpha, a, lda, x, beta, y));
  return synchronize();
}

support::Status CimRuntime::sgemv_async(bool transpose, std::uint64_t m,
                                        std::uint64_t n, float alpha,
                                        sim::VirtAddr a, std::uint64_t lda,
                                        sim::VirtAddr x, float beta,
                                        sim::VirtAddr y, bool cacheable) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  if (m == 0 || n == 0) return support::invalid_argument("zero GEMV dimension");
  stats_.offload_calls += 1;

  const std::uint64_t xlen = transpose ? m : n;
  const std::uint64_t ylen = transpose ? n : m;
  Operand op_a{a, m, n, lda};
  Operand op_x{x, 1, xlen, xlen};
  Operand op_y{y, 1, ylen, ylen};
  TDO_RETURN_IF_ERROR(begin_call(op_a, op_x, op_y));

  TilePlan plan = gemv_plan(transpose, m, n);
  plan.alpha = alpha;
  plan.beta = beta;
  plan.bind(op_a, op_x, op_y);
  if (!transpose) {
    // Stationary A^T streams x as a column and writes y as one.
    plan.mov_ld = 1;
    plan.dst_ld = 1;
  }
  return run_plan(plan, cacheable && residency_->enabled());
}

support::Status CimRuntime::sgemm_batched(std::uint64_t m, std::uint64_t n,
                                          std::uint64_t k, float alpha,
                                          std::span<const GemmBatchItem> items,
                                          std::uint64_t lda, std::uint64_t ldb,
                                          float beta, std::uint64_t ldc,
                                          cim::StationaryOperand stationary,
                                          bool cacheable, int device) {
  TDO_RETURN_IF_ERROR(sgemm_batched_async(m, n, k, alpha, items, lda, ldb,
                                          beta, ldc, stationary, cacheable,
                                          device));
  return synchronize();
}

std::optional<int> CimRuntime::weight_affinity(std::uint64_t m, std::uint64_t n,
                                               std::uint64_t k,
                                               sim::VirtAddr stat,
                                               std::uint64_t ld_stat,
                                               cim::StationaryOperand stationary) {
  if (!initialized_ || !residency_->enabled()) return std::nullopt;
  if (m == 0 || n == 0 || k == 0) return std::nullopt;
  // Stationary B: a k x n operand; stationary A: m x k.
  const bool stationary_b = stationary == cim::StationaryOperand::kB;
  Operand op{stat, stationary_b ? k : m, stationary_b ? n : k, ld_stat};
  if (!locate(op).is_ok() || !scan(op).is_ok()) return std::nullopt;
  TilePlan plan = gemm_plan(m, n, k, stationary);
  plan.bind(op);
  for (const WeightKey& key : plan.keys()) {
    if (const auto resident = residency_->peek(key)) return resident->device;
  }
  return std::nullopt;
}

support::Status CimRuntime::sgemm_batched_async(
    std::uint64_t m, std::uint64_t n, std::uint64_t k, float alpha,
    std::span<const GemmBatchItem> items, std::uint64_t lda, std::uint64_t ldb,
    float beta, std::uint64_t ldc, cim::StationaryOperand stationary,
    bool cacheable, int device) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  if (m == 0 || n == 0 || k == 0) {
    return support::invalid_argument("zero GEMM dimension");
  }
  if (items.empty()) return support::invalid_argument("empty batch");

  TilePlan plan = gemm_plan(m, n, k, stationary);
  if (!plan.fits()) {
    // Graceful fallback: oversized batched operands run as individual tiled
    // GEMMs (loses the shared-input endurance benefit, which is exactly why
    // the compiler tiles *before* batching).
    TDO_LOG(kWarn, "cim.rt") << "batched GEMM exceeds crossbar, falling back";
    for (const GemmBatchItem& item : items) {
      TDO_RETURN_IF_ERROR(sgemm_async(m, n, k, alpha, item.a, lda, item.b, ldb,
                                      beta, item.c, ldc, stationary,
                                      cacheable));
    }
    return support::Status::ok();
  }
  // Cross-call residency applies when the whole batch shares one stationary
  // operand (the conv/T lowering and shared-input fusion groups do).
  const bool stationary_b = stationary == cim::StationaryOperand::kB;
  bool shared_stationary = true;
  for (const GemmBatchItem& item : items) {
    const sim::VirtAddr stat = stationary_b ? item.b : item.a;
    const sim::VirtAddr first = stationary_b ? items[0].b : items[0].a;
    shared_stationary = shared_stationary && stat == first;
  }
  const bool use_cache =
      cacheable && shared_stationary && residency_->enabled();

  stats_.offload_calls += 1;
  stats_.batched_calls += 1;

  // Translate every operand once, order against in-flight producers from
  // earlier calls, then register this call's ranges.
  struct ItemOperands {
    Operand a, b, c;
  };
  std::vector<ItemOperands> ops;
  ops.reserve(items.size());
  for (const GemmBatchItem& item : items) {
    ItemOperands& op = ops.emplace_back(ItemOperands{
        {item.a, m, k, lda}, {item.b, k, n, ldb}, {item.c, m, n, ldc}});
    TDO_RETURN_IF_ERROR(locate(op.a));
    TDO_RETURN_IF_ERROR(locate(op.b));
    TDO_RETURN_IF_ERROR(locate(op.c));
    TDO_RETURN_IF_ERROR(sync_for_operands({op.a.rect, op.b.rect}, {op.c.rect}));
  }
  // Round-robin the batch across accelerator instances in contiguous chunks
  // (items of one batched call are independent by construction — the fusion
  // pass only groups reorderable kernels). Chunks preserve stationary reuse.
  // A caller-pinned device (serving scheduler placement) keeps the batch
  // whole on that accelerator.
  const std::uint64_t devices = stream_->device_count();
  const std::uint64_t chunks =
      device >= 0 ? 1 : std::min<std::uint64_t>(devices, items.size());
  const std::uint64_t per_chunk = (items.size() + chunks - 1) / chunks;

  // The shared stationary tile's identity (for the residency cache): the
  // whole operand, which fits one tile.
  Operand& stat = stationary_b ? ops[0].b : ops[0].a;
  TDO_RETURN_IF_ERROR(scan(stat));
  plan.bind(stat);
  const WeightKey key = plan.keys().front();

  // Chunk device pre-draw: a single-chunk batch whose weights are resident
  // somewhere lands there (affinity, under the placement policy); a split
  // batch keeps the round-robin spread and caches the tile per device
  // instead.
  std::vector<int> chunk_devices(chunks);
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    chunk_devices[chunk] =
        device >= 0
            ? static_cast<int>(static_cast<std::size_t>(device) % devices)
            : stationary_device(use_cache && chunks == 1
                                    ? std::span<const WeightKey>(&key, 1)
                                    : std::span<const WeightKey>{});
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    const int device = chunk_devices[std::min<std::uint64_t>(
        i / per_chunk, chunks - 1)];
    invalidate_scales(items[i].c, ops[i].c.rect.span_end() - ops[i].c.rect.base);
    residency_->invalidate_overlapping(ops[i].c.rect);
    stream_->note_read(ops[i].a.rect, device);
    stream_->note_read(ops[i].b.rect, device);
    stream_->note_write(ops[i].c.rect, device);
  }

  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    const std::uint64_t begin = chunk * per_chunk;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + per_chunk, items.size());
    if (begin >= end) break;
    const std::uint64_t count = end - begin;

    // Build the chunk's batch table in a device staging buffer (host stores,
    // charged). The buffer stays alive until synchronize().
    auto staging = driver_->alloc_buffer(count * sizeof(cim::BatchEntry));
    if (!staging.is_ok()) return staging.status();
    staging_.push_back(*staging);
    std::uint64_t offset = 0;
    for (std::size_t i = begin; i < end; ++i) {
      TDO_RETURN_IF_ERROR(scan(ops[i].a));
      TDO_RETURN_IF_ERROR(scan(ops[i].b));
      cim::BatchEntry entry;
      entry.pa_a = ops[i].a.rect.base;
      entry.pa_b = ops[i].b.rect.base;
      entry.pa_c = ops[i].c.rect.base;
      entry.scale_a = ops[i].a.scale;
      entry.scale_b = ops[i].b.scale;
      store_entry(system_, staging->pa + offset, entry);
      offset += sizeof entry;
    }

    const int device = chunk_devices[chunk];
    const TilePlacement tile = place_tile(use_cache, key, device);
    // Batched jobs carry per-entry pointers/scales; the image's scale fields
    // are placeholders that decode() requires to be positive.
    cim::ContextRegs image = make_job_image(
        m, n, k, alpha, beta, 0, lda, 0, ldb, 0, ldc, /*scale_a=*/1.0,
        /*scale_b=*/1.0, stationary, tile.skip, tile.row0,
        cim::Opcode::kGemmBatched);
    image.write(cim::Reg::kBatchCount, count);
    image.write(cim::Reg::kBatchTable, staging->pa);
    // The batch shares the stationary tile; only the first item programs it
    // (none do when the residency cache validated a resident tile).
    TDO_RETURN_IF_ERROR(enqueue_job(
        image, count * m * n * k,
        tile.skip ? 0 : std::uint64_t{key.rows} * key.cols, device,
        /*allow_cpu_fallback=*/false));
  }
  return support::Status::ok();
}

}  // namespace tdo::rt
