#include "exec/interpreter.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "support/log.hpp"

namespace tdo::exec {

using support::Status;
using support::StatusOr;

namespace {

/// Calls `fn(pa, done, len)` for each page-bounded span of the `bytes` bytes
/// at `va`: one translation per page rather than one per element.
template <typename Fn>
Status for_each_page(const sim::Mmu& mmu, sim::VirtAddr va, std::size_t bytes,
                     Fn&& fn) {
  for (std::size_t done = 0; done < bytes;) {
    const sim::VirtAddr at = va + done;
    const std::size_t len = std::min<std::size_t>(
        bytes - done, sim::kPageSize - sim::page_offset(at));
    const auto pa = mmu.translate(at);
    if (!pa.is_ok()) return pa.status();
    fn(*pa, done, len);
    done += len;
  }
  return Status::ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Prepared executable form
// ---------------------------------------------------------------------------

struct Interpreter::PreparedExpr {
  enum class Kind { kLoad, kConst, kBin };
  Kind kind = Kind::kConst;
  // kLoad
  PreparedAccess load;
  // kConst (also used for scalar params, resolved at prepare time)
  double value = 0.0;
  // kBin
  ir::BinOpKind op = ir::BinOpKind::kAdd;
  std::unique_ptr<PreparedExpr> lhs;
  std::unique_ptr<PreparedExpr> rhs;
};

struct Interpreter::PreparedStmt {
  PreparedAccess lhs;
  bool accumulate = false;
  /// lhs address is invariant in the innermost enclosing loop: -O3 keeps the
  /// accumulator in a register, so no per-iteration lhs load/store occurs.
  bool lhs_promoted = false;
  std::unique_ptr<PreparedExpr> rhs;
  // Static per-execution instruction counts.
  std::uint32_t fp_ops = 0;
  std::uint32_t addr_int_ops = 0;
};

struct Interpreter::PreparedLoop {
  int slot = 0;
  PreparedAffine lower;
  PreparedBound upper;
  std::int64_t step = 1;
  std::vector<PreparedNode> body;
};

struct Interpreter::PreparedNode {
  std::variant<PreparedLoop, PreparedStmt> value;
};

Interpreter::Interpreter(sim::System& system, rt::CimRuntime* runtime,
                         CostModelParams cost)
    : system_{system}, runtime_{runtime}, cost_{cost} {}

Interpreter::ArrayInfo* Interpreter::find_array(const std::string& name) {
  const auto it = arrays_.find(name);
  return it == arrays_.end() ? nullptr : &it->second;
}

const Interpreter::ArrayInfo* Interpreter::find_array(
    const std::string& name) const {
  const auto it = arrays_.find(name);
  return it == arrays_.end() ? nullptr : &it->second;
}

Status Interpreter::prepare(const Program& program) {
  if (prepared_) return Status::ok();
  for (const ir::ArrayDecl& decl : program.arrays) {
    auto va = system_.mmu().allocate(static_cast<std::uint64_t>(decl.bytes()));
    if (!va.is_ok()) return va.status();
    arrays_[decl.name] = ArrayInfo{decl, *va, 0};
  }
  for (const ir::ScalarDecl& s : program.scalars) scalars_[s.name] = s.value;
  prepared_ = true;
  return Status::ok();
}

Status Interpreter::set_array(const std::string& name,
                              std::span<const float> data) {
  const ArrayInfo* info = find_array(name);
  if (info == nullptr) return support::not_found("unknown array " + name);
  if (static_cast<std::int64_t>(data.size()) != info->decl.element_count()) {
    return support::invalid_argument("size mismatch setting " + name);
  }
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()};
  return for_each_page(
      system_.mmu(), info->host_va, bytes.size(),
      [&](sim::PhysAddr pa, std::size_t done, std::size_t len) {
        system_.memory().write(pa, bytes.subspan(done, len));
      });
}

StatusOr<std::vector<float>> Interpreter::get_array(const std::string& name) {
  const ArrayInfo* info = find_array(name);
  if (info == nullptr) return support::not_found("unknown array " + name);
  std::vector<float> out(static_cast<std::size_t>(info->decl.element_count()));
  const std::span<std::uint8_t> bytes{
      reinterpret_cast<std::uint8_t*>(out.data()), out.size() * sizeof(float)};
  TDO_RETURN_IF_ERROR(for_each_page(
      system_.mmu(), info->host_va, bytes.size(),
      [&](sim::PhysAddr pa, std::size_t done, std::size_t len) {
        system_.memory().read(pa, bytes.subspan(done, len));
      }));
  return out;
}

StatusOr<sim::VirtAddr> Interpreter::host_address(const std::string& name) const {
  const ArrayInfo* info = find_array(name);
  if (info == nullptr) return support::not_found("unknown array " + name);
  return info->host_va;
}

StatusOr<sim::VirtAddr> Interpreter::dev_operand(const OperandRef& op,
                                                 bool whole) {
  const ArrayInfo* info = find_array(op.array);
  if (info == nullptr) return support::not_found("unknown array " + op.array);
  if (info->dev_va == 0) {
    return support::failed_precondition("array " + op.array +
                                        " has no device buffer");
  }
  if (whole) return info->dev_va;
  return info->dev_va + (op.row_offset * op.ld + op.col_offset) * 4;
}

Status Interpreter::run(const Program& program) {
  TDO_RETURN_IF_ERROR(prepare(program));
  for (const ProgramItem& item : program.items) {
    TDO_RETURN_IF_ERROR(exec_item(item));
  }
  // Terminal barrier: device calls dispatch asynchronously, so nothing may
  // remain in flight when the caller inspects results or the ROI closes.
  if (runtime_ != nullptr) TDO_RETURN_IF_ERROR(runtime_->synchronize());
  return Status::ok();
}

Status Interpreter::exec_item(const ProgramItem& item) {
  if (const auto* nest = std::get_if<HostNest>(&item)) {
    return exec_nest(nest->body);
  }
  if (runtime_ == nullptr) {
    return support::failed_precondition(
        "program contains CIM runtime calls but no runtime is attached");
  }
  if (const auto* init = std::get_if<CimInitOp>(&item)) {
    return runtime_->init(init->device);
  }
  if (const auto* malloc_op = std::get_if<CimMallocOp>(&item)) {
    ArrayInfo* info = find_array(malloc_op->array);
    if (info == nullptr) return support::not_found(malloc_op->array);
    auto va =
        runtime_->malloc_device(static_cast<std::uint64_t>(info->decl.bytes()));
    if (!va.is_ok()) return va.status();
    info->dev_va = *va;
    return Status::ok();
  }
  // Copies with a derived footprint move only the sub-rectangle the device
  // ops actually touch, as a pitched transfer whose scatter-gather segment
  // chain the runtime's transfer engine derives; whole-array copies keep the
  // flat path.
  if (const auto* h2d = std::get_if<CimHostToDevOp>(&item)) {
    ArrayInfo* info = find_array(h2d->array);
    if (info == nullptr) return support::not_found(h2d->array);
    if (!h2d->footprint.whole()) {
      const CopyFootprint& fp = h2d->footprint;
      const auto ld = static_cast<std::uint64_t>(
          info->decl.dims.size() >= 2 ? info->decl.dims[1] : info->decl.dims[0]);
      const std::uint64_t off = (fp.row0 * ld + fp.col0) * 4;
      return runtime_->host_to_dev_2d(info->dev_va + off, info->host_va + off,
                                      ld * 4, fp.cols * 4, fp.rows);
    }
    return runtime_->host_to_dev(info->dev_va, info->host_va,
                                 static_cast<std::uint64_t>(info->decl.bytes()));
  }
  if (const auto* d2h = std::get_if<CimDevToHostOp>(&item)) {
    ArrayInfo* info = find_array(d2h->array);
    if (info == nullptr) return support::not_found(d2h->array);
    if (!d2h->footprint.whole()) {
      const CopyFootprint& fp = d2h->footprint;
      const auto ld = static_cast<std::uint64_t>(
          info->decl.dims.size() >= 2 ? info->decl.dims[1] : info->decl.dims[0]);
      const std::uint64_t off = (fp.row0 * ld + fp.col0) * 4;
      return runtime_->dev_to_host_2d(info->host_va + off, info->dev_va + off,
                                      ld * 4, fp.cols * 4, fp.rows);
    }
    return runtime_->dev_to_host(info->host_va, info->dev_va,
                                 static_cast<std::uint64_t>(info->decl.bytes()));
  }
  if (const auto* free_op = std::get_if<CimFreeOp>(&item)) {
    ArrayInfo* info = find_array(free_op->array);
    if (info == nullptr) return support::not_found(free_op->array);
    const Status s = runtime_->free_device(info->dev_va);
    info->dev_va = 0;
    return s;
  }
  if (std::get_if<CimSyncOp>(&item) != nullptr) {
    return runtime_->synchronize();
  }
  // Kernel calls AND copies dispatch asynchronously through the runtime's
  // command stream: tile jobs from consecutive calls pipeline across the
  // accelerator work queues, eligible copies ride the stream as DMA
  // commands, and the elapsed time the ROI observes is the overlapped
  // schedule, not a sum of synchronous round trips. Full drains happen at
  // CimSyncOp barriers (emitted by the compiler where host nests consume
  // in-flight data) and at the end of run(); copies and frees drain only
  // when their rectangles actually overlap in-flight work.
  if (const auto* gemm = std::get_if<CimGemmOp>(&item)) {
    auto a = dev_operand(gemm->a);
    if (!a.is_ok()) return a.status();
    auto b = dev_operand(gemm->b);
    if (!b.is_ok()) return b.status();
    auto c = dev_operand(gemm->c);
    if (!c.is_ok()) return c.status();
    return runtime_->sgemm_async(gemm->m, gemm->n, gemm->k, gemm->alpha, *a,
                                 gemm->a.ld, *b, gemm->b.ld, gemm->beta, *c,
                                 gemm->c.ld, gemm->stationary, gemm->cacheable);
  }
  if (const auto* gemv = std::get_if<CimGemvOp>(&item)) {
    auto a = dev_operand(gemv->a);
    if (!a.is_ok()) return a.status();
    const ArrayInfo* x = find_array(gemv->x);
    const ArrayInfo* y = find_array(gemv->y);
    if (x == nullptr || y == nullptr) return support::not_found("gemv vectors");
    if (x->dev_va == 0 || y->dev_va == 0) {
      return support::failed_precondition("gemv vectors not on device");
    }
    return runtime_->sgemv_async(gemv->transpose, gemv->m, gemv->n, gemv->alpha,
                                 *a, gemv->a.ld, x->dev_va, gemv->beta,
                                 y->dev_va, gemv->cacheable);
  }
  if (const auto* batched = std::get_if<CimGemmBatchedOp>(&item)) {
    std::vector<rt::GemmBatchItem> items(batched->a.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      auto a = dev_operand(batched->a[i]);
      if (!a.is_ok()) return a.status();
      auto b = dev_operand(batched->b[i]);
      if (!b.is_ok()) return b.status();
      auto c = dev_operand(batched->c[i]);
      if (!c.is_ok()) return c.status();
      items[i] = rt::GemmBatchItem{*a, *b, *c};
    }
    return runtime_->sgemm_batched_async(
        batched->m, batched->n, batched->k, batched->alpha, items,
        batched->lda, batched->ldb, batched->beta, batched->ldc,
        batched->stationary, batched->cacheable);
  }
  return support::unimplemented("unknown program item");
}

// ---------------------------------------------------------------------------
// Host nest preparation + execution
// ---------------------------------------------------------------------------

/// Execute half of exec_nest: walks the prepared tree by direct recursion.
/// Each access site charges the host model in program order (loads as the
/// expression tree evaluates them, then the lhs load/store, then the
/// statement's ALU/FP bundle), so cycles, stalls and cache state are the
/// same as executing the source statement by statement.
class Interpreter::NestExecutor {
 public:
  explicit NestExecutor(Interpreter& interp)
      : interp_{interp},
        cpu_{interp.system_.cpu()},
        mmu_{interp.system_.mmu()},
        mem_{interp.system_.memory()} {}

  Status run(std::vector<PreparedNode>& nodes) {
    const CostModelParams& cost = interp_.cost_;
    for (PreparedNode& node : nodes) {
      if (auto* loop = std::get_if<PreparedLoop>(&node.value)) {
        const std::int64_t lo = loop->lower.eval(env_);
        std::uint32_t unroll_phase = 0;
        for (std::int64_t i = lo;; i += loop->step) {
          std::int64_t hi = loop->upper.expr.eval(env_);
          if (loop->upper.has_min) {
            hi = std::min(hi, loop->upper.min_with.eval(env_));
          }
          if (i >= hi) break;
          env_[static_cast<std::size_t>(loop->slot)] = i;
          // Loop bookkeeping amortizes across the unroll factor at -O3.
          if (unroll_phase == 0) {
            cpu_.issue(sim::InstBundle{.int_alu = cost.loop_int_ops,
                                       .branches = cost.loop_branches});
          }
          if (++unroll_phase >= cost.unroll_factor) unroll_phase = 0;
          TDO_RETURN_IF_ERROR(run(loop->body));
        }
      } else {
        auto& stmt = std::get<PreparedStmt>(node.value);
        ++interp_.stmts_executed_;
        double value = eval(*stmt.rhs);
        sim::PhysAddr pa = 0;
        if (!fault_.is_ok() || !locate(stmt.lhs, &pa)) return fault_;
        if (stmt.accumulate) {
          if (!stmt.lhs_promoted) cpu_.load(pa);
          value += static_cast<double>(
              mem_.read_scalar<float>(pa, stmt.lhs.memo));
        }
        mem_.write_scalar<float>(pa, static_cast<float>(value), stmt.lhs.memo);
        if (!stmt.lhs_promoted) cpu_.store(pa);
        cpu_.issue(sim::InstBundle{.int_alu = stmt.addr_int_ops,
                                   .fp_ops = stmt.fp_ops});
      }
    }
    return Status::ok();
  }

 private:
  /// Physical address of the element `site` addresses under the current
  /// induction variables. False, with fault_ set, when a subscript leaves
  /// its dimension: such an access would read or clobber a neighbouring row,
  /// a neighbouring allocation or an unmapped page.
  bool locate(PreparedAccess& site, sim::PhysAddr* pa) {
    for (const PreparedDim& d : site.inner) {
      const std::int64_t sub = d.sub.eval(env_);
      if (static_cast<std::uint64_t>(sub) >= d.extent) {
        return subscript_fault(site, d.dim, sub);
      }
    }
    const std::int64_t off = site.offset.eval(env_);
    if (static_cast<std::uint64_t>(off) >= site.elements) {
      // Every other subscript is in range, so the leading one is not.
      const std::int64_t rem = off % site.lead_stride;
      return subscript_fault(
          site, 0, off / site.lead_stride - (rem < 0 ? 1 : 0));
    }
    const sim::VirtAddr va =
        site.array->host_va + static_cast<std::uint64_t>(off) * 4;
    if (sim::page_of(va) != site.vpage) {
      const auto frame = mmu_.translate(va);
      if (!frame.is_ok()) {
        fault_ = frame.status();
        return false;
      }
      site.vpage = sim::page_of(va);
      site.frame = sim::page_base(*frame);
    }
    *pa = site.frame + sim::page_offset(va);
    return true;
  }

  bool subscript_fault(const PreparedAccess& site, int dim, std::int64_t sub) {
    const ir::ArrayDecl& decl = site.array->decl;
    fault_ = support::out_of_range(
        "subscript " + std::to_string(sub) + " of array " + decl.name +
        " dimension " + std::to_string(dim) + " is outside [0, " +
        std::to_string(decl.dims[static_cast<std::size_t>(dim)]) + ")");
    return false;
  }

  double eval(PreparedExpr& e) {
    switch (e.kind) {
      case PreparedExpr::Kind::kConst:
        return e.value;
      case PreparedExpr::Kind::kLoad: {
        sim::PhysAddr pa = 0;
        if (!locate(e.load, &pa)) return 0.0;
        cpu_.load(pa);
        return static_cast<double>(mem_.read_scalar<float>(pa, e.load.memo));
      }
      case PreparedExpr::Kind::kBin: {
        const double l = eval(*e.lhs);
        const double r = eval(*e.rhs);
        switch (e.op) {
          case ir::BinOpKind::kAdd: return l + r;
          case ir::BinOpKind::kSub: return l - r;
          case ir::BinOpKind::kMul: return l * r;
          case ir::BinOpKind::kDiv: return l / r;
        }
        return 0.0;
      }
    }
    return 0.0;
  }

  Interpreter& interp_;
  sim::HostCpu& cpu_;
  const sim::Mmu& mmu_;
  sim::SimMemory& mem_;
  std::vector<std::int64_t> env_ = std::vector<std::int64_t>(32, 0);
  Status fault_;  // first out-of-bounds or unmapped access; ends the nest
};

Status Interpreter::exec_nest(const std::vector<ir::Node>& body) {
  // --- prepare: resolve names to slots/addresses once ---
  struct PrepareContext {
    std::map<std::string, int> slots;
  } ctx;

  std::function<Status(const ir::AffineExpr&, PreparedAffine*)> prep_affine =
      [&](const ir::AffineExpr& e, PreparedAffine* out) -> Status {
    out->constant = e.constant_term();
    out->terms.clear();
    for (const auto& [name, coeff] : e.coeffs()) {
      const auto it = ctx.slots.find(name);
      if (it == ctx.slots.end()) {
        return support::internal_error("unbound iv " + name);
      }
      out->terms.emplace_back(it->second, coeff);
    }
    return Status::ok();
  };

  auto prep_access = [&](const std::string& array,
                         const std::vector<ir::AffineExpr>& subs,
                         PreparedAccess* out) -> Status {
    const ArrayInfo* info = find_array(array);
    if (info == nullptr) return support::not_found("array " + array);
    out->array = info;
    out->elements = static_cast<std::uint64_t>(info->decl.element_count());
    // offset = sum_d subs[d] * stride_d with row-major strides.
    ir::AffineExpr flat;
    std::int64_t stride = 1;
    for (std::size_t d = info->decl.dims.size(); d-- > 0;) {
      flat += subs[d] * stride;
      if (d > 0) {
        PreparedDim& dim = out->inner.emplace_back();
        TDO_RETURN_IF_ERROR(prep_affine(subs[d], &dim.sub));
        dim.extent = static_cast<std::uint64_t>(info->decl.dims[d]);
        dim.dim = static_cast<int>(d);
      } else {
        out->lead_stride = stride;
      }
      stride *= info->decl.dims[d];
    }
    return prep_affine(flat, &out->offset);
  };

  std::function<StatusOr<std::unique_ptr<PreparedExpr>>(const ir::ExprPtr&,
                                                        std::uint32_t*,
                                                        std::uint32_t*)>
      prep_expr = [&](const ir::ExprPtr& e, std::uint32_t* fp_ops,
                      std::uint32_t* loads)
      -> StatusOr<std::unique_ptr<PreparedExpr>> {
    auto out = std::make_unique<PreparedExpr>();
    if (const auto* load = std::get_if<ir::LoadExpr>(&e->node)) {
      out->kind = PreparedExpr::Kind::kLoad;
      TDO_RETURN_IF_ERROR(
          prep_access(load->array, load->subscripts, &out->load));
      ++*loads;
      return out;
    }
    if (const auto* c = std::get_if<ir::ConstExpr>(&e->node)) {
      out->kind = PreparedExpr::Kind::kConst;
      out->value = c->value;
      return out;
    }
    if (const auto* p = std::get_if<ir::ParamExpr>(&e->node)) {
      const auto it = scalars_.find(p->name);
      if (it == scalars_.end()) return support::not_found("scalar " + p->name);
      out->kind = PreparedExpr::Kind::kConst;
      out->value = it->second;
      return out;
    }
    if (const auto* bin = std::get_if<ir::BinExpr>(&e->node)) {
      out->kind = PreparedExpr::Kind::kBin;
      out->op = bin->op;
      auto lhs = prep_expr(bin->lhs, fp_ops, loads);
      if (!lhs.is_ok()) return lhs.status();
      auto rhs = prep_expr(bin->rhs, fp_ops, loads);
      if (!rhs.is_ok()) return rhs.status();
      out->lhs = std::move(lhs).value();
      out->rhs = std::move(rhs).value();
      ++*fp_ops;
      return out;
    }
    return support::unimplemented(
        "non-affine expression reached the interpreter");
  };

  std::function<StatusOr<std::vector<PreparedNode>>(const std::vector<ir::Node>&,
                                                    int)>
      prep_body = [&](const std::vector<ir::Node>& nodes,
                      int depth) -> StatusOr<std::vector<PreparedNode>> {
    std::vector<PreparedNode> out;
    out.reserve(nodes.size());
    for (const ir::Node& node : nodes) {
      if (node.is_loop()) {
        const ir::Loop& loop = node.loop();
        if (depth >= 30) {
          return support::invalid_argument("loop nest deeper than 30");
        }
        PreparedLoop prepared;
        prepared.slot = depth;
        TDO_RETURN_IF_ERROR(prep_affine(loop.lower, &prepared.lower));
        ctx.slots[loop.iv] = depth;
        TDO_RETURN_IF_ERROR(prep_affine(loop.upper.expr, &prepared.upper.expr));
        if (loop.upper.min_with.has_value()) {
          prepared.upper.has_min = true;
          TDO_RETURN_IF_ERROR(
              prep_affine(*loop.upper.min_with, &prepared.upper.min_with));
        }
        prepared.step = loop.step;
        auto body_nodes = prep_body(loop.body, depth + 1);
        if (!body_nodes.is_ok()) return body_nodes.status();
        prepared.body = std::move(body_nodes).value();
        ctx.slots.erase(loop.iv);
        PreparedNode pn;
        pn.value = std::move(prepared);
        out.push_back(std::move(pn));
      } else {
        const ir::Stmt& stmt = node.stmt();
        PreparedStmt prepared;
        prepared.accumulate = stmt.accumulate;
        TDO_RETURN_IF_ERROR(
            prep_access(stmt.lhs.array, stmt.lhs.subscripts, &prepared.lhs));
        std::uint32_t loads = 0;
        auto rhs = prep_expr(stmt.rhs, &prepared.fp_ops, &loads);
        if (!rhs.is_ok()) return rhs.status();
        prepared.rhs = std::move(rhs).value();
        if (stmt.accumulate) ++prepared.fp_ops;  // the += add
        if (cost_.promote_accumulators && stmt.accumulate && depth > 0) {
          const int innermost_slot = depth - 1;
          prepared.lhs_promoted = true;
          for (const auto& [slot, coeff] : prepared.lhs.offset.terms) {
            if (slot == innermost_slot && coeff != 0) {
              prepared.lhs_promoted = false;
            }
          }
        }
        const std::uint32_t lhs_accesses = prepared.lhs_promoted ? 0 : 1;
        prepared.addr_int_ops = (loads + lhs_accesses) * cost_.int_ops_per_access;
        PreparedNode pn;
        pn.value = std::move(prepared);
        out.push_back(std::move(pn));
      }
    }
    return out;
  };

  auto prepared = prep_body(body, 0);
  if (!prepared.is_ok()) return prepared.status();
  return NestExecutor{*this}.run(*prepared);
}

}  // namespace tdo::exec
