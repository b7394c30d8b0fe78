#include "uarch/core.h"

#include <algorithm>
#include <cassert>

namespace whisper::uarch {

namespace {

using isa::Instruction;
using isa::Opcode;
using isa::Reg;

/// First source register read by an instruction (Reg::None if none).
Reg reg_a(const Instruction& in) {
  switch (in.op) {
    case Opcode::MovRR: return in.src;
    case Opcode::AvxOp: return in.src;  // optional data dependency
    case Opcode::Load:
    case Opcode::LoadByte:
    case Opcode::Store:
    case Opcode::StoreByte:
    case Opcode::Clflush:
    case Opcode::Prefetch:
      return in.base;
    case Opcode::AddRI: case Opcode::SubRI: case Opcode::AndRI:
    case Opcode::OrRI: case Opcode::ShlRI: case Opcode::ShrRI:
    case Opcode::CmpRI:
    case Opcode::AddRR: case Opcode::SubRR: case Opcode::XorRR:
    case Opcode::CmpRR: case Opcode::TestRR:
    case Opcode::ImulRR: case Opcode::FdivRR:
    case Opcode::Neg: case Opcode::Not:
    case Opcode::Cmov:
      return in.dst;
    case Opcode::Lea:
      return in.base;
    case Opcode::Call:
    case Opcode::Ret:
      return Reg::RSP;
    default:
      return Reg::None;
  }
}

/// Second source register (Reg::None if none).
Reg reg_b(const Instruction& in) {
  switch (in.op) {
    case Opcode::Store:
    case Opcode::StoreByte:
      return in.src;
    case Opcode::AddRR: case Opcode::SubRR: case Opcode::XorRR:
    case Opcode::CmpRR: case Opcode::TestRR:
    case Opcode::ImulRR: case Opcode::FdivRR: case Opcode::Cmov:
      return in.src;
    default:
      return Reg::None;
  }
}

/// Register architecturally written (Reg::None if none).
Reg reg_written(const Instruction& in) {
  switch (in.op) {
    case Opcode::MovRI: case Opcode::MovRR:
    case Opcode::Load: case Opcode::LoadByte:
    case Opcode::AddRI: case Opcode::AddRR:
    case Opcode::SubRI: case Opcode::SubRR:
    case Opcode::AndRI: case Opcode::OrRI: case Opcode::XorRR:
    case Opcode::ShlRI: case Opcode::ShrRI:
    case Opcode::ImulRR: case Opcode::FdivRR:
    case Opcode::Neg: case Opcode::Not:
    case Opcode::Lea: case Opcode::Cmov:
    case Opcode::Rdtsc: case Opcode::Rdtscp:
      return in.dst;
    case Opcode::Call:
    case Opcode::Ret:
      return Reg::RSP;  // stack pointer adjustment
    default:
      return Reg::None;
  }
}

isa::Flags alu_flags(std::uint64_t result, bool carry, bool overflow) {
  isa::Flags f;
  f.zf = result == 0;
  f.sf = (result >> 63) & 1;
  f.cf = carry;
  f.of = overflow;
  return f;
}

constexpr std::int32_t kInstrBlock = 8;  // instructions per DSB/fetch block

/// The per-cycle PMU vector: the events a cycle charges from pipeline state
/// alone. Core::cycle_charge_ holds one bit per entry; an inert span
/// charges every skipped cycle the vector of the inert cycle before it.
constexpr PmuEvent kCycleEvents[] = {
    PmuEvent::CORE_CYCLES,
    PmuEvent::UOPS_EXECUTED_STALL_CYCLES,
    PmuEvent::UOPS_EXECUTED_CORE_CYCLES_NONE,
    PmuEvent::CYCLE_ACTIVITY_STALLS_TOTAL,
    PmuEvent::UOPS_ISSUED_STALL_CYCLES,
    PmuEvent::CYCLE_ACTIVITY_CYCLES_MEM_ANY,
    PmuEvent::RS_EVENTS_EMPTY_CYCLES,
    PmuEvent::DE_DIS_UOP_QUEUE_EMPTY_DI0,
    PmuEvent::RESOURCE_STALLS_ANY,
    PmuEvent::DE_DIS_DISPATCH_TOKEN_STALLS2_RETIRE_TOKEN_STALL,
};

constexpr std::uint32_t cycle_bit(PmuEvent e) {
  for (std::size_t i = 0; i < std::size(kCycleEvents); ++i)
    if (kCycleEvents[i] == e) return 1u << i;
  return 0;
}

/// Allocation blocked on tokens or RAT recovery while work waits in the
/// IDQ: RESOURCE_STALLS.ANY, plus the retire-token stall on AMD.
constexpr std::uint32_t resource_stall_bits(Vendor v) {
  return cycle_bit(PmuEvent::RESOURCE_STALLS_ANY) |
         (v == Vendor::Amd
              ? cycle_bit(
                    PmuEvent::DE_DIS_DISPATCH_TOKEN_STALLS2_RETIRE_TOKEN_STALL)
              : 0u);
}


}  // namespace

// ---------------------------------------------------------------------------
// RobRing
// ---------------------------------------------------------------------------

void Core::RobRing::reserve(std::size_t n) {
  std::size_t cap = buf_.empty() ? kInitialCap : buf_.size();
  while (cap < n) cap *= 2;
  if (cap == buf_.size()) return;
  std::vector<RobEntry> nbuf(cap);
  std::vector<EntryState> nstate(cap);
  std::vector<std::uint64_t> ncomplete(cap);
  std::vector<std::uint64_t> nseq(cap);
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t p = (head_ + i) & mask_;
    nbuf[i] = std::move(buf_[p]);
    nstate[i] = state_[p];
    ncomplete[i] = complete_[p];
    nseq[i] = seq_[p];
  }
  buf_ = std::move(nbuf);
  state_ = std::move(nstate);
  complete_ = std::move(ncomplete);
  seq_ = std::move(nseq);
  head_ = 0;
  mask_ = cap - 1;
}

void Core::RobRing::push_back(RobEntry e) {
  // Slots must stay put while entries are in flight: run() reserves the
  // configured ROB size and allocation never exceeds it.
  assert(size_ < buf_.size());
  const std::size_t p = (head_ + size_) & mask_;
  state_[p] = e.state;
  complete_[p] = e.complete_at;
  seq_[p] = e.seq;
  buf_[p] = std::move(e);
  ++size_;
}

std::size_t Core::RobRing::lower_bound(std::uint64_t seq) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (seq_[(head_ + mid) & mask_] < seq)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

Core::RobEntry* Core::RobRing::by_seq(std::uint64_t seq) noexcept {
  const std::size_t i = lower_bound(seq);
  if (i == size_) return nullptr;
  const std::size_t p = phys(i);
  return seq_[p] == seq ? &buf_[p] : nullptr;
}

// ---------------------------------------------------------------------------
// Censuses and queues
// ---------------------------------------------------------------------------

void Core::SeqCensus::insert(std::uint64_t seq) {
  if (s_.empty() || s_.back() < seq) {
    s_.push_back(seq);
    return;
  }
  s_.insert(std::lower_bound(s_.begin(), s_.end(), seq), seq);
}

void Core::SeqCensus::erase(std::uint64_t seq) {
  if (s_.back() == seq) {  // squashes and in-order completions
    s_.pop_back();
    return;
  }
  const auto it = std::lower_bound(s_.begin(), s_.end(), seq);
  assert(it != s_.end() && *it == seq);
  s_.erase(it);
}

void Core::Scheduler::clear() noexcept {
  for (SeqCensus* c : {&fences, &stores, &clflushes, &jccs, &rets, &faults})
    c->clear();
  ready.clear();
  events.clear();
}

namespace {

std::uint32_t link_of(std::uint32_t slot, int k) {
  return (slot << 2) | static_cast<std::uint32_t>(k);
}

}  // namespace

void Core::account_alloc(ThreadCtx& ctx, const RobEntry& e) {
  ++ctx.waiting_count;
  const Instruction& in = e.inst;
  Scheduler& s = ctx.sched;
  if (in.is_fence()) s.fences.insert(e.seq);
  if (in.is_store()) s.stores.insert(e.seq);
  if (in.op == Opcode::Clflush) s.clflushes.insert(e.seq);
  if (in.op == Opcode::Jcc) s.jccs.insert(e.seq);
  if (in.op == Opcode::Ret) s.rets.insert(e.seq);
}

void Core::account_issue(ThreadCtx& ctx, const RobEntry& e) {
  --ctx.waiting_count;
  if (e.inst.is_load()) ++ctx.issued_loads;
}

void Core::leave_pending(ThreadCtx& ctx, const RobEntry& e) {
  const Instruction& in = e.inst;
  Scheduler& s = ctx.sched;
  if (in.is_fence()) s.fences.erase(e.seq);
  if (in.is_store()) s.stores.erase(e.seq);
  if (in.op == Opcode::Clflush) s.clflushes.erase(e.seq);
  if (in.op == Opcode::Jcc) s.jccs.erase(e.seq);
  if (in.op == Opcode::Ret) s.rets.erase(e.seq);
}

void Core::account_done(ThreadCtx& ctx, const RobEntry& e) {
  ++ctx.done_count;
  if (e.inst.is_load()) --ctx.issued_loads;
  leave_pending(ctx, e);
}

void Core::account_remove(ThreadCtx& ctx, const RobEntry& e) {
  switch (e.state) {
    case EntryState::Waiting: --ctx.waiting_count; break;
    case EntryState::Issued:
      if (e.inst.is_load()) --ctx.issued_loads;
      break;
    case EntryState::Done: --ctx.done_count; break;
  }
  if (e.state != EntryState::Done) leave_pending(ctx, e);
  if (e.fault != mem::Fault::None) ctx.sched.faults.erase(e.seq);
}

void Core::unrename(ThreadCtx& ctx, const RobEntry& e) {
  // Restore the map values this entry displaced. Squashes pop youngest-
  // first, so the checkpoints unwind in exact reverse-allocation order.
  // A restored value may reference an entry that retired in the meantime;
  // such a stale seq reads identically to 0 everywhere (architectural
  // value, ready, untainted).
  if (e.writes_reg &&
      ctx.reg_writer[static_cast<std::size_t>(e.dst)] == e.seq)
    ctx.reg_writer[static_cast<std::size_t>(e.dst)] = e.prev_reg_writer;
  if (e.writes_flags && ctx.flags_writer == e.seq)
    ctx.flags_writer = e.prev_flags_writer;
}

void Core::link_operand(ThreadCtx& ctx, RobEntry& c, int k,
                        std::uint64_t seq) {
  // A producer that retired (or is 0) supplies the architectural value; one
  // that already forwarded supplies its result. Either way: ready now.
  if (seq == 0) return;
  RobEntry* p = ctx.rob.by_seq(seq);
  if (p == nullptr || p->forwarded) return;
  const auto ki = static_cast<std::size_t>(k);
  c.prod_link[ki] = ctx.rob.slot(*p);
  c.next_link[ki] = p->wake_head;
  p->wake_head = link_of(ctx.rob.slot(c), k);
  ++c.unready;
}

void Core::unlink_operands(ThreadCtx& ctx, const RobEntry& c) {
  // Squashes pop youngest-first and links are pushed in allocation order
  // (operand 0, 1, 2), so a squashed consumer's links are the heads of
  // their producers' lists — unlinking walks the operands in reverse.
  assert(c.wake_head == kNoLink);
  for (int k = kNumOperands - 1; k >= 0; --k) {
    const auto ki = static_cast<std::size_t>(k);
    if (c.prod_link[ki] == kNoLink) continue;
    RobEntry& p = ctx.rob.at_slot(c.prod_link[ki]);
    assert(p.wake_head == link_of(ctx.rob.slot(c), k));
    p.wake_head = c.next_link[ki];
  }
}

void Core::wake_consumers(ThreadCtx& ctx, RobEntry& p) {
  p.forwarded = true;
  for (std::uint32_t link = p.wake_head; link != kNoLink;) {
    RobEntry& c = ctx.rob.at_slot(link >> 2);
    const std::size_t k = link & 3;
    link = c.next_link[k];
    c.prod_link[k] = kNoLink;
    if (--c.unready == 0) ready_insert(ctx, c);
  }
  p.wake_head = kNoLink;
}

void Core::ready_insert(ThreadCtx& ctx, const RobEntry& e) {
  std::vector<ReadyRef>& r = ctx.sched.ready;
  const ReadyRef ref{e.seq, ctx.rob.slot(e)};
  if (r.empty() || r.back().seq < e.seq) {
    r.push_back(ref);
    return;
  }
  r.insert(std::lower_bound(r.begin(), r.end(), e.seq,
                            [](const ReadyRef& x, std::uint64_t s) {
                              return x.seq < s;
                            }),
           ref);
}

void Core::schedule_events(ThreadCtx& ctx, RobEntry& e) {
  std::vector<Event>& q = ctx.sched.events;
  const std::uint32_t slot = ctx.rob.slot(e);
  auto push = [&](std::uint64_t time) {
    q.push_back({time, e.seq, slot});
    std::push_heap(q.begin(), q.end(), Event::later);
  };
  // Dependents scanned later in this cycle's issue pass may already use a
  // result that forwards now.
  if (!e.forwarded && e.forward_at <= cycle_) wake_consumers(ctx, e);
  if (!e.forwarded) push(e.forward_at);
  if (e.complete_at != e.forward_at || e.forwarded) push(e.complete_at);
}

std::uint64_t Core::next_queued_event(ThreadCtx& ctx) {
  std::vector<Event>& q = ctx.sched.events;
  while (!q.empty()) {
    const Event& ev = q.front();
    if (ctx.rob.live(ev.slot, ev.seq)) {
      const RobEntry& e = ctx.rob.at_slot(ev.slot);
      if (!e.forwarded || e.state == EntryState::Issued) return ev.time;
    }
    std::pop_heap(q.begin(), q.end(), Event::later);
    q.pop_back();
  }
  return ~std::uint64_t{0};
}

// ---------------------------------------------------------------------------
// Decode cache
// ---------------------------------------------------------------------------

std::shared_ptr<const Core::DecodedProgram> Core::decoded_for(
    const isa::Program& prog) {
  const std::uint64_t key = prog.content_hash();
  for (std::size_t i = 0; i < decode_cache_.size(); ++i) {
    if (decode_cache_[i].first == key) {
      ++decode_stats_.hits;
      if (i != 0)
        std::rotate(decode_cache_.begin(), decode_cache_.begin() + i,
                    decode_cache_.begin() + i + 1);
      return decode_cache_.front().second;
    }
  }
  ++decode_stats_.misses;
  auto dp = std::make_shared<DecodedProgram>();
  dp->insts.reserve(prog.code().size());
  for (const Instruction& in : prog.code()) {
    DecodedInst di;
    di.src_a = reg_a(in);
    di.src_b = reg_b(in);
    di.dst = reg_written(in);
    di.uops = static_cast<std::int8_t>(in.uops());
    di.writes_flags = in.writes_flags();
    dp->insts.push_back(di);
  }
  decode_cache_.insert(decode_cache_.begin(), {key, dp});
  if (decode_cache_.size() > kDecodeCacheCap) decode_cache_.pop_back();
  return dp;
}

Core::Core(const CpuConfig& cfg, mem::MemorySystem& mem)
    : cfg_(cfg), mem_(mem), pmu_(cfg.vendor), bpu_(cfg),
      rng_(cfg.seed ^ 0xc04e5eedULL) {
  mem_.set_counter_window(pmu_.mem_counter_window());
}

void Core::recycle(ThreadCtx& ctx) {
  RobRing rob = std::move(ctx.rob);
  Ring<IdqEntry> idq = std::move(ctx.idq);
  std::unordered_set<std::int32_t> dsb = std::move(ctx.dsb_blocks);
  std::vector<std::uint64_t> tsc = std::move(ctx.tsc_out);
  Scheduler sched = std::move(ctx.sched);
  rob.clear();
  idq.clear();
  dsb.clear();
  tsc.clear();
  sched.clear();
  ctx = ThreadCtx{};
  ctx.rob = std::move(rob);
  ctx.idq = std::move(idq);
  ctx.dsb_blocks = std::move(dsb);
  ctx.tsc_out = std::move(tsc);
  ctx.sched = std::move(sched);
}

void Core::reset(std::uint64_t seed) {
  cfg_.seed = seed;
  cfg_.mem.seed = seed;
  pmu_.reset();
  bpu_.reset();
  rng_ = stats::Xoshiro256(seed ^ 0xc04e5eedULL);
  cycle_ = 0;
  avx_warm_until_ = 0;
  divider_busy_until_ = 0;
  shared_frontend_busy_until_ = 0;
  nthreads_ = 1;
  for (ThreadCtx& ctx : ctx_) recycle(ctx);
  last_prog_ = {};
  for (auto& dsb : persistent_dsb_) dsb.clear();
  issued_uops_this_cycle_ = 0;
  alloc_uops_this_cycle_ = 0;
}

RunResult Core::run(const isa::Program& prog, const InitState& init,
                    std::uint64_t cycle_limit) {
  nthreads_ = 1;
  recycle(ctx_[0]);
  ctx_[0].active = true;
  ctx_[0].prog = &prog;
  ctx_[0].dec = decoded_for(prog);
  ctx_[0].regs = init.regs;
  ctx_[0].flags = init.flags;
  ctx_[0].user_mode = init.user_mode;
  ctx_[0].signal_handler = init.signal_handler;
  ctx_[0].code_base = init.code_base;
  ctx_[0].rob.reserve(static_cast<std::size_t>(cfg_.rob_size));
  if (last_prog_[0] == &prog) ctx_[0].dsb_blocks = std::move(persistent_dsb_[0]);
  // An inactive sibling context is already clean: only recycle() clears
  // `active`, and it clears everything else with it.
  if (ctx_[1].active) recycle(ctx_[1]);
  RunResult r = run_internal(cycle_limit);
  last_prog_[0] = &prog;
  persistent_dsb_[0] = std::move(ctx_[0].dsb_blocks);
  last_prog_[1] = nullptr;
  return r;
}

RunResult Core::run_smt(const isa::Program& p0, const InitState& i0,
                        const isa::Program& p1, const InitState& i1,
                        std::uint64_t cycle_limit) {
  nthreads_ = 2;
  for (int t = 0; t < 2; ++t) {
    const isa::Program& p = t == 0 ? p0 : p1;
    const InitState& init = t == 0 ? i0 : i1;
    recycle(ctx_[t]);
    ctx_[t].active = true;
    ctx_[t].prog = &p;
    ctx_[t].dec = decoded_for(p);
    ctx_[t].regs = init.regs;
    ctx_[t].flags = init.flags;
    ctx_[t].user_mode = init.user_mode;
    ctx_[t].signal_handler = init.signal_handler;
    ctx_[t].code_base = init.code_base;
    ctx_[t].rob.reserve(static_cast<std::size_t>(cfg_.rob_size));
    if (last_prog_[t] == &p) ctx_[t].dsb_blocks = std::move(persistent_dsb_[t]);
  }
  RunResult r = run_internal(cycle_limit);
  for (int t = 0; t < 2; ++t) {
    last_prog_[t] = t == 0 ? &p0 : &p1;
    persistent_dsb_[t] = std::move(ctx_[t].dsb_blocks);
  }
  return r;
}

RunResult Core::run_internal(std::uint64_t cycle_limit) {
  RunResult result;
  result.start_cycle = cycle_;
  const std::uint64_t deadline = cycle_ + cycle_limit;

  auto all_done = [&] {
    for (int t = 0; t < nthreads_; ++t)
      if (ctx_[t].active && !ctx_[t].halted) return false;
    return true;
  };

  while (!all_done()) {
    if (cycle_ >= deadline) {
      result.cycle_limit_hit = true;
      break;
    }
    step_cycle();
    ++loop_iterations_;
    // SMT siblings alternate alloc/fetch turns, so an inert cycle does not
    // predict the next one there; SMT runs step every cycle.
    if (!acted_ && nthreads_ == 1) jump_to_next_event(deadline);
  }

  result.end_cycle = cycle_;
  for (int t = 0; t < 2; ++t) {
    ThreadResult& tr = result.thread[static_cast<std::size_t>(t)];
    tr.halted = ctx_[t].halted;
    tr.killed_by_fault = ctx_[t].killed;
    tr.instructions_retired = ctx_[t].retired;
    tr.tsc = ctx_[t].tsc_out;
    tr.regs = ctx_[t].regs;
  }
  return result;
}

void Core::step_cycle() {
  issued_uops_this_cycle_ = 0;
  alloc_uops_this_cycle_ = 0;
  cycle_charge_ = 0;
  acted_ = false;

  if (noise_) {
    const std::uint64_t handler = noise_->on_cycle(cycle_);
    if (handler != 0) inject_interrupt(handler);
  }

  step_complete();
  for (int t = 0; t < nthreads_; ++t)
    if (ctx_[t].active && !ctx_[t].halted) step_retire(t);
  step_issue();
  // Allocation and fetch bandwidth alternates between SMT siblings.
  const int turn = nthreads_ > 1 ? static_cast<int>(cycle_ % 2) : 0;
  if (ctx_[turn].active && !ctx_[turn].halted) {
    step_alloc(turn);
    step_fetch(turn);
  }
  per_cycle_pmu();
  ++cycle_;
}

// ---------------------------------------------------------------------------
// Next-event jumps
// ---------------------------------------------------------------------------

void Core::jump_to_next_event(std::uint64_t deadline) {
  // The cycle just stepped changed nothing but time and the per-cycle PMU
  // vector. Every remaining trigger is either state — which only a stage
  // acting can change — or one of the times below, so each cycle up to the
  // earliest of them would repeat it exactly. With an interference source
  // attached the last cycle before the deadline is still stepped, so the
  // source sees the run's final cycle as it would cycle by cycle.
  ThreadCtx& ctx = ctx_[0];
  std::uint64_t next = noise_ ? deadline - 1 : deadline;
  next = std::min(next, next_queued_event(ctx));
  // cycle_ is the first cycle the jump would skip: a gate that opens at
  // cycle_ itself leaves nothing to skip.
  auto upcoming = [&](std::uint64_t at) {
    if (at >= cycle_) next = std::min(next, at);
  };
  upcoming(ctx.alloc_stall_until);
  if (!ctx.fetch_halted)
    upcoming(std::max(ctx.frontend_ready_at, shared_frontend_busy_until_));
  upcoming(divider_busy_until_);
  if (noise_) next = std::min(next, noise_->next_tick(cycle_));
  if (next <= cycle_) return;

  charge_cycles(cycle_charge_, next - cycle_);
  cycle_ = next;
}

void Core::trace(int thread, TraceEvent event, const RobEntry* e,
                 std::uint64_t count) {
  if (!trace_) return;
  TraceRecord r;
  r.cycle = cycle_;
  r.thread = thread;
  r.event = event;
  if (e) {
    r.seq = e->seq;
    r.pc = e->pc;
    r.op = e->inst.op;
  } else {
    r.seq = count;
  }
  trace_->record(r);
}

void Core::trace_raw(int thread, TraceEvent event, std::int32_t pc,
                     isa::Opcode op, std::uint64_t seq) {
  if (!trace_) return;
  TraceRecord r;
  r.cycle = cycle_;
  r.thread = thread;
  r.event = event;
  r.seq = seq;
  r.pc = pc;
  r.op = op;
  trace_->record(r);
}

// ---------------------------------------------------------------------------
// Front end
// ---------------------------------------------------------------------------

void Core::step_fetch(int t) {
  ThreadCtx& ctx = ctx_[t];
  if (ctx.fetch_halted) return;
  if (cycle_ < std::max(ctx.frontend_ready_at, shared_frontend_busy_until_))
    return;

  const auto& code = ctx.prog->code();
  if (ctx.fetch_pc < 0 ||
      static_cast<std::size_t>(ctx.fetch_pc) >= code.size()) {
    ctx.fetch_halted = true;  // ran off the end
    acted_ = true;
    return;
  }

  // Decide the delivery path for this cycle from the first block fetched.
  const std::int32_t first_block = ctx.fetch_pc / kInstrBlock;
  // After a resteer the pipeline restarts through the legacy decoder for a
  // couple of fetch groups even if the target lines are DSB-resident —
  // the Fig. 3 DSB->MITE shift.
  const bool dsb_cycle =
      ctx.force_mite == 0 && ctx.dsb_blocks.contains(first_block);
  if (!dsb_cycle && ctx.pending_mite_bubble) {
    // Switching to the legacy decoder costs a fetch bubble; the paper's
    // trigger path pays this after the transient resteer (Fig. 3).
    ctx.pending_mite_bubble = false;
    ctx.frontend_ready_at = cycle_ + cfg_.mite_decode_latency;
    pmu_.inc(PmuEvent::ICACHE_16B_IFDATA_STALL,
             static_cast<std::uint64_t>(cfg_.mite_decode_latency));
    acted_ = true;
    return;
  }

  const int width = dsb_cycle ? cfg_.fetch_width_dsb : cfg_.fetch_width_mite;
  int budget = width;
  int dsb_uops = 0, mite_uops = 0;
  bool ms_dsb = false;

  while (budget > 0) {
    if (ctx.fetch_pc < 0 ||
        static_cast<std::size_t>(ctx.fetch_pc) >= code.size()) {
      ctx.fetch_halted = true;
      break;
    }
    if (ctx.idq.size() >= static_cast<std::size_t>(cfg_.idq_size)) break;
    const std::int32_t block = ctx.fetch_pc / kInstrBlock;
    const bool in_dsb =
        ctx.force_mite == 0 && ctx.dsb_blocks.contains(block);
    if (in_dsb != dsb_cycle) break;  // path switch: next cycle
    const Instruction& inst = code[static_cast<std::size_t>(ctx.fetch_pc)];
    const int uops =
        ctx.dec->insts[static_cast<std::size_t>(ctx.fetch_pc)].uops;
    if (uops > budget) break;

    IdqEntry fe;
    fe.pc = ctx.fetch_pc;
    fe.inst = inst;
    fe.uops = uops;
    fe.from_dsb = in_dsb;
    if (!in_dsb) ctx.dsb_blocks.insert(block);  // decoded lines fill the DSB

    if (in_dsb) {
      dsb_uops += uops;
      if (uops > 1) {
        ms_dsb = true;
        // Microcode-sequencer uops tracked on the DSB path; a resteer that
        // diverts delivery to MITE lowers this count (Table 3: MS_UOPS
        // drops on trigger while MS_MITE_UOPS rises).
        pmu_.inc(PmuEvent::IDQ_MS_UOPS, static_cast<std::uint64_t>(uops));
      }
    } else {
      mite_uops += uops;
    }

    bool taken = false;
    switch (inst.op) {
      case Opcode::Jcc: {
        BranchPrediction p = bpu_.predict_cond(fe.pc, inst.target);
        fe.predicted_taken = p.taken;
        fe.predicted_target = inst.target;
        if (p.taken) {
          ctx.fetch_pc = inst.target;
          taken = true;
        } else {
          ++ctx.fetch_pc;
        }
        break;
      }
      case Opcode::Jmp:
        fe.predicted_taken = true;
        fe.predicted_target = inst.target;
        ctx.fetch_pc = inst.target;
        taken = true;
        break;
      case Opcode::Call:
        bpu_.rsb_push(fe.pc + 1);
        fe.predicted_taken = true;
        fe.predicted_target = inst.target;
        ctx.fetch_pc = inst.target;
        taken = true;
        break;
      case Opcode::Ret: {
        BranchPrediction p = bpu_.predict_ret();
        fe.pred_from_rsb = true;
        fe.predicted_taken = p.taken;
        fe.predicted_target = p.target;
        if (p.target >= 0) {
          ctx.fetch_pc = p.target;
          taken = true;
        } else {
          // No RSB prediction: the front end stalls until resolution.
          ctx.fetch_halted = true;
        }
        break;
      }
      case Opcode::Halt:
        ctx.fetch_halted = true;
        break;
      default:
        ++ctx.fetch_pc;
        break;
    }

    budget -= uops;
    trace_raw(t, TraceEvent::Fetch, fe.pc, fe.inst.op, 0);
    ctx.idq.push_back(std::move(fe));
    if (taken || ctx.fetch_halted) break;  // one taken branch per cycle
  }

  // A full IDQ (or a first instruction wider than the fetch group) leaves
  // the front end untouched; anything fetched is a state change.
  if (budget != width || ctx.fetch_halted) acted_ = true;

  // Front-end delivery PMU accounting.
  if (dsb_uops > 0) {
    pmu_.inc(PmuEvent::IDQ_DSB_UOPS, static_cast<std::uint64_t>(dsb_uops));
    pmu_.inc(PmuEvent::IDQ_DSB_CYCLES_ANY);
    if (dsb_uops >= cfg_.fetch_width_dsb)
      pmu_.inc(PmuEvent::IDQ_DSB_CYCLES_OK);
    if (ms_dsb) pmu_.inc(PmuEvent::IDQ_MS_DSB_CYCLES);
  }
  if (mite_uops > 0) {
    pmu_.inc(PmuEvent::IDQ_MS_MITE_UOPS,
             static_cast<std::uint64_t>(mite_uops));
    pmu_.inc(PmuEvent::IDQ_ALL_MITE_CYCLES_ANY_UOPS);
    // Falling back to MITE means the next DSB fetch pays the switch bubble.
    ctx.pending_mite_bubble = false;
    if (ctx.force_mite > 0) --ctx.force_mite;
  }
  if (cfg_.vendor == Vendor::Amd && (dsb_uops > 0 || mite_uops > 0)) {
    pmu_.inc(PmuEvent::IC_FW32);
    pmu_.inc(PmuEvent::BP_L1_TLB_FETCH_HIT);
    pmu_.inc(PmuEvent::BP_L1_BTB_CORRECT);  // next-line prediction
  }
}

// ---------------------------------------------------------------------------
// Allocation (rename)
// ---------------------------------------------------------------------------

void Core::step_alloc(int t) {
  ThreadCtx& ctx = ctx_[t];
  if (cycle_ < ctx.alloc_stall_until) {
    if (!ctx.idq.empty()) cycle_charge_ |= resource_stall_bits(cfg_.vendor);
    return;
  }

  int budget = cfg_.alloc_width;

  while (!ctx.idq.empty() && budget >= ctx.idq.front().uops) {
    if (ctx.rob.size() >= static_cast<std::size_t>(cfg_.rob_size) ||
        ctx.waiting_count >= cfg_.rs_size || alloc_window_clamped(ctx)) {
      cycle_charge_ |= resource_stall_bits(cfg_.vendor);
      break;
    }
    IdqEntry fe = std::move(ctx.idq.front());
    ctx.idq.pop_front();

    const DecodedInst& di = ctx.dec->insts[static_cast<std::size_t>(fe.pc)];
    RobEntry e;
    e.seq = ctx.next_seq++;
    e.pc = fe.pc;
    e.inst = fe.inst;
    e.uops = fe.uops;
    e.predicted_taken = fe.predicted_taken;
    e.predicted_target = fe.predicted_target;
    e.pred_from_rsb = fe.pred_from_rsb;

    // Producers come straight from the rename map: the youngest in-flight
    // writer of each operand, read before this entry claims the map itself.
    e.prod_a = di.src_a != Reg::None
                   ? ctx.reg_writer[static_cast<std::size_t>(di.src_a)]
                   : 0;
    e.prod_b = di.src_b != Reg::None
                   ? ctx.reg_writer[static_cast<std::size_t>(di.src_b)]
                   : 0;
    if (e.inst.reads_flags()) e.prod_flags = ctx.flags_writer;

    e.dst = di.dst;
    e.writes_reg = di.dst != Reg::None;
    e.writes_flags = di.writes_flags;
    if (e.writes_reg) {
      e.prev_reg_writer = ctx.reg_writer[static_cast<std::size_t>(di.dst)];
      ctx.reg_writer[static_cast<std::size_t>(di.dst)] = e.seq;
    }
    if (e.writes_flags) {
      e.prev_flags_writer = ctx.flags_writer;
      ctx.flags_writer = e.seq;
    }

    budget -= e.uops;
    alloc_uops_this_cycle_ += e.uops;
    pmu_.inc(PmuEvent::UOPS_ISSUED_ANY, static_cast<std::uint64_t>(e.uops));
    trace(t, TraceEvent::Alloc, &e);
    account_alloc(ctx, e);
    ctx.rob.push_back(std::move(e));

    RobEntry& placed = ctx.rob.back();
    link_operand(ctx, placed, 0, placed.prod_a);
    link_operand(ctx, placed, 1, placed.prod_b);
    if (placed.inst.reads_flags())
      link_operand(ctx, placed, 2, placed.prod_flags);
    if (placed.unready == 0) ready_insert(ctx, placed);
    acted_ = true;
  }
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

std::uint64_t Core::read_operand(ThreadCtx& ctx, Reg r,
                                 std::uint64_t producer) {
  if (r == Reg::None) return 0;
  if (producer != 0) {
    if (RobEntry* e = ctx.rob.by_seq(producer)) return e->result;
  }
  return ctx.regs[static_cast<std::size_t>(r)];
}

isa::Flags Core::read_flags(ThreadCtx& ctx, std::uint64_t producer) {
  if (producer != 0) {
    if (RobEntry* e = ctx.rob.by_seq(producer)) return e->flags_out;
  }
  return ctx.flags;
}

bool Core::operand_tainted(ThreadCtx& ctx, std::uint64_t producer) {
  if (producer == 0) return false;
  if (RobEntry* e = ctx.rob.by_seq(producer)) return e->stale_tainted;
  return false;
}

std::uint64_t Core::oldest_pending(const ThreadCtx& ctx) {
  // Done entries wait at the head for retirement, a few at most, so the
  // walk stops almost at once.
  if (static_cast<int>(ctx.rob.size()) == ctx.done_count)
    return ~std::uint64_t{0};
  std::size_t i = 0;
  while (ctx.rob.state_at(i) == EntryState::Done) ++i;
  return ctx.rob[i].seq;
}

bool Core::older_window_exists(const ThreadCtx& ctx, std::uint64_t seq) {
  // A deferred fault, an unresolved return, or any unresolved older
  // conditional branch keeps execution speculative — the last is the
  // Spectre-V1 window (bounds check pending on a slow load).
  const Scheduler& s = ctx.sched;
  return s.faults.has_older(seq) || s.rets.has_older(seq) ||
         s.jccs.has_older(seq);
}

bool Core::alloc_window_clamped(const ThreadCtx& ctx) const {
  // "window" defense (defense::registry()): allocation stops once
  // speculation_window_limit uops sit younger than the oldest unresolved
  // window opener — the same opener set older_window_exists() consults.
  if (cfg_.speculation_window_limit <= 0) return false;
  const Scheduler& s = ctx.sched;
  const std::uint64_t opener =
      std::min({s.faults.oldest(), s.rets.oldest(), s.jccs.oldest()});
  if (opener == ~std::uint64_t{0}) return false;
  const std::size_t younger = ctx.rob.size() - (ctx.rob.lower_bound(opener) + 1);
  return younger >= static_cast<std::size_t>(cfg_.speculation_window_limit);
}

void Core::step_issue() {
  int loads = 0, stores = 0, branches = 0;
  int issued = 0;
  for (int t = 0; t < nthreads_; ++t) {
    ThreadCtx& ctx = ctx_[t];
    if (!ctx.active || ctx.halted) continue;
    // Oldest-first over the ready queue: the Waiting entries whose operands
    // have all arrived. Executing an entry may squash younger ones (a
    // resolved mispredict) or wake new ones, so after each issue the scan
    // resumes just past the issued seq. Everything younger than a pending
    // fence is held by it (issue_ready's first census gate), so the scan
    // stops there.
    std::vector<ReadyRef>& ready = ctx.sched.ready;
    std::size_t i = 0;
    while (i < ready.size()) {
      if (issued >= cfg_.issue_width) break;
      const std::uint64_t seq = ready[i].seq;
      if (seq > ctx.sched.fences.oldest()) break;
      if (!try_issue_entry(ctx, i, loads, stores, branches, issued)) {
        ++i;
        continue;
      }
      i = static_cast<std::size_t>(
          std::upper_bound(ready.begin(), ready.end(), seq,
                           [](std::uint64_t s, const ReadyRef& x) {
                             return s < x.seq;
                           }) -
          ready.begin());
    }
  }
  issued_uops_this_cycle_ = issued;
  if (issued > 0) acted_ = true;
}

bool Core::issue_ready(const ThreadCtx& ctx, const RobEntry& e) const {
  const Instruction& in = e.inst;
  const Scheduler& s = ctx.sched;

  // Non-pipelined divider: a divide cannot issue while the unit iterates on
  // an earlier one — regardless of which (possibly squashed) divide latched
  // the occupancy.
  if (in.op == Opcode::FdivRR && cycle_ < divider_busy_until_) return false;

  // Dispatch serialisation: LFENCE/MFENCE block younger issue.
  if (s.fences.has_older(e.seq)) return false;

  // "lfence" defense (defense::registry()): as if the compiler placed an
  // LFENCE after every Jcc — nothing younger than an unresolved conditional
  // branch may issue. The branch itself still issues, so resolution always
  // makes progress.
  if (cfg_.lfence_after_branch && s.jccs.has_older(e.seq)) return false;

  // Fences (and RDTSCP's wait-for-older semantics) hold issue until all
  // older entries complete.
  if ((in.is_fence() || in.op == Opcode::Rdtscp) &&
      oldest_pending(ctx) < e.seq)
    return false;

  // Loads (and CLFLUSH) wait for older stores to drain, and loads also wait
  // for older CLFLUSHes — conservative memory disambiguation that gives
  // store→clflush→ret the paper's ordering (Listing 1).
  if (in.is_load())
    return !s.stores.has_older(e.seq) && !s.clflushes.has_older(e.seq);
  if (in.op == Opcode::Clflush) return !s.stores.has_older(e.seq);
  return true;
}

bool Core::try_issue_entry(ThreadCtx& ctx, std::size_t idx, int& loads,
                           int& stores, int& branches, int& issued_uops) {
  RobEntry& e = ctx.rob.at_slot(ctx.sched.ready[idx].slot);
  const Instruction& in = e.inst;

  // Port capacity.
  if (in.is_load() && loads >= cfg_.load_ports) return false;
  if (in.is_store() && stores >= cfg_.store_ports) return false;
  if (in.is_branch() && branches >= cfg_.branch_ports) return false;

  if (!issue_ready(ctx, e)) return false;

  // Issue.
  ctx.sched.ready.erase(ctx.sched.ready.begin() +
                        static_cast<std::ptrdiff_t>(idx));
  ctx.rob.set_state(e, EntryState::Issued);
  trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::Issue, &e);
  issued_uops += e.uops;
  if (in.is_load()) ++loads;
  if (in.is_store()) ++stores;
  if (in.is_branch()) ++branches;
  account_issue(ctx, e);
  execute_entry(ctx, e);
  return true;
}

void Core::execute_entry(ThreadCtx& ctx, RobEntry& e) {
  const Instruction& in = e.inst;
  const DecodedInst& di = ctx.dec->insts[static_cast<std::size_t>(e.pc)];
  const std::uint64_t a = read_operand(ctx, di.src_a, e.prod_a);
  const std::uint64_t b = read_operand(ctx, di.src_b, e.prod_b);
  e.stale_tainted =
      operand_tainted(ctx, e.prod_a) || operand_tainted(ctx, e.prod_b) ||
      (in.reads_flags() && operand_tainted(ctx, e.prod_flags));

  int latency = 1;

  switch (in.op) {
    case Opcode::Nop:
      break;
    case Opcode::MovRI:
      e.result = static_cast<std::uint64_t>(in.imm);
      break;
    case Opcode::MovRR:
      e.result = a;
      break;
    case Opcode::AddRI: {
      const std::uint64_t imm = static_cast<std::uint64_t>(in.imm);
      e.result = a + imm;
      e.flags_out = alu_flags(e.result, e.result < a,
                              ((~(a ^ imm) & (a ^ e.result)) >> 63) != 0);
      break;
    }
    case Opcode::AddRR: {
      e.result = a + b;
      e.flags_out = alu_flags(e.result, e.result < a,
                              ((~(a ^ b) & (a ^ e.result)) >> 63) != 0);
      break;
    }
    case Opcode::SubRI:
    case Opcode::CmpRI: {
      const std::uint64_t imm = static_cast<std::uint64_t>(in.imm);
      const std::uint64_t r = a - imm;
      e.flags_out = alu_flags(r, a < imm,
                              (((a ^ imm) & (a ^ r)) >> 63) != 0);
      e.result = in.op == Opcode::SubRI ? r : a;
      break;
    }
    case Opcode::SubRR:
    case Opcode::CmpRR: {
      const std::uint64_t r = a - b;
      e.flags_out =
          alu_flags(r, a < b, (((a ^ b) & (a ^ r)) >> 63) != 0);
      e.result = in.op == Opcode::SubRR ? r : a;
      break;
    }
    case Opcode::AndRI:
      e.result = a & static_cast<std::uint64_t>(in.imm);
      e.flags_out = alu_flags(e.result, false, false);
      break;
    case Opcode::OrRI:
      e.result = a | static_cast<std::uint64_t>(in.imm);
      e.flags_out = alu_flags(e.result, false, false);
      break;
    case Opcode::XorRR:
      e.result = a ^ b;
      e.flags_out = alu_flags(e.result, false, false);
      break;
    case Opcode::ShlRI:
      e.result = a << (in.imm & 63);
      e.flags_out = alu_flags(e.result, false, false);
      break;
    case Opcode::ShrRI:
      e.result = a >> (in.imm & 63);
      e.flags_out = alu_flags(e.result, false, false);
      break;
    case Opcode::TestRR: {
      const std::uint64_t r = a & b;
      e.flags_out = alu_flags(r, false, false);
      e.result = a;
      break;
    }
    case Opcode::ImulRR:
      e.result = a * b;
      e.flags_out = alu_flags(e.result, false, false);
      latency = 3;
      break;
    case Opcode::FdivRR: {
      // The single divider iterates on the quotient for the full latency;
      // trivial divisors (0/1) early-exit. Occupancy is latched here — at
      // execution — so a transiently issued divide leaves it behind after
      // its squash, exactly like a transient load leaves a cache fill.
      e.result = b == 0 ? ~0ull : a / b;
      e.flags_out = alu_flags(e.result, false, false);
      latency = b <= 1 ? cfg_.div_fast_latency : cfg_.div_latency;
      divider_busy_until_ = cycle_ + static_cast<std::uint64_t>(latency);
      break;
    }
    case Opcode::Neg: {
      e.result = static_cast<std::uint64_t>(-static_cast<std::int64_t>(a));
      e.flags_out = alu_flags(e.result, a != 0, false);
      break;
    }
    case Opcode::Not:
      e.result = ~a;
      break;
    case Opcode::Lea:
      e.result = a + static_cast<std::uint64_t>(in.disp);
      break;
    case Opcode::Cmov: {
      // Branchless select: resolves in the data path, never touches the
      // BPU — the §6.2-style rewrite that silences the TET channel.
      const isa::Flags f = read_flags(ctx, e.prod_flags);
      e.result = isa::eval_cond(in.cond, f) ? b : a;
      latency = 2;
      break;
    }
    case Opcode::Pause:
      latency = 8;
      break;
    case Opcode::AvxOp: {
      // Power-up is a persistent side effect of *execution* — transient
      // AVX ops warm the unit even when later squashed (the AVX-timing
      // channel's transmitter).
      latency = 3;
      if (cfg_.avx_power_gating && cycle_ >= avx_warm_until_)
        latency += cfg_.avx_power_up_cycles;
      avx_warm_until_ =
          cycle_ + static_cast<std::uint64_t>(cfg_.avx_warm_cycles);
      break;
    }
    case Opcode::Load:
    case Opcode::LoadByte: {
      mem::AccessRequest req;
      req.vaddr = a + static_cast<std::uint64_t>(in.disp);
      req.type = mem::AccessType::Read;
      req.user_mode = ctx.user_mode;
      req.size = in.op == Opcode::LoadByte ? 1 : 8;
      const mem::AccessResult r = mem_.access(req);
      latency = std::max(1, r.latency);
      e.fault = r.fault;
      e.result = r.data;
      e.data_forwarded = r.data_forwarded;
      if (r.from_lfb_stale) e.stale_tainted = true;
      if (r.fault != mem::Fault::None) {
        // Dependents consume the (transiently forwarded) value early; the
        // fault is only confirmed when the walk/replay finishes.
        e.forward_at = r.data_forwarded
                           ? cycle_ + static_cast<std::uint64_t>(
                                          cfg_.forward_latency)
                           : cycle_ + static_cast<std::uint64_t>(latency);
      }
      break;
    }
    case Opcode::Store:
    case Opcode::StoreByte: {
      mem::AccessRequest req;
      req.vaddr = a + static_cast<std::uint64_t>(in.disp);
      req.type = mem::AccessType::Write;
      req.user_mode = ctx.user_mode;
      req.size = in.op == Opcode::StoreByte ? 1 : 8;
      req.store_value = b;
      const mem::AccessResult r = mem_.access(req);
      latency = std::max(1, r.latency);
      e.fault = r.fault;
      if (r.fault == mem::Fault::None) {
        e.store_applied = true;
        e.store_paddr = r.paddr;
        e.store_old = r.data;
        e.store_size = req.size;
      }
      break;
    }
    case Opcode::Clflush:
      mem_.clflush(a + static_cast<std::uint64_t>(in.disp));
      latency = 4;
      break;
    case Opcode::Prefetch: {
      mem::AccessRequest req;
      req.vaddr = a + static_cast<std::uint64_t>(in.disp);
      req.type = mem::AccessType::Prefetch;
      req.user_mode = ctx.user_mode;
      const mem::AccessResult r = mem_.access(req);
      // PREFETCH never faults architecturally, but its latency exposes the
      // walk time — the EntryBleed-style baseline measures exactly this.
      latency = std::max(1, r.latency);
      break;
    }
    case Opcode::Mfence:
      latency = 4;
      break;
    case Opcode::Lfence:
      latency = 2;
      break;
    case Opcode::Rdtsc:
    case Opcode::Rdtscp:
      e.result = cycle_;
      latency = 12;
      break;
    case Opcode::TsxBegin:
    case Opcode::TsxEnd:
      latency = 2;
      break;
    case Opcode::Jmp:
      break;
    case Opcode::Jcc: {
      const isa::Flags f = read_flags(ctx, e.prod_flags);
      const bool taken = isa::eval_cond(in.cond, f);
      resolve_branch(ctx, e, taken, in.target);
      break;
    }
    case Opcode::Call: {
      // Push the return address; the branch itself was handled at fetch.
      mem::AccessRequest req;
      req.vaddr = a - 8;  // a = RSP
      req.type = mem::AccessType::Write;
      req.user_mode = ctx.user_mode;
      req.size = 8;
      req.store_value = static_cast<std::uint64_t>(e.pc + 1);
      const mem::AccessResult r = mem_.access(req);
      latency = std::max(1, r.latency);
      e.fault = r.fault;
      if (r.fault == mem::Fault::None) {
        e.store_applied = true;
        e.store_paddr = r.paddr;
        e.store_old = r.data;
        e.store_size = 8;
      }
      e.result = a - 8;  // new RSP
      break;
    }
    case Opcode::Ret: {
      mem::AccessRequest req;
      req.vaddr = a;  // a = RSP
      req.type = mem::AccessType::Read;
      req.user_mode = ctx.user_mode;
      req.size = 8;
      const mem::AccessResult r = mem_.access(req);
      latency = std::max(1, r.latency);
      e.fault = r.fault;
      e.result = a + 8;        // new RSP
      e.flags_out = ctx.flags;  // unused
      // Loaded return target stashed for resolution at completion.
      e.predicted_target = e.predicted_target;  // set at fetch
      e.store_old = r.data;  // reuse field: actual return target
      break;
    }
    case Opcode::Halt:
      break;
  }

  ctx.rob.set_complete(e, cycle_ + static_cast<std::uint64_t>(latency));
  if (e.forward_at == 0) e.forward_at = e.complete_at;
  schedule_events(ctx, e);

  // A deferred fault opens a transient window: younger instructions now
  // execute on borrowed time until the fault retires (machine clear) or the
  // opener itself is squashed from a wrong path.
  if (e.fault != mem::Fault::None) {
    ctx.sched.faults.insert(e.seq);
    if (ctx.window_open_seq == 0) {
      ctx.window_open_seq = e.seq;
      trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::WindowOpen, &e);
    }
  }
}

void Core::resolve_branch(ThreadCtx& ctx, RobEntry& e, bool actual_taken,
                          std::int32_t actual_target) {
  bpu_.update_cond(e.pc, actual_taken);
  if (actual_taken) bpu_.btb_record(e.pc, actual_target);

  const bool mispredicted = actual_taken != e.predicted_taken;
  if (!mispredicted) {
    if (cfg_.vendor == Vendor::Amd) pmu_.inc(PmuEvent::BP_L1_BTB_CORRECT);
    return;
  }

  pmu_.inc(PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
  trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::Mispredict, &e);
  const bool transient = older_window_exists(ctx, e.seq);
  int window_drain = 0;
  if (transient) {
    ctx.window_mispredict = true;
    handle_transient_shortcuts(ctx, e);
  } else {
    pmu_.inc(PmuEvent::BR_MISP_RETIRED_ALL_BRANCHES);
    if (ctx.window_mispredict) {
      // This architectural misprediction ends a speculation window that
      // contained a transient resteer (Spectre-V1 shape): the inner
      // recovery work drains into this resteer, lengthening ToTE exactly
      // as the machine clear does for exception windows.
      window_drain = cfg_.transient_resteer_clear_penalty;
      if (ctx.frontend_ready_at > cycle_)
        window_drain += static_cast<int>(ctx.frontend_ready_at - cycle_);
      ctx.window_mispredict = false;
    }
  }

  // Resteer: squash the wrong path and refetch — this happens even inside a
  // transient window, which is the root cause of the Whisper channel (§5.2.2).
  squash_younger(ctx, e.seq);
  redirect_fetch(ctx, actual_taken ? actual_target : e.pc + 1);
  ctx.frontend_ready_at = std::max(
      ctx.frontend_ready_at,
      cycle_ + static_cast<std::uint64_t>(cfg_.resteer_cycles +
                                          window_drain));
  // RAT recovery keeps allocation stalled for a few cycles after the
  // refetched uops arrive (counted as resource stalls while the IDQ holds
  // work).
  ctx.alloc_stall_until = std::max(
      ctx.alloc_stall_until,
      ctx.frontend_ready_at + static_cast<std::uint64_t>(
                                  cfg_.mite_decode_latency +
                                  cfg_.recovery_extra_cycles));
  pmu_.inc(PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES,
           static_cast<std::uint64_t>(cfg_.resteer_cycles));
  pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES,
           static_cast<std::uint64_t>(cfg_.recovery_extra_cycles));
  pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES_ANY,
           static_cast<std::uint64_t>(cfg_.recovery_extra_cycles));
  // The RAT-token shortage during recovery counts as a resource stall even
  // when a machine clear preempts the refill (Table 3: RESOURCE_STALLS.ANY
  // rises on every triggered scene).
  pmu_.inc(PmuEvent::RESOURCE_STALLS_ANY,
           static_cast<std::uint64_t>(cfg_.recovery_extra_cycles / 2));
}

void Core::handle_transient_shortcuts(ThreadCtx& ctx,
                                      const RobEntry& branch) {
  if (!cfg_.early_clear_on_transient_mispredict) return;

  // MDS/assist window: a mispredict whose dataflow touched stale LFB data
  // initiates the squash early — the faulting load stops replaying its walk
  // and the fault is confirmed immediately (TET-ZBL: trigger => shorter).
  if (branch.stale_tainted) {
    for (const std::uint64_t seq : ctx.sched.faults.seqs()) {
      if (seq >= branch.seq) break;
      RobEntry& o = *ctx.rob.by_seq(seq);
      if (o.fault == mem::Fault::NotPresent && o.data_forwarded &&
          o.state == EntryState::Issued && o.complete_at > cycle_ + 1) {
        ctx.rob.set_complete(o, cycle_ + 1);
        o.forward_at = std::min(o.forward_at, o.complete_at);
        o.early_cleared = true;
        schedule_events(ctx, o);
        break;
      }
    }
  }

  // RSB window: the squash propagates to the pending return, which resolves
  // early instead of waiting for its (slow) target load
  // (TET-RSB: trigger => shorter, §4.3.3).
  for (const std::uint64_t seq : ctx.sched.rets.seqs()) {
    if (seq >= branch.seq) break;
    RobEntry& o = *ctx.rob.by_seq(seq);
    if (o.state == EntryState::Issued &&
        o.complete_at > cycle_ + static_cast<std::uint64_t>(
                                     cfg_.early_ret_resolve_cycles)) {
      ctx.rob.set_complete(
          o, cycle_ + static_cast<std::uint64_t>(cfg_.early_ret_resolve_cycles));
      o.forward_at = std::min(o.forward_at, o.complete_at);
      o.early_cleared = true;
      schedule_events(ctx, o);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void Core::step_complete() {
  for (int t = 0; t < nthreads_; ++t) {
    ThreadCtx& ctx = ctx_[t];
    if (!ctx.active || ctx.halted) continue;
    std::vector<Event>& q = ctx.sched.events;
    if (q.empty() || q.front().time > cycle_) continue;
    // Everything due this cycle, in program order: a resolving return may
    // squash younger entries that were due too.
    due_.clear();
    while (!q.empty() && q.front().time <= cycle_) {
      std::pop_heap(q.begin(), q.end(), Event::later);
      due_.push_back(q.back());
      q.pop_back();
    }
    std::sort(due_.begin(), due_.end(),
              [](const Event& x, const Event& y) { return x.seq < y.seq; });
    for (const Event& ev : due_) {
      if (!ctx.rob.live(ev.slot, ev.seq)) continue;  // squashed meanwhile
      RobEntry& e = ctx.rob.at_slot(ev.slot);
      if (!e.forwarded && e.forward_at <= cycle_) wake_consumers(ctx, e);
      if (e.state == EntryState::Issued && e.complete_at <= cycle_)
        complete_entry(t, ctx, e);
    }
  }
}

void Core::complete_entry(int t, ThreadCtx& ctx, RobEntry& e) {
  ctx.rob.set_state(e, EntryState::Done);
  account_done(ctx, e);
  acted_ = true;
  trace(t, TraceEvent::Complete, &e);
  if (e.inst.op != Opcode::Ret || e.fault != mem::Fault::None) return;

  // The loaded return target is now known: check the RSB prediction.
  const auto actual = static_cast<std::int32_t>(e.store_old);  // stashed
  if (e.predicted_target == actual) {
    if (cfg_.vendor == Vendor::Amd) pmu_.inc(PmuEvent::BP_L1_BTB_CORRECT);
  } else if (e.predicted_target < 0) {
    // No prediction was made; simply steer the stalled front end.
    squash_younger(ctx, e.seq);
    redirect_fetch(ctx, actual);
    ctx.frontend_ready_at = std::max(ctx.frontend_ready_at, cycle_ + 2);
  } else {
    // Spectre-RSB misprediction resolved: squash the transient return
    // path and resteer (no machine clear — hence TET-RSB's speed).
    pmu_.inc(PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
    pmu_.inc(PmuEvent::BR_MISP_EXEC_INDIRECT);
    squash_younger(ctx, e.seq);
    redirect_fetch(ctx, actual);
    ctx.frontend_ready_at = std::max(
        ctx.frontend_ready_at,
        cycle_ + static_cast<std::uint64_t>(cfg_.resteer_cycles));
    ctx.alloc_stall_until = std::max(
        ctx.alloc_stall_until,
        cycle_ + static_cast<std::uint64_t>(cfg_.resteer_cycles +
                                            cfg_.recovery_extra_cycles));
    pmu_.inc(PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES,
             static_cast<std::uint64_t>(cfg_.resteer_cycles));
    pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES,
             static_cast<std::uint64_t>(cfg_.recovery_extra_cycles));
    pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES_ANY,
             static_cast<std::uint64_t>(cfg_.recovery_extra_cycles));
    // The transient window ended by resteer; any inner transient
    // mispredict was consumed by the early resolution.
    ctx.window_mispredict = false;
  }
}

// ---------------------------------------------------------------------------
// Retirement
// ---------------------------------------------------------------------------

void Core::step_retire(int t) {
  ThreadCtx& ctx = ctx_[t];
  int budget = cfg_.retire_width;
  while (budget > 0 && !ctx.rob.empty()) {
    RobEntry& head = ctx.rob.front();
    if (head.state != EntryState::Done) break;

    acted_ = true;
    if (head.fault != mem::Fault::None) {
      machine_clear(t, head);
      return;
    }

    // Architectural commit.
    if (head.writes_reg)
      ctx.regs[static_cast<std::size_t>(head.dst)] = head.result;
    if (head.writes_flags) ctx.flags = head.flags_out;

    switch (head.inst.op) {
      case Opcode::Rdtsc:
      case Opcode::Rdtscp:
        ctx.tsc_out.push_back(head.result);
        break;
      case Opcode::TsxBegin:
        ctx.in_tsx = true;
        ctx.tsx_abort_target = head.inst.target;
        break;
      case Opcode::TsxEnd:
        ctx.in_tsx = false;
        break;
      case Opcode::Halt:
        ctx.halted = true;
        break;
      default:
        break;
    }
    pmu_.inc(PmuEvent::UOPS_RETIRED_ALL,
             static_cast<std::uint64_t>(head.uops));
    trace(t, TraceEvent::Retire, &head);
    ++ctx.retired;
    --budget;
    // Release the rename map if this entry is still its registers' youngest
    // writer (otherwise a younger in-flight writer owns the slot).
    if (head.writes_reg &&
        ctx.reg_writer[static_cast<std::size_t>(head.dst)] == head.seq)
      ctx.reg_writer[static_cast<std::size_t>(head.dst)] = 0;
    if (head.writes_flags && ctx.flags_writer == head.seq)
      ctx.flags_writer = 0;
    account_remove(ctx, head);
    ctx.rob.pop_front();
    if (ctx.halted) return;
  }
}

void Core::machine_clear(int t, RobEntry& faulting) {
  ThreadCtx& ctx = ctx_[t];
  pmu_.inc(PmuEvent::MACHINE_CLEARS_COUNT);
  trace(t, TraceEvent::MachineClear, &faulting);

  // Where does control go, and what does suppression cost?
  std::int32_t target = -1;
  int base_cost = 0;
  if (ctx.in_tsx) {
    target = ctx.tsx_abort_target;
    base_cost = cfg_.tsx_abort_cycles;
    ctx.in_tsx = false;
    trace(t, TraceEvent::TsxAbort, &faulting);
  } else if (ctx.signal_handler >= 0) {
    target = ctx.signal_handler;
    base_cost = cfg_.signal_dispatch_cycles;
    trace(t, TraceEvent::SignalRedirect, &faulting);
  }

  // The Whisper delta for exception-terminated windows: a transient resteer
  // inside the window leaves recovery work that the clear must drain
  // (trigger => longer ToTE). Early-cleared assist windows already squashed.
  int extra = 0;
  if (ctx.window_mispredict && !faulting.early_cleared) {
    extra = cfg_.transient_resteer_clear_penalty;
    if (ctx.frontend_ready_at > cycle_)
      extra += static_cast<int>(ctx.frontend_ready_at - cycle_);
    // The recovery machinery retro-counts the transient misprediction —
    // reproducing the 0→1 / 0→2 counter jumps of Table 3.
    pmu_.inc(PmuEvent::BR_MISP_EXEC_INDIRECT);
    pmu_.inc(PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
  }
  ctx.window_mispredict = false;

  // The clear drains the window the deferred fault opened.
  if (ctx.window_open_seq != 0) {
    trace(t, TraceEvent::WindowClose, &faulting);
    ctx.window_open_seq = 0;
  }

  const mem::Fault fault_kind = faulting.fault;
  squash_all(ctx);
  ctx.idq.clear();
  // The pipeline flush drains the execution units with everything else: an
  // in-flight divide is abandoned, so its occupancy does not survive into
  // the post-clear resume (unlike a resteer squash, which leaves it).
  divider_busy_until_ = 0;

  // "flushclear" defense (defense::registry()): the clear also scrubs the
  // microarchitectural residue the transient window deposited — caches per
  // the configured level count, and the line-fill buffer always (its stale
  // slots are the MDS substrate).
  if (cfg_.flush_on_clear) {
    mem_.l1().flush_all();
    if (cfg_.flush_on_clear_levels >= 2) mem_.l2().flush_all();
    if (cfg_.flush_on_clear_levels >= 3) mem_.l3().flush_all();
    mem_.lfb().clear();
  }

  const std::uint64_t stall = static_cast<std::uint64_t>(
      cfg_.machine_clear_cycles + base_cost + extra);
  ctx.frontend_ready_at = cycle_ + stall;
  ctx.alloc_stall_until = cycle_ + stall;
  if (nthreads_ > 1) {
    // A machine clear monopolises the shared front end — the §4.4 SMT
    // covert channel's transmission mechanism.
    shared_frontend_busy_until_ =
        std::max(shared_frontend_busy_until_,
                 cycle_ + static_cast<std::uint64_t>(
                              cfg_.machine_clear_cycles + base_cost / 2));
  }

  pmu_.inc(PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES,
           static_cast<std::uint64_t>(cfg_.resteer_cycles));
  const auto recovery = static_cast<std::uint64_t>(
      cfg_.machine_clear_cycles * 2 / 3 + extra / 2);
  pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES, recovery);
  pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES_ANY, recovery);

  if (target < 0) {
    ctx.killed = true;
    ctx.halted = true;
    return;
  }

  // In a long (unmapped-address) window the speculative front end runs far
  // ahead into cold code; with the TLBs freshly evicted this shows up as
  // ITLB walk activity — the ITLB_MISSES.WALK_ACTIVE row of Table 3.
  if (fault_kind == mem::Fault::NotPresent)
    mem_.instruction_probe(ctx.code_base +
                           static_cast<std::uint64_t>(target) * 16);

  redirect_fetch(ctx, target);
}

void Core::inject_interrupt(std::uint64_t handler_cycles) {
  acted_ = true;
  for (int t = 0; t < nthreads_; ++t) {
    ThreadCtx& ctx = ctx_[t];
    if (!ctx.active || ctx.halted) continue;

    // Resume at the next unretired instruction. Safe because architectural
    // state only changes at retirement: re-fetching the squashed suffix
    // replays it from scratch. Inside a TSX region an interrupt aborts the
    // transaction, so control resumes at the abort target instead.
    std::int32_t resume = ctx.rob.empty() ? ctx.fetch_pc : ctx.rob.front().pc;
    if (ctx.in_tsx) {
      resume = ctx.tsx_abort_target;
      ctx.in_tsx = false;
      trace_raw(t, TraceEvent::TsxAbort, resume, isa::Opcode::Nop, 0);
    }
    ctx.window_mispredict = false;

    pmu_.inc(PmuEvent::MACHINE_CLEARS_COUNT);
    trace_raw(t, TraceEvent::MachineClear, resume, isa::Opcode::Nop, 0);
    squash_all(ctx);
    ctx.idq.clear();
    divider_busy_until_ = 0;  // the flush drains the divider too

    const std::uint64_t stall =
        cycle_ + handler_cycles +
        static_cast<std::uint64_t>(cfg_.machine_clear_cycles);
    ctx.frontend_ready_at = std::max(ctx.frontend_ready_at, stall);
    ctx.alloc_stall_until = std::max(ctx.alloc_stall_until, stall);
    redirect_fetch(ctx, resume);
  }
  if (nthreads_ > 1)
    shared_frontend_busy_until_ =
        std::max(shared_frontend_busy_until_,
                 cycle_ + static_cast<std::uint64_t>(cfg_.machine_clear_cycles));
}

// ---------------------------------------------------------------------------
// Squash / redirect helpers
// ---------------------------------------------------------------------------

void Core::undo_store(const RobEntry& e) {
  if (!e.store_applied) return;
  if (e.store_size == 1)
    mem_.phys().write8(e.store_paddr,
                       static_cast<std::uint8_t>(e.store_old));
  else
    mem_.phys().write64(e.store_paddr, e.store_old);
}

void Core::squash_back(int t, ThreadCtx& ctx) {
  RobEntry& victim = ctx.rob.back();
  trace(t, TraceEvent::Squash, &victim);
  undo_store(victim);
  unrename(ctx, victim);
  unlink_operands(ctx, victim);
  account_remove(ctx, victim);
  ctx.rob.pop_back();
}

void Core::squash_younger(ThreadCtx& ctx, std::uint64_t seq) {
  const int t = &ctx == &ctx_[0] ? 0 : 1;
  std::uint64_t dropped = 0;
  while (!ctx.rob.empty() && ctx.rob.back().seq > seq) {
    squash_back(t, ctx);
    ++dropped;
  }
  // The ready queue is seq-ordered, so the squashed entries are its tail.
  // Their completion-queue keys stay behind and are dropped as they surface.
  std::vector<ReadyRef>& ready = ctx.sched.ready;
  while (!ready.empty() && ready.back().seq > seq) ready.pop_back();
  ctx.idq.clear();
  if (ctx.window_open_seq > seq) {
    // The window opener itself was on the wrong path: the window ends
    // without a machine clear.
    trace_raw(t, TraceEvent::WindowClose, -1, isa::Opcode::Nop,
              ctx.window_open_seq);
    ctx.window_open_seq = 0;
  }
  if (dropped)
    trace(t, TraceEvent::SquashYounger, nullptr, dropped);
}

void Core::squash_all(ThreadCtx& ctx) {
  const int t = &ctx == &ctx_[0] ? 0 : 1;
  while (!ctx.rob.empty()) squash_back(t, ctx);
  ctx.sched.clear();
  ctx.window_open_seq = 0;
}

void Core::redirect_fetch(ThreadCtx& ctx, std::int32_t target) {
  trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::Resteer, nullptr,
        static_cast<std::uint64_t>(target));
  ctx.fetch_pc = target;
  ctx.fetch_halted = false;
  ctx.force_mite = 2;  // pipeline restart goes through the legacy decoder
  const std::int32_t block = target / kInstrBlock;
  if (!ctx.dsb_blocks.contains(block)) ctx.pending_mite_bubble = true;
}

// ---------------------------------------------------------------------------
// Per-cycle PMU accounting
// ---------------------------------------------------------------------------

void Core::charge_cycles(std::uint32_t mask, std::uint64_t n) {
  for (std::size_t i = 0; i < std::size(kCycleEvents); ++i)
    if (mask & (1u << i)) pmu_.inc(kCycleEvents[i], n);
}

void Core::per_cycle_pmu() {
  std::uint32_t mask = cycle_charge_ | cycle_bit(PmuEvent::CORE_CYCLES);

  if (issued_uops_this_cycle_ == 0)
    mask |= cycle_bit(PmuEvent::UOPS_EXECUTED_STALL_CYCLES) |
            cycle_bit(PmuEvent::UOPS_EXECUTED_CORE_CYCLES_NONE) |
            cycle_bit(PmuEvent::CYCLE_ACTIVITY_STALLS_TOTAL);
  if (alloc_uops_this_cycle_ == 0)
    mask |= cycle_bit(PmuEvent::UOPS_ISSUED_STALL_CYCLES);

  bool mem_in_flight = false;
  bool rs_nonempty = false;
  // After step_complete, every Issued entry on a live thread has
  // complete_at > cycle_ (all execute latencies and shortcut targets land
  // at least one cycle out), so the issued_loads census answers
  // CYCLE_ACTIVITY_CYCLES_MEM_ANY without a ROB scan. Two cases still need
  // the exact timestamp scan: a halted thread's frozen in-flight loads
  // (completion no longer runs for it, so they age out of the event as
  // their timestamps pass), and a degenerate early_ret_resolve_cycles < 1
  // (a shortcut could then zero a load's remaining latency mid-cycle).
  const bool shortcut_can_zero = cfg_.early_clear_on_transient_mispredict &&
                                 cfg_.early_ret_resolve_cycles < 1;
  for (int t = 0; t < nthreads_; ++t) {
    const ThreadCtx& ctx = ctx_[t];
    if (!ctx.active) continue;
    if (ctx.waiting_count > 0) rs_nonempty = true;
    if (ctx.issued_loads > 0 && !mem_in_flight) {
      if (!ctx.halted && !shortcut_can_zero) {
        mem_in_flight = true;
      } else {
        for (std::size_t i = 0; i < ctx.rob.size(); ++i) {
          if (ctx.rob.state_at(i) == EntryState::Issued &&
              ctx.rob.complete_at(i) > cycle_ &&
              ctx.rob[i].inst.is_load()) {
            mem_in_flight = true;
            break;
          }
        }
      }
    }
  }
  if (mem_in_flight) mask |= cycle_bit(PmuEvent::CYCLE_ACTIVITY_CYCLES_MEM_ANY);
  if (!rs_nonempty) mask |= cycle_bit(PmuEvent::RS_EVENTS_EMPTY_CYCLES);

  if (cfg_.vendor == Vendor::Amd && ctx_[0].active && ctx_[0].idq.empty())
    mask |= cycle_bit(PmuEvent::DE_DIS_UOP_QUEUE_EMPTY_DI0);

  cycle_charge_ = mask;
  charge_cycles(mask, 1);
}

}  // namespace whisper::uarch
