// The out-of-order core model.
//
// A structural pipeline — fetch/decode (DSB vs MITE), allocate, issue to
// ports, execute, in-order retire — sized and parameterised by CpuConfig.
// It models exactly the mechanisms the paper's root-cause analysis
// identifies (§5):
//
//  * Faulting loads defer the fault to retirement; younger instructions
//    execute transiently on (possibly forwarded) data.
//  * A transient conditional branch still resolves in the back end; on
//    misprediction it resteers the front end (CLEAR_RESTEER cycles, MITE
//    refetch) and leaves recovery work that the terminal machine clear must
//    drain — the Whisper ToTE delta for exception windows (trigger=longer).
//  * For assist-terminated windows (MDS) and RSB windows, a dependent
//    transient mispredict initiates the squash early (trigger=shorter).
//  * Machine clears redirect to a TSX abort target or a signal handler,
//    with very different costs — which is why TET-RSB reaches KB/s while
//    TET-MD stays at tens of B/s (§4.1).
//  * Two SMT contexts share the front end; a machine clear on one stalls
//    the other — the §4.4 covert channel.
//
// Architectural state is only changed at retirement (stores are applied
// eagerly but logged and undone on squash), so transient execution is
// invisible at the ISA level — as required for a transient-attack study.
//
// Scheduling is event-driven (docs/PERFORMANCE.md). Each entry counts its
// operands still in flight and sits on its producers' intrusive wake-up
// lists; a per-thread completion queue ordered by (time, seq) fires the
// forwarding wake-ups and completions, so a cycle visits only the entries
// that can act. Ordered censuses of the pending fences, stores, CLFLUSHes,
// Jcc/Ret and deferred faults answer every "an older X is not Done" gate
// with one comparison. A cycle in which no stage changed any state is
// inert: single-thread runs then jump straight to the next event (a queued
// completion or forward, the allocation stall, the front end, the divider,
// or the interference source's next tick) and charge the skipped cycles the
// inert cycle's per-cycle PMU vector. The jump is exact by construction: it
// only skips cycles the stages would have spent re-checking unchanged
// state, so results, PMU images and traces are those of stepping every
// cycle (invariant 10, docs/ARCHITECTURE.md).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "isa/isa.h"
#include "isa/program.h"
#include "mem/memory_system.h"
#include "stats/rng.h"
#include "uarch/branch_predictor.h"
#include "uarch/ring.h"
#include "uarch/trace.h"
#include "uarch/config.h"
#include "uarch/pmu.h"

namespace whisper::uarch {

/// Interference hook driven once per simulated cycle while the core is
/// running (whisper::noise::NoiseEngine implements it). The return value is
/// an interrupt-handler cost in cycles: non-zero means "an asynchronous
/// interrupt arrives now" — the core squashes all in-flight work on every
/// active thread, resteers to the next unretired instruction, and stalls
/// the front end for the returned cost on top of the machine-clear penalty.
/// Implementations use the hook's cycle argument for their own scheduling
/// (DVFS steps, TLB shootdowns) and must be deterministic in (seed, cycle).
/// The core skips on_cycle for the cycles of an inert span it jumps over,
/// so an implementation must say where its schedule next acts: between
/// `cycle` and next_tick(cycle), on_cycle may only note the time.
class CoreInterference {
 public:
  virtual ~CoreInterference() = default;
  [[nodiscard]] virtual std::uint64_t on_cycle(std::uint64_t cycle) = 0;
  /// Earliest cycle >= `cycle` at which on_cycle may do more than note the
  /// time (schedule a source, fire one, or raise an interrupt). Side-effect
  /// free.
  [[nodiscard]] virtual std::uint64_t next_tick(std::uint64_t cycle) const = 0;
};

/// Initial architectural state for one hardware thread.
struct InitState {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  isa::Flags flags{};
  /// Instruction index to redirect to when a fault retires outside a TSX
  /// region (the signal-handler suppression of the paper's
  /// `transient_begin`); -1 kills the thread.
  int signal_handler = -1;
  bool user_mode = true;
  /// Virtual base address of the code, for i-side TLB modelling.
  std::uint64_t code_base = 0x0000000000400000ull;
};

struct ThreadResult {
  bool halted = false;
  bool killed_by_fault = false;
  std::uint64_t instructions_retired = 0;
  /// Values of retired RDTSC instructions, in program order.
  std::vector<std::uint64_t> tsc;
  std::array<std::uint64_t, isa::kNumRegs> regs{};
};

struct RunResult {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  bool cycle_limit_hit = false;
  std::array<ThreadResult, 2> thread;

  [[nodiscard]] std::uint64_t cycles() const noexcept {
    return end_cycle - start_cycle;
  }
  [[nodiscard]] const ThreadResult& t0() const noexcept { return thread[0]; }
};

class Core {
 public:
  Core(const CpuConfig& cfg, mem::MemorySystem& mem);

  /// Run a single program on hardware thread 0 until Halt, kill, or limit.
  RunResult run(const isa::Program& prog, const InitState& init,
                std::uint64_t cycle_limit = 1'000'000);

  /// Run two programs on the SMT sibling threads (§4.4 covert channel).
  RunResult run_smt(const isa::Program& p0, const InitState& i0,
                    const isa::Program& p1, const InitState& i1,
                    std::uint64_t cycle_limit = 10'000'000);

  [[nodiscard]] Pmu& pmu() noexcept { return pmu_; }
  [[nodiscard]] const Pmu& pmu() const noexcept { return pmu_; }
  [[nodiscard]] BranchPredictor& bpu() noexcept { return bpu_; }
  [[nodiscard]] const CpuConfig& config() const noexcept { return cfg_; }
  /// Free-running cycle counter (persists across run() calls, like TSC).
  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }

  /// Forget predictor state (models a context switch / fresh victim).
  void reset_bpu() { bpu_.reset(); }

  /// Return the core to its post-construction state — cycle counter, PMU,
  /// BPU, DSB, SMT contexts and scratch all cleared, the jitter RNG
  /// re-derived exactly as construction with cfg.seed = seed would. The
  /// attached trace/interference hooks and the decode cache are left
  /// untouched (the hooks belong to os::Machine and the runner; the decode
  /// cache is a pure function of program content, so a warm one is
  /// indistinguishable from a cold one).
  void reset(std::uint64_t seed);

  /// Attach (or detach with nullptr) a pipeline trace sink. Any TraceSink
  /// works: the bounded uarch::PipelineTrace ring for tests, or the
  /// unbounded obs::EventLog feeding the Chrome-trace exporter. With no
  /// sink attached every hook is a branch on a null pointer.
  void set_trace(TraceSink* trace) noexcept { trace_ = trace; }

  /// Attach (or detach with nullptr) an interference source. Same contract
  /// as set_trace: with none attached the per-cycle hook is a branch on a
  /// null pointer and the run is cycle-identical to an unhooked core.
  void set_interference(CoreInterference* noise) noexcept { noise_ = noise; }

  /// Decode-cache hit accounting (docs/PERFORMANCE.md). Monotonic for the
  /// lifetime of the Core — reset() does not clear it, because the cache
  /// itself survives reset.
  struct DecodeCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] const DecodeCacheStats& decode_cache_stats() const noexcept {
    return decode_stats_;
  }

  /// Cycles the run loop stepped through the stages; the rest of the
  /// simulated cycles were jumped over in inert spans. Monotonic for the
  /// lifetime of the Core, like DecodeCacheStats; host-side only, never
  /// part of a result.
  [[nodiscard]] std::uint64_t loop_iterations() const noexcept {
    return loop_iterations_;
  }

  /// Advance the free-running cycle counter without executing anything —
  /// used by the OS layer to charge attacker-side overheads (TLB eviction
  /// buffers, process synchronisation) to simulated time.
  void advance(std::uint64_t cycles) noexcept { cycle_ += cycles; }

 private:
  enum class EntryState : std::uint8_t { Waiting, Issued, Done };

  /// "No link" in the wake-up lists. A link names one operand of one
  /// consumer: (ROB slot << 2) | operand index.
  static constexpr std::uint32_t kNoLink = 0xffffffffu;
  /// Operand indices of the wake-up links: first and second source
  /// register, flags.
  static constexpr int kNumOperands = 3;

  struct RobEntry {
    std::uint64_t seq = 0;
    std::int32_t pc = 0;
    isa::Instruction inst;
    EntryState state = EntryState::Waiting;
    int uops = 1;

    // Dataflow: seq of the youngest older producer of each operand.
    // 0 = read architectural state. A producer seq may also reference an
    // already-retired entry (the rename map is not scrubbed on retire);
    // both cases read the architectural value, so they are equivalent.
    std::uint64_t prod_a = 0;   // first source register
    std::uint64_t prod_b = 0;   // second source register
    std::uint64_t prod_flags = 0;

    // Wake-up lists. `unready` counts the operands whose producer has not
    // reached forward_at; the entry joins the ready queue when it drops to
    // zero. Each producer heads an intrusive, youngest-first list of the
    // consumer operands waiting on it, threaded through the consumers'
    // next_link, so no entry owns heap storage. prod_link[k] is the slot
    // of the producer operand k is linked to (kNoLink once woken).
    std::uint8_t unready = 0;
    bool forwarded = false;  // this entry's wake-ups have fired
    std::uint32_t wake_head = kNoLink;
    std::array<std::uint32_t, kNumOperands> prod_link{kNoLink, kNoLink,
                                                      kNoLink};
    std::array<std::uint32_t, kNumOperands> next_link{kNoLink, kNoLink,
                                                      kNoLink};

    // Results.
    std::uint64_t result = 0;
    isa::Flags flags_out{};
    isa::Reg dst = isa::Reg::None;  // architectural destination (decode)
    bool writes_reg = false;
    bool writes_flags = false;

    // Rename-map checkpoints: the map values this entry displaced at
    // allocation, restored when the entry is squashed (youngest-first).
    std::uint64_t prev_reg_writer = 0;
    std::uint64_t prev_flags_writer = 0;

    // Timing.
    std::uint64_t complete_at = 0;   // when the entry becomes Done
    std::uint64_t forward_at = 0;    // when dependents may consume `result`

    // Memory / fault.
    mem::Fault fault = mem::Fault::None;
    bool data_forwarded = false;
    bool stale_tainted = false;   // dataflow touched stale LFB data (MDS)
    bool early_cleared = false;   // assist squashed early by transient misp.
    bool store_applied = false;
    std::uint64_t store_paddr = 0;
    std::uint64_t store_old = 0;
    std::uint8_t store_size = 8;

    // Branch bookkeeping.
    bool predicted_taken = false;
    std::int32_t predicted_target = -1;
    bool pred_from_rsb = false;
  };

  /// The reorder buffer: a contiguous power-of-two ring of RobEntry with
  /// structure-of-arrays mirrors of state, complete_at and seq, kept in
  /// lockstep at the two choke points that mutate them (set_state /
  /// set_complete). seq values ascend in ring order but are NOT contiguous
  /// (squashes leave gaps), so seq lookup is a binary search. The ring is
  /// reserved to the configured ROB size before a run and never grows
  /// during one, so an entry keeps its slot for its whole lifetime — the
  /// wake-up lists and the completion queue address entries by slot.
  class RobRing {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] RobEntry& operator[](std::size_t i) noexcept {
      return buf_[phys(i)];
    }
    [[nodiscard]] const RobEntry& operator[](std::size_t i) const noexcept {
      return buf_[phys(i)];
    }
    [[nodiscard]] RobEntry& front() noexcept { return buf_[phys(0)]; }
    [[nodiscard]] const RobEntry& front() const noexcept {
      return buf_[phys(0)];
    }
    [[nodiscard]] RobEntry& back() noexcept { return buf_[phys(size_ - 1)]; }
    [[nodiscard]] const RobEntry& back() const noexcept {
      return buf_[phys(size_ - 1)];
    }

    [[nodiscard]] EntryState state_at(std::size_t i) const noexcept {
      return state_[phys(i)];
    }
    [[nodiscard]] std::uint64_t complete_at(std::size_t i) const noexcept {
      return complete_[phys(i)];
    }

    /// Room for `n` entries without growing (keeps the contents).
    void reserve(std::size_t n);
    void push_back(RobEntry e);
    void pop_front() noexcept {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    void pop_back() noexcept { --size_; }
    void clear() noexcept {
      head_ = 0;
      size_ = 0;
    }

    void set_state(RobEntry& e, EntryState s) noexcept {
      e.state = s;
      state_[slot(e)] = s;
    }
    void set_complete(RobEntry& e, std::uint64_t c) noexcept {
      e.complete_at = c;
      complete_[slot(e)] = c;
    }

    /// Entry with the given seq, or nullptr (retired/squashed/never
    /// existed). Binary search over the ascending-with-gaps seq mirror.
    [[nodiscard]] RobEntry* by_seq(std::uint64_t seq) noexcept;
    /// Ring index of the first entry with seq >= `seq` (size() if none).
    [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const noexcept;

    [[nodiscard]] std::uint32_t slot(const RobEntry& e) const noexcept {
      return static_cast<std::uint32_t>(&e - buf_.data());
    }
    [[nodiscard]] RobEntry& at_slot(std::uint32_t s) noexcept {
      return buf_[s];
    }
    /// Does slot `s` hold the in-flight entry `seq`? False once that entry
    /// retired or was squashed, even while its bytes linger in the slot.
    [[nodiscard]] bool live(std::uint32_t s, std::uint64_t seq) const noexcept {
      return ((s - head_) & mask_) < size_ && seq_[s] == seq;
    }

   private:
    [[nodiscard]] std::size_t phys(std::size_t i) const noexcept {
      return (head_ + i) & mask_;
    }

    static constexpr std::size_t kInitialCap = 64;

    std::vector<RobEntry> buf_;
    std::vector<EntryState> state_;
    std::vector<std::uint64_t> complete_;
    std::vector<std::uint64_t> seq_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
  };

  /// An ordered census: the seqs of the in-flight entries in one class,
  /// ascending. "An older X is pending" is a comparison against front().
  /// Allocation appends, squashes remove the youngest — both O(1) — and
  /// out-of-order completions erase from the (short) middle.
  class SeqCensus {
   public:
    [[nodiscard]] bool empty() const noexcept { return s_.empty(); }
    [[nodiscard]] std::uint64_t oldest() const noexcept {
      return s_.empty() ? ~std::uint64_t{0} : s_.front();
    }
    [[nodiscard]] bool has_older(std::uint64_t seq) const noexcept {
      return !s_.empty() && s_.front() < seq;
    }
    [[nodiscard]] const std::vector<std::uint64_t>& seqs() const noexcept {
      return s_;
    }
    void insert(std::uint64_t seq);
    void erase(std::uint64_t seq);
    void clear() noexcept { s_.clear(); }

   private:
    std::vector<std::uint64_t> s_;
  };

  /// A ready-queue slot: a Waiting entry whose operands have all arrived.
  struct ReadyRef {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  /// A completion-queue key: at `time`, entry (`seq`, `slot`) forwards its
  /// result and/or completes. Squashed entries' keys and keys superseded by
  /// an early resolution stay behind and are dropped when they surface.
  struct Event {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;

    /// Heap order for std::push_heap/pop_heap: earliest (time, seq) first.
    static bool later(const Event& x, const Event& y) {
      return x.time != y.time ? x.time > y.time : x.seq > y.seq;
    }
  };

  /// The per-thread scheduler: censuses, ready queue and completion queue.
  /// Grouped so recycle() can keep their storage across runs.
  struct Scheduler {
    SeqCensus fences;     // fences (LFENCE/MFENCE) not yet Done
    SeqCensus stores;     // stores (incl. CALL) not yet Done
    SeqCensus clflushes;  // CLFLUSHes not yet Done
    SeqCensus jccs;       // conditional branches not yet Done
    SeqCensus rets;       // returns not yet Done
    SeqCensus faults;     // entries carrying a deferred fault
    /// Waiting entries with every operand ready, ascending seq.
    std::vector<ReadyRef> ready;
    /// Min-heap on (time, seq).
    std::vector<Event> events;

    void clear() noexcept;
  };

  struct IdqEntry {
    std::int32_t pc = 0;
    isa::Instruction inst;
    bool predicted_taken = false;
    std::int32_t predicted_target = -1;
    bool pred_from_rsb = false;
    bool from_dsb = true;
    int uops = 1;
  };

  /// Pre-decoded per-instruction fields the pipeline consults on every
  /// fetch/alloc/execute/retire — the out-of-line Instruction::uops()/
  /// writes_flags() calls and the operand-register switch tables, resolved
  /// once per program and shared across trials via the decode cache.
  struct DecodedInst {
    isa::Reg src_a = isa::Reg::None;
    isa::Reg src_b = isa::Reg::None;
    isa::Reg dst = isa::Reg::None;
    std::int8_t uops = 1;
    bool writes_flags = false;
  };
  struct DecodedProgram {
    std::vector<DecodedInst> insts;
  };

  struct ThreadCtx {
    bool active = false;
    const isa::Program* prog = nullptr;
    std::shared_ptr<const DecodedProgram> dec;
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    isa::Flags flags{};
    bool user_mode = true;
    int signal_handler = -1;
    std::uint64_t code_base = 0;

    // Front end.
    std::int32_t fetch_pc = 0;
    bool fetch_halted = false;      // saw Halt / unpredicted RET
    std::uint64_t frontend_ready_at = 0;
    bool pending_mite_bubble = false;
    Ring<IdqEntry> idq;
    std::unordered_set<std::int32_t> dsb_blocks;
    int force_mite = 0;  // fetch groups forced through MITE after a resteer

    // Back end.
    RobRing rob;
    std::uint64_t next_seq = 1;
    std::uint64_t alloc_stall_until = 0;

    // Rename map: seq of the youngest in-flight writer of each register /
    // of the flags (0 = none). Retirement releases an entry only when the
    // map still points at it; a stale retired seq left behind reads
    // identically to 0 (architectural value, ready, untainted).
    std::array<std::uint64_t, isa::kNumRegs> reg_writer{};
    std::uint64_t flags_writer = 0;

    // Occupancy counts, maintained by the account_* choke points; the
    // per-cycle PMU vector is derived from them.
    int waiting_count = 0;    // entries Waiting (reservation-station load)
    int issued_loads = 0;     // loads currently Issued (in flight)
    int done_count = 0;       // entries Done, not yet retired
    Scheduler sched;

    // Transient-window bookkeeping.
    bool window_mispredict = false;
    /// seq of the deferred-fault instruction that opened the current
    /// transient window (0 = none). Only the trace hooks read this; it
    /// never influences timing or architectural state.
    std::uint64_t window_open_seq = 0;

    // TSX (set/cleared at retirement).
    bool in_tsx = false;
    std::int32_t tsx_abort_target = -1;

    // Results.
    bool halted = false;
    bool killed = false;
    std::uint64_t retired = 0;
    std::vector<std::uint64_t> tsc_out;
  };

  /// Reset a context to its default-constructed state while recycling the
  /// heap storage of its containers (ROB/IDQ rings, DSB set, scheduler
  /// queues, tsc log). run() re-primes a context once per program
  /// invocation — thousands of times per trial — and must not re-grow the
  /// rings from scratch each time.
  static void recycle(ThreadCtx& ctx);

  RunResult run_internal(std::uint64_t cycle_limit);

  /// One cycle through every stage. Sets acted_ when any stage changed
  /// state beyond time and the per-cycle PMU vector.
  void step_cycle();
  /// After an inert cycle: advance cycle_ to the next event (bounded by
  /// the deadline) and charge the skipped cycles the inert cycle's PMU
  /// vector. Single-thread runs only.
  void jump_to_next_event(std::uint64_t deadline);

  void step_fetch(int t);
  void step_alloc(int t);
  void step_issue();
  void step_complete();
  void step_retire(int t);
  void per_cycle_pmu();

  /// The issue gates other than port capacity and operand readiness (which
  /// the ready queue guarantees): divider occupancy, fence serialisation,
  /// the lfence defense, fence/RDTSCP wait-for-older, store/clflush drain
  /// ordering. Side-effect free; every gate reads a census, so its answer
  /// only changes at a completion, a squash or the divider's release.
  [[nodiscard]] bool issue_ready(const ThreadCtx& ctx, const RobEntry& e) const;

  /// Issue ready-queue entry `idx` if ports and gates allow; true if it
  /// issued (and executed).
  bool try_issue_entry(ThreadCtx& ctx, std::size_t idx, int& loads,
                       int& stores, int& branches, int& issued_uops);
  void execute_entry(ThreadCtx& ctx, RobEntry& e);
  void complete_entry(int t, ThreadCtx& ctx, RobEntry& e);
  void resolve_branch(ThreadCtx& ctx, RobEntry& e, bool actual_taken,
                      std::int32_t actual_target);
  void handle_transient_shortcuts(ThreadCtx& ctx, const RobEntry& branch);
  void machine_clear(int t, RobEntry& faulting);
  /// Asynchronous (timer) interrupt: drain + resteer every active thread
  /// through the machine-clear recovery path, charging `handler_cycles` of
  /// handler time on top of the clear penalty.
  void inject_interrupt(std::uint64_t handler_cycles);
  void squash_younger(ThreadCtx& ctx, std::uint64_t seq);
  void squash_all(ThreadCtx& ctx);
  /// Remove the youngest ROB entry (squash path): undo, unrename, unlink.
  void squash_back(int t, ThreadCtx& ctx);
  void undo_store(const RobEntry& e);
  void redirect_fetch(ThreadCtx& ctx, std::int32_t target);

  // Census/rename bookkeeping choke points (see ThreadCtx counters).
  static void account_alloc(ThreadCtx& ctx, const RobEntry& e);
  static void account_issue(ThreadCtx& ctx, const RobEntry& e);
  static void account_done(ThreadCtx& ctx, const RobEntry& e);
  static void account_remove(ThreadCtx& ctx, const RobEntry& e);
  static void leave_pending(ThreadCtx& ctx, const RobEntry& e);
  static void unrename(ThreadCtx& ctx, const RobEntry& e);

  // Wake-up lists and queues.
  /// Link operand `k` of the newly allocated `c` to its producer `seq`
  /// when that producer's result has not arrived yet.
  static void link_operand(ThreadCtx& ctx, RobEntry& c, int k,
                           std::uint64_t seq);
  static void unlink_operands(ThreadCtx& ctx, const RobEntry& c);
  /// Fire `p`'s wake-ups: every linked consumer operand becomes ready.
  static void wake_consumers(ThreadCtx& ctx, RobEntry& p);
  static void ready_insert(ThreadCtx& ctx, const RobEntry& e);
  /// Queue `e`'s forward and completion times (after execute or an early
  /// resolution); wakes its consumers at once if forward_at has passed.
  void schedule_events(ThreadCtx& ctx, RobEntry& e);
  /// Earliest time an entry in the completion queue acts (dropping keys
  /// that no longer name a pending forward or completion); ~0 if none.
  [[nodiscard]] static std::uint64_t next_queued_event(ThreadCtx& ctx);

  /// Decoded form of `prog`, via the content-hash-keyed decode cache.
  [[nodiscard]] std::shared_ptr<const DecodedProgram> decoded_for(
      const isa::Program& prog);

  [[nodiscard]] std::uint64_t read_operand(ThreadCtx& ctx, isa::Reg r,
                                           std::uint64_t producer);
  [[nodiscard]] isa::Flags read_flags(ThreadCtx& ctx, std::uint64_t producer);
  [[nodiscard]] bool operand_tainted(ThreadCtx& ctx, std::uint64_t producer);
  /// Seq of the oldest entry not yet Done (~0 if none).
  [[nodiscard]] static std::uint64_t oldest_pending(const ThreadCtx& ctx);
  [[nodiscard]] static bool older_window_exists(const ThreadCtx& ctx,
                                                std::uint64_t seq);
  /// "window" defense gate: allocation blocked because the configured
  /// transient-depth clamp is full.
  [[nodiscard]] bool alloc_window_clamped(const ThreadCtx& ctx) const;

  void trace(int thread, TraceEvent event, const RobEntry* e = nullptr,
             std::uint64_t count = 0);
  void trace_raw(int thread, TraceEvent event, std::int32_t pc,
                 isa::Opcode op, std::uint64_t seq);

  /// Charge `n` cycles of the per-cycle PMU vector `mask` (bits index
  /// kCycleEvents in core.cpp).
  void charge_cycles(std::uint32_t mask, std::uint64_t n);

  CpuConfig cfg_;
  mem::MemorySystem& mem_;
  Pmu pmu_;
  BranchPredictor bpu_;
  stats::Xoshiro256 rng_;
  TraceSink* trace_ = nullptr;
  CoreInterference* noise_ = nullptr;

  std::uint64_t cycle_ = 0;
  std::uint64_t avx_warm_until_ = 0;  // AVX power-gating state
  /// Non-pipelined divider occupancy: no divide issues before this cycle.
  /// Set at divide issue, it outlives a squash of the divide that set it
  /// (the SpectreRewind residue); cleared only by machine clears,
  /// interrupts and reset(). issue_ready() gates on it, and its release is
  /// one of the events an inert span jumps to.
  std::uint64_t divider_busy_until_ = 0;
  std::uint64_t shared_frontend_busy_until_ = 0;
  int nthreads_ = 1;
  std::array<ThreadCtx, 2> ctx_{};

  // The DSB (µop cache) persists across run() calls while the same program
  // occupies the code region — an attack loop probes with a warm DSB, as on
  // real hardware. A different program at the same addresses invalidates it
  // (self-modifying-code nuke).
  std::array<const isa::Program*, 2> last_prog_{};
  std::array<std::unordered_set<std::int32_t>, 2> persistent_dsb_{};

  // Per-program decode cache, shared across trials that reuse this machine.
  // Keyed by Program::content_hash() — identity by content, so a trial that
  // rebuilds the same attack program into a fresh object still hits, and a
  // genuinely different program at the same address naturally misses (the
  // content key IS the invalidation). MRU at the front, bounded depth.
  // Survives Core::reset(): decoding is a pure function of program content.
  static constexpr std::size_t kDecodeCacheCap = 8;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const DecodedProgram>>>
      decode_cache_;
  DecodeCacheStats decode_stats_;
  std::uint64_t loop_iterations_ = 0;

  // Per-cycle scratch.
  int issued_uops_this_cycle_ = 0;
  int alloc_uops_this_cycle_ = 0;
  bool acted_ = false;              // some stage changed state this cycle
  std::uint32_t cycle_charge_ = 0;  // this cycle's per-cycle PMU vector
  std::vector<Event> due_;          // step_complete's due keys
};

}  // namespace whisper::uarch
