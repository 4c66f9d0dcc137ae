(** Full-pipeline evaluation of loops on configurations: widen,
    modulo-schedule, allocate registers, spill/slow down and reschedule
    — the machinery behind the finite-register-file experiments
    (Figure 3 and Section 5).

    A loop whose register pressure cannot be contained even by spilling
    and by slowing the pipeline down is compiled {e without} software
    pipelining (iterations run back-to-back, no overlap, negligible
    register demand) — what a real compiler falls back to.  A
    configuration where such fallbacks carry more than a small share of
    the execution weight is reported as not schedulable, matching the
    paper's missing 8w1 32-register bar.

    One memo level holds per-loop results, keyed on
    [(suite, index, buses, width, registers, cycle model)]; suite
    aggregates are folded from it on every call, so studies that
    revisit an operating point (partition variants share everything but
    the clock) pay one table lookup per loop.

    {2 Concurrency}

    [suite_on] evaluates loops in parallel on a {!Wr_util.Pool} (the
    process-wide default unless [?pool] is given) and is itself safe to
    call from pool tasks, so study drivers may fan out over
    configurations while each configuration fans out over loops.  The
    memo table is guarded by a mutex: lookups and stores are short
    critical sections, the evaluation runs outside the lock, and two
    domains racing on one key merely duplicate a deterministic
    computation.  Results are bit-identical for any pool size because
    the per-loop results are reduced sequentially in input order. *)

type loop_result = {
  ii : int;  (** initiation interval, or the sequential span when not pipelined *)
  cycles : float;  (** weighted execution cycles *)
  required_regs : int;
  spill_stores : int;
  spill_loads : int;
  spill_rounds : int;  (** spill/reschedule iterations the driver took *)
  pipelined : bool;
  mii : int;  (** MII of the widened body (from the pre-spill graph) *)
  trip_count : int;  (** trip count of the widened loop *)
}

val loop_on :
  ?plan_key:string * int ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  Wr_ir.Loop.t ->
  loop_result
(** Uncached full-pipeline evaluation of one loop; increments
    {!evaluations}.  [plan_key] ([suite_id], [index]) keys the memo of
    compiled {!Wr_vliw.Interp} plans used by the verification oracles,
    so a verified study interprets each loop through one compiled plan
    across all its machine points; without it plans are compiled per
    call.  It must uniquely name the loop, like the cache key of
    {!loop_cached} (which passes it automatically). *)

(** Where an {!answer} came from. *)
type source =
  | Memo  (** the in-memory loop cache *)
  | Store  (** the attached persistent store *)
  | Fresh  (** this call ran the pipeline *)

type answer = {
  result : loop_result;
  source : source;
  degraded : bool;
      (** the evaluation raised and [result] is the quarantined
          unpipelined fallback (see Supervision) *)
}

val point :
  ?hash:int64 ->
  suite_id:string ->
  index:int ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  Wr_ir.Loop.t ->
  answer
(** The one lookup: the loop cache, then the attached store, then a
    supervised {!loop_on}.  The cache is keyed by
    [(suite_id, index, buses, width, registers, cycle model)];
    [suite_id] and [index] must uniquely name the loop passed.  Repeated
    calls with one key return the physically same result record (a hit
    returns the stored answer itself, with source [Memo] and the
    evaluation's [degraded] flag); concurrent callers settle on the
    first stored result.  [hash], when given, must be
    {!Provenance.point_hash} of the same arguments: the store lookup and
    the ledger record use it instead of hashing again.  Thread-safe. *)

val loop_cached :
  suite_id:string ->
  index:int ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  Wr_ir.Loop.t ->
  loop_result
(** [(point ...).result]. *)

val evaluations : unit -> int
(** Number of times {!loop_on} actually ran the widen/schedule/allocate
    pipeline since process start (cache hits do not count) — a test
    hook for the caching discipline. *)

type cache_stats = { hits : int; misses : int }

val cache_stats : [ `Loop | `Store ] -> cache_stats
(** Hit/miss counts per level ([`Loop]: the per-loop memo; [`Store]:
    the attached persistent store, consulted on loop-cache misses).
    Always counted, thread-safe, and reset by {!clear_cache} alongside
    the cached entries themselves (the store's on-disk contents
    survive, only the counters reset). *)

val set_verify : bool -> unit
(** Toggle verification mode: when on, every {!loop_on} result is
    re-derived by the independent {!Wr_check.Oracle} oracles (widening,
    schedule, allocation, spill semantics) and a broken invariant
    raises {!Wr_check.Oracle.Violation} with the loop and machine point
    named.  Initialized from the [WR_VERIFY] environment variable
    ([1]/[true]/[yes]/[on]). *)

val verify_enabled : unit -> bool

val verified_points : unit -> int
(** Number of (loop, machine point) results that passed all oracles
    since process start — a verified run can report "N points, zero
    violations". *)

(** {2 Supervision}

    A loop evaluation that raises (an injected fault, a cooperative
    budget overrun, a latent scheduler bug) does not kill the study: by
    default the point degrades to the paper's "compiler gives up"
    unpipelined fallback — costed by pure arithmetic over the unwidened
    body, so the degrade path itself cannot fail — and a quarantine
    record is kept for the end-of-run report.  [Out_of_memory] is never
    absorbed.  Strict mode ([WR_STRICT], or [--strict] in the drivers)
    restores fail-fast. *)

val set_strict : bool -> unit
(** Toggle fail-fast.  Initialized from the [WR_STRICT] environment
    variable. *)

val strict_enabled : unit -> bool

val set_loop_budget_ms : int option -> unit
(** Wall-clock budget per loop evaluation, enforced cooperatively at
    II-escalation, scheduler-attempt, and spill-round boundaries (see
    {!Wr_util.Deadline}); an overrun degrades the point through the
    quarantine path.  [None] (the default) disables the budget; raises
    [Invalid_argument] on a non-positive budget. *)

val loop_budget_ms : unit -> int option

type quarantine_record = {
  q_suite : string;
  q_index : int;  (** loop index within the suite *)
  q_loop : string;  (** loop name *)
  q_config : string;  (** [Config.label] of the machine point *)
  q_registers : int;
  q_cycle_model : int;  (** cycle-model cycles *)
  q_reason : string;  (** the exception, printed *)
  q_backtrace : string;  (** backtrace, when recording is enabled *)
}

val quarantined : unit -> quarantine_record list
(** Every degraded point since the last {!reset_quarantine}, in a
    stable (suite, index, config, registers, model) order regardless of
    pool completion order.  Thread-safe. *)

val quarantined_count : unit -> int

val reset_quarantine : unit -> unit

(** {2 Persistent store}

    The content-addressed result store (see {!Store}) is the one
    persistence layer behind both crash-resume and warm start.  Keyed
    by {!Provenance.point_hash}, it is consulted on every loop-cache
    miss and appended to on every clean first-store-wins evaluation, so
    any process attached to the same store directory — a run restarted
    after a crash, a restarted server, a fresh sweep — re-evaluates
    only the points it has not seen.  Floats round-trip through their
    bit patterns, so a resumed run's output is byte-identical to an
    uninterrupted one.  Store hits become ordinary cache entries: they
    are not emitted as provenance records (they are not decisions of
    this run), and they are not re-verified under {!set_verify} (the
    entry was verified, if at all, by the run that evaluated it).
    Quarantined points are never stored; a later run retries them. *)

val attach_store : string -> Store.recovery
(** Open (creating if absent) a store directory, recover its segments,
    and serve/append through it until {!detach_store}.  Detaches any
    previously attached store first.  Raises {!Store.Locked} when
    another live process holds the store. *)

val detach_store : unit -> unit
(** Flush, close, release the store's lockfile, and stop consulting
    it.  No-op when none is attached. *)

val flush_store : unit -> unit
(** Write out and fsync the attached store's buffered entries (appends
    are fsynced in batches; detaching flushes too).  The service calls
    this before each reply, so every answer a client holds is on disk.
    No-op when none is attached. *)

val store_dir : unit -> string option
(** Directory of the attached store, if any. *)

val store_entries : unit -> int
(** Distinct entries in the attached store (0 when none). *)

val store_appended : unit -> int
(** Entries this process appended to the attached store. *)

val probe :
  suite_id:string ->
  index:int ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  loop_result option
(** Loop-cache lookup without evaluating and without touching the
    hit/miss counters. *)

type aggregate = {
  total_cycles : float;  (** weighted cycles over all loops *)
  loops : int;
  unpipelined : int;  (** loops that fell back to sequential iteration *)
  unpipelined_weight : float;  (** weight share of the fallbacks, in [0,1] *)
  spilled_loops : int;
  total_stores : int;
  total_loads : int;
}

val suite_on :
  ?pool:Wr_util.Pool.t ->
  suite_id:string ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  Wr_ir.Loop.t array ->
  aggregate
(** Folds {!loop_cached} over the array in input order; [suite_id] and
    each loop's position must uniquely name it.  Evaluates loops in
    parallel on [pool] (default: the shared pool); deterministic for any
    pool size. *)

val acceptable : aggregate -> bool
(** Whether the configuration point counts as schedulable: fallbacks
    carry at most 10% of the execution weight. *)

val clear_cache : unit -> unit
(** Drops the per-loop results and the compiled interpreter plans, and
    resets {!cache_stats} for both counted levels. *)
