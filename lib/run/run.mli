(** One definition of a study run, shared by [bench/main.exe] and
    [widening-cli]: the run options and their command-line term, the
    session that applies them and reports at the end, and the table of
    figure/study experiments.

    Nothing here does work when the module is initialised: suites are
    generated by {!suite}, the store is opened by {!start}, and every
    experiment runs only when called. *)

(** {2 Run options} *)

type t = {
  sample : int option;  (** [-s N]: the deterministic N-loop subsample *)
  jobs : int option;  (** [-j/--jobs]: evaluation-pool size *)
  verify : bool;  (** [--verify]: re-derive every point with the oracles *)
  strict : bool;  (** [--strict]: fail fast instead of quarantining *)
  store : string option;
      (** [--store DIR], else [WR_STORE] (an empty value means none) *)
  loop_budget_ms : int option;  (** [--loop-budget-ms] *)
  backend : Wr_sched.Backend.kind option;  (** [--backend] *)
  trace : string option;  (** [--trace FILE] *)
  metrics : string option;  (** [--metrics FILE] *)
  ledger : string option;  (** [--ledger FILE] *)
  ledger_wall : bool;  (** [--ledger-wall] *)
}

val term : t Cmdliner.Term.t
(** Every run option. *)

val engine_term : t Cmdliner.Term.t
(** Every run option except [-s] (its [sample] is [None]), for commands
    that name no suite, such as the query service. *)

val positive : string -> int Cmdliner.Arg.conv
(** A positive integer; [positive "N"] rejects anything else with
    "N must be a positive integer". *)

val sample_arg : int option Cmdliner.Term.t
(** [-s/--sample N] alone. *)

val backend_arg : Wr_sched.Backend.kind option Cmdliner.Term.t
(** [--backend] alone. *)

val jobs : t -> int
(** The effective pool size: [--jobs], else {!Wr_util.Pool.default_jobs}. *)

val exit_code : Cmdliner.Cmd.Exit.code -> int
(** Fold cmdliner's own statuses into the repository's exit codes: a
    command-line error (124) is a usage error, 1; an internal error
    (125) is a runtime failure, 2. *)

(** {2 Session} *)

val configure : t -> unit
(** Apply every option except the store: pool size, backend, verify,
    strict, loop budget, ledger capture and wall times, and telemetry
    when a trace or metrics file is requested. *)

val start : out_channel -> t -> unit
(** {!configure}, then attach the store and print its recovery line
    ([[store] DIR: ...]) on the channel.  A store locked by a live
    process prints the diagnostic on stderr and exits 2. *)

val write_outputs : out_channel -> t -> unit
(** Write the trace, metrics and ledger files the options name, with
    one [[trace|metrics|ledger] wrote FILE] line each on the channel. *)

val finish : out_channel -> t -> int
(** End the run: print the verified-point count when verification is
    on, {!write_outputs}, print the store summary ([[store] DIR: N
    entries, H hits, M misses, A appended]) and detach the store, then
    print the quarantine report.  Returns the exit code: 3 when some
    point was quarantined, else 0. *)

(** {2 Experiments} *)

type suite = {
  id : string;  (** {!Wr_workload.Suite.id} of [sample] *)
  sample : int option;
  loops : Wr_ir.Loop.t array;
}

val suite : int option -> suite
(** Generate the suite [-s] names: the full suite for [None]. *)

type table = { name : string; header : string list; rows : string list list }
(** One CSV file of an experiment: [name.csv]. *)

type output = {
  text : string;  (** the printed figure or table *)
  tables : table list;  (** its CSV exports *)
  note : string;  (** how it compares with the paper *)
}

val experiments : (string * (suite -> output)) list
(** Every figure and study of the paper and beyond it, [table1] to
    [balance], in presentation order.  Most run on the given suite;
    analytic ones ignore it, and a few studies use a fixed subsample. *)
