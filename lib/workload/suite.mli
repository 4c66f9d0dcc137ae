(** The study workload: 1180 synthetic Perfect-Club-like loops plus the
    named kernels as anchors.

    The paper's workbench is 1180 software-pipelinable innermost loops
    covering 78% of the Perfect Club's execution time.  Our suite is
    {!Generator.generate} with the calibrated default parameters —
    deterministic, so every experiment sees exactly the same loops. *)

val perfect_club_like : unit -> Wr_ir.Loop.t array
(** The full 1180-loop suite (memoized after the first call). *)

val sample : int -> Wr_ir.Loop.t array
(** A deterministic subset of the suite (every k-th loop), for fast
    tests and benchmark timing runs. *)

val id : int option -> string
(** The suite id a run is named by: ["full"] for the whole suite,
    ["sampleN"] for [sample N].  Study caches, the result store and the
    query service all key points on this name. *)

val parse_id : string -> (int option, string) result
(** The inverse of {!id}: ["full"] is [Ok None], ["sampleN"] with a
    positive [N] is [Ok (Some N)]; anything else is an [Error] naming
    the bad id. *)

val of_sample : int option -> Wr_ir.Loop.t array
(** The loops {!id} names: {!perfect_club_like} for [None], {!sample}
    for [Some n]. *)

val with_kernels : unit -> Wr_ir.Loop.t array
(** The suite plus the hand-written kernels. *)

val real : unit -> Wr_ir.Loop.t array
(** The real-kernel family: the hand-written kernels, the Livermore
    loops, and the {!Stencil} stencil/recurrence family (Gray-Scott,
    heat, FIR, fma recurrences) — loops with exactly known dependence
    structure, as opposed to the synthetic generator's. *)

val families_for : sample:int option -> (string * Wr_ir.Loop.t array) list
(** The study cut [[("synthetic", of_sample sample); ("real", real ())]]
    — drivers report widening results per family so compactability
    claims can be compared between generated and real loops.  The real
    family is always complete (it is already small).  A [-s N] run's
    synthetic family coincides exactly with its main suite, so
    per-family rows reuse the evaluation cache instead of recomputing
    the suite. *)

val statistics : Wr_ir.Loop.t array -> string
(** Human-readable aggregate statistics (op counts, op mix, recurrence
    and compactability fractions) — printed by the bench harness so the
    workload substitution is auditable. *)
