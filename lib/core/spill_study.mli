(** Figure 3: performance with spill code under finite register files.

    Configurations of scaling factors 2-8 are evaluated with 32, 64,
    128 and 256 registers under the 4-cycle latency model; loops that
    exceed the file are spilled and rescheduled.  The baseline is 1w1
    with 256 registers (which needs essentially no spill, so it matches
    Figure 2's infinite-register baseline).  A configuration whose
    register pressure cannot be contained for some loops even after
    spilling reports {!Not_schedulable} — the paper's missing 8w1
    32-register bar. *)

type cell = Speedup of float | Not_schedulable

type row = { config : Wr_machine.Config.t; cells : (int * cell) list }

type t = row list

val run :
  ?registers:int list -> ?suite_id:string -> Wr_ir.Loop.t array -> t
(** [registers] defaults to [32; 64; 128; 256]. *)

val to_text : t -> string
