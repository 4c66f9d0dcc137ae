(** Canonical CSV serialisations of the figure studies — the single
    source of truth for the [results/fig{2,3,9}.csv] format, shared by
    the experiment table of both front ends and the golden-file tests. *)

val fig2_header : string list

val fig2_rows : Peak_study.t -> string list list

val fig3_header : string list

val fig3_rows : Spill_study.t -> string list list

val fig9_header : string list

val fig9_rows : (Wr_cost.Sia.generation * Tradeoff.point list) list -> string list list

val families_rows : ('a -> string list list) -> (string * 'a) list -> string list list
(** [rows] of each family's result with a leading [family] column, one
    block per family in input order: the per-family cut of a figure,
    whose header is ["family"] followed by the figure's. *)

val gap_header : string list

val gap_rows : Gap_study.t -> string list list
(** One row per (family, loop, config) point of the optimality-gap
    study. *)

val to_string : header:string list -> string list list -> string
(** The full file contents: header line plus one line per row, each
    comma-joined and newline-terminated. *)
