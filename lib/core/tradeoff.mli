(** Section 5: performance/cost trade-offs under a technology limit
    (Figures 8 and 9 and the paper's concluding comparison).

    Each configuration [XwY(Z:n)] is clocked at its register file's
    access time: the relative cycle time [Tc] selects the latency model
    ([z = ceil(4/Tc)] cycles, Table 6), the suite is scheduled under
    that model with [Z] registers (spilling as needed), and the final
    performance is [1 / (total cycles * Tc)].  Speed-ups are reported
    against 1w1(32:1), whose cycle time defines [Tc = 1]. *)

type point = {
  config : Wr_machine.Config.t;
  tc : float;  (** relative cycle time *)
  cycle_model : Wr_machine.Cycle_model.t;
  total_cycles : float;
  speedup : float;  (** vs 1w1(32:1) at matched wall-clock *)
  area : float;  (** RF + FPUs, lambda^2 *)
}

val evaluate :
  ?suite_id:string -> Wr_ir.Loop.t array -> Wr_machine.Config.t -> point option
(** [None] when some loop cannot be scheduled within the register
    file. *)

val figure8 : ?suite_id:string -> Wr_ir.Loop.t array -> string
(** The four panels: (a) RF size sweep on 1w1; (b) pure replication;
    (c) pure widening; (d) the factor-8 configurations — each as a
    table of speed-up vs area. *)

val figure9 :
  ?suite_id:string -> ?top:int -> Wr_ir.Loop.t array -> (Wr_cost.Sia.generation * point list) list
(** Per generation, the best-performing implementable configurations
    (default top 5), each with its die share. *)

val figure9_text : (Wr_cost.Sia.generation * point list) list -> string

val conclusion : ?suite_id:string -> Wr_ir.Loop.t array -> string
(** The 4w2(128) vs 8w1(128) headline comparison: performance ratio and
    area ratio (best partitioning for each). *)
