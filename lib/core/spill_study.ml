module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model

type cell = Speedup of float | Not_schedulable

type row = { config : Config.t; cells : (int * cell) list }

type t = row list

let cycle_model = Cycle_model.Cycles_4

let grid = [ (2, 1); (1, 2); (4, 1); (2, 2); (1, 4); (8, 1); (4, 2); (2, 4); (1, 8) ]

let run ?(registers = [ 32; 64; 128; 256 ]) ?(suite_id = "suite") loops =
  let baseline_cfg = Config.xwy ~registers:256 ~x:1 ~y:1 () in
  let base = Evaluate.suite_on ~suite_id baseline_cfg ~cycle_model ~registers:256 loops in
  if base.Evaluate.unpipelined > 0 then
    if Evaluate.quarantined_count () = 0 then
      failwith "Spill_study: baseline 1w1/256 must pipeline every loop"
    else
      (* Under supervision a quarantined baseline point is expected: the
         study completes and reports the degraded points instead of
         aborting. *)
      Printf.eprintf
        "warning: spill study baseline 1w1/256 has %d degraded (quarantined) loops; speedups \
         are computed against the degraded baseline\n\
         %!"
        base.Evaluate.unpipelined;
  (* Grid rows are independent; each cell's suite evaluation fans out
     over loops on the same pool (nested maps are safe). *)
  Wr_util.Pool.parallel_list_map grid ~f:(fun (x, y) ->
      let cells =
        List.map
          (fun z ->
            let config = Config.xwy ~registers:z ~x ~y () in
            let agg = Evaluate.suite_on ~suite_id config ~cycle_model ~registers:z loops in
            if not (Evaluate.acceptable agg) then (z, Not_schedulable)
            else (z, Speedup (base.Evaluate.total_cycles /. agg.Evaluate.total_cycles)))
          registers
      in
      { config = Config.xwy ~x ~y (); cells })

let to_text t =
  let registers = match t with [] -> [] | r :: _ -> List.map fst r.cells in
  let headers = "config" :: List.map (fun z -> Printf.sprintf "%d-RF" z) registers in
  let rows =
    List.map
      (fun r ->
        Config.label_short r.config
        :: List.map
             (fun (_, c) ->
               match c with
               | Speedup s -> Printf.sprintf "%.2f" s
               | Not_schedulable -> "n/a")
             r.cells)
      t
  in
  Wr_util.Table.render
    ~title:"Figure 3: speed-up with spill code (baseline 1w1 256-RF, 4-cycle model)" ~headers
    rows
