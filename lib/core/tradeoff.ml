module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Sia = Wr_cost.Sia
module Area = Wr_cost.Area
module Access_time = Wr_cost.Access_time
module Table = Wr_util.Table

type point = {
  config : Config.t;
  tc : float;
  cycle_model : Cycle_model.t;
  total_cycles : float;
  speedup : float;
  area : float;
}

let baseline_cfg = Config.xwy ~registers:32 ~partitions:1 ~x:1 ~y:1 ()

let baseline_wallclock ~suite_id loops =
  let agg =
    Evaluate.suite_on ~suite_id baseline_cfg ~cycle_model:Cycle_model.Cycles_4 ~registers:32
      loops
  in
  if not (Evaluate.acceptable agg) then
    if Evaluate.quarantined_count () = 0 then
      failwith "Tradeoff: the 1w1(32:1) baseline must pipeline nearly every loop"
    else
      (* Under supervision a quarantined baseline point is expected: the
         study completes and reports the degraded points instead of
         aborting. *)
      Printf.eprintf
        "warning: tradeoff baseline 1w1(32:1) has %.0f%% fallback weight from degraded \
         (quarantined) loops; speedups are computed against the degraded baseline\n\
         %!"
        (100.0 *. agg.Evaluate.unpipelined_weight);
  agg.Evaluate.total_cycles *. 1.0

let evaluate ?(suite_id = "suite") loops (c : Config.t) =
  let tc = Access_time.relative c in
  let cycle_model = Access_time.cycle_model_of c in
  let agg = Evaluate.suite_on ~suite_id c ~cycle_model ~registers:c.Config.registers loops in
  if not (Evaluate.acceptable agg) then None
  else begin
    let wallclock = agg.Evaluate.total_cycles *. tc in
    let base = baseline_wallclock ~suite_id loops in
    Some
      {
        config = c;
        tc;
        cycle_model;
        total_cycles = agg.Evaluate.total_cycles;
        speedup = base /. wallclock;
        area = Area.total_area c;
      }
  end

let panel ~suite_id ~title loops configs =
  (* Fill the baseline's loop-cache entries before fanning out so the
     parallel points don't all recompute them on a cold cache. *)
  ignore (baseline_wallclock ~suite_id loops);
  let rows =
    Wr_util.Pool.parallel_list_map configs ~f:(fun c ->
        match evaluate ~suite_id loops c with
        | Some p ->
            [
              Config.label p.config;
              Printf.sprintf "%.2f" p.tc;
              Cycle_model.to_string p.cycle_model;
              Printf.sprintf "%.2f" p.speedup;
              Printf.sprintf "%.0f" (p.area /. 1e6);
            ]
        | None -> [ Config.label c; "-"; "-"; "n/a"; "-" ])
  in
  Table.render ~title
    ~headers:[ "config"; "Tc"; "latency model"; "speed-up"; "area (x10^6 l^2)" ]
    rows

let figure8 ?(suite_id = "suite") loops =
  let a =
    panel ~suite_id ~title:"Figure 8a: register file size (1w1)" loops
      (List.map (fun z -> Config.xwy ~registers:z ~x:1 ~y:1 ()) [ 32; 64; 128; 256 ])
  in
  let b =
    panel ~suite_id ~title:"Figure 8b: pure replication, 128-RF, fully partitioned" loops
      (List.map
         (fun x -> Config.xwy ~registers:128 ~partitions:x ~x ~y:1 ())
         [ 1; 2; 4; 8 ])
  in
  let c =
    panel ~suite_id ~title:"Figure 8c: pure widening, 128-RF" loops
      (List.map (fun y -> Config.xwy ~registers:128 ~x:1 ~y ()) [ 1; 2; 4; 8 ])
  in
  let d =
    panel ~suite_id ~title:"Figure 8d: factor-8 configurations, 128-RF" loops
      [
        Config.xwy ~registers:128 ~partitions:8 ~x:8 ~y:1 ();
        Config.xwy ~registers:128 ~partitions:4 ~x:4 ~y:2 ();
        Config.xwy ~registers:128 ~partitions:2 ~x:2 ~y:4 ();
        Config.xwy ~registers:128 ~partitions:1 ~x:1 ~y:8 ();
      ]
  in
  String.concat "\n" [ a; b; c; d ]

let figure9 ?(suite_id = "suite") ?(top = 5) loops =
  ignore (baseline_wallclock ~suite_id loops);
  List.map
    (fun g ->
      let candidates = Implementability.implementable_configs g in
      (* Candidate configurations are independent design points; order
         is preserved so the stable part of the sort below is
         deterministic. *)
      let points =
        List.filter_map Fun.id
          (Wr_util.Pool.parallel_list_map candidates ~f:(evaluate ~suite_id loops))
      in
      let sorted = List.sort (fun a b -> compare b.speedup a.speedup) points in
      let rec take k = function
        | [] -> []
        | p :: rest -> if k = 0 then [] else p :: take (k - 1) rest
      in
      (g, take top sorted))
    Sia.generations

let figure9_text results =
  String.concat "\n"
    (List.map
       (fun ((g : Sia.generation), points) ->
         Table.render
           ~title:(Printf.sprintf "Figure 9: top configurations at %s" (Sia.label g))
           ~headers:[ "config"; "Tc"; "latency model"; "speed-up"; "% die area" ]
           (List.map
              (fun p ->
                [
                  Config.label p.config;
                  Printf.sprintf "%.2f" p.tc;
                  Cycle_model.to_string p.cycle_model;
                  Printf.sprintf "%.2f" p.speedup;
                  Printf.sprintf "%.1f" (100.0 *. p.area /. g.Sia.lambda2_per_chip);
                ])
              points))
       results)

let conclusion ?(suite_id = "suite") loops =
  ignore (baseline_wallclock ~suite_id loops);
  let best_partition x y =
    let candidates =
      List.filter_map Fun.id
        (Wr_util.Pool.parallel_list_map [ 1; 2; 4; 8 ] ~f:(fun n ->
             if n > x || x mod n <> 0 then None
             else evaluate ~suite_id loops (Config.xwy ~registers:128 ~partitions:n ~x ~y ())))
    in
    match List.sort (fun a b -> compare b.speedup a.speedup) candidates with
    | best :: _ -> Some best
    | [] -> None
  in
  match (best_partition 4 2, best_partition 8 1) with
  | Some p42, Some p81 ->
      Printf.sprintf
        "Conclusion check: %s speed-up %.2f, area %.0fe6 | %s speed-up %.2f, area %.0fe6\n\
         -> 4w2 achieves %.2fx the performance of 8w1 in %.0f%% of the area (paper: 1.66x in \
         81%%).\n"
        (Config.label p42.config) p42.speedup (p42.area /. 1e6) (Config.label p81.config)
        p81.speedup (p81.area /. 1e6)
        (p42.speedup /. p81.speedup)
        (100.0 *. p42.area /. p81.area)
  | _ -> "Conclusion check: one of the configurations could not be scheduled.\n"
