(* The batch workloads: two passes of one study per process at --jobs 1.

   sweep   Figure 3 (widen -> modulo-schedule -> allocate -> spill at
           32/64/128/256 registers) over a seeded sample of the study suite.
   verify  the same study on the same sample with every point re-derived
           by the Wr_check oracles.
   gap     the HRMS-vs-exact II gap study over a seeded sample of a
           larger suite; node-budgeted branch-and-bound dominates and
           regalloc is idle. *)

module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Evaluate = Core.Evaluate
module Gen = Wr_workload.Generator
module Obs = Wr_obs.Obs
module Rng = Wr_util.Rng

type kind = Sweep | Verify | Gap

(* The loops come from the calibrated generator at its default seed:
   the 1180-loop study suite for sweep and verify, and that suite
   extended to 4 x 1180 loops of the same stream for the gap study, which
   is five times cheaper per loop.  The workload seed draws a 99 % sample
   of that population.  A fresh generator seed per run varied the work
   by 20 % from seed to seed, a 90 % sample still by up to 19 % and a
   97 % sample by up to 10 % (two seeds in ten dropped a costly loop), because
   a few loops dominate it (in the study suite the costliest 10 loops
   carry a quarter of the pipeline time, and a handful of node-budget
   timeouts dominate the gap study).  Sizes scale with the run length,
   which holds two passes of the study: at 26 s a pass covers the whole
   study suite (sweep, verify) or 4 x 1180 loops (gap). *)
let population kind seconds =
  let per_26s = match kind with Gap -> 4 * 1180 | Sweep | Verify -> 1180 in
  max 16 (per_26s * seconds / 26)

let sample_share = 0.99

let cycle_model = Cycle_model.Cycles_4

let rng ~seed ~stream = Rng.create ~seed:(Int64.of_int ((seed * 1_000_003) + stream))

let generate ~loops = Gen.generate { Gen.default with Gen.num_loops = loops }

(* The seeded sample, in population order.  Sweep and verify draw the
   same sample for a seed, so their pipeline work is identical and the
   difference between them is the oracles' cost. *)
let sample ~seed loops =
  let idx = Array.init (Array.length loops) Fun.id in
  Rng.shuffle (rng ~seed ~stream:1) idx;
  let m = int_of_float (sample_share *. float_of_int (Array.length loops)) in
  let chosen = Array.sub idx 0 m in
  Array.sort compare chosen;
  Array.map (fun i -> loops.(i)) chosen

(* A pass runs the study chunk by chunk, timing each chunk; the sample
   is cut into [chunks] runs of consecutive loops. *)
let chunks = 16

let split loops =
  let n = Array.length loops in
  let k = min chunks n in
  Array.init k (fun c ->
      let lo = c * n / k and hi = (c + 1) * n / k in
      Array.sub loops lo (hi - lo))

let suite_id kind chunk =
  Printf.sprintf "perfbench-%s-%d"
    (match kind with Sweep -> "sweep" | Verify -> "verify" | Gap -> "gap")
    chunk

type output = Fig3 of Core.Spill_study.t | Gap_rows of Core.Gap_study.t

let study kind chunk loops =
  match kind with
  | Sweep | Verify -> Fig3 (Core.Spill_study.run ~suite_id:(suite_id kind chunk) loops)
  | Gap -> Gap_rows (Core.Gap_study.run [ ("synthetic", loops) ])

(* Every (config, registers) point of a Figure 3 run: the 1w1/256
   baseline plus each grid row at each register-file size. *)
let fig3_points (t : Core.Spill_study.t) =
  Config.xwy ~registers:256 ~x:1 ~y:1 ()
  :: List.concat_map
       (fun (row : Core.Spill_study.row) ->
         let c = row.Core.Spill_study.config in
         List.map
           (fun (z, _) -> Config.xwy ~registers:z ~x:c.Config.buses ~y:c.Config.width ())
           row.Core.Spill_study.cells)
       t

let probe kind chunk index (c : Config.t) =
  Evaluate.probe ~suite_id:(suite_id kind chunk) ~index c ~cycle_model
    ~registers:c.Config.registers

let points_answered parts outs =
  let answered loops = function
    | Fig3 t -> Array.length loops * List.length (fig3_points t)
    | Gap_rows g -> g.Core.Gap_study.points
  in
  Array.fold_left ( + ) 0 (Array.map2 answered parts outs)

(* Share of points whose II is proved optimal: II equal to the MII lower
   bound, or proved by the exact search on the gap study. *)
let decided_share kind parts outs =
  let decided = ref 0 and total = ref 0 in
  Array.iteri
    (fun chunk out ->
      match out with
      | Gap_rows g ->
          decided := !decided + g.Core.Gap_study.proved_optimal;
          total := !total + g.Core.Gap_study.points
      | Fig3 t ->
          let points = fig3_points t in
          Array.iteri
            (fun i _ ->
              List.iter
                (fun c ->
                  incr total;
                  match probe kind chunk i c with
                  | Some r when r.Evaluate.ii = r.Evaluate.mii -> incr decided
                  | _ -> ())
                points)
            parts.(chunk))
    outs;
  Util.ratio !decided !total

(* --- correctness checks, all outside the timed region ------------------ *)

let csv_of_fig3 t =
  Core.Csv_export.to_string ~header:Core.Csv_export.fig3_header (Core.Csv_export.fig3_rows t)

(* The sample-120 Figure 3 of the default suite against the committed
   golden CSV. *)
let check_golden r ~golden =
  Evaluate.set_verify false;
  let t = Core.Spill_study.run ~suite_id:"perfbench-golden" (Wr_workload.Suite.sample 120) in
  let expected = try In_channel.with_open_text golden In_channel.input_all with Sys_error _ -> "" in
  Util.tally r ~what:"sample-120 fig3 rows equal golden fig3.csv" 1
    (if String.equal expected (csv_of_fig3 t) then 0 else 1)

(* Sweep: re-run a seeded sample of points under Wr_check.Oracle and
   demand a clean report that agrees with the study's own result. *)
let check_oracle_sample r ~seed kind parts points =
  let g = rng ~seed ~stream:3 in
  let configs = Array.of_list points in
  let n = 40 in
  let bad = ref 0 in
  for _ = 1 to n do
    let chunk = Rng.int g (Array.length parts) in
    let i = Rng.int g (Array.length parts.(chunk)) in
    let c = Rng.choose g configs in
    let rep =
      Wr_check.Oracle.check_point c ~cycle_model ~registers:c.Config.registers
        parts.(chunk).(i)
    in
    let agrees =
      match probe kind chunk i c with
      | Some res ->
          rep.Wr_check.Oracle.schedulable = res.Evaluate.pipelined
          && ((not res.Evaluate.pipelined) || rep.Wr_check.Oracle.ii = Some res.Evaluate.ii)
      | None -> false
    in
    if rep.Wr_check.Oracle.violations <> [] || not agrees then incr bad
  done;
  Util.tally r ~what:"oracle check_point on sampled sweep points" n !bad

let check_gap_rows r (g : Core.Gap_study.t) =
  let bad =
    List.length
      (List.filter
         (fun (row : Core.Gap_study.row) ->
           not
             (row.mii <= row.exact_ii && row.exact_ii <= row.heur_ii
             && row.gap = row.heur_ii - row.exact_ii))
         g.Core.Gap_study.rows)
  in
  Util.tally r ~what:"gap rows with MII <= exact <= heuristic" g.Core.Gap_study.points bad

let checks r kind ~seed ~golden parts outs ~evaluations ~verified =
  (match (kind, outs.(0)) with
  | Sweep, Fig3 t -> check_oracle_sample r ~seed kind parts (fig3_points t)
  | Verify, _ ->
      Util.tally r ~what:"verify points passing every oracle" evaluations (evaluations - verified)
  | Gap, _ ->
      Array.iter (function Gap_rows g -> check_gap_rows r g | Fig3 _ -> ()) outs
  | Sweep, Gap_rows _ -> ());
  check_golden r ~golden

(* --- the run ------------------------------------------------------------- *)

(* The seed's sample of the population, and the set-up time from [reps]
   generations of the population: the median time as measured, and the
   median time scaled to the reference speed like a chunk of the study
   (by the reference kernel's times just before and just after the
   generation).  Each generation starts from a compacted heap, so one
   repetition's garbage is not the next one's cost. *)
let prepare kind ~seed ~seconds ~reps =
  let before = ref (Util.reference_s ()) in
  let generate () =
    Gc.compact ();
    let loops, t = Util.timed (fun () -> generate ~loops:(population kind seconds)) in
    let after = Util.reference_s () in
    let scaled = t *. Util.reference_nominal_s /. ((!before +. after) /. 2.0) in
    before := after;
    (loops, (t, scaled))
  in
  let loops, first = generate () in
  let times = first :: List.init (reps - 1) (fun _ -> snd (generate ())) in
  (sample ~seed loops, Util.median (List.map fst times), Util.median (List.map snd times))

(* One pass of the study over the chunks: each chunk's output and wall
   time, the reference kernel's time around each chunk (the mean of its
   times right before and right after the chunk; 0 when it was not
   run), GC stats around the pass, and how many points were evaluated,
   verified and quarantined. *)
type pass = {
  outs : output array;
  chunk_s : float array;
  ref_s : float array;
  g0 : Gc.stat;
  g1 : Gc.stat;
  evaluations : int;
  verified : int;
  quarantined : int;
}

let pass ?(reference = false) kind parts =
  Evaluate.clear_cache ();
  Evaluate.reset_quarantine ();
  Evaluate.set_verify (kind = Verify);
  Gc.compact ();
  let ev0 = Evaluate.evaluations () and vp0 = Evaluate.verified_points () in
  let reference_s () = if reference then Util.reference_s () else 0.0 in
  let g0 = Gc.quick_stat () in
  let before = ref (reference_s ()) in
  let timed =
    Array.mapi
      (fun chunk loops ->
        let out, s =
          Util.timed (fun () -> Obs.span "bench/study" (fun () -> study kind chunk loops))
        in
        let after = reference_s () in
        let around = (!before +. after) /. 2.0 in
        before := after;
        (out, s, around))
      parts
  in
  let g1 = Gc.quick_stat () in
  {
    outs = Array.map (fun (o, _, _) -> o) timed;
    chunk_s = Array.map (fun (_, s, _) -> s) timed;
    ref_s = Array.map (fun (_, _, r) -> r) timed;
    g0;
    g1;
    evaluations = Evaluate.evaluations () - ev0;
    verified = Evaluate.verified_points () - vp0;
    quarantined = Evaluate.quarantined_count ();
  }

let sum = Array.fold_left ( +. ) 0.0

(* The study's wall time from two passes over the same chunks: each
   chunk counts with the faster of its two times.  A stall of the
   virtual CPU of up to a few seconds slows one pass of a chunk, not
   both, so it drops out. *)
let wall_of_passes a b = sum (Array.map2 Float.min a.chunk_s b.chunk_s)

(* The same at the reference speed: each chunk time is first scaled by
   how much slower or faster than nominal the reference kernel ran
   around it, so that the shared host's speed swings, which last from
   seconds to minutes, divide out while a change of the program's own
   speed still shows in full. *)
let wall_norm_of_passes a b =
  let norm p = Array.map2 (fun s r -> s *. Util.reference_nominal_s /. r) p.chunk_s p.ref_s in
  sum (Array.map2 Float.min (norm a) (norm b))

let run kind ~seed ~seconds ~trace ~golden =
  let r = Util.result () in
  let loops, generate_s, setup_s = prepare kind ~seed ~seconds ~reps:(if trace then 3 else 11) in
  let parts = split loops in
  let p = pass ~reference:(not trace) kind parts in
  let points = points_answered parts p.outs in
  Util.tally r ~what:"study points not quarantined" points p.quarantined;
  Util.info r "loops" (Util.J.int (Array.length loops));
  Util.info r "points" (Util.J.int points);
  if not trace then begin
    (* The second pass leaves its results in the evaluation cache, where
       the checks and the decided share read them. *)
    let p2 = pass ~reference:true kind parts in
    let peak_rss = Util.peak_rss_mb () in
    Util.tally r ~what:"second-pass study points not quarantined" points p2.quarantined;
    let decided = decided_share kind parts p2.outs in
    checks r kind ~seed ~golden parts p2.outs ~evaluations:p2.evaluations ~verified:p2.verified;
    Util.info r "pass_s" (Util.J.List [ Util.num (sum p.chunk_s); Util.num (sum p2.chunk_s) ]);
    Util.info r "reference_median_s"
      (Util.num (Util.median (Array.to_list (Array.append p.ref_s p2.ref_s))));
    Util.metric r "setup_s" setup_s "s";
    Util.reported r "setup_unscaled_s" generate_s "s";
    Util.metric r "wall_norm_s" (wall_norm_of_passes p p2) "s";
    Util.reported r "wall_s" (wall_of_passes p p2) "s";
    Util.metric r "alloc_gwords" (Util.allocated_words p2.g0 p2.g1 /. 1e9) "Gwords";
    Util.metric r "peak_rss_mb" peak_rss "MB";
    Util.metric r "ok_share" (1.0 -. Util.ratio r.Util.failed r.Util.attempted) "ratio";
    Util.metric r "decided_share" decided "ratio"
  end
  else begin
    (* The traced pass re-runs the same study with Wr_obs on; the
       untraced pass above gives the overhead base and the GC figures. *)
    let v = Layers.create () in
    Layers.of_gc v p.g0 p.g1;
    Layers.set v "workload.generate_s" generate_s;
    Obs.reset ();
    Obs.set_enabled true;
    let t = pass kind parts in
    Obs.set_enabled false;
    let snap = Obs.snapshot () in
    let self = Layers.self_times (Layers.of_obs_events ()) in
    let counter n = Option.value ~default:0 (List.assoc_opt n snap.Obs.counters) in
    let count n =
      match List.assoc_opt n snap.Obs.spans with Some s -> s.Obs.span_count | None -> 0
    in
    Layers.of_pipeline v ~self ~counter ~count ~points ~study_s:(sum t.chunk_s);
    Layers.set v "check.points_verified" (float_of_int t.verified);
    Layers.of_snapshot_pool v snap;
    Layers.set v "obs.overhead_pct" (100.0 *. sum t.chunk_s /. sum p.chunk_s);
    Util.tally r ~what:"traced study points not quarantined" points t.quarantined;
    checks r kind ~seed ~golden parts t.outs ~evaluations:t.evaluations ~verified:t.verified;
    Layers.emit v r
  end;
  r
