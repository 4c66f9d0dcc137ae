(* Per-layer metrics of a traced run: self time per span name, the
   pipeline's own counters, and the table that names every per-layer
   metric with its unit. *)

module J = Core.Bench_schema
module Obs = Wr_obs.Obs

type event = { lane : int; name : string; start_ns : int; dur_ns : int }

let of_obs_events () =
  List.map
    (fun (e : Obs.event) ->
      { lane = e.Obs.ev_lane; name = e.Obs.ev_name; start_ns = e.Obs.ev_start_ns; dur_ns = e.Obs.ev_dur_ns })
    (Obs.events ())

(* Complete events of a Chrome trace file (microsecond floats), as
   written by [widening-cli serve --trace]. *)
let of_trace_file path =
  match J.load_file path with
  | Error _ -> []
  | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.List evs) ->
          List.filter_map
            (fun ev ->
              let f k = Option.bind (J.member k ev) J.to_float in
              match (J.member "ph" ev, J.member "name" ev, f "tid", f "ts", f "dur") with
              | Some (J.Str "X"), Some (J.Str name), Some tid, Some ts, Some dur ->
                  Some
                    {
                      lane = int_of_float tid;
                      name;
                      start_ns = int_of_float (ts *. 1e3);
                      dur_ns = int_of_float (dur *. 1e3);
                    }
              | _ -> None)
            evs
      | _ -> [])

(* Self time per span name, in seconds: each span's duration minus the
   part of it covered by its direct children on the same lane.  Spans
   on one lane nest (they are lexical scopes), so a stack ordered by
   start time recovers the parent of every span. *)
let self_times events =
  let self = Hashtbl.create 32 in
  let add name ns =
    Hashtbl.replace self name (ns + Option.value ~default:0 (Hashtbl.find_opt self name))
  in
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun e -> Hashtbl.replace lanes e.lane (e :: Option.value ~default:[] (Hashtbl.find_opt lanes e.lane)))
    events;
  Hashtbl.iter
    (fun _ evs ->
      let evs =
        List.sort (fun a b -> compare (a.start_ns, -a.dur_ns) (b.start_ns, -b.dur_ns)) evs
      in
      let close (e, covered) = add e.name (max 0 (e.dur_ns - !covered)) in
      let stack = ref [] in
      List.iter
        (fun e ->
          let rec pop () =
            match !stack with
            | ((p, _) as top) :: rest when p.start_ns + p.dur_ns <= e.start_ns ->
                close top;
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (p, covered) :: _ ->
              let stop = min (e.start_ns + e.dur_ns) (p.start_ns + p.dur_ns) in
              covered := !covered + (stop - e.start_ns)
          | [] -> ());
          stack := (e, ref 0) :: !stack)
        evs;
      List.iter close !stack)
    lanes;
  fun name -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt self name)) /. 1e9

(* Every per-layer metric, in report order, with its unit.  A workload
   that leaves a layer idle reports it as 0. *)
let table =
  [
    ("workload.generate_s", "s");
    ("widen.calls", "count");
    ("widen.self_s", "s");
    ("sched.probes", "count");
    ("sched.attempts", "count");
    ("sched.placements", "count");
    ("sched.evictions", "count");
    ("sched.self_s", "s");
    ("regalloc.alloc_self_s", "s");
    ("regalloc.spill_self_s", "s");
    ("regalloc.escalate_self_s", "s");
    ("regalloc.spill_rounds", "count");
    ("regalloc.spill_ops_added", "count");
    ("exact.nodes", "count");
    ("exact.timeouts", "count");
    ("exact.self_s", "s");
    ("check.points_verified", "count");
    ("check.verify_self_s", "s");
    ("check.verify_share", "ratio");
    ("evaluate.evaluations", "count");
    ("evaluate.loop_cache_hit_ratio", "ratio");
    ("evaluate.suite_cache_hit_ratio", "ratio");
    ("evaluate.useful_ratio", "ratio");
    ("evaluate.self_s", "s");
    ("study.self_s", "s");
    ("store.open_s", "s");
    ("store.hit_ratio", "ratio");
    ("store.appended", "count");
    ("store.append_ms", "ms");
    ("pool.busy_s", "s");
    ("pool.idle_s", "s");
    ("pool.tasks", "count");
    ("pool.queue_depth_max", "count");
    ("serve.rtt_hit_ms", "ms");
    ("serve.rtt_store_ms", "ms");
    ("serve.rtt_fresh_ms", "ms");
    ("serve.protocol_us", "us");
    ("serve.coalesced", "count");
    ("serve.shed", "count");
    ("serve.gen_late_p99_ms", "ms");
    ("serve.lat_p50_ms", "ms");
    ("serve.lat_p99_ms", "ms");
    ("serve.capacity_rps", "1/s");
    ("serve.backlog_grew", "count");
    ("gc.minor_gwords", "Gwords");
    ("gc.major_gwords", "Gwords");
    ("gc.major_collections", "count");
    ("gc.top_heap_mwords", "Mwords");
    ("obs.overhead_pct", "%");
  ]

type values = (string, float) Hashtbl.t

let create () : values = Hashtbl.create 64

let set (v : values) name x =
  if not (List.mem_assoc name table) then invalid_arg ("Layers.set: unknown metric " ^ name);
  Hashtbl.replace v name x

let emit (v : values) (r : Util.result) =
  List.iter
    (fun (name, unit) -> Util.metric r name (Option.value ~default:0.0 (Hashtbl.find_opt v name)) unit)
    table

(* What a traced pipeline run's spans and counters say about each layer.
   [counter] reads the merged deterministic counters, [count] the number
   of spans of a name; [points] is how many points the run answered,
   [study_s] the traced wall time of the timed work. *)
let of_pipeline v ~self ~counter ~count ~points ~study_s =
  let f = float_of_int in
  let ratio h m = Util.ratio (counter h) (counter h + counter m) in
  set v "widen.calls" (f (count "widen"));
  set v "widen.self_s" (self "widen");
  set v "sched.probes" (f (counter "driver/probes"));
  set v "sched.attempts" (f (counter "sched/attempts"));
  set v "sched.placements" (f (counter "sched/placements"));
  set v "sched.evictions" (f (counter "sched/evictions"));
  set v "sched.self_s" (self "sched/modulo");
  set v "regalloc.alloc_self_s" (self "alloc");
  set v "regalloc.spill_self_s" (self "spill/apply" +. self "driver/spill_loop");
  set v "regalloc.escalate_self_s" (self "driver/escalate");
  set v "regalloc.spill_rounds" (f (count "spill/apply"));
  set v "regalloc.spill_ops_added" (f (counter "spill/stores_added" + counter "spill/loads_added"));
  set v "exact.nodes" (f (counter "exact/nodes"));
  set v "exact.timeouts" (f (counter "gap/timeout"));
  set v "exact.self_s" (self "exact/solve" +. self "search/min_ii");
  set v "check.verify_self_s" (self "verify");
  set v "check.verify_share" (if study_s > 0.0 then self "verify" /. study_s else 0.0);
  set v "evaluate.evaluations" (f (counter "eval/evaluations"));
  set v "evaluate.loop_cache_hit_ratio" (ratio "eval/loop_cache_hits" "eval/loop_cache_misses");
  set v "evaluate.suite_cache_hit_ratio" (ratio "eval/suite_cache_hits" "eval/suite_cache_misses");
  set v "evaluate.useful_ratio" (Util.ratio points (counter "eval/evaluations"));
  let sum names = List.fold_left (fun acc n -> acc +. self n) 0.0 names in
  set v "evaluate.self_s" (sum [ "eval/suite"; "eval/loop" ]);
  set v "study.self_s" (sum [ "bench/study"; "gap/run"; "gap/point"; "pool/task" ])

(* Pool lanes: busy/idle nanoseconds, tasks run, deepest queue seen. *)
let of_pool v ~busy_ns ~idle_ns ~tasks ~depth_max =
  set v "pool.busy_s" (float_of_int busy_ns /. 1e9);
  set v "pool.idle_s" (float_of_int idle_ns /. 1e9);
  set v "pool.tasks" (float_of_int tasks);
  set v "pool.queue_depth_max" (float_of_int depth_max)

let of_snapshot_pool v (s : Obs.snapshot) =
  let sum name =
    List.fold_left
      (fun acc l -> acc + Option.value ~default:0 (List.assoc_opt name l.Obs.lane_counters))
      0 s.Obs.lanes
  in
  let depth_max =
    List.fold_left
      (fun acc l ->
        match List.assoc_opt "pool/queue_depth" l.Obs.lane_histograms with
        | Some h -> List.fold_left (fun a (value, _) -> max a value) acc h
        | None -> acc)
      0 s.Obs.lanes
  in
  of_pool v ~busy_ns:(sum "pool/busy_ns") ~idle_ns:(sum "pool/idle_ns") ~tasks:(sum "pool/tasks_run")
    ~depth_max

let of_gc v (g0 : Gc.stat) (g1 : Gc.stat) =
  set v "gc.minor_gwords" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e9);
  set v "gc.major_gwords" ((g1.Gc.major_words -. g0.Gc.major_words) /. 1e9);
  set v "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  set v "gc.top_heap_mwords" (float_of_int g1.Gc.top_heap_words /. 1e6)
