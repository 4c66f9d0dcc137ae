(* The serve workload: an open-loop stream of eval requests against a
   [widening-cli serve --jobs 1] child on a store pre-filled by an
   earlier, untimed process.

   The mix is 70 % hot points (answered from the server's memo), 20 %
   warm points (in the store, not yet in memory) and 10 % cold points
   (full pipeline plus an fsync'd store append); 3 % of cold requests
   are followed back-to-back by a duplicate, which the server coalesces.
   One process sends, with at most two requests in flight; each request
   is timed from the moment it was due, so a stall also charges the
   requests queued behind it. *)

module J = Core.Bench_schema
module P = Wr_serve.Protocol
module Client = Wr_serve.Client
module Config = Wr_machine.Config
module Evaluate = Core.Evaluate
module Rng = Wr_util.Rng

type kind = Hot | Warm | Cold | Dup

type req = { due : float; kind : kind; line : string }

type plan = {
  hot : string array;  (** sent once, untimed, before the measured phases *)
  warm : string list;  (** every warm point, for the pre-fill *)
  fixed : req array;  (** the fixed-rate phase *)
  steps : (int * req array) list;  (** the capacity search: offered rate, requests *)
}

(* Offered rate of the fixed-rate phase, requests per second: about a
   quarter of the capacity the search below finds on a 2-vCPU machine. *)
let fixed_rate = 500

(* The capacity search: the 99th-percentile limit a step must meet, and
   the offered rates it climbs. *)
let limit_ms = 25.0

let ladder = [ 500; 800; 1200; 1700; 2300; 3000 ]

let hot_points = 40

(* Phase lengths scale with the run: at 20 s the fixed-rate phase sends
   8000 requests, 800 of them cold. *)
let fixed_s seconds = float_of_int seconds *. 0.8

let step_s seconds = float_of_int seconds /. 25.0

let kind_tag = function Hot -> "hot" | Warm -> "warm" | Cold -> "cold" | Dup -> "dup"

(* Draw the whole request stream from the seed.  Points are (loop of the
   study suite, Figure 3 machine point) pairs.  Each class of request
   (hot, warm, cold) takes its points round-robin over the 37 machine
   points, and no point is handed out twice: a warm point is never
   already in memory, a cold point never already in the store, and every
   seed sees the same mix of machine points while the loops change.
   Hot and warm points take, for each machine point, the loops in a
   seeded order of their own.  Cold points, which carry nearly all of
   the server's work, walk one seeded order of all loops, so that the
   800 cold requests of a run are a sample of distinct loops (68 % of
   the suite) rather than independent draws.  (A free draw over all
   points moved the server's allocation by 12 % from seed to seed, and
   independent draws of cold loops per machine point still by 6–12 %,
   IQR over ten seeds.) *)
let plan ~seed ~seconds =
  let g = Batch.rng ~seed ~stream:4 in
  let configs =
    Array.of_list
      (Config.xwy ~registers:256 ~x:1 ~y:1 ()
      :: List.concat_map
           (fun (x, y) -> List.map (fun z -> Config.xwy ~registers:z ~x ~y ()) [ 32; 64; 128; 256 ])
           [ (2, 1); (1, 2); (4, 1); (2, 2); (1, 4); (8, 1); (4, 2); (2, 4); (1, 8) ])
  in
  let loops = 1180 and nc = Array.length configs in
  let order =
    Array.init nc (fun _ ->
        let a = Array.init loops Fun.id in
        Rng.shuffle g a;
        a)
  in
  let cold_order = Array.init loops Fun.id in
  Rng.shuffle g cold_order;
  let used = Array.make nc 0 and cold_used = ref 0 and id = ref 0 in
  let taken = Hashtbl.create 4096 in
  let line_of (c, index) =
    incr id;
    let c = configs.(c) in
    P.req_eval ~id:(Printf.sprintf "r%d" !id) ~registers:c.Config.registers ~suite:"full" ~index
      ~config:(Config.label c) ()
  in
  (* The next point of machine point [!turn mod nc] not handed out yet,
     taking its loop from [next]. *)
  let draw turn next =
    let c = !turn mod nc in
    incr turn;
    let rec go () =
      let i = next c in
      if Hashtbl.mem taken (c, i) then go ()
      else begin
        Hashtbl.replace taken (c, i) ();
        (c, i)
      end
    in
    go ()
  in
  let fresh turn =
    draw turn (fun c ->
        used.(c) <- used.(c) + 1;
        order.(c).(used.(c) - 1))
  in
  let fresh_cold turn =
    draw turn (fun _ ->
        incr cold_used;
        cold_order.((!cold_used - 1) mod loops))
  in
  let hot_turn = ref 0 and warm_turn = ref 0 and cold_turn = ref 0 in
  let hot = Array.init hot_points (fun _ -> fresh hot_turn) in
  let warm = ref [] in
  let requests ~rate ~duration =
    let n = int_of_float (float_of_int rate *. duration) in
    let out = ref [] in
    for i = 0 to n - 1 do
      let due = float_of_int i /. float_of_int rate in
      let u = Rng.float g 1.0 in
      if u < 0.7 then out := { due; kind = Hot; line = line_of (Rng.choose g hot) } :: !out
      else if u < 0.9 then begin
        let line = line_of (fresh warm_turn) in
        warm := line :: !warm;
        out := { due; kind = Warm; line } :: !out
      end
      else begin
        let k = fresh_cold cold_turn in
        out := { due; kind = Cold; line = line_of k } :: !out;
        if Rng.bernoulli g 0.03 then out := { due; kind = Dup; line = line_of k } :: !out
      end
    done;
    Array.of_list (List.rev !out)
  in
  let fixed = requests ~rate:fixed_rate ~duration:(fixed_s seconds) in
  let steps = List.map (fun rate -> (rate, requests ~rate ~duration:(step_s seconds))) ladder in
  { hot = Array.map line_of hot; warm = List.rev !warm; fixed; steps }

let stream_text ~seed ~seconds =
  let p = plan ~seed ~seconds in
  let b = Buffer.create (1 lsl 20) in
  Array.iter (fun l -> Printf.bprintf b "warmup %s\n" l) p.hot;
  let phase name reqs =
    Array.iter (fun r -> Printf.bprintf b "%s %.6f %s %s\n" name r.due (kind_tag r.kind) r.line) reqs
  in
  phase "fixed" p.fixed;
  List.iter (fun (rate, reqs) -> phase (Printf.sprintf "rate%d" rate) reqs) p.steps;
  Buffer.contents b

let point_of_line line =
  match P.parse_request line with
  | Ok { P.req = P.Eval p; _ } -> p
  | _ -> failwith ("perfbench: not an eval request: " ^ line)

let evaluate_point (p : P.point) =
  let loop = (Wr_workload.Suite.perfect_club_like ()).(p.P.index) in
  Evaluate.loop_on p.P.config ~cycle_model:p.P.cycle_model ~registers:p.P.registers loop

(* The untimed pre-fill: evaluate every hot and warm point into the store
   through the same cache the server uses. *)
let prefill ~store ~seed ~seconds =
  let p = plan ~seed ~seconds in
  ignore (Evaluate.attach_store store);
  let loops = Wr_workload.Suite.perfect_club_like () in
  List.iter
    (fun line ->
      let pt = point_of_line line in
      ignore
        (Evaluate.loop_cached ~suite_id:pt.P.suite ~index:pt.P.index pt.P.config
           ~cycle_model:pt.P.cycle_model ~registers:pt.P.registers loops.(pt.P.index)))
    (Array.to_list p.hot @ p.warm);
  Evaluate.detach_store ()

(* --- the server child -------------------------------------------------- *)

type child = { pid : int; sock : string; err : string }

let spawned = ref 0

let spawn ~cli ~store extra =
  incr spawned;
  let sock = Printf.sprintf "s%d.sock" !spawned and err = Printf.sprintf "server%d.err" !spawned in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  (* v=0x400 makes the runtime print its GC totals on exit: the server's
     allocated words. *)
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let argv = Array.of_list ([ cli; "serve"; "--socket"; sock; "--store"; store; "--jobs"; "1" ] @ extra) in
  let pid = Unix.create_process_env cli argv env devnull devnull errfd in
  Unix.close errfd;
  Unix.close devnull;
  { pid; sock; err }

let target c = `Unix c.sock

let reply_ok line =
  match J.parse line with
  | Ok j -> ( match J.member "ok" j with Some (J.Bool true) -> Some j | _ -> None)
  | Error _ -> None

(* Poll health until the first good reply; gives up after 60 s. *)
let wait_healthy c =
  let deadline = Util.now () +. 60.0 in
  let rec go () =
    match Client.round_trip (target c) ~timeout_ms:1000 (P.req_health ()) with
    | Ok line when reply_ok line <> None -> ()
    | _ ->
        if Util.now () > deadline then failwith "perfbench: server never became healthy";
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

(* The fields of a health reply (its [result] object). *)
let health c =
  match Client.round_trip (target c) ~timeout_ms:5000 (P.req_health ()) with
  | Ok line -> Option.value ~default:J.Null (Option.bind (reply_ok line) (J.member "result"))
  | Error _ -> J.Null

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (fun v -> path v rest)

let health_int h keys = Option.value ~default:0 (Option.bind (path h keys) J.to_int)

let stop c =
  ignore (Client.round_trip (target c) ~timeout_ms:5000 (P.req_shutdown ()));
  ignore (Unix.waitpid [] c.pid)

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ()

(* The runtime's exit report: "name: value" lines on the child's stderr. *)
let exit_gc c =
  let text = try In_channel.with_open_text c.err In_channel.input_all with Sys_error _ -> "" in
  fun key ->
    List.find_map
      (fun l ->
        match Scanf.sscanf_opt l " %s@: %f" (fun k v -> (k, v)) with
        | Some (k, v) when k = key -> Some v
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0.0

(* --- the open-loop sender ---------------------------------------------- *)

type outcome = {
  req : req;
  late : float;  (** seconds the sender started after the due time *)
  lat : float;  (** due time to reply *)
  rtt : float;  (** send to reply *)
  reply : J.json option;  (** the parsed reply when it was ok *)
  done_at : float;
}

let send_phase c reqs =
  let n = Array.length reqs in
  let results = Array.make n None in
  let next = ref 0 and m = Mutex.create () in
  let start = Util.now () +. 0.01 in
  let worker () =
    let rec loop () =
      Mutex.lock m;
      let i = !next in
      incr next;
      Mutex.unlock m;
      if i < n then begin
        let r = reqs.(i) in
        let due = start +. r.due in
        let wait = due -. Util.now () in
        if wait > 0.0 then Thread.delay wait;
        let sent = Util.now () in
        let reply =
          match Client.round_trip (target c) ~timeout_ms:10_000 r.line with
          | Ok line -> reply_ok line
          | Error _ -> None
        in
        let fin = Util.now () in
        results.(i) <-
          Some { req = r; late = sent -. due; lat = fin -. due; rtt = fin -. sent; reply; done_at = fin };
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create worker ()));
  (start, Array.map Option.get results)

let ms = List.map (fun x -> x *. 1e3)

let failed o =
  match o.reply with
  | None -> true
  | Some j -> ( match J.member "degraded" j with Some (J.Bool true) -> true | _ -> false)

let failures outs = Array.fold_left (fun a o -> if failed o then a + 1 else a) 0 outs

let source o = Option.bind o.reply (fun j -> Option.bind (J.member "source" j) J.to_str)

(* A capacity step passes when nothing failed, the 99th percentile stays
   within the limit, and the sender's lateness did not grow from the
   first quarter of the step to the last (a growing backlog). *)
let judge_step outs =
  let n = Array.length outs in
  let q = max 1 (n / 4) in
  let late_of a = Util.median (ms (Array.to_list (Array.map (fun o -> o.late) a))) in
  let grew = late_of (Array.sub outs (n - q) q) > late_of (Array.sub outs 0 q) +. 5.0 in
  let p99 = Util.pct (ms (Array.to_list (Array.map (fun o -> o.lat) outs))) 99.0 in
  let fails = failures outs in
  (fails = 0 && p99 <= limit_ms && not grew, p99, grew, fails)

(* --- checks and layer figures ------------------------------------------ *)

(* A seeded sample of replies must match an in-process evaluation of the
   same point, byte for byte in the protocol rendering. *)
let check_replies r ~seed outs =
  let ok = Array.of_list (List.filter (fun o -> not (failed o)) (Array.to_list outs)) in
  let g = Batch.rng ~seed ~stream:5 in
  let n = min 30 (Array.length ok) in
  let bad = ref 0 in
  for _ = 1 to n do
    let o = Rng.choose g ok in
    let expected = J.to_string (P.result_json (evaluate_point (point_of_line o.req.line))) in
    let got = Option.map J.to_string (Option.bind o.reply (J.member "result")) in
    if got <> Some expected then incr bad
  done;
  Util.tally r ~what:"sampled replies equal in-process Evaluate.loop_on" n !bad

(* Parse + render cost of the protocol on this stream's own lines. *)
let protocol_us (reqs : req array) =
  let res = evaluate_point (point_of_line reqs.(0).line) in
  let reps = 20 in
  let t0 = Util.now () in
  for _ = 1 to reps do
    Array.iter
      (fun r ->
        match P.parse_request r.line with
        | Ok { P.id; _ } ->
            ignore (P.eval_reply ~id ~source:"memo" ~degraded:false ~coalesced:false res)
        | Error _ -> ())
      reqs
  done;
  (Util.now () -. t0) /. float_of_int (reps * Array.length reqs) *. 1e6

(* Appending one entry to a fresh store and forcing it to disk, as the
   server does after each fresh evaluation. *)
let store_append_ms res =
  let st, _ = Core.Store.open_dir "append-probe" in
  let e =
    {
      Core.Store.hash = 0L;
      ii = res.Evaluate.ii;
      cycles_bits = Int64.bits_of_float res.Evaluate.cycles;
      required_regs = res.Evaluate.required_regs;
      spill_stores = res.Evaluate.spill_stores;
      spill_loads = res.Evaluate.spill_loads;
      spill_rounds = res.Evaluate.spill_rounds;
      pipelined = res.Evaluate.pipelined;
      mii = res.Evaluate.mii;
      trip_count = res.Evaluate.trip_count;
    }
  in
  let times =
    List.init 50 (fun i ->
        snd
          (Util.timed (fun () ->
               Core.Store.add st { e with Core.Store.hash = Int64.of_int (i + 1) };
               Core.Store.flush st)))
  in
  Core.Store.close st;
  Util.median (ms times)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      if Sys.is_regular_file s && not (String.ends_with ~suffix:".lock" f) then
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            Out_channel.output_string oc (In_channel.with_open_bin s In_channel.input_all)))
    (Sys.readdir src)

(* Server-side layers from the traced child's metrics and trace files. *)
let server_layers v ~metrics ~trace ~answered =
  let m = match J.load_file metrics with Ok j -> j | Error _ -> J.Null in
  let counter n = Option.value ~default:0 (Option.bind (path m [ "counters"; n ]) J.to_int) in
  let count n = Option.value ~default:0 (Option.bind (path m [ "spans"; n; "count" ]) J.to_int) in
  let self = Layers.self_times (Layers.of_trace_file trace) in
  Layers.of_pipeline v ~self ~counter ~count ~points:answered ~study_s:0.0;
  let lanes = match J.member "runtime" m with Some (J.List l) -> l | _ -> [] in
  let lane_sum n =
    List.fold_left
      (fun a l -> a + Option.value ~default:0 (Option.bind (path l [ "counters"; n ]) J.to_int))
      0 lanes
  in
  let depth_max =
    List.fold_left
      (fun a l ->
        match path l [ "histograms"; "pool/queue_depth" ] with
        | Some (J.List bins) ->
            List.fold_left
              (fun a b -> max a (Option.value ~default:0 (Option.bind (J.member "value" b) J.to_int)))
              a bins
        | _ -> a)
      0 lanes
  in
  Layers.of_pool v ~busy_ns:(lane_sum "pool/busy_ns") ~idle_ns:(lane_sum "pool/idle_ns")
    ~tasks:(lane_sum "pool/tasks_run") ~depth_max

(* --- the run ------------------------------------------------------------- *)

let run ~seed ~seconds ~trace ~cli =
  let r = Util.result () in
  let p, generate_s = Util.timed (fun () -> plan ~seed ~seconds) in
  let self_exe = Sys.executable_name in
  let prefill =
    Unix.create_process self_exe
      [| self_exe; "prefill"; "--store"; "store"; "--seed"; string_of_int seed; "--seconds";
         string_of_int seconds |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (match Unix.waitpid [] prefill with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "perfbench: store pre-fill failed");
  if trace then copy_dir "store" "store-traced";
  let store_open_s =
    snd (Util.median_of_runs 3 (fun () -> Core.Store.close (fst (Core.Store.open_dir "store"))))
  in
  let live = ref [] in
  let start extra store =
    let c = spawn ~cli ~store extra in
    live := c :: !live;
    let (), t = Util.timed (fun () -> wait_healthy c) in
    (c, t)
  in
  let stop c =
    stop c;
    live := List.filter (fun d -> d.pid <> c.pid) !live
  in
  let warm_up c = Array.iter (fun l -> ignore (Client.round_trip (target c) ~timeout_ms:10_000 l)) p.hot in
  Fun.protect ~finally:(fun () -> List.iter kill !live) @@ fun () ->
  (* Set up 21 times; the last server stays up for the fixed-rate
     phase. *)
  let setups = List.init 20 (fun _ -> let c, t = start [] "store" in stop c; t) in
  let c, last = start [] "store" in
  let setup_s = Util.median (last :: setups) in
  warm_up c;
  let t0, fixed = send_phase c p.fixed in
  let h = health c in
  let peak_rss = Util.peak_rss_mb ~pid:(string_of_int c.pid) () in
  stop c;
  let gc = exit_gc c in
  let wall_s = Array.fold_left (fun a o -> max a o.done_at) t0 fixed -. t0 in
  Util.tally r ~what:"fixed-rate replies ok" (Array.length fixed) (failures fixed);
  (* The capacity search runs on a server of its own, so its variable
     length moves none of the figures above.  Climb the ladder until a
     step fails. *)
  let cs, _ = start [] "store" in
  warm_up cs;
  let rec climb best = function
    | [] -> (best, false)
    | (rate, reqs) :: rest ->
        let _, outs = send_phase cs reqs in
        let pass, p99, grew, fails = judge_step outs in
        Util.tally r ~what:(Printf.sprintf "capacity step %d/s replies ok" rate) (Array.length outs) fails;
        Util.info r (Printf.sprintf "step_%d_rps" rate)
          (J.Obj [ ("p99_ms", Util.num p99); ("backlog_grew", J.Bool grew) ]);
        if pass then climb rate rest else (best, grew)
  in
  let capacity, grew = climb 0 p.steps in
  stop cs;
  let ok = List.filter (fun o -> not (failed o)) (Array.to_list fixed) in
  (* Decided share over distinct points, so the 40 hot points count once. *)
  let points = Hashtbl.create 4096 in
  List.iter
    (fun o ->
      let pt = point_of_line o.req.line in
      let key = (pt.P.index, Config.label pt.P.config, pt.P.registers) in
      match Option.bind o.reply (J.member "result") with
      | Some res -> Hashtbl.replace points key (J.member "ii" res = J.member "mii" res)
      | None -> ())
    ok;
  let decided = Hashtbl.fold (fun _ d a -> if d then a + 1 else a) points 0 in
  check_replies r ~seed fixed;
  let lat = ms (Array.to_list (Array.map (fun o -> o.lat) fixed)) in
  let lat_p50 = Util.pct lat 50.0 and lat_p99 = Util.pct lat 99.0 in
  let late_p99 = Util.pct (ms (Array.to_list (Array.map (fun o -> o.late) fixed))) 99.0 in
  Util.reported r "lat_p50_ms" lat_p50 "ms";
  Util.reported r "lat_p99_ms" lat_p99 "ms";
  Util.reported r "capacity_rps" (float_of_int capacity) "1/s";
  Util.info r "requests" (J.int (Array.length fixed));
  Util.info r "capacity_backlog_grew" (J.Bool grew);
  Util.info r "gen_late_p99_ms" (Util.num late_p99);
  if not trace then begin
    Util.metric r "setup_s" setup_s "s";
    (* The fixed-rate phase is paced by its schedule, not by the
       machine's speed, so its wall time is not scaled. *)
    Util.metric r "wall_norm_s" wall_s "s";
    Util.metric r "alloc_gwords" (gc "allocated_words" /. 1e9) "Gwords";
    Util.metric r "peak_rss_mb" peak_rss "MB";
    Util.metric r "ok_share" (1.0 -. Util.ratio r.Util.failed r.Util.attempted) "ratio";
    Util.metric r "decided_share" (Util.ratio decided (Hashtbl.length points)) "ratio"
  end
  else begin
    let v = Layers.create () in
    let rtt src =
      Util.median (ms (List.filter_map (fun o -> if source o = Some src then Some o.rtt else None) ok))
    in
    Layers.set v "workload.generate_s" generate_s;
    Layers.set v "store.open_s" store_open_s;
    Layers.set v "store.hit_ratio"
      (Util.ratio (health_int h [ "store"; "hits" ])
         (health_int h [ "store"; "hits" ] + health_int h [ "store"; "misses" ]));
    Layers.set v "store.appended" (float_of_int (health_int h [ "store"; "appended" ]));
    Layers.set v "serve.rtt_hit_ms" (rtt "memo");
    Layers.set v "serve.rtt_store_ms" (rtt "store");
    Layers.set v "serve.rtt_fresh_ms" (rtt "fresh");
    Layers.set v "serve.coalesced" (float_of_int (health_int h [ "coalesced" ]));
    Layers.set v "serve.shed" (float_of_int (health_int h [ "shed" ]));
    Layers.set v "serve.lat_p50_ms" lat_p50;
    Layers.set v "serve.lat_p99_ms" lat_p99;
    Layers.set v "serve.gen_late_p99_ms" late_p99;
    Layers.set v "serve.capacity_rps" (float_of_int capacity);
    Layers.set v "serve.backlog_grew" (if grew then 1.0 else 0.0);
    Layers.set v "gc.minor_gwords" (gc "minor_words" /. 1e9);
    Layers.set v "gc.major_gwords" (gc "major_words" /. 1e9);
    Layers.set v "gc.major_collections" (gc "major_collections");
    Layers.set v "gc.top_heap_mwords" (gc "top_heap_words" /. 1e6);
    Layers.set v "serve.protocol_us" (protocol_us p.fixed);
    (match ok with o :: _ -> Layers.set v "store.append_ms" (store_append_ms (evaluate_point (point_of_line o.req.line))) | [] -> ());
    (* The traced pass: the same fixed-rate phase against a server with
       Wr_obs on, started on an untouched copy of the pre-filled store. *)
    let tc, _ = start [ "--metrics"; "metrics.json"; "--trace"; "trace.json" ] "store-traced" in
    warm_up tc;
    let _, traced = send_phase tc p.fixed in
    stop tc;
    Util.tally r ~what:"traced fixed-rate replies ok" (Array.length traced) (failures traced);
    let answered = Array.length p.hot + Array.length traced in
    server_layers v ~metrics:"metrics.json" ~trace:"trace.json" ~answered;
    let busy a = Array.fold_left (fun s o -> s +. o.rtt) 0.0 a in
    Layers.set v "obs.overhead_pct" (100.0 *. busy traced /. busy fixed);
    Layers.emit v r
  end;
  r
