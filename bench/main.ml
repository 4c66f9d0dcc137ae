(* Benchmark harness: regenerates every table and figure of the paper
   and times the computational core of each experiment with Bechamel.

   Usage:
     dune exec bench/main.exe                 -- all experiments, full suite
     dune exec bench/main.exe fig3            -- one experiment
     dune exec bench/main.exe all -s 200      -- subsampled suite (faster)
     dune exec bench/main.exe all --no-timing -- skip the Bechamel runs
     dune exec bench/main.exe fig3 --jobs 4   -- evaluation pool of 4 domains
     dune exec bench/main.exe parspeed        -- sequential-vs-parallel wall time
     dune exec bench/main.exe all --json BENCH.json   -- machine-readable timings
     dune exec bench/main.exe -- --help       -- every mode and option

   The run options (-s, --jobs, --store, --verify, ...) and the figure
   and study experiments are shared with widening-cli (lib/run); this
   file adds the engine modes, Bechamel timing, and the ledger and
   artifact tools. *)

open Bechamel
open Toolkit
open Cmdliner

module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module B = Core.Bench_schema

(* ------------------------------------------------------------------ *)
(* Ledger and schema tools: [report] renders one run's ledger as a
   dashboard; [diff] joins two ledgers (or two BENCH_*.json artifacts
   of the same kind) and exits 2 iff a regression-class divergence
   survives the threshold; [validate] checks BENCH artifacts against
   the wr-bench/2 envelope. *)

let report path =
  match Core.Provenance.load path with
  | Ok records ->
      print_string (Core.Observatory.report records);
      0
  | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      2

let diff_threshold threshold =
  (* WR_DIFF_THRESHOLD sets the default; an explicit --threshold wins.
     Both are percentages, and malformed values warn once and fall
     back rather than silently gating on 0. *)
  let default = Wr_util.Env.float ~min:0.0 ~default:0.0 "WR_DIFF_THRESHOLD" in
  match threshold with
  | None -> default
  | Some v -> (
      match float_of_string_opt (String.trim v) with
      | Some t when t >= 0.0 -> t
      | _ ->
          Wr_util.Env.warn_invalid ~name:"--threshold" ~value:v
            ~expected:"a non-negative percentage"
            ~default:(Printf.sprintf "%g" default);
          default)

let load_any path =
  (* Ledgers and bench artifacts are both strict JSON; dispatch on
     which loader accepts the file. *)
  match Core.Provenance.load path with
  | Ok records -> `Ledger records
  | Error ledger_err -> (
      match Core.Bench_schema.load_file path with
      | Ok j -> `Bench j
      | Error bench_err ->
          Printf.eprintf "%s: neither a ledger (%s) nor a bench artifact (%s)\n" path
            ledger_err bench_err;
          exit 2)

let diff old_path new_path threshold =
  let threshold_pct = diff_threshold threshold in
  let ds =
    match (load_any old_path, load_any new_path) with
    | `Ledger o, `Ledger n -> Core.Observatory.diff ~threshold_pct o n
    | `Bench o, `Bench n -> (
        match Core.Observatory.diff_bench ~threshold_pct o n with
        | Ok ds -> ds
        | Error msg ->
            Printf.eprintf "diff: %s\n" msg;
            exit 2)
    | _ ->
        Printf.eprintf "diff: %s and %s are not artifacts of the same kind\n" old_path new_path;
        exit 2
  in
  print_string (Core.Observatory.render_diff ds);
  if Core.Observatory.has_regressions ds then 2 else 0

let validate paths =
  List.fold_left
    (fun code path ->
      match Result.bind (Core.Bench_schema.load_file path) Core.Bench_schema.validate with
      | Ok kind ->
          Printf.printf "%s: ok (%s, kind %s)\n" path Core.Bench_schema.version kind;
          code
      | Error msg ->
          Printf.printf "%s: INVALID — %s\n" path msg;
          2)
    0 paths

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)

(* The harness's own flags; the run options are a [Run.t]. *)
type flags = {
  timing : bool;
  csv_dir : string option;
  json : string option;
  cases : int;
  fuzz_seed : int64;
  backend_diff : bool;
}

(* --json collects per-experiment wall times and Bechamel estimates so
   the perf trajectory can be tracked across commits (BENCH_*.json). *)
let wall_times : (string * float) list ref = ref []

(* Failures detected mid-run (simulation mismatches, fuzz oracle
   violations, determinism breaks) defer the exit-2 to process end so
   the run's trace, metrics, and ledger still get written first. *)
let deferred_failures : string list ref = ref []

let defer_failure msg = deferred_failures := msg :: !deferred_failures

let bechamel_estimates : (string * float) list ref = ref []

let record_wall id seconds = wall_times := (id, seconds) :: !wall_times

let write_json path opts (suite : Run.suite) =
  let entries key (field, fmt) l =
    let entry (name, v) =
      B.Obj [ (key, B.str name); (field, B.float ~fmt:(Printf.sprintf fmt) v) ]
    in
    B.List (List.rev_map entry l)
  in
  B.write_file path
    (B.Obj
       [
         ("suite", B.str suite.Run.id);
         ("loops", B.int (Array.length suite.Run.loops));
         ("jobs", B.int (Run.jobs opts));
         ("experiments", entries "id" ("wall_s", "%.3f") !wall_times);
         ("bechamel", entries "name" ("ms_per_run", "%.6f") !bechamel_estimates);
       ]);
  Printf.printf "[json] wrote %s\n%!" path

(* CSV export: one file per table, for downstream plotting. *)
let write_csv flags (t : Run.table) =
  match flags.csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (t.Run.name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Core.Csv_export.to_string ~header:t.Run.header t.Run.rows));
      Printf.printf "  [csv] wrote %s (%d rows)\n%!" path (List.length t.Run.rows)

let fresh_suite_id =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "bench-%d" !counter

(* ------------------------------------------------------------------ *)
(* Bechamel                                                            *)

let time_test name staged =
  let test = Test.make ~name (Staged.stage staged) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun key o ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) ->
          bechamel_estimates := (key, est /. 1e6) :: !bechamel_estimates;
          Printf.printf "  [bechamel] %s: %.3f ms/run\n%!" key (est /. 1e6)
      | _ -> Printf.printf "  [bechamel] %s: no estimate\n%!" key)
    results

(* The timed core of each experiment, on a small fixed slice: big
   enough to exercise the machinery, small enough for sub-second
   Bechamel quotas. *)
let time_experiment id =
  let timing_loops = Wr_workload.Suite.sample 30 in
  (match id with
  | "table1" -> time_test "table1/render" (fun () -> Core.Cost_tables.table1 ())
  | "table6" -> time_test "table6/render" (fun () -> Core.Cost_tables.table6 ())
  | "table2" ->
      time_test "table2/cell-model" (fun () ->
          List.iter
            (fun ((r, w), _) -> ignore (Wr_cost.Register_cell.area ~reads:r ~writes:w))
            Wr_cost.Register_cell.paper_table)
  | "table3" | "fig4" ->
      time_test "area-model/grid" (fun () ->
          List.iter
            (fun c -> ignore (Wr_cost.Area.total_area c))
            (Config.paper_grid ~max_factor:16 ~registers:[ 32; 64; 128; 256 ]))
  | "table4" ->
      time_test "access-time/grid" (fun () ->
          List.iter
            (fun c -> ignore (Wr_cost.Access_time.relative c))
            (Config.paper_grid ~max_factor:16 ~registers:[ 32; 64; 128; 256 ]))
  | "table5" ->
      time_test "table5/implementability" (fun () -> ignore (Core.Implementability.run ()))
  | "fig2" ->
      time_test "fig2/peak-rates-30-loops" (fun () ->
          ignore (Core.Peak_study.run ~max_factor:16 timing_loops))
  | "fig3" ->
      time_test "fig3/pipeline-4w2-64-30-loops" (fun () ->
          ignore
            (Core.Evaluate.suite_on ~suite_id:(fresh_suite_id ())
               (Config.xwy ~registers:64 ~x:4 ~y:2 ())
               ~cycle_model:Cycle_model.Cycles_4 ~registers:64 timing_loops))
  | "fig6" ->
      time_test "fig6/partition-model" (fun () ->
          List.iter
            (fun n ->
              let c = Config.xwy ~registers:64 ~partitions:n ~x:8 ~y:1 () in
              ignore (Wr_cost.Area.rf_area c);
              ignore (Wr_cost.Access_time.raw_time c))
            [ 1; 2; 4; 8 ])
  | "fig7" ->
      time_test "fig7/code-size-30-loops" (fun () ->
          ignore (Core.Code_size_study.run ~suite_id:(fresh_suite_id ()) timing_loops))
  | "fig8" | "fig9" | "conclusion" ->
      time_test (id ^ "/tradeoff-point-30-loops") (fun () ->
          ignore
            (Core.Tradeoff.evaluate ~suite_id:(fresh_suite_id ()) timing_loops
               (Config.xwy ~registers:128 ~partitions:2 ~x:2 ~y:2 ())))
  | "endtoend" ->
      time_test "endtoend/sim-daxpy-2w2-100-iters" (fun () ->
          match
            Wr_vliw.Sim.check_against_reference
              (Wr_workload.Kernels.daxpy ())
              (Config.xwy ~x:2 ~y:2 ())
              ~iterations:100
          with
          | Ok _ -> ()
          | Error msg -> failwith msg)
  | "ablation-rotating" ->
      time_test "ablation/mve-allocate-30-loops" (fun () ->
          Array.iter
            (fun (loop : Wr_ir.Loop.t) ->
              let r =
                Wr_sched.Modulo.run
                  (Wr_machine.Resource.of_config (Config.xwy ~x:2 ~y:1 ()))
                  ~cycle_model:Cycle_model.Cycles_4 loop.Wr_ir.Loop.ddg
              in
              ignore
                (Wr_vliw.Codegen.allocate loop.Wr_ir.Loop.ddg r.Wr_sched.Modulo.schedule))
            timing_loops)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* Engine modes: checks and microbenchmarks of the engine itself, not
   figures of the paper.                                               *)

let paper_note s = print_string ("NOTE: " ^ s ^ "\n")

(* The first [n] items by descending [metric]; the sort is stable, so
   ties keep suite order and the selection is deterministic. *)
let top n metric items =
  List.filteri (fun i _ -> i < n)
    (List.stable_sort (fun a b -> compare (metric b) (metric a)) items)

(* A wr-bench/2 artifact, written to the working directory. *)
let write_artifact path kind fields =
  B.write_file path (B.envelope ~kind fields);
  Printf.printf "[json] wrote %s\n%!" path

let engine_modes =
  [
    ("endtoend", "Simulate schedules cycle by cycle against the reference interpreter.");
    ("gap", "HRMS-vs-optimal II gap study; writes BENCH_gap.json.");
    ("parspeed", "Time fig3 and fig9 at 1 and N jobs and check the outputs are identical.");
    ("schedmicro", "Modulo-scheduler microbenchmark; writes BENCH_sched.json.");
    ("interpmicro", "Interpreter microbenchmark; writes BENCH_interp.json.");
    ("fuzz", "Seeded cases through every oracle ($(b,--backend-diff): heuristic vs exact).");
    ("profile", "Per-stage telemetry breakdown of the fig3 pipeline.");
  ]

let run_engine opts flags (suite : Run.suite) = function
  | "endtoend" ->
      (* Cycle-level validation: schedule + MVE allocation + simulation
         against the reference interpreter, bit for bit. *)
      let sample = Wr_workload.Suite.sample 60 in
      let configs = [ (1, 1); (2, 2); (4, 2); (2, 4) ] in
      let checked = ref 0 and failed = ref 0 in
      Array.iter
        (fun loop ->
          List.iter
            (fun (x, y) ->
              incr checked;
              match
                Wr_vliw.Sim.check_against_reference loop (Config.xwy ~x ~y ()) ~iterations:5
              with
              | Ok _ -> ()
              | Error msg ->
                  incr failed;
                  Printf.printf "  MISMATCH %s on %dw%d: %s\n" loop.Wr_ir.Loop.name x y msg)
            configs)
        sample;
      Printf.printf
        "End-to-end validation: %d (loop, config) points simulated cycle-by-cycle, %d \
         mismatches against the reference interpreter.\n"
        !checked !failed;
      if !failed > 0 then
        defer_failure (Printf.sprintf "endtoend: %d simulation mismatch(es)" !failed);
      paper_note
        "Beyond the paper: every schedule is executed on a cycle-level simulator with MVE \
         register assignment and compared bit-for-bit with sequential semantics."
  | "gap" ->
      (* HRMS-vs-optimal study: the exact branch-and-bound backend
         refines the heuristic schedule of every (family, loop, config)
         point and reports the II gap.  BENCH_gap.json is always
         written so CI can assert gap >= 0 on every row and that at
         least one point was proved optimal. *)
      let families = Wr_workload.Suite.families_for ~sample:suite.Run.sample in
      let t0 = Unix.gettimeofday () in
      let t = Core.Gap_study.run families in
      let wall = Unix.gettimeofday () -. t0 in
      print_string (Core.Gap_study.to_text t);
      write_csv flags
        { Run.name = "gap"; header = Core.Csv_export.gap_header;
          rows = Core.Csv_export.gap_rows t };
      write_artifact "BENCH_gap.json" "gap"
        [
          ("suite", B.str suite.Run.id);
          ("points", B.int t.Core.Gap_study.points);
          ("proved_optimal", B.int t.Core.Gap_study.proved_optimal);
          ("improved", B.int t.Core.Gap_study.improved);
          ("timeout", B.int t.Core.Gap_study.fallback);
          ("gap_total", B.int t.Core.Gap_study.gap_total);
          ("max_gap", B.int t.Core.Gap_study.max_gap);
          ("nodes_total", B.int t.Core.Gap_study.nodes_total);
          ("wall_s", B.float ~fmt:(Printf.sprintf "%.3f") wall);
          ( "rows",
            B.List
              (List.map
                 (fun (r : Core.Gap_study.row) ->
                   B.Obj
                     [
                       ("family", B.str r.Core.Gap_study.family);
                       ("loop", B.str r.Core.Gap_study.loop_name);
                       ("config", B.str (Config.label_short r.Core.Gap_study.config));
                       ("ops", B.int r.Core.Gap_study.ops);
                       ("mii", B.int r.Core.Gap_study.mii);
                       ("heur_ii", B.int r.Core.Gap_study.heur_ii);
                       ("exact_ii", B.int r.Core.Gap_study.exact_ii);
                       ("gap", B.int r.Core.Gap_study.gap);
                       ( "status",
                         B.str (Core.Gap_study.status_string r.Core.Gap_study.status) );
                       ("nodes", B.int r.Core.Gap_study.nodes);
                       ("evictions", B.int r.Core.Gap_study.evictions);
                     ])
                 t.Core.Gap_study.rows) );
        ];
      record_wall "gap/study-total" wall;
      paper_note
        "Beyond the paper: branch-and-bound lower bounds on the II quantify how close the \
         HRMS-style heuristic sits to optimal on this workload."
  | "parspeed" ->
      (* Sequential-vs-parallel wall time of the two heaviest
         experiments, with an output-identity check: the speedup is
         measured, and the determinism contract verified, on every
         run.  Fresh suite ids + cache clears keep the memo table from
         leaking work between the timed runs. *)
      let par_jobs = Stdlib.max 1 (Run.jobs opts) and loops = suite.Run.loops in
      let timed_run jobs =
        Wr_util.Pool.set_default_jobs jobs;
        Core.Evaluate.clear_cache ();
        let sid = fresh_suite_id () in
        let t0 = Unix.gettimeofday () in
        let fig3 = Core.Spill_study.to_text (Core.Spill_study.run ~suite_id:sid loops) in
        let t1 = Unix.gettimeofday () in
        let fig9 = Core.Tradeoff.figure9_text (Core.Tradeoff.figure9 ~suite_id:sid loops) in
        let t2 = Unix.gettimeofday () in
        (fig3, fig9, t1 -. t0, t2 -. t1)
      in
      let s3, s9, seq3, seq9 = timed_run 1 in
      let p3, p9, par3, par9 = timed_run par_jobs in
      Wr_util.Pool.set_default_jobs par_jobs;
      record_wall "parspeed/fig3-jobs1" seq3;
      record_wall (Printf.sprintf "parspeed/fig3-jobs%d" par_jobs) par3;
      record_wall "parspeed/fig9-jobs1" seq9;
      record_wall (Printf.sprintf "parspeed/fig9-jobs%d" par_jobs) par9;
      Printf.printf "fig3: %.2fs with 1 job, %.2fs with %d jobs -> %.2fx\n" seq3 par3 par_jobs
        (seq3 /. Stdlib.max 1e-9 par3);
      Printf.printf "fig9: %.2fs with 1 job, %.2fs with %d jobs -> %.2fx\n" seq9 par9 par_jobs
        (seq9 /. Stdlib.max 1e-9 par9);
      let identical = String.equal s3 p3 && String.equal s9 p9 in
      Printf.printf "outputs bit-identical across pool sizes: %b\n" identical;
      if not identical then
        defer_failure "parspeed: sequential and parallel outputs differ!";
      paper_note
        (Printf.sprintf
           "Engine check: per-loop scheduling fans out over %d domain(s) \
            (Domain.recommended_domain_count %d on this machine); output is verified \
            bit-identical to the sequential engine."
           par_jobs
           (Domain.recommended_domain_count ()))
  | "schedmicro" ->
      (* Scheduler microbenchmark: Modulo.run alone — no widening, no
         register allocation, no study logic — on the suite loops that
         make the scheduler work hardest.  A ranking pass schedules
         every loop once at 4w2 and keeps the ~20 with the most
         placement steps; each survivor is then timed over [reps]
         repeated runs.  BENCH_sched.json records the per-loop wall
         times and the total so the scheduler's perf trajectory is
         tracked commit over commit. *)
      let config = Config.xwy ~x:4 ~y:2 () in
      let resource = Wr_machine.Resource.of_config config in
      let cm = Cycle_model.Cycles_4 in
      let top_n = 20 and reps = 10 in
      let ranked =
        Array.to_list
          (Array.mapi
             (fun i (loop : Wr_ir.Loop.t) ->
               let prepared, _ =
                 Wr_widen.Transform.widen loop ~width:config.Config.width
               in
               let ddg = prepared.Wr_ir.Loop.ddg in
               let r = Wr_sched.Modulo.run resource ~cycle_model:cm ddg in
               (loop.Wr_ir.Loop.name, i, ddg, r.Wr_sched.Modulo.placements))
             suite.Run.loops)
      in
      let timed =
        List.map
          (fun (name, index, ddg, placements) ->
            let t0 = Unix.gettimeofday () in
            for _ = 1 to reps do
              ignore (Wr_sched.Modulo.run resource ~cycle_model:cm ddg)
            done;
            let per_run = (Unix.gettimeofday () -. t0) /. float_of_int reps in
            (name, index, placements, per_run))
          (top top_n (fun (_, _, _, placements) -> placements) ranked)
      in
      let total = List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 timed in
      Printf.printf "%-28s %6s %10s %12s\n" "loop" "index" "placements" "ms/run";
      List.iter
        (fun (name, index, placements, s) ->
          Printf.printf "%-28s %6d %10d %12.3f\n" name index placements (s *. 1e3))
        timed;
      Printf.printf "total: %.3f ms over the top %d loops (%d reps each, 4w2, Cycles_4)\n"
        (total *. 1e3) (List.length timed) reps;
      write_artifact "BENCH_sched.json" "sched"
        [
          ("suite", B.str suite.Run.id);
          ("config", B.str "4w2");
          ("cycle_model", B.int 4);
          ("reps", B.int reps);
          ( "loops",
            B.List
              (List.map
                 (fun (name, index, placements, s) ->
                   B.Obj
                     [
                       ("name", B.str name);
                       ("index", B.int index);
                       ("placements", B.int placements);
                       ("wall_s", B.float ~fmt:(Printf.sprintf "%.6f") s);
                     ])
                 timed) );
          ("total_s", B.float ~fmt:(Printf.sprintf "%.6f") total);
        ];
      record_wall "schedmicro/top-loops-total" total;
      paper_note
        "Engine microbenchmark: isolates the modulo scheduler's wall time from the rest of \
         the evaluation pipeline."
  | "interpmicro" ->
      (* Interpreter microbenchmark: the flat kernel (compile +
         run_plan) against the retained reference engine, loop by loop.
         The selection is the suite loops with the most operations
         (where the interpreter works hardest) plus the whole stencil
         family (which exercises Fma and the in-place memory arenas).
         Every pair of runs is first checked bit-identical, then timed;
         BENCH_interp.json records ns/iteration and allocated bytes per
         iteration for both engines so the interpreter's perf
         trajectory is tracked commit over commit. *)
      let module Interp = Wr_vliw.Interp in
      let iterations = 1000 and reps = 25 and top_n = 12 in
      let ranked =
        Array.to_list
          (Array.mapi
             (fun i (loop : Wr_ir.Loop.t) ->
               (loop.Wr_ir.Loop.name, i, loop, Wr_ir.Ddg.num_ops loop.Wr_ir.Loop.ddg))
             suite.Run.loops)
      in
      let picked =
        top top_n (fun (_, _, _, ops) -> ops) ranked
        @ List.map
            (fun (name, loop) ->
              (name, -1, loop, Wr_ir.Ddg.num_ops loop.Wr_ir.Loop.ddg))
            (Wr_workload.Stencil.all ())
      in
      (* Wall and allocation per engine run; both normalized per source
         iteration.  Gc.allocated_bytes is monotonic and per-domain, so
         the delta is exactly this engine's allocation. *)
      let time_runs f =
        let a0 = Gc.allocated_bytes () in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          ignore (f ())
        done;
        let wall = Unix.gettimeofday () -. t0 in
        let alloc = Gc.allocated_bytes () -. a0 in
        let per_iter = float_of_int (reps * iterations) in
        (wall, wall /. per_iter *. 1e9, alloc /. per_iter)
      in
      let timed =
        List.map
          (fun (name, index, loop, ops) ->
            let c0 = Unix.gettimeofday () in
            let plan = Interp.compile loop in
            let compile_us = (Unix.gettimeofday () -. c0) *. 1e6 in
            let flat = Interp.run_plan ~iterations plan in
            let refr = Interp.run_reference ~iterations loop in
            if
              not
                (Interp.equal_memory flat refr
                && flat.Interp.loads = refr.Interp.loads
                && flat.Interp.stores = refr.Interp.stores
                && flat.Interp.flops = refr.Interp.flops)
            then begin
              Printf.eprintf "interpmicro: %s: engines disagree!\n" name;
              exit 2
            end;
            let ref_wall, ref_ns, ref_alloc =
              time_runs (fun () -> Interp.run_reference ~iterations loop)
            in
            let flat_wall, flat_ns, flat_alloc =
              time_runs (fun () -> Interp.run_plan ~iterations plan)
            in
            (name, index, ops, compile_us, ref_wall, ref_ns, ref_alloc, flat_wall,
             flat_ns, flat_alloc))
          picked
      in
      Printf.printf "%-28s %5s %5s %12s %12s %8s %10s %10s\n" "loop" "index" "ops"
        "ref_ns/iter" "flat_ns/iter" "speedup" "ref_B/iter" "flat_B/iter";
      List.iter
        (fun (name, index, ops, _, _, ref_ns, ref_alloc, _, flat_ns, flat_alloc) ->
          Printf.printf "%-28s %5d %5d %12.1f %12.1f %7.2fx %10.1f %10.1f\n" name index
            ops ref_ns flat_ns
            (ref_ns /. Stdlib.max 1e-9 flat_ns)
            ref_alloc flat_alloc)
        timed;
      let ref_total =
        List.fold_left (fun acc (_, _, _, _, w, _, _, _, _, _) -> acc +. w) 0.0 timed
      in
      let flat_total =
        List.fold_left (fun acc (_, _, _, _, _, _, _, w, _, _) -> acc +. w) 0.0 timed
      in
      let speedup = ref_total /. Stdlib.max 1e-9 flat_total in
      Printf.printf
        "total: reference %.3fs, flat %.3fs -> %.2fx over %d loops (%d reps x %d \
         iterations each)\n"
        ref_total flat_total speedup (List.length timed) reps iterations;
      let f2 = Printf.sprintf "%.2f" and f3 = Printf.sprintf "%.3f" in
      write_artifact "BENCH_interp.json" "interp"
        [
          ("suite", B.str suite.Run.id);
          ("iterations", B.int iterations);
          ("reps", B.int reps);
          ( "loops",
            B.List
              (List.map
                 (fun ( name, index, ops, compile_us, _, ref_ns, ref_alloc, _, flat_ns,
                        flat_alloc ) ->
                   B.Obj
                     [
                       ("name", B.str name);
                       ("index", B.int index);
                       ("ops", B.int ops);
                       ("compile_us", B.float ~fmt:f2 compile_us);
                       ("ref_ns_per_iter", B.float ~fmt:f2 ref_ns);
                       ("flat_ns_per_iter", B.float ~fmt:f2 flat_ns);
                       ("speedup", B.float ~fmt:f3 (ref_ns /. Stdlib.max 1e-9 flat_ns));
                       ("ref_alloc_b_per_iter", B.float ~fmt:f2 ref_alloc);
                       ("flat_alloc_b_per_iter", B.float ~fmt:f2 flat_alloc);
                     ])
                 timed) );
          ("ref_total_s", B.float ~fmt:(Printf.sprintf "%.6f") ref_total);
          ("flat_total_s", B.float ~fmt:(Printf.sprintf "%.6f") flat_total);
          ("speedup", B.float ~fmt:f3 speedup);
        ];
      record_wall "interpmicro/reference-total" ref_total;
      record_wall "interpmicro/flat-total" flat_total;
      paper_note
        "Engine microbenchmark: isolates the functional interpreter (the oracle engine \
         behind every --verify run) from scheduling and study logic; both engines are \
         checked bit-identical before timing."
  | "fuzz" ->
      (* Randomized end-to-end verification: seeded (generator loop x
         design-space point) pairs through the full
         schedule -> allocate -> spill -> reschedule pipeline under
         every Wr_check oracle; a failure prints a Text_format
         reproducer and fails the run.  With --backend-diff it is a
         differential bug hunt instead: every seeded case scheduled by
         both the heuristic and the exact backend.  Bugs (oracle
         failures, exact II above heuristic, exact II below MII) fail
         the run with a reproducer; exact < heuristic with both
         schedules valid is an optimality-gap lead, logged but benign. *)
      let module F = Wr_check.Fuzz in
      let seed = flags.fuzz_seed and cases = flags.cases in
      let on_case i = if (i + 1) mod 50 = 0 then Printf.printf "  ... %d cases done\n%!" (i + 1) in
      let blocks title render =
        List.iter (fun c -> Printf.printf "---- %s ----\n%s\n" title (render c))
      in
      if flags.backend_diff then begin
        Printf.printf "backend-diff fuzzing %d cases (seed %#Lx)\n%!" cases seed;
        let stats = F.run_backend_diff ~on_case ~seed ~cases () in
        Printf.printf "%s\n" (F.diff_summary stats);
        blocks "gap lead" F.diff_reproducer stats.F.dgaps;
        blocks "reproducer" F.diff_reproducer stats.F.dbug_cases;
        if stats.F.dbug_cases <> [] then
          defer_failure
            (Printf.sprintf "fuzz --backend-diff: %d bug case(s)" (List.length stats.F.dbug_cases));
        paper_note
          "Engine check: the exact backend cross-examines the heuristic on every case — any \
           heuristic II the exact search beats is a logged optimality gap, any invalid or \
           worse exact schedule is a bug."
      end
      else begin
        Printf.printf "fuzzing %d cases (seed %#Lx)\n%!" cases seed;
        let stats = F.run ~on_case ~seed ~cases () in
        Printf.printf "%s\n" (F.summary stats);
        blocks "reproducer" F.reproducer stats.F.failures;
        if stats.F.failures <> [] then
          defer_failure
            (Printf.sprintf "fuzz: %d case(s) violated an oracle" (List.length stats.F.failures));
        paper_note
          "Engine check: every case re-verified by the independent invariant oracles \
           (dependences, reservation table, wands allocation, spill semantics)."
      end
  | "profile" ->
      (* Per-stage profile of the full evaluation pipeline: run the
         fig3 study (the heaviest exerciser of schedule + allocate +
         spill + retry) with telemetry on, then break down where the
         time and the retries went.  --trace/--metrics dump the same
         run's raw data at exit. *)
      let module Obs = Wr_obs.Obs in
      Obs.set_enabled true;
      Core.Evaluate.clear_cache ();
      Obs.reset ();
      let t0 = Unix.gettimeofday () in
      let table = Core.Spill_study.run ~suite_id:suite.Run.id suite.Run.loops in
      let wall = Unix.gettimeofday () -. t0 in
      ignore table;
      let snap = Obs.snapshot () in
      let counter name =
        Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)
      in
      Printf.printf "Pipeline profile: fig3 study, %d loops, %d jobs, %.2fs wall\n\n"
        (Array.length suite.Run.loops) (Run.jobs opts) wall;
      Printf.printf "%-18s %9s %10s %10s %10s\n" "stage" "spans" "total_s" "mean_ms"
        "max_ms";
      List.iter
        (fun (name, st) ->
          Printf.printf "%-18s %9d %10.3f %10.3f %10.3f\n" name st.Obs.span_count
            (float_of_int st.Obs.span_total_ns /. 1e9)
            (float_of_int st.Obs.span_total_ns /. 1e6 /. float_of_int st.Obs.span_count)
            (float_of_int st.Obs.span_max_ns /. 1e6))
        snap.Obs.spans;
      Printf.printf
        "(stages nest and run concurrently: eval/suite fans out per-loop tasks while the \
         study fans out eval/suite points, eval/loop contains sched/modulo, alloc and \
         spill/apply — totals are per-stage CPU time, not wall time)\n\n";
      let loop_spans =
        List.filter (fun e -> e.Obs.ev_name = "eval/loop") (Obs.events ())
      in
      let slowest =
        List.sort (fun a b -> compare b.Obs.ev_dur_ns a.Obs.ev_dur_ns) loop_spans
      in
      Printf.printf "Top 10 slowest (loop, machine point) evaluations:\n";
      List.iteri
        (fun i e ->
          if i < 10 then
            Printf.printf "  %8.2f ms  %-24s %s\n"
              (float_of_int e.Obs.ev_dur_ns /. 1e6)
              (Option.value ~default:"?" (List.assoc_opt "loop" e.Obs.ev_args))
              (Option.value ~default:"?" (List.assoc_opt "config" e.Obs.ev_args)))
        slowest;
      Printf.printf "\nII escalation above the scheduler's first attempt (per Modulo.run):\n";
      (match List.assoc_opt "sched/ii_minus_start" snap.Obs.histograms with
      | None | Some [] -> Printf.printf "  (no scheduler runs recorded)\n"
      | Some bins ->
          let total = List.fold_left (fun acc (_, c) -> acc + c) 0 bins in
          List.iter
            (fun (v, c) ->
              Printf.printf "  +%-3d %7d  (%5.1f%%)\n" v c
                (100.0 *. float_of_int c /. float_of_int total))
            bins);
      let { Core.Evaluate.hits; misses } = Core.Evaluate.cache_stats `Loop in
      Printf.printf "\nLoop-cache hit rate: %d hits / %d misses (%.1f%%)\n" hits misses
        (if hits + misses = 0 then 0.0
         else 100.0 *. float_of_int hits /. float_of_int (hits + misses));
      Printf.printf "\nScheduler and spill totals:\n";
      List.iter
        (fun name -> Printf.printf "  %-24s %d\n" name (counter name))
        [ "eval/evaluations"; "sched/runs"; "sched/attempts"; "sched/evictions";
          "sched/forces"; "sched/budget_exhausted"; "driver/probes"; "spill/vregs_spilled";
          "spill/stores_added"; "spill/loads_added"; "spill/reloads_memoized" ];
      (* The exact backend's search counters only tick under
         --backend exact/portfolio (or after a gap run); suppress the
         section when the heuristic handled everything. *)
      if counter "search/at_ii" > 0 then begin
        Printf.printf "\nExact-backend search totals:\n";
        List.iter
          (fun name -> Printf.printf "  %-24s %d\n" name (counter name))
          [ "search/runs"; "search/at_ii"; "search/nodes"; "search/phase1_probes";
            "search/phase2_probes"; "search/prune_resource"; "search/prune_window";
            "search/prune_backtrack"; "search/exhausted"; "exact/nodes"; "exact/improved" ];
        match List.assoc_opt "search/nodes_per_attempt" snap.Obs.histograms with
        | None | Some [] -> ()
        | Some bins ->
            Printf.printf "  nodes per II attempt (>1024 clamped into the overflow bin):\n";
            List.iter (fun (v, c) -> Printf.printf "    %5d %7d\n" v c) bins
      end;
      Printf.printf "\nPool utilization (%d jobs):\n" (Run.jobs opts);
      if snap.Obs.lanes = [] then
        Printf.printf "  (no pool tasks: single-domain run executes inline)\n"
      else
        List.iter
          (fun lane ->
            let v name =
              Option.value ~default:0 (List.assoc_opt name lane.Obs.lane_counters)
            in
            Printf.printf "  lane %d: %d tasks, busy %.2fs (%.0f%% of wall), idle %.2fs\n"
              lane.Obs.lane_id (v "pool/tasks_run")
              (float_of_int (v "pool/busy_ns") /. 1e9)
              (100.0 *. float_of_int (v "pool/busy_ns") /. 1e9 /. wall)
              (float_of_int (v "pool/idle_ns") /. 1e9))
          snap.Obs.lanes;
      paper_note
        "Engine profile: the paper's figures aggregate exactly these per-loop events \
         (II escalations, spills, retries); this table is the raw distribution."
  | id -> invalid_arg ("run_engine: " ^ id)

let run_experiment opts flags suite id =
  Printf.printf "==================================================================\n";
  Printf.printf "=== %s\n==================================================================\n%!" id;
  let started = Unix.gettimeofday () in
  (match List.assoc_opt id Run.experiments with
  | Some run ->
      let o = run suite in
      print_string o.Run.text;
      List.iter (write_csv flags) o.Run.tables;
      paper_note o.Run.note
  | None -> run_engine opts flags suite id);
  record_wall id (Unix.gettimeofday () -. started);
  Printf.printf "[%s generated in %.1fs]\n" id (Unix.gettimeofday () -. started);
  print_newline ();
  if flags.timing then begin
    time_experiment id;
    print_newline ()
  end

(* parspeed, gap, fuzz and profile are explicit-only modes: the first
   doubles the heavy figures, gap runs a branch-and-bound search per
   point, the third is a verification pass, and the fourth re-runs fig3
   under tracing — none is a figure of the paper. *)
let all = List.map fst Run.experiments @ [ "endtoend"; "schedmicro"; "interpmicro" ]

let main id opts flags =
  Run.start stdout opts;
  let suite = Run.suite opts.Run.sample in
  Printf.printf "Widening-resources study bench harness (suite: %s, %d loops, %d jobs)\n\n%!"
    suite.Run.id (Array.length suite.Run.loops) (Run.jobs opts);
  Printf.printf "%s\n" (Wr_workload.Suite.statistics suite.Run.loops);
  List.iter (run_experiment opts flags suite) (if id = "all" then all else [ id ]);
  Option.iter (fun path -> write_json path opts suite) flags.json;
  let code = Run.finish stdout opts in
  match List.rev !deferred_failures with
  | [] -> code
  | fs ->
      List.iter prerr_endline fs;
      2

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let flags_term =
  let no_timing =
    Arg.(value & flag & info [ "no-timing" ] ~doc:"Skip the Bechamel timing runs.")
  in
  let csv_dir =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Write each experiment's tables as CSV files in DIR.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write per-experiment wall times and Bechamel estimates as JSON.")
  in
  let cases =
    Arg.(value & opt (Run.positive "CASES") 200
         & info [ "cases" ] ~docv:"N" ~doc:"Number of fuzz cases.")
  in
  let fuzz_seed =
    Arg.(value & opt int64 0x5EEDL & info [ "fuzz-seed" ] ~docv:"SEED" ~doc:"Fuzz seed.")
  in
  let backend_diff =
    Arg.(value & flag
         & info [ "backend-diff" ]
             ~doc:"Make $(b,fuzz) a heuristic-vs-exact differential instead of an oracle run.")
  in
  let make no_timing csv_dir json cases fuzz_seed backend_diff =
    { timing = not no_timing; csv_dir; json; cases; fuzz_seed; backend_diff }
  in
  Term.(const make $ no_timing $ csv_dir $ json $ cases $ fuzz_seed $ backend_diff)

let run_term id = Term.(const main $ id $ Run.term $ flags_term)

let () =
  let mode (id, doc) = Cmd.v (Cmd.info id ~doc) (run_term (Term.const id)) in
  let file n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  let tools =
    [
      Cmd.v
        (Cmd.info "report" ~doc:"Render a run ledger as a dashboard.")
        Term.(const report $ file 0 "LEDGER");
      Cmd.v
        (Cmd.info "diff"
           ~doc:"Compare two ledgers, or two BENCH artifacts of one kind; exit 2 on a regression.")
        Term.(
          const diff $ file 0 "OLD" $ file 1 "NEW"
          $ Arg.(value & opt (some string) None
                 & info [ "threshold" ] ~docv:"PCT"
                     ~doc:"Cycles-noise threshold in percent (also WR_DIFF_THRESHOLD)."));
      Cmd.v
        (Cmd.info "validate" ~doc:"Check BENCH artifacts against the wr-bench/2 envelope.")
        Term.(const validate $ Arg.(non_empty & pos_all string [] & info [] ~docv:"BENCH.json"));
    ]
  in
  let modes =
    (("all", "Every figure and study, then endtoend, schedmicro and interpmicro.")
    :: List.map (fun (id, _) -> (id, "Reproduce " ^ id ^ ".")) Run.experiments)
    @ engine_modes
  in
  let info =
    Cmd.info "main.exe"
      ~doc:"Regenerate the paper's tables and figures, time them, and check the engine"
  in
  (* Without a leading mode name (options first, or nothing at all) the
     mode is the one positional argument, "all" when absent. *)
  let default =
    run_term Arg.(value & pos 0 (enum (List.map (fun (id, _) -> (id, id)) modes)) "all"
                  & info [] ~docv:"MODE")
  in
  let cmd = Cmd.group ~default info (List.map mode modes @ tools) in
  exit (Run.exit_code (Cmd.eval' cmd))
