open Cmdliner
module Evaluate = Core.Evaluate
module Suite = Wr_workload.Suite

(* --- options ------------------------------------------------------------ *)

type t = {
  sample : int option;
  jobs : int option;
  verify : bool;
  strict : bool;
  store : string option;
  loop_budget_ms : int option;
  backend : Wr_sched.Backend.kind option;
  trace : string option;
  metrics : string option;
  ledger : string option;
  ledger_wall : bool;
}

let positive what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (what ^ " must be a positive integer"))
  in
  Arg.conv (parse, Format.pp_print_int)

let sample_arg =
  let doc = "Evaluate on a deterministic N-loop subsample of the 1180-loop suite." in
  Arg.(value & opt (some (positive "N")) None & info [ "s"; "sample" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Size of the domain pool used for parallel evaluation (also WR_JOBS; defaults to the \
     number of cores).  Results are bit-identical for any value."
  in
  Arg.(value & opt (some (positive "JOBS")) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let verify_arg =
  let doc = "Re-derive every evaluated point with the independent oracles (also WR_VERIFY)." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let strict_arg =
  let doc =
    "Fail fast: an evaluation that raises aborts the run instead of quarantining the point \
     (also WR_STRICT)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* The one reader of WR_STORE, so a warm store can follow a user across
   invocations of either front end without repeating the flag. *)
let store_arg =
  let doc =
    "Answer points from the crash-safe, content-addressed result store at DIR and append \
     every fresh one (also WR_STORE; empty means none).  Re-running an interrupted run on \
     the same DIR resumes it, byte-identically."
  in
  let or_env = function
    | Some _ as dir -> dir
    | None -> ( match Sys.getenv_opt "WR_STORE" with Some "" | None -> None | dir -> dir)
  in
  Term.(const or_env $ Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc))

let budget_arg =
  let doc =
    "Wall-clock budget per loop evaluation; an overrun degrades the point to the \
     unpipelined fallback and quarantines it."
  in
  Arg.(value & opt (some (positive "MS")) None & info [ "loop-budget-ms" ] ~docv:"MS" ~doc)

let backend_arg =
  let doc =
    "Modulo-scheduler backend: $(b,heuristic) (default), $(b,exact) (branch-and-bound \
     refinement) or $(b,portfolio) (race both).  Also WR_SCHED_BACKEND."
  in
  let backend =
    let parse s =
      match Wr_sched.Backend.of_string s with
      | Some k -> Ok k
      | None -> Error (`Msg "BACKEND must be heuristic, exact or portfolio")
    in
    Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Wr_sched.Backend.to_string k))
  in
  Arg.(value & opt (some backend) None & info [ "backend" ] ~docv:"BACKEND" ~doc)

let file_arg name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let trace_arg =
  file_arg "trace"
    "Enable telemetry and write a Chrome trace-event JSON file: one lane per domain, a span \
     per pipeline stage."

let metrics_arg =
  file_arg "metrics"
    "Enable telemetry and write a JSON snapshot of every counter, histogram and span total."

let ledger_arg =
  file_arg "ledger"
    "Write one provenance record per evaluated point as a checksummed run ledger, the input \
     of $(b,bench) $(b,report)/$(b,diff); byte-identical for any --jobs."

let ledger_wall_arg =
  let doc =
    "Include per-point wall times in the ledger, giving up its byte-identity (also \
     WR_LEDGER_WALL)."
  in
  Arg.(value & flag & info [ "ledger-wall" ] ~doc)

let engine_term =
  let make jobs verify strict store loop_budget_ms backend trace metrics ledger ledger_wall =
    { sample = None; jobs; verify; strict; store; loop_budget_ms; backend; trace; metrics;
      ledger; ledger_wall }
  in
  Term.(
    const make $ jobs_arg $ verify_arg $ strict_arg $ store_arg $ budget_arg $ backend_arg
    $ trace_arg $ metrics_arg $ ledger_arg $ ledger_wall_arg)

let term = Term.(const (fun sample t -> { t with sample }) $ sample_arg $ engine_term)

let jobs t = match t.jobs with Some j -> j | None -> Wr_util.Pool.default_jobs ()

let exit_code code =
  if code = Cmd.Exit.cli_error then 1 else if code = Cmd.Exit.internal_error then 2 else code

(* --- session ------------------------------------------------------------ *)

let configure t =
  Option.iter Wr_util.Pool.set_default_jobs t.jobs;
  Option.iter Wr_sched.Backend.set t.backend;
  if t.verify then Evaluate.set_verify true;
  if t.strict then Evaluate.set_strict true;
  Evaluate.set_loop_budget_ms t.loop_budget_ms;
  (* Wall times stay off unless asked for: they break ledger identity. *)
  if t.ledger <> None then Core.Provenance.set_capture true;
  if t.ledger_wall then Core.Provenance.set_wall true;
  if t.trace <> None || t.metrics <> None then Wr_obs.Obs.set_enabled true

let start oc t =
  configure t;
  Option.iter
    (fun dir ->
      match Evaluate.attach_store dir with
      | r -> Printf.fprintf oc "[store] %s: %s\n%!" dir (Core.Store.describe_recovery r)
      | exception Core.Store.Locked msg ->
          prerr_endline msg;
          exit 2)
    t.store

let write_outputs oc t =
  let wrote tag write path =
    write path;
    Printf.fprintf oc "[%s] wrote %s\n%!" tag path
  in
  Option.iter (wrote "trace" Wr_obs.Obs.write_trace) t.trace;
  Option.iter (wrote "metrics" Wr_obs.Obs.write_metrics) t.metrics;
  Option.iter
    (fun path ->
      Core.Provenance.write path;
      Printf.fprintf oc "[ledger] wrote %s (%d points)\n%!" path
        (List.length (Core.Provenance.records ())))
    t.ledger

let finish oc t =
  if Evaluate.verify_enabled () then
    Printf.fprintf oc "[verify] %d (loop, machine-point) results passed all oracles, 0 violations\n"
      (Evaluate.verified_points ());
  write_outputs oc t;
  Option.iter
    (fun dir ->
      let s = Evaluate.cache_stats `Store in
      Printf.fprintf oc "[store] %s: %d entries, %d hits, %d misses, %d appended\n%!" dir
        (Evaluate.store_entries ()) s.Evaluate.hits s.Evaluate.misses
        (Evaluate.store_appended ());
      Evaluate.detach_store ())
    t.store;
  (* Every point that degraded to the unpipelined fallback instead of
     killing the run, named precisely enough to reproduce.  Exit 3 tells
     "completed but degraded" apart from success and from hard failure. *)
  match Evaluate.quarantined () with
  | [] -> 0
  | qs ->
      Printf.fprintf oc "\nQuarantined points (%d): degraded to the unpipelined fallback\n"
        (List.length qs);
      Printf.fprintf oc "%-10s %6s %-24s %-12s %5s %6s  %s\n" "suite" "index" "loop" "config"
        "regs" "model" "reason";
      List.iter
        (fun (q : Evaluate.quarantine_record) ->
          Printf.fprintf oc "%-10s %6d %-24s %-12s %5d %6d  %s\n" q.Evaluate.q_suite
            q.Evaluate.q_index q.Evaluate.q_loop q.Evaluate.q_config q.Evaluate.q_registers
            q.Evaluate.q_cycle_model q.Evaluate.q_reason)
        qs;
      flush oc;
      3

(* --- experiments -------------------------------------------------------- *)

type suite = { id : string; sample : int option; loops : Wr_ir.Loop.t array }

let suite sample = { id = Suite.id sample; sample; loops = Suite.of_sample sample }

type table = { name : string; header : string list; rows : string list list }

type output = { text : string; tables : table list; note : string }

let out ?(tables = []) text note = { text; tables; note }

let table name header rows = { name; header; rows }

(* A figure on the suite plus its synthetic-vs-real cut: [study] once
   per workload family.  The synthetic family is the very loop array the
   main figure ran on, so it keeps the suite's id and its points come
   from the evaluation cache; the real family evaluates under
   [id ^ ":real"]. *)
let with_families name study render header rows note s =
  let t = study s.id s.loops in
  let fams =
    List.map
      (fun (family, loops) ->
        (family, study (if family = "synthetic" then s.id else s.id ^ ":" ^ family) loops))
      (Suite.families_for ~sample:s.sample)
  in
  let block (family, ft) = Printf.sprintf "---- family %s ----\n%s" family (render ft) in
  out
    (String.concat "" (render t :: List.map block fams))
    ~tables:
      [
        table name header (rows t);
        table (name ^ "_families") ("family" :: header) (Core.Csv_export.families_rows rows fams);
      ]
    note

let experiments =
  let open Core in
  (* Experiments that take no suite, or a fixed subsample of it. *)
  let fixed text note _ = out (text ()) note in
  let on_sample n study note _ = out (study (Suite.sample n)) note in
  [
    ( "table1",
      fixed Cost_tables.table1
        "Paper: Table 1 is input data (SIA 1994 roadmap); reproduced exactly." );
    ( "table2",
      fixed Cost_tables.table2
        "Paper: cells 50x41 .. 568x257; the piecewise-linear model is anchored on the five \
         published cells (exact)." );
    ( "table3",
      fixed Cost_tables.table3 "Paper: 598 / 375 / 215 x10^6 lambda^2 - reproduced within 1%." );
    ( "table4",
      fun _ ->
        let row ((x, y, z), model, paper) =
          List.map string_of_int [ x; y; z ]
          @ [ Printf.sprintf "%.4f" model; Printf.sprintf "%.2f" paper ]
        in
        out (Cost_tables.table4 ())
          ~tables:
            [
              table "table4"
                [ "buses"; "width"; "registers"; "model"; "paper" ]
                (List.map row (Cost_tables.table4_pairs ()));
            ]
          "Paper: 60 relative access times; fitted model reproduces them at 3.6% rms (max 8.9%)."
    );
    ( "table5",
      fixed
        (fun () ->
          Implementability.to_text (Implementability.run ())
          ^ "With the conservative 10% area budget instead:\n"
          ^ Implementability.to_text (Implementability.run ~budget:0.10 ()))
        "Paper: Table 5 symbols; same 20%-of-die rule, same grid.  Cell-model extrapolation \
         shifts a few borderline entries by one generation." );
    ( "table6",
      fixed Cost_tables.table6
        "Paper: Table 6 is input data (latency adaptation); reproduced exactly." );
    ( "fig2",
      fun s ->
        let t = Peak_study.run s.loops in
        out (Peak_study.to_text t)
          ~tables:[ table "fig2" Csv_export.fig2_header (Csv_export.fig2_rows t) ]
          "Paper shape: Xw1 saturates near 10, 1wY near 5, 2wY in between; Xw2 tracks Xw1 \
           closely." );
    ( "fig3",
      with_families "fig3"
        (fun suite_id loops -> Spill_study.run ~suite_id loops)
        Spill_study.to_text Csv_export.fig3_header Csv_export.fig3_rows
        "Paper shape: 8w1/32 unschedulable; 4w2 beats 8w1 at 64 and 128 registers; 1w2 \
         saturates by 64 registers." );
    ("fig4", fixed Cost_tables.figure4 "Paper: area of RF+FPUs against the 10-20% SIA bands.");
    ( "fig6",
      fixed Cost_tables.figure6
        "Paper shape: area grows (exponential-ish), access time falls (logarithmic-ish); \
         2-partitioning is the sweet spot." );
    ( "fig7",
      fun s ->
        out
          (Code_size_study.to_text (Code_size_study.run ~suite_id:s.id s.loops))
          "Paper: the 1 / 0.5 / 0.25 / 0.125 best-case series." );
    ( "fig8",
      fun s ->
        out
          (Tradeoff.figure8 ~suite_id:s.id s.loops)
          "Paper shape: (a) small files win once cycle time is charged; (b) replication gains \
           but at exploding area; (c) widening gains cheaply then saturates; (d) the mixed \
           configurations win the factor-8 group." );
    ( "fig9",
      with_families "fig9"
        (fun suite_id loops -> Tradeoff.figure9 ~suite_id loops)
        Tradeoff.figure9_text Csv_export.fig9_header Csv_export.fig9_rows
        "Paper shape: top-five lists are dominated by small replication x widening mixes; \
         the most aggressive configurations never appear." );
    ( "conclusion",
      fun s ->
        out
          (Tradeoff.conclusion ~suite_id:s.id s.loops)
          "Paper: 4w2(128) = 1.66x the performance of 8w1(128) in 81% of the area." );
    ( "ablation-compact",
      fixed Ablation.compactability
        "Beyond the paper: sensitivity of the Figure 2 series to the workload's stride-1 \
         fraction — widening collapses on strided code, replication barely moves." );
    ( "ablation-levers",
      on_sample 150 Ablation.pressure_levers
        "Beyond the paper: the two MICRO-29 register-pressure levers in isolation; II \
         escalation carries most of the benefit on this workload, spilling adds bus traffic." );
    ( "ablation-rotating",
      on_sample 80 Ablation.rotating_file
        "Beyond the paper: the wands model prices a rotating register file; a conventional \
         file (modulo variable expansion) needs ~1.3-1.5x the registers and up to 12x kernel \
         code growth." );
    ( "ablation-ordering",
      on_sample 150 Ablation.scheduler_orderings
        "Beyond the paper: IMS height priority vs the authors' later SMS swing ordering — \
         both reach the MII on almost every loop; SMS trades a little II robustness for \
         shorter lifetimes." );
    ( "icache",
      on_sample 200
        (fun loops -> Icache_study.to_text (Icache_study.run loops))
        "Beyond the paper (predicted in its Section 2): at equal peak capability the \
         replication-heavy machines' wide words and large MVE unrolls overflow small \
         instruction caches far more often than the widened machines." );
    ( "traffic",
      on_sample 200
        (fun loops -> Traffic_study.to_text (Traffic_study.run loops))
        "Beyond the paper (its Section 3.2 caveat, quantified): spill code's extra memory \
         operations as a share of program traffic — the wide register file's capacity keeps \
         the widened machines' spill traffic low." );
    ( "dcache",
      on_sample 120
        (fun loops -> Dcache_study.to_text (Dcache_study.run loops))
        "Beyond the paper: replaying each schedule's real memory trace (spill slots \
         included) through a direct-mapped L1 — spill code's cache pollution on top of the \
         bus slots the paper counts." );
    ( "balance",
      fun s ->
        out
          (Balance_study.to_text (Balance_study.run s.loops))
          "The paper's footnote 1, reproduced: 1 bus + 2 FPUs is the best 3-slot split, and \
           2:1 stays within ~7% of the best at larger budgets (our synthetic mix is slightly \
           memory-heavier than the Perfect Club's, drifting the optimum toward 1.4:1)." );
  ]
