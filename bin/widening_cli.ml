(* Command-line interface to the widening-resources study.

   widening-cli experiment fig2          reproduce a figure/table
   widening-cli schedule daxpy -c 4w2(128:2)
   widening-cli configs -g 0.18          implementable configurations
   widening-cli workload                 suite statistics
   widening-cli dot dot_product          DOT dump of a kernel *)

open Cmdliner

module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Loop = Wr_ir.Loop

(* --- experiment ------------------------------------------------------- *)

let experiment_ids = List.map fst Run.experiments @ [ "all" ]

(* The figure text of each experiment on stdout; the session's own
   lines (store, trace, ledger, quarantine) on stderr. *)
let run_experiment id opts =
  Run.start stderr opts;
  let suite = Run.suite opts.Run.sample in
  let text id = (List.assoc id Run.experiments suite).Run.text in
  if id = "all" then
    List.iter
      (fun (id, _) ->
        print_string (text id);
        print_newline ())
      Run.experiments
  else print_string (text id);
  match Run.finish stderr opts with 0 -> () | code -> exit code

let experiment_cmd =
  let id =
    let doc = "Experiment id: " ^ String.concat ", " experiment_ids ^ "." in
    Arg.(required & pos 0 (some (enum (List.map (fun x -> (x, x)) experiment_ids))) None
         & info [] ~docv:"EXPERIMENT" ~doc)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's tables or figures")
    Term.(const run_experiment $ id $ Run.term)

(* --- schedule --------------------------------------------------------- *)

let find_kernel name =
  match List.assoc_opt name (Wr_workload.Kernels.all ()) with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown kernel %s (available: %s)" name
           (String.concat ", " (List.map fst (Wr_workload.Kernels.all ()))))

(* An unknown kernel or a malformed configuration is a usage error. *)
let or_usage = function
  | Ok v -> v
  | Error e ->
      prerr_endline e;
      exit 1

(* A kernel name, or a .wr loop file.  A file that exists but does not
   parse is a runtime failure (2), not a usage error (1). *)
let loops_of target =
  if Sys.file_exists target then
    match Wr_ir.Text_format.parse (In_channel.with_open_text target In_channel.input_all) with
    | Ok loops -> loops
    | Error e ->
        Printf.eprintf "%s: %s\n" target e;
        exit 2
  else [ or_usage (find_kernel target) ]

let kernel_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel name.")

let config_arg default =
  let doc = "Configuration, e.g. " ^ default ^ "." in
  Arg.(value & opt string default & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let run_schedule kernel config_str verbose backend =
  Option.iter Wr_sched.Backend.set backend;
  let loop = or_usage (find_kernel kernel) in
  let cfg = or_usage (Config.parse config_str) in
  let tc = Wr_cost.Access_time.relative cfg in
  let cm = Wr_cost.Access_time.cycle_model_of cfg in
  let prepared, stats = Wr_widen.Transform.widen loop ~width:cfg.Config.width in
  Printf.printf "kernel %s on %s: Tc=%.2f, %s\n" kernel (Config.label cfg) tc
    (Cycle_model.to_string cm);
  Format.printf "%a@." Wr_widen.Transform.pp_stats stats;
  (match
     Wr_regalloc.Driver.run (Resource.of_config cfg) ~cycle_model:cm
       ~registers:cfg.Config.registers prepared.Loop.ddg
   with
  | Wr_regalloc.Driver.Scheduled s ->
      Printf.printf "II=%d (MII=%d), stages=%d, registers=%d (MaxLives=%d), spill=%d+%d\n"
        s.Wr_regalloc.Driver.schedule.Wr_sched.Schedule.ii s.Wr_regalloc.Driver.mii
        (Wr_sched.Schedule.stage_count s.Wr_regalloc.Driver.schedule)
        s.Wr_regalloc.Driver.alloc.Wr_regalloc.Alloc.required
        s.Wr_regalloc.Driver.alloc.Wr_regalloc.Alloc.max_lives
        s.Wr_regalloc.Driver.stores_added s.Wr_regalloc.Driver.loads_added;
      if verbose then
        print_string
          (Wr_sched.Schedule.kernel_view prepared.Loop.ddg (Resource.of_config cfg)
             s.Wr_regalloc.Driver.schedule)
  | Wr_regalloc.Driver.Unschedulable msg ->
      Printf.printf "unschedulable: %s\n" msg)

let schedule_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full kernel schedule.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Software-pipeline one kernel on a configuration")
    Term.(const run_schedule $ kernel_arg $ config_arg "4w2(128:2)" $ verbose $ Run.backend_arg)

(* --- configs ---------------------------------------------------------- *)

let run_configs lambda =
  match Wr_cost.Sia.by_lambda lambda with
  | None -> Printf.eprintf "no SIA generation with lambda=%.2f\n" lambda
  | Some g ->
      Printf.printf "Implementable configurations at %s (20%% budget):\n" (Wr_cost.Sia.label g);
      List.iter
        (fun c ->
          Printf.printf "  %-14s area=%7.0fe6 l^2 (%4.1f%% die)  Tc=%.2f (%s)\n"
            (Config.label c)
            (Wr_cost.Area.total_area c /. 1e6)
            (100.0 *. Wr_cost.Area.chip_fraction c g)
            (Wr_cost.Access_time.relative c)
            (Cycle_model.to_string (Wr_cost.Access_time.cycle_model_of c)))
        (Core.Implementability.implementable_configs g)

let configs_cmd =
  let lambda =
    Arg.(value & opt float 0.25
         & info [ "g"; "lambda" ] ~docv:"UM" ~doc:"Feature size: 0.25, 0.18, 0.13, 0.10 or 0.07.")
  in
  Cmd.v
    (Cmd.info "configs" ~doc:"List implementable configurations for a technology")
    Term.(const run_configs $ lambda)

(* --- file --------------------------------------------------------------- *)

let file_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Loop source file.")
  in
  let config =
    Arg.(value & opt (some string) None
         & info [ "c"; "config" ] ~docv:"CONFIG"
             ~doc:"Also software-pipeline each loop on this configuration.")
  in
  let run path config_str =
    let loops = loops_of path in
    Printf.printf "%s: %d loop(s)\n" path (List.length loops);
    List.iter
      (fun (l : Loop.t) ->
        Printf.printf "  %s: %d ops, trip %d, weight %g%s\n" l.Loop.name (Loop.num_ops l)
          l.Loop.trip_count l.Loop.weight
          (if Wr_ir.Ddg.has_recurrence l.Loop.ddg then " (recurrence)" else ""))
      loops;
    Option.iter
      (fun cs ->
        let cfg = or_usage (Config.parse cs) in
        let cm = Wr_cost.Access_time.cycle_model_of cfg in
        List.iter
          (fun (l : Loop.t) ->
            let wide, _ = Wr_widen.Transform.widen l ~width:cfg.Config.width in
            match
              Wr_regalloc.Driver.run (Resource.of_config cfg) ~cycle_model:cm
                ~registers:cfg.Config.registers wide.Loop.ddg
            with
            | Wr_regalloc.Driver.Scheduled s ->
                Printf.printf "  %s on %s: II=%d (MII=%d), %d registers\n" l.Loop.name
                  (Config.label cfg) s.Wr_regalloc.Driver.schedule.Wr_sched.Schedule.ii
                  s.Wr_regalloc.Driver.mii s.Wr_regalloc.Driver.alloc.Wr_regalloc.Alloc.required
            | Wr_regalloc.Driver.Unschedulable m ->
                Printf.printf "  %s on %s: unschedulable (%s)\n" l.Loop.name (Config.label cfg) m)
          loops)
      config_str
  in
  Cmd.v
    (Cmd.info "file" ~doc:"Parse loops from a text file and optionally schedule them")
    Term.(const run $ path $ config)

(* --- check -------------------------------------------------------------- *)

let check_cmd =
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TARGET"
             ~doc:"Kernel name, or a .wr loop file path (e.g. a fuzz reproducer).")
  in
  let config =
    Arg.(value & opt string "4w2(128)"
         & info [ "c"; "config" ] ~docv:"CONFIG"
             ~doc:"Configuration to verify on, e.g. 4w2(64); the register count in \
                   parentheses is the file size used.")
  in
  let cycles =
    Arg.(value & opt (some int) None
         & info [ "cycles" ] ~docv:"N"
             ~doc:"Cycle model (1-4); defaults to the one the configuration's access \
                   time implies.")
  in
  let policy =
    let values =
      [ ("combined", Wr_regalloc.Driver.Combined);
        ("spill", Wr_regalloc.Driver.Spill_only);
        ("escalate", Wr_regalloc.Driver.Escalate_only) ]
    in
    Arg.(value & opt (enum values) Wr_regalloc.Driver.Combined
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Register-pressure policy: combined, spill or escalate.")
  in
  let run target config_str cycles policy =
    let loops = loops_of target in
    let cfg = or_usage (Config.parse config_str) in
    let cm =
      match cycles with
      | None -> Wr_cost.Access_time.cycle_model_of cfg
      | Some n -> (
          match Cycle_model.of_cycles n with
          | Some m -> m
          | None ->
              Printf.eprintf "--cycles must be 1..4, got %d\n" n;
              exit 1)
    in
    let registers = cfg.Config.registers in
    let failed = ref false in
    List.iter
      (fun (l : Loop.t) ->
        let r = Wr_check.Oracle.check_point cfg ~cycle_model:cm ~registers ~policy l in
        let status =
          if not r.Wr_check.Oracle.schedulable then "unschedulable (nothing to verify)"
          else
            Printf.sprintf "II=%d%s"
              (Option.value ~default:0 r.Wr_check.Oracle.ii)
              (if r.Wr_check.Oracle.spilled then ", spill code verified" else "")
        in
        match r.Wr_check.Oracle.violations with
        | [] ->
            Printf.printf "  %-24s %s on %s (%s): all oracles passed\n" l.Loop.name
              status (Config.label cfg)
              (Cycle_model.to_string cm)
        | vs ->
            failed := true;
            Printf.printf "  %-24s %s on %s (%s): %d VIOLATION(S)\n%s\n" l.Loop.name
              status (Config.label cfg)
              (Cycle_model.to_string cm)
              (List.length vs)
              (Wr_check.Oracle.to_string vs))
      loops;
    if !failed then exit 2
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify the full pipeline (widen, schedule, allocate, spill) on a kernel or \
             loop file with the independent invariant oracles")
    Term.(const run $ target $ config $ cycles $ policy)

(* --- codegen / simulate -------------------------------------------------- *)

let prepare_for kernel config_str =
  let loop = or_usage (find_kernel kernel) in
  let cfg = or_usage (Config.parse config_str) in
  let wide, _ = Wr_widen.Transform.widen loop ~width:cfg.Config.width in
  let g = wide.Loop.ddg in
  let r = Wr_sched.Backend.run (Resource.of_config cfg) ~cycle_model:Cycle_model.Cycles_4 g in
  (g, r.Wr_sched.Modulo.schedule, cfg)

let codegen_cmd =
  let full =
    Arg.(value & opt (some int) None
         & info [ "full" ] ~docv:"N"
             ~doc:"Emit the complete flat program for N iterations (prologue/kernel/drain) \
                   instead of the steady-state kernel.")
  in
  let run kernel config_str full =
    let g, s, cfg = prepare_for kernel config_str in
    let a = Wr_vliw.Codegen.allocate g s in
    (match full with
    | Some n -> print_string (Wr_vliw.Codegen.emit_program g s a cfg ~iterations:n)
    | None -> print_string (Wr_vliw.Codegen.emit g s a cfg));
    let counts = Wr_vliw.Codegen.word_counts g s a cfg in
    Printf.printf
      "\n; prologue %d words, kernel %d words, epilogue %d words; %d filled / %d nop slots\n"
      counts.Wr_vliw.Codegen.prologue_words counts.Wr_vliw.Codegen.kernel_words
      counts.Wr_vliw.Codegen.epilogue_words counts.Wr_vliw.Codegen.filled_slots
      counts.Wr_vliw.Codegen.nop_slots
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit the MVE-unrolled VLIW kernel for a kernel/configuration")
    Term.(const run $ kernel_arg $ config_arg "2w2(64)" $ full)

let simulate_cmd =
  let iters =
    Arg.(value & opt int 20 & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Wide iterations.")
  in
  let run kernel config_str iterations =
    let loop = or_usage (find_kernel kernel) in
    let cfg = or_usage (Config.parse config_str) in
    match Wr_vliw.Sim.check_against_reference loop cfg ~iterations with
    | Ok sim ->
        Printf.printf
          "simulated %d wide iterations on %s: %d cycles (steady-state model %d), %d \
           instances issued\n\
           memory image matches the reference interpreter bit-for-bit.\n"
          iterations (Config.label cfg) sim.Wr_vliw.Sim.cycles
          sim.Wr_vliw.Sim.kernel_cycles sim.Wr_vliw.Sim.issued
    | Error msg ->
        Printf.printf "MISMATCH: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Cycle-level simulation of a kernel, validated against the interpreter")
    Term.(const run $ kernel_arg $ config_arg "2w2(64)" $ iters)

(* --- workload / dot ---------------------------------------------------- *)

let workload_cmd =
  let run sample =
    print_string (Wr_workload.Suite.statistics (Wr_workload.Suite.of_sample sample))
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Print aggregate statistics of the loop suite")
    Term.(const run $ Run.sample_arg)

let dot_cmd =
  let kernel =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"KERNEL" ~doc:"Kernel name, or a .wr loop file path.")
  in
  let run kernel = List.iter (fun l -> print_string (Wr_ir.Dot.of_loop l)) (loops_of kernel) in
  Cmd.v
    (Cmd.info "dot" ~doc:"Dump a kernel's (or .wr file's) dependence graph as Graphviz DOT")
    Term.(const run $ kernel)

(* --- serve / query / store ---------------------------------------------- *)

let socket_arg =
  let doc = "Listen on (serve) or connect to (query) a Unix-domain socket at PATH." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen on (serve) or connect to (query) TCP port N." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N" ~doc)

let host_arg =
  let doc = "Host for --port (bind address for serve, server address for query)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let endpoint_of socket port host =
  match (socket, port) with
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp (host, p)
  | Some _, Some _ ->
      prerr_endline "--socket and --port are mutually exclusive";
      exit 1
  | None, None ->
      prerr_endline "one of --socket PATH or --port N is required";
      exit 1

let run_serve socket port host queue_max budget_ms (opts : Run.t) =
  Run.configure opts;
  let cfg =
    {
      Wr_serve.Server.listen = endpoint_of socket port host;
      queue_max;
      request_budget_ms = budget_ms;
      store = opts.Run.store;
    }
  in
  match Wr_serve.Server.run cfg with
  | () -> Run.write_outputs stderr opts
  | exception Core.Store.Locked msg ->
      prerr_endline msg;
      exit 2
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "serve: %s: %s %s\n" (Unix.error_message e) fn arg;
      exit 2

let serve_cmd =
  let queue_max =
    let doc =
      "Admission bound: at most N requests outstanding (queued or evaluating); requests \
       beyond that are shed immediately with an explicit busy reply, so memory stays \
       bounded under any offered load."
    in
    Arg.(value & opt int Wr_serve.Server.default_queue_max
         & info [ "queue-max" ] ~docv:"N" ~doc)
  in
  let budget_ms =
    let doc =
      "Default per-request deadline in milliseconds (a request's own deadline_ms field \
       overrides it); an overrun degrades the point through the quarantine path and the \
       reply says so."
    in
    Arg.(value & opt (some int) None & info [ "request-budget-ms" ] ~docv:"MS" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the design-space query daemon: concurrent study/point queries over a \
             Unix or TCP socket, with duplicate-request coalescing, bounded admission \
             with explicit load shedding, per-request deadlines, and an optional \
             crash-safe persistent result store for zero-re-evaluation warm starts. \
             SIGTERM/SIGINT drain gracefully.")
    Term.(const run_serve $ socket_arg $ port_arg $ host_arg $ queue_max $ budget_ms
          $ Run.engine_term)

let query_ops = [ ("point", `Point); ("suite", `Suite); ("health", `Health); ("shutdown", `Shutdown) ]

let run_query op socket port host suite index config_str cycles registers deadline_ms id
    timeout_ms retries base_ms max_ms =
  let module P = Wr_serve.Protocol in
  let module J = Core.Bench_schema in
  let target = (endpoint_of socket port host :> Wr_serve.Client.target) in
  let line =
    match op with
    | `Health -> P.req_health ?id ()
    | `Shutdown -> P.req_shutdown ?id ()
    | `Point ->
        P.req_eval ?id ?registers ?cycles ?deadline_ms ~suite ~index ~config:config_str ()
    | `Suite -> P.req_suite ?id ?registers ?cycles ?deadline_ms ~suite ~config:config_str ()
  in
  (* Seed the backoff jitter from the pid so a herd of concurrent
     clients retrying against a busy server desynchronizes. *)
  let seed = Int64.of_int (Unix.getpid ()) in
  match
    Wr_serve.Client.query target ~timeout_ms ~attempts:retries ~base_ms ~max_ms ~seed line
  with
  | Error (Wr_serve.Client.Busy msg) ->
      Printf.eprintf "query: still busy after %d attempt(s): %s\n" retries msg;
      (* 4 = busy-after-retries (see README "Exit codes"): retryable by
         the caller, distinct from a hard failure. *)
      exit 4
  | Error e ->
      Printf.eprintf "query: %s\n" (Wr_serve.Client.error_message e);
      exit 2
  | Ok reply -> (
      (match J.member "result" reply with
      | Some r -> print_endline (J.to_string r)
      | None -> print_endline (J.to_string reply));
      match op with
      | `Point | `Suite ->
          let field k =
            match J.member k reply with
            | Some (J.Str v) -> v
            | Some (J.Bool b) -> string_of_bool b
            | _ -> "-"
          in
          Printf.eprintf "[query] source=%s degraded=%s coalesced=%s\n" (field "source")
            (field "degraded") (field "coalesced")
      | `Health | `Shutdown -> ())

let query_cmd =
  let op =
    let doc =
      "Operation: $(b,point) (evaluate one suite point), $(b,suite) (aggregate over the \
       whole suite), $(b,health) (server metrics, cache hit rates, queue depth), or \
       $(b,shutdown) (graceful drain)."
    in
    Arg.(required & pos 0 (some (enum query_ops)) None & info [] ~docv:"OP" ~doc)
  in
  let suite =
    Arg.(value & opt string "full"
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Suite id: $(b,full) or $(b,sampleN) (e.g. sample50).")
  in
  let index =
    Arg.(value & opt int 0 & info [ "i"; "index" ] ~docv:"N" ~doc:"Loop index for point.")
  in
  let cycles =
    Arg.(value & opt (some int) None
         & info [ "cycles" ] ~docv:"N"
             ~doc:"Cycle model (1-4); defaults to the one the configuration implies.")
  in
  let registers =
    Arg.(value & opt (some int) None
         & info [ "registers" ] ~docv:"N"
             ~doc:"Register file size; defaults to the configuration's.")
  in
  let deadline =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline; an overrun degrades the point server-side.")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed back in the reply.")
  in
  let timeout =
    Arg.(value & opt int 30000
         & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Socket connect/read timeout per attempt.")
  in
  let retries =
    Arg.(value & opt int 5
         & info [ "retries" ] ~docv:"N"
             ~doc:"Total attempts on busy replies or connection failures (jittered \
                   exponential backoff between them); 1 disables retrying.")
  in
  let base =
    Arg.(value & opt int 100
         & info [ "backoff-base-ms" ] ~docv:"MS" ~doc:"First retry delay before jitter.")
  in
  let cap =
    Arg.(value & opt int 2000
         & info [ "backoff-max-ms" ] ~docv:"MS" ~doc:"Retry delay ceiling before jitter.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Query a running widening-serve daemon.  Prints the result JSON to stdout and \
             reply metadata (cache source, degradation, coalescing) to stderr.  Exit 0 on \
             success, 2 on a definitive server or connection error, 4 when the server was \
             still shedding load after every retry.")
    Term.(const run_query $ op $ socket_arg $ port_arg $ host_arg $ suite $ index
          $ config_arg "4w2(64)" $ cycles $ registers $ deadline $ id $ timeout $ retries $ base
          $ cap)

let store_cmd =
  let action =
    let doc = "$(b,stat) (report segments/entries/recovery) or $(b,compact) (rewrite as \
               one sorted, deduplicated segment — the canonical byte-comparable form)." in
    Arg.(required & pos 0 (some (enum [ ("stat", `Stat); ("compact", `Compact) ])) None
         & info [] ~docv:"ACTION" ~doc)
  in
  let dir =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Store directory.")
  in
  let run action dir =
    match Core.Store.open_dir dir with
    | exception Core.Store.Locked msg ->
        prerr_endline msg;
        exit 2
    | t, r ->
        Printf.printf "%s: %d entries in %d segment(s)\n" dir r.Core.Store.entries
          r.Core.Store.segments;
        if r.Core.Store.quarantined_segments > 0 then
          Printf.printf "  recovery: %d corrupt segment(s) quarantined\n"
            r.Core.Store.quarantined_segments;
        if r.Core.Store.truncated_bytes > 0 then
          Printf.printf "  recovery: %d torn byte(s) truncated\n" r.Core.Store.truncated_bytes;
        (match action with
        | `Stat -> ()
        | `Compact ->
            Core.Store.compact t;
            Printf.printf "compacted to 1 segment (%d entries)\n" (Core.Store.length t));
        Core.Store.close t
  in
  Cmd.v
    (Cmd.info "store" ~doc:"Inspect or compact a persistent result store directory")
    Term.(const run $ action $ dir)

let () =
  let info =
    Cmd.info "widening-cli" ~version:"1.0.0"
      ~doc:"Replication vs. widening design-space study (Lopez et al., MICRO 1998)"
  in
  exit
    (Run.exit_code
       (Cmd.eval
          (Cmd.group info
             [
               experiment_cmd; schedule_cmd; configs_cmd; workload_cmd; dot_cmd; codegen_cmd;
               simulate_cmd; file_cmd; check_cmd; serve_cmd; query_cmd; store_cmd;
             ])))
