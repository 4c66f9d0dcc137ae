(* Tests for wr_workload: the kernel library and the synthetic suite
   generator (determinism, statistics, structural sanity). *)

module Ddg = Wr_ir.Ddg
module Loop = Wr_ir.Loop
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module K = Wr_workload.Kernels
module Generator = Wr_workload.Generator
module Suite = Wr_workload.Suite

let test_kernels_all_valid () =
  (* Construction already validates; check each has ops and a store or
     a recurrence (some observable result). *)
  List.iter
    (fun (name, loop) ->
      Alcotest.(check bool) (name ^ " non-empty") true (Loop.num_ops loop > 0);
      let has_store =
        Array.exists
          (fun (o : Operation.t) -> o.Operation.opcode = Opcode.Store)
          (Ddg.ops loop.Loop.ddg)
      in
      Alcotest.(check bool)
        (name ^ " has store or recurrence")
        true
        (has_store || Ddg.has_recurrence loop.Loop.ddg))
    (K.all ())

let test_kernel_count () =
  Alcotest.(check int) "20 kernels" 20 (List.length (K.all ()))

let test_kernels_expected_recurrences () =
  let recurrent = [ "dot_product"; "tridiag_elimination"; "linear_recurrence"; "norm2"; "prefix_max_ratio" ] in
  List.iter
    (fun (name, loop) ->
      let expected = List.mem name recurrent in
      Alcotest.(check bool) (name ^ " recurrence flag") expected
        (Ddg.has_recurrence loop.Loop.ddg))
    (K.all ())

let test_generator_deterministic () =
  let a = Generator.generate { Generator.default with Generator.num_loops = 25 } in
  let b = Generator.generate { Generator.default with Generator.num_loops = 25 } in
  Alcotest.(check int) "same count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i la ->
      let lb = b.(i) in
      Alcotest.(check int) "same ops" (Loop.num_ops la) (Loop.num_ops lb);
      Alcotest.(check int) "same trip" la.Loop.trip_count lb.Loop.trip_count;
      Alcotest.(check (float 1e-12)) "same weight" la.Loop.weight lb.Loop.weight;
      Alcotest.(check int) "same edges"
        (List.length (Ddg.edges la.Loop.ddg))
        (List.length (Ddg.edges lb.Loop.ddg)))
    a

let test_generator_seed_changes_suite () =
  let a = Generator.generate { Generator.default with Generator.num_loops = 30 } in
  let b =
    Generator.generate { Generator.default with Generator.num_loops = 30; Generator.seed = 99L }
  in
  let sizes loops = Array.map Loop.num_ops loops in
  Alcotest.(check bool) "different shapes" true (sizes a <> sizes b)

let test_generator_respects_bounds () =
  let p = { Generator.default with Generator.num_loops = 100 } in
  let loops = Generator.generate p in
  Array.iter
    (fun (l : Loop.t) ->
      Alcotest.(check bool) "trip bounds" true (l.Loop.trip_count >= p.Generator.trip_min);
      Alcotest.(check bool) "weight positive" true (l.Loop.weight > 0.0);
      (* A one-op body (a bare reduction) is degenerate but legal. *)
      Alcotest.(check bool) "non-trivial body" true (Loop.num_ops l >= 1))
    loops

let test_generator_mix_statistics () =
  (* On a decent sample the op mix must hit the calibrated region:
     memory share 35-55%, recurrence loops 20-45%. *)
  let loops = Generator.generate { Generator.default with Generator.num_loops = 300 } in
  let mem = ref 0 and total = ref 0 and rec_loops = ref 0 in
  Array.iter
    (fun (l : Loop.t) ->
      if Ddg.has_recurrence l.Loop.ddg then incr rec_loops;
      Array.iter
        (fun (o : Operation.t) ->
          incr total;
          if Opcode.is_memory o.Operation.opcode then incr mem)
        (Ddg.ops l.Loop.ddg))
    loops;
  let mem_share = float_of_int !mem /. float_of_int !total in
  let rec_share = float_of_int !rec_loops /. 300.0 in
  Alcotest.(check bool) (Printf.sprintf "memory share %.2f" mem_share) true
    (mem_share > 0.30 && mem_share < 0.55);
  Alcotest.(check bool) (Printf.sprintf "recurrence share %.2f" rec_share) true
    (rec_share > 0.15 && rec_share < 0.45)

let test_suite_size_and_memoization () =
  let a = Suite.perfect_club_like () in
  let b = Suite.perfect_club_like () in
  Alcotest.(check int) "1180 loops" 1180 (Array.length a);
  Alcotest.(check bool) "memoized" true (a == b)

let test_suite_sample () =
  let s = Suite.sample 50 in
  Alcotest.(check bool) "about 50" true (Array.length s >= 45 && Array.length s <= 55);
  Alcotest.(check bool) "subset of suite" true
    (Array.for_all
       (fun (l : Loop.t) ->
         Array.exists (fun (m : Loop.t) -> m == l) (Suite.perfect_club_like ()))
       s)

let test_suite_statistics_text () =
  let s = Suite.statistics (Suite.sample 30) in
  Alcotest.(check bool) "mentions loops" true (String.length s > 40)

let test_with_kernels () =
  let all = Suite.with_kernels () in
  Alcotest.(check int) "suite + 20 kernels" (1180 + 20) (Array.length all)

(* --- Livermore kernels ------------------------------------------------------ *)

module L = Wr_workload.Livermore

let test_livermore_count () =
  Alcotest.(check int) "16 kernels" 16 (List.length (L.all ()));
  Alcotest.(check int) "suite size" 16 (Array.length (L.suite ()))

let test_livermore_recurrence_flags () =
  let recurrent = [ "k3"; "k5"; "k11"; "k19"; "k20"; "k23" ] in
  List.iter
    (fun (name, loop) ->
      Alcotest.(check bool) (name ^ " recurrence flag") (List.mem name recurrent)
        (Ddg.has_recurrence loop.Loop.ddg))
    (L.all ())

let test_livermore_known_rec_rates () =
  let cm = Wr_machine.Cycle_model.Cycles_4 in
  let rate name =
    Wr_sched.Mii.rec_rate ~cycle_model:cm (List.assoc name (L.all ())).Loop.ddg
  in
  (* k11: one latency-4 add at distance 1. *)
  Alcotest.(check (float 1e-6)) "k11 rate" 4.0 (rate "k11");
  (* k5: subtract then multiply, both latency 4. *)
  Alcotest.(check (float 1e-6)) "k5 rate" 8.0 (rate "k5");
  (* k19: multiply then add. *)
  Alcotest.(check (float 1e-6)) "k19 rate" 8.0 (rate "k19");
  (* k20's critical cycle: multiply (4), add (4), divide (19), final
     multiply (4). *)
  Alcotest.(check (float 1e-6)) "k20 rate" 31.0 (rate "k20")

let test_livermore_all_schedulable () =
  let resource = Wr_machine.Resource.of_config (Wr_machine.Config.xwy ~x:2 ~y:1 ()) in
  List.iter
    (fun (name, loop) ->
      let r =
        Wr_sched.Modulo.run resource ~cycle_model:Wr_machine.Cycle_model.Cycles_4
          loop.Loop.ddg
      in
      Alcotest.(check int) (name ^ " reaches MII") r.Wr_sched.Modulo.mii
        r.Wr_sched.Modulo.schedule.Wr_sched.Schedule.ii)
    (L.all ())

let test_livermore_widen_equivalence () =
  List.iter
    (fun (name, loop) ->
      List.iter
        (fun y ->
          let wide, _ = Wr_widen.Transform.widen loop ~width:y in
          let arrays = Wr_vliw.Interp.arrays_of loop in
          let a =
            Wr_vliw.Interp.restrict (Wr_vliw.Interp.run ~iterations:(6 * y) loop) ~arrays
          in
          let b = Wr_vliw.Interp.restrict (Wr_vliw.Interp.run ~iterations:6 wide) ~arrays in
          Alcotest.(check bool)
            (Printf.sprintf "%s@w%d semantics" name y)
            true
            (Wr_vliw.Interp.equal_memory a b))
        [ 2; 4 ])
    (L.all ())

(* The run front ends and the query service name suites with one
   function pair; its error strings are part of the service protocol. *)
let test_suite_ids () =
  List.iter
    (fun id ->
      Alcotest.(check (result string string)) id (Ok id) (Result.map Suite.id (Suite.parse_id id)))
    [ "full"; "sample12" ];
  Alcotest.(check int) "sample12 loops" 12 (Array.length (Suite.of_sample (Some 12)));
  let bad = Printf.sprintf "bad suite %S: sampleN needs a positive N" in
  let unknown = Printf.sprintf "unknown suite %S (expected \"full\" or \"sampleN\")" in
  List.iter
    (fun (id, msg) ->
      Alcotest.(check (result (option int) string)) id (Error msg) (Suite.parse_id id))
    [ ("sample0", bad "sample0"); ("samplex", bad "samplex"); ("sample", unknown "sample");
      ("foo", unknown "foo") ]

let () =
  Alcotest.run "wr_workload"
    [
      ( "kernels",
        [
          Alcotest.test_case "all valid" `Quick test_kernels_all_valid;
          Alcotest.test_case "count" `Quick test_kernel_count;
          Alcotest.test_case "recurrence flags" `Quick test_kernels_expected_recurrences;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_changes_suite;
          Alcotest.test_case "bounds" `Quick test_generator_respects_bounds;
          Alcotest.test_case "mix statistics" `Quick test_generator_mix_statistics;
        ] );
      ( "livermore",
        [
          Alcotest.test_case "count" `Quick test_livermore_count;
          Alcotest.test_case "recurrence flags" `Quick test_livermore_recurrence_flags;
          Alcotest.test_case "known rec rates" `Quick test_livermore_known_rec_rates;
          Alcotest.test_case "all schedulable" `Quick test_livermore_all_schedulable;
          Alcotest.test_case "widen equivalence" `Quick test_livermore_widen_equivalence;
        ] );
      ( "suite",
        [
          Alcotest.test_case "size/memoization" `Quick test_suite_size_and_memoization;
          Alcotest.test_case "sample" `Quick test_suite_sample;
          Alcotest.test_case "statistics" `Quick test_suite_statistics_text;
          Alcotest.test_case "with kernels" `Quick test_with_kernels;
          Alcotest.test_case "ids" `Quick test_suite_ids;
        ] );
    ]
