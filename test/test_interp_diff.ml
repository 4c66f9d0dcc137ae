(* Differential tests for the two interpreter engines: the flat kernel
   (Interp.compile + run_plan, the default) must be bit-identical to
   the retained reference engine — memory image, loads, stores, flops —
   on every loop the transforms can produce: original, widened,
   unrolled, spilled, and the fma-bearing stencil family.  Plus
   regression tests for the satellite fixes (iterations = 0 fast path,
   restrict's sorted merge, equal_memory's single walk) and the
   determinism of verified runs across pool sizes. *)

module Ddg = Wr_ir.Ddg
module Loop = Wr_ir.Loop
module Operation = Wr_ir.Operation
module B = Wr_ir.Builder
module Interp = Wr_vliw.Interp
module Transform = Wr_widen.Transform
module Spill = Wr_regalloc.Spill
module Generator = Wr_workload.Generator
module Stencil = Wr_workload.Stencil

(* --- the differential check ---------------------------------------------- *)

let diff_check ~label ~iterations loop =
  let refr = Interp.run_reference ~iterations loop in
  let plan = Interp.compile loop in
  let flat = Interp.run_plan ~iterations plan in
  if not (Interp.equal_memory refr flat) then begin
    let diffs = Interp.diff_memory refr flat in
    let show ((a, ad), l, r) =
      Printf.sprintf "A%d[%d]: ref=%s flat=%s" a ad
        (match l with Some v -> Printf.sprintf "%h" v | None -> "-")
        (match r with Some v -> Printf.sprintf "%h" v | None -> "-")
    in
    Alcotest.fail
      (Printf.sprintf "%s: %d differing locations; first: %s" label (List.length diffs)
         (match diffs with d :: _ -> show d | [] -> "?"))
  end;
  Alcotest.(check int) (label ^ " loads") refr.Interp.loads flat.Interp.loads;
  Alcotest.(check int) (label ^ " stores") refr.Interp.stores flat.Interp.stores;
  Alcotest.(check int) (label ^ " flops") refr.Interp.flops flat.Interp.flops;
  (* A plan is reusable: a second run from the same plan must rebuild
     its arenas from scratch and reproduce the image exactly. *)
  let again = Interp.run_plan ~iterations plan in
  Alcotest.(check bool) (label ^ " plan reuse") true (Interp.equal_memory flat again)

(* Seeded generator loops, cycling parameter variants that stress the
   paths where the engines could diverge: non-compactable strides, big
   bodies (deep slot tables), and fused multiply-adds. *)
let variants =
  let d = Generator.default in
  [|
    d;
    { d with Generator.stride1_prob = 0.6 };
    { d with Generator.statements_mean = 6.0; statements_max = 20 };
    { d with Generator.fma_prob = 0.30 };
  |]

let seeded_loop seed =
  let rng = Wr_util.Rng.create ~seed:(Int64.of_int (seed + 7001)) in
  Generator.generate_one rng variants.(seed mod Array.length variants) ~index:seed

let spill_some loop n =
  let g = loop.Loop.ddg in
  let vregs =
    List.filteri (fun i _ -> i < n)
      (List.filter_map
         (fun (o : Operation.t) ->
           match o.Operation.def with
           | Some r when Ddg.users g r <> [] -> Some r
           | _ -> None)
         (Array.to_list (Ddg.ops g)))
  in
  if vregs = [] then None
  else
    Some
      (Loop.make
         ~name:(loop.Loop.name ^ "@spill")
         ~ddg:(Spill.apply g ~vregs).Spill.graph ~trip_count:loop.Loop.trip_count ())

let test_differential_fuzz () =
  for seed = 0 to 29 do
    let loop = seeded_loop seed in
    let tag fmt = Printf.sprintf fmt loop.Loop.name in
    diff_check ~label:(tag "%s") ~iterations:9 loop;
    List.iter
      (fun y ->
        let wide, _ = Transform.widen loop ~width:y in
        diff_check ~label:(tag "%s@w" ^ string_of_int y) ~iterations:5 wide)
      [ 2; 4 ];
    diff_check ~label:(tag "%s@u3") ~iterations:4 (Transform.unroll loop ~factor:3);
    let wide, _ = Transform.widen loop ~width:2 in
    Option.iter
      (fun spilled -> diff_check ~label:(tag "%s@w2spill") ~iterations:6 spilled)
      (spill_some wide 2)
  done

let test_differential_stencils () =
  List.iter
    (fun (name, loop) ->
      diff_check ~label:name ~iterations:12 loop;
      let wide, _ = Transform.widen loop ~width:4 in
      diff_check ~label:(name ^ "@w4") ~iterations:4 wide)
    (Stencil.all ())

(* --- iterations = 0 / 1 fast paths ---------------------------------------- *)

let test_zero_iterations () =
  let loop = Wr_workload.Kernels.daxpy () in
  List.iter
    (fun (label, r) ->
      Alcotest.(check int) (label ^ " loads") 0 r.Interp.loads;
      Alcotest.(check int) (label ^ " stores") 0 r.Interp.stores;
      Alcotest.(check int) (label ^ " flops") 0 r.Interp.flops;
      Alcotest.(check bool) (label ^ " empty image") true (r.Interp.memory = []))
    [
      ("run", Interp.run ~iterations:0 loop);
      ("reference", Interp.run_reference ~iterations:0 loop);
      ("plan", Interp.run_plan ~iterations:0 (Interp.compile loop));
    ]

let test_one_iteration () =
  List.iter
    (fun (name, loop) -> diff_check ~label:(name ^ "@1iter") ~iterations:1 loop)
    (Wr_workload.Kernels.all ())

(* --- Fma semantics --------------------------------------------------------- *)

let test_fma_single_rounding () =
  (* d(i) = fma(a(i), b(i), c(i)) over the hash-derived initial memory:
     the stored word must be Float.fma of the three inputs — single
     rounding, not multiply-then-add. *)
  let b = B.create () in
  let x = B.load b ~array_id:0 () in
  let y = B.load b ~array_id:1 () in
  let z = B.load b ~array_id:2 () in
  B.store b ~array_id:3 () (B.fma b x y z);
  let loop = B.finish b ~trip_count:4 () in
  let r = Interp.run ~iterations:4 loop in
  for i = 0 to 3 do
    let expected =
      Float.fma
        (Interp.initial_memory_value 0 i)
        (Interp.initial_memory_value 1 i)
        (Interp.initial_memory_value 2 i)
    in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "fma word %d" i)
      expected
      (List.assoc (3, i) r.Interp.memory)
  done;
  Alcotest.(check int) "fma loads" 12 r.Interp.loads;
  Alcotest.(check int) "fma flops" 4 r.Interp.flops

let test_fma_simulates () =
  (* The cycle-level simulator executes Fma too: the gold check on the
     stencil family, which is fma-dense by construction. *)
  List.iter
    (fun (name, loop) ->
      List.iter
        (fun (x, y) ->
          let cfg = Wr_machine.Config.xwy ~x ~y () in
          match Wr_vliw.Sim.check_against_reference loop cfg ~iterations:6 with
          | Ok _ -> ()
          | Error msg ->
              Alcotest.fail
                (Printf.sprintf "%s on %s: %s" name (Wr_machine.Config.label_short cfg) msg))
        [ (1, 1); (2, 2) ])
    (Stencil.all ())

let test_fma_in_generator () =
  (* With fma_prob on, the generator must actually emit Fma ops (and
     the loops must execute — covered by the differential fuzz above,
     whose variant cycle includes this one). *)
  let count_fma loop =
    Array.fold_left
      (fun acc (o : Operation.t) ->
        if o.Operation.opcode = Wr_ir.Opcode.Fma then acc + 1 else acc)
      0
      (Ddg.ops loop.Loop.ddg)
  in
  let rng = Wr_util.Rng.create ~seed:99L in
  let total = ref 0 in
  for i = 0 to 19 do
    total :=
      !total
      + count_fma
          (Generator.generate_one rng
             { Generator.default with Generator.fma_prob = 0.5 }
             ~index:i)
  done;
  Alcotest.(check bool) "generator emits fmas" true (!total > 0)

(* --- satellite regressions ------------------------------------------------- *)

let mk_result memory = { Interp.memory; loads = 0; stores = 0; flops = 0 }

let test_restrict_sorted_merge () =
  let r =
    mk_result [ ((0, 0), 1.0); ((1, 0), 2.0); ((1, 7), 2.5); ((2, 5), 3.0); ((3, 1), 4.0) ]
  in
  let keys res = List.map fst res.Interp.memory in
  Alcotest.(check (list (pair int int)))
    "keeps only requested arrays, in order"
    [ (1, 0); (1, 7); (3, 1) ]
    (keys (Interp.restrict r ~arrays:[ 1; 3 ]));
  (* Unsorted and duplicated array lists are normalized. *)
  Alcotest.(check (list (pair int int)))
    "normalizes the array list"
    [ (1, 0); (1, 7); (3, 1) ]
    (keys (Interp.restrict r ~arrays:[ 3; 1; 1 ]));
  Alcotest.(check (list (pair int int))) "empty arrays" [] (keys (Interp.restrict r ~arrays:[]));
  Alcotest.(check (list (pair int int)))
    "disjoint arrays" []
    (keys (Interp.restrict r ~arrays:[ 9 ]))

let test_equal_memory_bitwise () =
  Alcotest.(check bool) "equal" true
    (Interp.equal_memory (mk_result [ ((0, 0), 1.5) ]) (mk_result [ ((0, 0), 1.5) ]));
  Alcotest.(check bool) "value differs" false
    (Interp.equal_memory (mk_result [ ((0, 0), 1.5) ]) (mk_result [ ((0, 0), 1.25) ]));
  Alcotest.(check bool) "key differs" false
    (Interp.equal_memory (mk_result [ ((0, 0), 1.5) ]) (mk_result [ ((0, 1), 1.5) ]));
  Alcotest.(check bool) "length differs" false
    (Interp.equal_memory (mk_result [ ((0, 0), 1.5) ]) (mk_result []));
  (* Bit-level, not (=): identical NaNs compare equal, 0.0 <> -0.0. *)
  Alcotest.(check bool) "nan = nan" true
    (Interp.equal_memory (mk_result [ ((0, 0), Float.nan) ]) (mk_result [ ((0, 0), Float.nan) ]));
  Alcotest.(check bool) "0.0 <> -0.0" false
    (Interp.equal_memory (mk_result [ ((0, 0), 0.0) ]) (mk_result [ ((0, 0), -0.0) ]))

(* --- workload family cut --------------------------------------------------- *)

let test_families_cut () =
  let fams = Wr_workload.Suite.families_for ~sample:None in
  Alcotest.(check (list string)) "family names" [ "synthetic"; "real" ] (List.map fst fams);
  let real = List.assoc "real" fams in
  Alcotest.(check bool) "real family is non-trivial" true (Array.length real >= 12);
  (* Every real kernel interprets (totality) and the stencils are in. *)
  Array.iter (fun l -> ignore (Interp.run ~iterations:2 l)) real;
  let names = Array.to_list (Array.map (fun (l : Loop.t) -> l.Loop.name) real) in
  List.iter
    (fun (n, _) -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    (Stencil.all ())

(* --- verified runs are deterministic across pool sizes ---------------------- *)

let test_verified_deterministic_across_jobs () =
  let loops = Wr_workload.Suite.sample 10 in
  Core.Evaluate.set_verify true;
  let run jobs =
    Wr_util.Pool.set_default_jobs jobs;
    Core.Evaluate.clear_cache ();
    Core.Spill_study.to_text
      (Core.Spill_study.run ~suite_id:(Printf.sprintf "diffjobs%d" jobs) loops)
  in
  let a = run 1 in
  let b = run 4 in
  Core.Evaluate.set_verify false;
  Wr_util.Pool.set_default_jobs 1;
  Core.Evaluate.clear_cache ();
  Alcotest.(check string) "verified study identical at jobs=1 and jobs=4" a b

let () =
  Alcotest.run "interp_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "seeded transforms" `Quick test_differential_fuzz;
          Alcotest.test_case "stencil family" `Quick test_differential_stencils;
          Alcotest.test_case "one iteration" `Quick test_one_iteration;
        ] );
      ( "fast paths",
        [ Alcotest.test_case "zero iterations" `Quick test_zero_iterations ] );
      ( "fma",
        [
          Alcotest.test_case "single rounding" `Quick test_fma_single_rounding;
          Alcotest.test_case "simulates" `Quick test_fma_simulates;
          Alcotest.test_case "generator emits" `Quick test_fma_in_generator;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "restrict merge" `Quick test_restrict_sorted_merge;
          Alcotest.test_case "equal_memory bitwise" `Quick test_equal_memory_bitwise;
          Alcotest.test_case "families cut" `Quick test_families_cut;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "verified jobs=1 vs jobs=4" `Slow
            test_verified_deterministic_across_jobs;
        ] );
    ]
