(* Golden-file tests: the figure CSVs regenerate bit-identically.

   The files under golden/ were produced by the bench harness
   ([bench/main.exe fig2|fig3|fig9 -s 120 --csv ...]) on the seed
   implementation; the tests here rebuild the same CSV strings through
   the shared experiment table ({!Run.experiments}) and
   {!Core.Csv_export} — exactly what the harness writes — on the same
   deterministic 120-loop sample.  Any change to the
   scheduler, allocator, cost model or CSV format that perturbs a
   single byte of the figures fails these tests. *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* One run of each figure through the experiment table both front ends
   use; fig3 and fig9 also carry their per-family tables (the synthetic
   family is the sampled suite itself and shares its evaluation cache,
   "real" is the hand-written kernel family). *)
let suite = lazy (Run.suite (Some 120))

let outputs =
  List.map
    (fun id -> (id, lazy ((List.assoc id Run.experiments) (Lazy.force suite))))
    [ "fig2"; "fig3"; "fig9" ]

let check_golden id name () =
  let o = Lazy.force (List.assoc id outputs) in
  let t = List.find (fun (t : Run.table) -> t.Run.name = name) o.Run.tables in
  let expected = read_file (Filename.concat "golden" (name ^ ".csv")) in
  Alcotest.(check string)
    (name ^ ".csv bit-identical") expected
    (Core.Csv_export.to_string ~header:t.Run.header t.Run.rows)

let () =
  Alcotest.run "golden"
    [
      ( "figures",
        [
          Alcotest.test_case "fig2" `Slow (check_golden "fig2" "fig2");
          Alcotest.test_case "fig3" `Slow (check_golden "fig3" "fig3");
          Alcotest.test_case "fig9" `Slow (check_golden "fig9" "fig9");
          Alcotest.test_case "fig3 families" `Slow (check_golden "fig3" "fig3_families");
          Alcotest.test_case "fig9 families" `Slow (check_golden "fig9" "fig9_families");
        ] );
    ]
