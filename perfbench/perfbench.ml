(* perfbench: the workloads behind BENCHMARK.json.

     perfbench.exe run --workload sweep|verify|gap|serve --seed N --seconds S
                       [--trace] --golden FILE --cli FILE --tmp DIR
     perfbench.exe prefill --store DIR --seed N --seconds S
     perfbench.exe stream --seed N --seconds S
     perfbench.exe inputs --workload W --seed N --seconds S

   [run] prints one JSON object: the metrics with their units, the
   correctness tally and the machine fingerprint.  perfbench/run.py
   builds this program and turns that object into the benchmark's
   result line. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe (run|prefill|stream|inputs) --workload W --seed N --seconds S \
     [--trace] [--golden FILE] [--cli FILE] [--tmp DIR] [--store DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let mode, opts = match args with _ :: mode :: rest -> (mode, rest) | _ -> usage () in
  let rec get key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> get key rest
    | [] -> None
  in
  let flag key = List.mem key opts in
  let str key = match get key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (str key) with Some n -> n | None -> usage () in
  Wr_util.Pool.set_default_jobs 1;
  let seed = int "--seed" and seconds = int "--seconds" in
  let batch_kind = function
    | "sweep" -> Some Batch.Sweep
    | "verify" -> Some Batch.Verify
    | "gap" -> Some Batch.Gap
    | _ -> None
  in
  match mode with
  | "run" ->
      let workload = str "--workload" and trace = flag "--trace" in
      let r =
        match (workload, batch_kind workload) with
        | _, Some kind -> Batch.run kind ~seed ~seconds ~trace ~golden:(str "--golden")
        | "serve", None ->
            (* The store, sockets and server files live in the scratch
               directory the caller gives; paths below are relative to it. *)
            let cli = str "--cli" in
            Sys.chdir (str "--tmp");
            Serve_wl.run ~seed ~seconds ~trace ~cli
        | _ -> usage ()
      in
      print_endline (Util.J.to_string (Util.to_json ~workload ~trace r))
  | "prefill" -> Serve_wl.prefill ~store:(str "--store") ~seed ~seconds
  | "stream" -> print_string (Serve_wl.stream_text ~seed ~seconds)
  | "inputs" -> (
      (* A digest of the generated inputs, for the determinism self-test. *)
      match batch_kind (str "--workload") with
      | Some kind ->
          let loops, _, _ = Batch.prepare kind ~seed ~seconds ~reps:1 in
          print_endline
            (Digest.to_hex
               (Digest.string
                  (String.concat "\n" (Array.to_list (Array.map Wr_ir.Text_format.print loops)))))
      | None -> print_endline (Digest.to_hex (Digest.string (Serve_wl.stream_text ~seed ~seconds))))
  | _ -> usage ()
