module Loop = Wr_ir.Loop
module Ddg = Wr_ir.Ddg
module Opcode = Wr_ir.Opcode
module Operation = Wr_ir.Operation

let cache = ref None

let perfect_club_like () =
  match !cache with
  | Some loops -> loops
  | None ->
      let loops = Generator.generate Generator.default in
      cache := Some loops;
      loops

let sample k =
  let all = perfect_club_like () in
  if k <= 0 then invalid_arg "Suite.sample: size must be positive";
  let n = Array.length all in
  let step = Stdlib.max 1 (n / k) in
  Array.init (Stdlib.min k ((n + step - 1) / step)) (fun i -> all.(i * step))

let id = function None -> "full" | Some n -> Printf.sprintf "sample%d" n

let parse_id name =
  if String.equal name "full" then Ok None
  else if String.length name > 6 && String.equal (String.sub name 0 6) "sample" then
    match int_of_string_opt (String.sub name 6 (String.length name - 6)) with
    | Some n when n >= 1 -> Ok (Some n)
    | _ -> Error (Printf.sprintf "bad suite %S: sampleN needs a positive N" name)
  else Error (Printf.sprintf "unknown suite %S (expected \"full\" or \"sampleN\")" name)

let of_sample = function None -> perfect_club_like () | Some n -> sample n

let with_kernels () =
  Array.append (Array.of_list (List.map snd (Kernels.all ()))) (perfect_club_like ())

let real () =
  Array.concat
    [
      Array.of_list (List.map snd (Kernels.all ()));
      Livermore.suite ();
      Stencil.suite ();
    ]

let families_for ~sample:k = [ ("synthetic", of_sample k); ("real", real ()) ]

let statistics loops =
  let total_ops = ref 0 and total_loops = Array.length loops in
  let opcode_counts = Hashtbl.create 16 in
  let recurrence_loops = ref 0 in
  let sizes = ref [] in
  Array.iter
    (fun (l : Loop.t) ->
      let g = l.Loop.ddg in
      let n = Ddg.num_ops g in
      total_ops := !total_ops + n;
      sizes := float_of_int n :: !sizes;
      if Ddg.has_recurrence g then incr recurrence_loops;
      Array.iter
        (fun (o : Operation.t) ->
          let key = Opcode.to_string o.Operation.opcode in
          Hashtbl.replace opcode_counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt opcode_counts key)))
        (Ddg.ops g))
    loops;
  let sizes = Array.of_list !sizes in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "loops: %d, ops: %d (mean %.1f, median %.0f, p95 %.0f)\n" total_loops
       !total_ops
       (Wr_util.Stats.mean sizes)
       (Wr_util.Stats.median sizes)
       (Wr_util.Stats.percentile sizes 95.0));
  Buffer.add_string buf
    (Printf.sprintf "loops with recurrences: %d (%.1f%%)\n" !recurrence_loops
       (100.0 *. float_of_int !recurrence_loops /. float_of_int (Stdlib.max 1 total_loops)));
  let entries =
    List.sort (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) opcode_counts [])
  in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-6s %6d (%.1f%%)\n" k v
           (100.0 *. float_of_int v /. float_of_int (Stdlib.max 1 !total_ops))))
    entries;
  Buffer.contents buf
