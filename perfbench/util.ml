(* Timing, statistics and result rendering shared by the workloads. *)

module J = Core.Bench_schema

let now () = float_of_int (Wr_obs.Obs.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The reference kernel: a fixed computation that calls no code of the
   repository.  It builds a binary search tree of 30 000 seeded keys in
   preallocated arrays (dependent loads down the tree, like the
   pipeline's pointer chasing), then streams writes over a 4 MiB array
   (like the allocation front sweeping the minor heap).  It allocates
   nothing, so that running it between pieces of measured work leaves
   their garbage collection, and the allocation counts, as they were.
   Timed next to a piece of measured work, it tells how fast the shared
   machine runs at that moment; [reference_s] gives the fastest of three
   runs, so that a stall during one of them does not count.
   [reference_nominal_s] is its typical time on a 2-vCPU Xeon virtual
   machine at 2.0 GHz; a time scaled by
   [reference_nominal_s /. reference_s ()] is in seconds of that machine
   at that speed. *)
let reference_nodes = 30_000

let reference_arrays =
  lazy
    ( Array.make reference_nodes 0,
      Array.make reference_nodes (-1),
      Array.make reference_nodes (-1),
      Array.make (1 lsl 19) 0 )

let reference () =
  let key, left, right, buf = Lazy.force reference_arrays in
  let rng = ref 12345 in
  key.(0) <- 500_000;
  left.(0) <- -1;
  right.(0) <- -1;
  for n = 1 to reference_nodes - 1 do
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    let k = !rng mod 1_000_000 in
    key.(n) <- k;
    left.(n) <- -1;
    right.(n) <- -1;
    let i = ref 0 in
    while !i >= 0 do
      let side = if k < key.(!i) then left else right in
      let next = side.(!i) in
      if next < 0 then begin
        side.(!i) <- n;
        i := -1
      end
      else i := next
    done
  done;
  let n = Array.length buf and h = ref 0 in
  for pass = 1 to 6 do
    for k = 0 to n - 1 do
      buf.(k) <- k + pass;
      if k land 7 = 0 then h := (!h lxor buf.((k * 7919) land (n - 1))) * 31
    done
  done;
  !h

let reference_nominal_s = 0.015

let reference_s () =
  let once () = snd (timed (fun () -> ignore (Sys.opaque_identity (reference ())))) in
  List.fold_left Float.min (once ()) [ once (); once () ]

let median = function
  | [] -> 0.0
  | xs -> Wr_util.Stats.median (Array.of_list xs)

(* [pct xs 99.0]: linear-interpolated percentile, 0 on no samples. *)
let pct xs p = match xs with [] -> 0.0 | xs -> Wr_util.Stats.percentile (Array.of_list xs) p

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Repeat [f] [n] times; the first result and the median duration. *)
let median_of_runs n f =
  let runs = List.init n (fun _ -> timed f) in
  (fst (List.hd runs), median (List.map snd runs))

(* One field of /proc/<pid>/status in kB (VmHWM is the resident high-water
   mark), 0 when the field or the file is missing. *)
let proc_status_kb ?(pid = "self") field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = field ->
                 let rest = String.sub line (i + 1) (String.length line - i - 1) in
                 Scanf.sscanf_opt (String.trim rest) "%d" Fun.id
             | _ -> None)
      |> Option.value ~default:0

let peak_rss_mb ?pid () = float_of_int (proc_status_kb ?pid "VmHWM") /. 1024.0

(* Words this process allocated since [g0]. *)
let allocated_words (g0 : Gc.stat) (g1 : Gc.stat) =
  g1.Gc.minor_words -. g0.Gc.minor_words +. (g1.Gc.major_words -. g0.Gc.major_words)
  -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)

(* A result: metrics in a fixed order, each with its unit; figures that
   are reported but not gated (too noisy on a 2-vCPU virtual machine, or a
   step on a fixed ladder); the correctness tally; free-form facts about
   the run. *)
type result = {
  mutable metrics : (string * float * string) list;
  mutable reported : (string * float * string) list;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable info : (string * J.json) list;
}

let result () = { metrics = []; reported = []; attempted = 0; failed = 0; problems = []; info = [] }

let metric r name value unit = r.metrics <- r.metrics @ [ (name, value, unit) ]

let reported r name value unit = r.reported <- r.reported @ [ (name, value, unit) ]

let info r key v = r.info <- r.info @ [ (key, v) ]

(* Count [n] attempts of which [bad] failed, remembering why. *)
let tally r ~what n bad =
  r.attempted <- r.attempted + n;
  r.failed <- r.failed + bad;
  if bad > 0 then r.problems <- r.problems @ [ Printf.sprintf "%s: %d of %d failed" what bad n ]

let fingerprint () =
  [
    ("nproc", J.int (Domain.recommended_domain_count ()));
    ("ocaml", J.str Sys.ocaml_version);
    ("os", J.str Sys.os_type);
  ]

let num v = J.Num (v, Printf.sprintf "%.17g" v)

let to_json ~workload ~trace r =
  let metrics l =
    J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", num v); ("unit", J.str u) ])) l)
  in
  J.Obj
    [
      ("workload", J.str workload);
      ("trace", J.Bool trace);
      ("correct", J.Bool (r.failed = 0));
      ("attempted", J.int r.attempted);
      ("failed", J.int r.failed);
      ("metrics", metrics r.metrics);
      ("reported", metrics (r.reported @ [ ("failed_share", ratio r.failed r.attempted, "ratio") ]));
      ("problems", J.List (List.map J.str r.problems));
      ("fingerprint", J.Obj (fingerprint ()));
      ("info", J.Obj r.info);
    ]
