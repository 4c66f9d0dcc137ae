(* Canonical CSV serialisations of the figure studies.  The bench
   harness writes results/*.csv through these builders and the golden
   tests regenerate the same strings, so the two can never drift on
   format. *)

module Config = Wr_machine.Config

let fig2_header = [ "factor"; "config"; "speedup" ]

let fig2_rows (t : Peak_study.t) =
  List.concat_map
    (fun (factor, points) ->
      List.map
        (fun (p : Peak_study.point) ->
          [
            string_of_int factor;
            Config.label_short p.Peak_study.config;
            Printf.sprintf "%.4f" p.Peak_study.speedup;
          ])
        points)
    t

let fig3_header = [ "config"; "registers"; "speedup" ]

let fig3_rows (t : Spill_study.t) =
  List.concat_map
    (fun (r : Spill_study.row) ->
      List.map
        (fun (z, cell) ->
          [
            Config.label_short r.Spill_study.config;
            string_of_int z;
            (match cell with
            | Spill_study.Speedup s -> Printf.sprintf "%.4f" s
            | Spill_study.Not_schedulable -> "NA");
          ])
        r.Spill_study.cells)
    t

let fig9_header = [ "year"; "config"; "tc"; "speedup"; "die_percent" ]

let fig9_rows (t : (Wr_cost.Sia.generation * Tradeoff.point list) list) =
  List.concat_map
    (fun ((g : Wr_cost.Sia.generation), points) ->
      List.map
        (fun (p : Tradeoff.point) ->
          [
            string_of_int g.Wr_cost.Sia.year;
            Config.label p.Tradeoff.config;
            Printf.sprintf "%.3f" p.Tradeoff.tc;
            Printf.sprintf "%.4f" p.Tradeoff.speedup;
            Printf.sprintf "%.2f" (100.0 *. p.Tradeoff.area /. g.Wr_cost.Sia.lambda2_per_chip);
          ])
        points)
    t

let families_rows rows results =
  List.concat_map (fun (family, t) -> List.map (fun row -> family :: row) (rows t)) results

let gap_header =
  [ "family"; "loop"; "index"; "config"; "ops"; "mii"; "heur_ii"; "exact_ii"; "gap";
    "status"; "nodes" ]

let gap_rows (t : Gap_study.t) =
  List.map
    (fun (r : Gap_study.row) ->
      [
        r.Gap_study.family;
        r.Gap_study.loop_name;
        string_of_int r.Gap_study.index;
        Config.label_short r.Gap_study.config;
        string_of_int r.Gap_study.ops;
        string_of_int r.Gap_study.mii;
        string_of_int r.Gap_study.heur_ii;
        string_of_int r.Gap_study.exact_ii;
        string_of_int r.Gap_study.gap;
        Gap_study.status_string r.Gap_study.status;
        string_of_int r.Gap_study.nodes;
      ])
    t.Gap_study.rows

let to_string ~header rows =
  String.concat "" (List.map (fun row -> String.concat "," row ^ "\n") (header :: rows))
