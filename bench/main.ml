(* Benchmark & reproduction harness: [Repro] holds the paper's tables,
   figures, theorems and ablations, [Experiments] the engineering
   experiments and the *-smoke gates [dune runtest] runs.

   Usage: dune exec bench/main.exe [experiment ...]   (none = all) *)

let experiments =
  Repro.
    [ ("table1", run_table1); ("figure4", run_figure4); ("figure6", run_figure6);
      ("figure10", run_figure10); ("figure11", run_figure11); ("figure12", run_figure12);
      ("figure13", run_figure13); ("figure14", run_figure14); ("figure16", run_figure16);
      ("theorems", run_theorems); ("ablations", run_ablations) ]
  @ Experiments.
      [ ("joins", run_joins); ("joins-smoke", run_joins_smoke);
        ("incremental", run_incremental); ("incremental-smoke", run_incremental_smoke);
        ("quality", run_quality); ("quality-smoke", run_quality_smoke);
        ("telemetry-smoke", run_telemetry_smoke);
        ("telemetry-overhead", run_telemetry_overhead);
        ("durability", run_durability); ("durability-smoke", run_durability_smoke);
        ("monitor", run_monitor); ("monitor-smoke", run_monitor_smoke);
        ("serve-smoke", run_serve_smoke);
        ("setup-smoke", run_setup_smoke) ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    match requested with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> Some (n, f)
            | None ->
                Format.printf "unknown experiment %S (available: %s)@." n
                  (String.concat ", " (List.map fst experiments));
                None)
          names
  in
  List.iter (fun (_, f) -> f ()) to_run
