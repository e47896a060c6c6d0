(* tweetpecker — run the paper's experiment variants from the command line.

   Examples:
     tweetpecker run --variant=vrei --tweets=100 --seed=3
     tweetpecker table1
     tweetpecker source --variant=vei --tweets=2 *)

open Cmdliner

let variant_conv =
  let parse = function
    | "ve" -> Ok Tweetpecker.Programs.VE
    | "vei" | "ve/i" -> Ok Tweetpecker.Programs.VEI
    | "vre" -> Ok Tweetpecker.Programs.VRE
    | "vrei" | "vre/i" -> Ok Tweetpecker.Programs.VREI
    | s -> Error (`Msg (Printf.sprintf "unknown variant %S (ve|vei|vre|vrei)" s))
  in
  let print ppf v = Format.pp_print_string ppf (Tweetpecker.Programs.variant_name v) in
  Arg.conv (parse, print)

let variant_arg =
  Arg.(
    value
    & opt variant_conv Tweetpecker.Programs.VREI
    & info [ "variant" ] ~docv:"VARIANT" ~doc:"ve, vei, vre or vrei.")

let tweets_arg =
  Arg.(
    value
    & opt int Tweets.Generator.default_count
    & info [ "tweets" ] ~docv:"N" ~doc:"Corpus size (default 463, as in the paper).")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let corpus n = if n = Tweets.Generator.default_count then Tweets.Generator.corpus () else Tweets.Generator.generate n

let faults_conv =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) Crowd.Faults.profiles with
    | Some fs -> Ok fs
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown fault profile %S (%s)" s
               (String.concat "|" (List.map fst Crowd.Faults.profiles))))
  in
  let print ppf fs =
    Format.pp_print_string ppf
      (String.concat "+" (List.map Crowd.Faults.fault_to_string fs))
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"PROFILE"
        ~doc:"Inject a named fault profile into every worker (drop, delay, garble, \
              duplicate, crash, all).")

let storage_faults_conv =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) Crowd.Faults.storage_profiles with
    | Some fs -> Ok fs
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown storage-fault profile %S (%s)" s
               (String.concat "|" (List.map fst Crowd.Faults.storage_profiles))))
  in
  let print ppf fs =
    Format.pp_print_string ppf
      (String.concat "+" (List.map Crowd.Faults.storage_fault_to_string fs))
  in
  Arg.conv (parse, print)

let storage_faults_arg =
  Arg.(
    value
    & opt (some storage_faults_conv) None
    & info [ "storage-faults" ] ~docv:"PROFILE"
        ~doc:"Run with a durable journal on fault-injecting in-memory storage \
              under a named profile (torn, garbage, fsync-lag, disk-full); \
              crashes are recovered mid-campaign and the crowd resumes on the \
              recovered engine. Composes with --faults in one seeded run.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:"Keep a durable write-ahead journal of the campaign in $(docv).")

let lease_flag =
  Arg.(
    value & flag
    & info [ "lease" ]
        ~doc:"Turn on the lease runtime (default TTL/backoff/budgets): tasks time \
              out, get reassigned and eventually dead-letter.")

let quorum_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "quorum" ] ~docv:"K"
        ~doc:"Resolve undesignated tasks by majority over $(docv) redundant answers.")

let adaptive_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "adaptive" ] ~docv:"TAU"
        ~doc:"Adaptive quorum: resolve a task as soon as its reliability-weighted \
              top answer reaches posterior $(docv) (from 2 votes on), escalating \
              to the fallback majority at the vote cap (--quorum K, default 5). \
              Implies redundant assignment.")

(* --slo accepts a comma-separated watchdog spec, e.g.
   "p99=100,agreement=60,deadletter=25,stall=8" — each key arms one
   monitor threshold. *)
let slo_keys = [ "p99"; "agreement"; "deadletter"; "stall" ]

let slo_conv =
  let parse s =
    let parts =
      List.filter
        (fun p -> String.trim p <> "")
        (String.split_on_char ',' s)
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
          match String.index_opt part '=' with
          | Some i -> (
              let key = String.lowercase_ascii (String.trim (String.sub part 0 i)) in
              let v =
                String.trim (String.sub part (i + 1) (String.length part - i - 1))
              in
              match (List.mem key slo_keys, int_of_string_opt v) with
              | true, Some n -> go ((key, n) :: acc) rest
              | false, _ ->
                  Error
                    (`Msg
                      (Printf.sprintf "unknown SLO key %S (%s)" key
                         (String.concat "|" slo_keys)))
              | _, None ->
                  Error (`Msg (Printf.sprintf "SLO value %S is not an integer" v)))
          | None ->
              Error (`Msg (Printf.sprintf "SLO clause %S is not key=value" part)))
    in
    go [] parts
  in
  let print ppf slo =
    Format.pp_print_string ppf
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) slo))
  in
  Arg.conv (parse, print)

let slo_arg =
  Arg.(
    value
    & opt (some slo_conv) None
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:"Arm campaign-monitor watchdogs from a comma-separated spec: \
              p99=N (end-to-end latency ceiling in clock ticks), agreement=N \
              (quorum agreement floor, percent), deadletter=N (dead-letter \
              ceiling, percent of retired tasks), stall=N (consecutive \
              no-progress samples). Any firing stops the campaign.")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"N"
        ~doc:"Stop the campaign once monitored spend (payoff awards plus \
              per-answer cost) exceeds $(docv).")

let monitor_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "monitor-out" ] ~docv:"FILE"
        ~doc:"Write the campaign monitor (lifecycle latencies, per-round \
              cost/latency/quality series, alerts) to $(docv) after the run — \
              JSON, or JSON lines if $(docv) ends in .jsonl. Installs the \
              default monitor when no --budget/--slo is given.")

let print_outcome o =
  let q = Tweetpecker.Metrics.row_a o in
  Format.printf "variant            %s@." (Tweetpecker.Programs.variant_name o.Tweetpecker.Runner.variant);
  Format.printf "completion         %.1f%%@." (100.0 *. Tweetpecker.Runner.completion o);
  Format.printf "rounds             %d@." o.sim.rounds;
  Format.printf "agreed values      %d@." (List.length o.agreed);
  Format.printf "quality (A)        %a@." Tweetpecker.Metrics.pp_quality q;
  (match Tweetpecker.Metrics.row_b o with
  | Some b -> Format.printf "rule confidence(B) %.1f%%@." (100.0 *. b)
  | None -> ());
  (match Tweetpecker.Metrics.row_c o with
  | Some c -> Format.printf "rule support (C)   %.2f%%@." (100.0 *. c)
  | None -> ());
  Format.printf "rules entered      %d@." (List.length o.rules_entered);
  Format.printf "machine extracts   %d@." (List.length o.extracts);
  Format.printf "payoffs            %s@."
    (String.concat ", " (List.map (fun (p, s) -> Printf.sprintf "%s:%d" p s) o.payoffs));
  if o.sim.capped_runs > 0 then
    Format.printf "capped runs        %d (results truncated!)@." o.sim.capped_runs;
  (match o.sim.rejections with
  | [] -> ()
  | rs ->
      Format.printf "rejections         %s@."
        (String.concat ", "
           (List.map
              (fun (w, n) -> Printf.sprintf "%s:%d" (Reldb.Value.to_display w) n)
              rs)));
  (match o.sim.worker_stats with
  | [] -> ()
  | stats ->
      Format.printf "worker stats       routed/answered/early-stop credit@.";
      List.iter
        (fun (w, (s : Crowd.Simulator.worker_stat)) ->
          Format.printf "  %-16s %d/%d/%d@." (Reldb.Value.to_display w) s.routed
            s.answered s.early_stop_credit)
        stats);
  match o.sim.dead_letters with
  | [] -> ()
  | dead ->
      Format.printf "dead letters       %d@." (List.length dead);
      List.iter
        (fun ((ot : Cylog.Engine.open_tuple), reason) ->
          Format.printf "  #%d %s — %s@." ot.id ot.relation
            (Cylog.Lease.reason_to_string reason))
        dead

let run_cmd variant n seed export faults lease quorum adaptive metrics_out trace_out
    quality_out events journal storage_faults budget slo monitor_out =
  let lease = if lease then Some Cylog.Lease.default_config else None in
  let slo = Option.value slo ~default:[] in
  let monitor =
    if budget = None && slo = [] && monitor_out = None then None
    else
      let find k = List.assoc_opt k slo in
      Some
        {
          Cylog.Monitor.default_config with
          max_budget = budget;
          max_p99_latency = find "p99";
          min_agreement_pct = find "agreement";
          max_dead_letter_pct = find "deadletter";
          stall_samples = find "stall";
        }
  in
  (* --adaptive subsumes --quorum: K becomes the adaptive vote cap. *)
  let policy =
    match (adaptive, quorum) with
    | Some tau, _ ->
        Some
          (Cylog.Engine.Adaptive
             { tau; min_votes = 2; max_votes = Option.value quorum ~default:5 })
    | None, Some k -> Some (Cylog.Engine.Fixed k)
    | None, None -> None
  in
  let trace_oc = Option.map open_out trace_out in
  let sink = Option.map Cylog.Telemetry.Sink.jsonl trace_oc in
  let o =
    Fun.protect
      ~finally:(fun () -> Option.iter close_out_noerr trace_oc)
      (fun () ->
        Tweetpecker.Runner.run ~seed ~corpus:(corpus n) ?faults ?lease ?policy
          ?monitor ?sink ?journal ?storage_faults variant)
  in
  (match o.sim.stop_reason with
  | `Alert f ->
      Format.printf "ALERT              round %d: %s — campaign stopped@."
        f.Cylog.Monitor.at_round
        (Cylog.Event.alert_to_string f.alert)
  | _ -> ());
  (match monitor_out with
  | Some path ->
      let oc = open_out path in
      (match Cylog.Engine.monitor o.engine with
      | Some mon when Filename.check_suffix path ".jsonl" ->
          output_string oc (Cylog.Monitor.to_jsonl mon)
      | _ ->
          output_string oc (Cylog.Engine.monitor_json o.engine);
          output_char oc '\n');
      close_out oc
  | None -> ());
  (match o.recoveries with
  | [] -> ()
  | rs ->
      Format.printf "recoveries         %d@." (List.length rs);
      List.iteri
        (fun i (r : Cylog.Engine.recovery_stats) ->
          Format.printf
            "  #%d base segment %d, %d segment(s) scanned, %d record(s) \
             replayed, %d torn byte(s) truncated@."
            (i + 1) r.base_segment r.segments_scanned r.records_replayed
            r.truncated_bytes)
        rs);
  (match metrics_out with
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Cylog.Telemetry.Metrics.to_json (Cylog.Engine.metrics o.engine));
      output_char oc '\n';
      close_out oc
  | None -> ());
  (match quality_out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Cylog.Pretty.quality_json o.engine);
      output_char oc '\n';
      close_out oc
  | None -> ());
  if events > 0 then begin
    let journal = Cylog.Engine.events o.engine in
    let total = List.length journal in
    let skip = max 0 (total - events) in
    Format.printf "@.last %d of %d journal events:@." (total - skip) total;
    List.iteri
      (fun i e -> if i >= skip then Format.printf "  %a@." Cylog.Pretty.pp_event e)
      journal
  end;
  match export with
  | None -> print_outcome o
  | Some relation -> (
      (* Machine-readable mode: dump one relation of the final database as
         CSV on stdout. *)
      match Reldb.Database.find (Cylog.Engine.database o.engine) relation with
      | Some rel -> print_string (Reldb.Csv.export rel)
      | None ->
          Printf.eprintf "no relation %S in the final database (try %s)\n" relation
            (String.concat ", " (Reldb.Database.names (Cylog.Engine.database o.engine)));
          exit 1)

let table1_cmd n seed =
  let c = corpus n in
  Format.printf "%-28s" "Technique";
  List.iter
    (fun v -> Format.printf "%10s" (Tweetpecker.Programs.variant_name v))
    Tweetpecker.Programs.all;
  Format.printf "@.";
  let outcomes = List.map (fun v -> Tweetpecker.Runner.run ~seed ~corpus:c v) Tweetpecker.Programs.all in
  let row label f =
    Format.printf "%-28s" label;
    List.iter (fun o -> Format.printf "%10s" (f o)) outcomes;
    Format.printf "@."
  in
  let pct x = Printf.sprintf "%.1f%%" (100.0 *. x) in
  row "A: Agreed correct" (fun o -> pct (Tweetpecker.Metrics.row_a o).correct);
  row "   Agreed incorrect" (fun o -> pct (Tweetpecker.Metrics.row_a o).incorrect);
  row "   Agreed neither" (fun o -> pct (Tweetpecker.Metrics.row_a o).neither);
  row "B: Avg rule confidence" (fun o ->
      match Tweetpecker.Metrics.row_b o with Some b -> pct b | None -> "-");
  row "C: Avg rule support" (fun o ->
      match Tweetpecker.Metrics.row_c o with
      | Some c -> Printf.sprintf "%.2f%%" (100.0 *. c)
      | None -> "-")

(* Static budget certificate of a variant's generated program: what the
   campaign can spend before a single task is issued. The charged policy
   mirrors the quorum flag ([--quorum K] charges K answers per
   undesignated task). *)
let analyze_cmd variant n quorum =
  let c = corpus n in
  let workers =
    List.map
      (fun (w : Crowd.Worker.profile) -> w.name)
      (Tweetpecker.Runner.default_workers variant)
  in
  let program = Tweetpecker.Programs.program variant ~corpus:c ~workers in
  let policy =
    match quorum with
    | Some k when k > 1 -> { Cylog.Analysis.votes = k; scope = None }
    | _ -> Cylog.Analysis.no_policy
  in
  print_string
    (Cylog.Analysis.certificate_to_string (Cylog.Analysis.analyze ~policy program))

let source_cmd variant n =
  let c = corpus n in
  print_string
    (Tweetpecker.Programs.source variant ~corpus:c
       ~workers:(List.map (fun (w : Crowd.Worker.profile) -> w.name)
                   (Tweetpecker.Runner.default_workers variant)))

(* The sharded campaign server: generated labeling campaigns partitioned
   over N engine shards, driven by a simulated crowd through the
   task-queue API, with the merged fleet view printed (or written) at the
   end. *)
let serve_cmd shards workers campaigns items seed quorum accuracy max_rounds
    journal monitor_out =
  let server =
    Server.create ?journal_root:journal ~shards ()
  in
  let config =
    {
      Crowd.Fleet_sim.default_config with
      seed;
      workers;
      campaigns;
      items;
      quorum;
      accuracy;
      max_rounds;
    }
  in
  Crowd.Fleet_sim.open_campaigns server config;
  let o = Crowd.Fleet_sim.run ~config server in
  Format.printf "shards             %d@." shards;
  Format.printf "campaigns          %d × %d items@." campaigns items;
  Format.printf "workers            %d@." workers;
  Format.printf "rounds             %d@." o.rounds;
  Format.printf "stop               %s@."
    (match o.stop_reason with
    | `Done -> "done (all tasks retired)"
    | `Stalled -> "stalled"
    | `Max_rounds -> "max-rounds");
  Format.printf "leases             %d@." o.leases;
  Format.printf "answers            %d accepted, %d rejected@." o.answers
    o.rejections;
  Format.printf "resolutions        %d resolved, %d dead-lettered@." o.resolved
    o.dead;
  let view = Server.stats server in
  Format.printf "%a" Server.Fleet.pp view;
  match monitor_out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Server.Fleet.to_json view);
      output_char oc '\n';
      close_out oc
  | None -> ()

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N" ~doc:"Engine shards in the fleet.")

let workers_arg =
  Arg.(
    value & opt int 8
    & info [ "workers" ] ~docv:"M" ~doc:"Simulated crowd size.")

let campaigns_arg =
  Arg.(
    value & opt int 2
    & info [ "campaigns" ] ~docv:"K" ~doc:"Concurrent labeling campaigns.")

let items_arg =
  Arg.(
    value & opt int 24
    & info [ "items" ] ~docv:"I" ~doc:"Label tasks per campaign.")

let accuracy_arg =
  Arg.(
    value & opt float 0.85
    & info [ "accuracy" ] ~docv:"P"
        ~doc:"Probability a worker answers the true label.")

let serve_quorum_arg =
  Arg.(
    value & opt int 3
    & info [ "quorum" ] ~docv:"K"
        ~doc:"Votes per task (plurality aggregate); 1 turns quorum off.")

let serve_rounds_arg =
  Arg.(
    value & opt int 200
    & info [ "max-rounds" ] ~docv:"N" ~doc:"Safety bound on rounds.")

let serve_journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:"Journal every shard's campaigns under $(docv)/shard-NN/.")

let serve_monitor_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "monitor-out" ] ~docv:"FILE"
        ~doc:"Write the merged fleet view (monitor series, certificates, \
              metrics, latency percentiles) to $(docv) as JSON.")

let export_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "export" ] ~docv:"RELATION"
        ~doc:"Print the named relation of the final database as CSV (e.g. Agreed, Rules, Extracts, Inputs).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the final metrics registry to $(docv) as JSON.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Stream tracing spans to $(docv) as JSON lines while the campaign runs.")

let quality_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "quality-out" ] ~docv:"FILE"
        ~doc:"Write the final quality state (per-worker reliability, per-task \
              posteriors) to $(docv) as JSON.")

let events_arg =
  Arg.(
    value
    & opt int 0
    & info [ "events" ] ~docv:"N"
        ~doc:"Print the last $(docv) journal events after the run.")

let cmds =
  [ Cmd.v (Cmd.info "run" ~doc:"Run one variant and print its metrics")
      Term.(
        const run_cmd $ variant_arg $ tweets_arg $ seed_arg $ export_arg $ faults_arg
        $ lease_flag $ quorum_arg $ adaptive_arg $ metrics_out_arg $ trace_out_arg
        $ quality_out_arg $ events_arg $ journal_arg $ storage_faults_arg
        $ budget_arg $ slo_arg $ monitor_out_arg);
    Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table 1 across all four variants")
      Term.(const table1_cmd $ tweets_arg $ seed_arg);
    Cmd.v
      (Cmd.info "analyze"
         ~doc:"Print the static budget certificate of a variant's generated \
               program (per-relation cardinality bounds, per-open-statement \
               task bounds).")
      Term.(const analyze_cmd $ variant_arg $ tweets_arg $ quorum_arg);
    Cmd.v (Cmd.info "source" ~doc:"Print the generated CyLog source of a variant")
      Term.(const source_cmd $ variant_arg $ tweets_arg);
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Run a sharded multi-campaign server under a simulated crowd \
               and print the merged fleet view")
      Term.(
        const serve_cmd $ shards_arg $ workers_arg $ campaigns_arg $ items_arg
        $ seed_arg $ serve_quorum_arg $ accuracy_arg $ serve_rounds_arg
        $ serve_journal_arg $ serve_monitor_out_arg) ]

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "tweetpecker" ~version:"1.0.0"
             ~doc:"Game-style crowdsourced extraction of structured data from tweets")
          cmds))
