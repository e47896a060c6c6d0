(* cylog — run CyLog programs from the command line.

   Subcommands:
     run FILE       load a program, run the machine, answer open tuples
                    interactively on stdin, print the database at fixpoint
     check FILE     parse and statically check a program (Cylog.Lint)
     analyze FILE   print the static budget certificate (Cylog.Analysis)
     graph FILE     print the rule precedence graph (Figure 14 style)
     classify FILE  print the game class (G_N or G_star) of the program
     pretty FILE    parse and pretty-print the program *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_file path =
  match Cylog.Parser.parse (read_file path) with
  | Ok program -> Ok program
  | Error e -> Error (Format.asprintf "%s: %a" path Cylog.Parser.pp_error e)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"CyLog source file")

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* Load under the engine's default Strict lint, rendering diagnostics the
   same way [cylog check] does when the program is rejected, and start the
   durable journal when one is asked for. *)
let load_or_die ?lint ?journal path program =
  try
    let engine = Cylog.Engine.load ?lint program in
    Option.iter (Cylog.Engine.journal_start engine) journal;
    engine
  with
  | Cylog.Lint.Rejected diags ->
      List.iter (fun d -> prerr_endline (Cylog.Lint.render ~file:path d)) diags;
      exit 1
  | Cylog.Journal.Error e ->
      prerr_endline (Cylog.Journal.error_to_string e);
      exit 1

(* --- run ----------------------------------------------------------------- *)

let prompt_value attr =
  Printf.printf "  %s = %!" attr;
  match In_channel.input_line stdin with Some line -> String.trim line | None -> ""

let answer_interactively engine (o : Cylog.Engine.open_tuple) =
  Format.printf "@.open tuple %d on %s %a" o.id o.relation Reldb.Tuple.pp o.bound;
  (match o.asked with
  | Some w -> Format.printf " (worker %s)" (Reldb.Value.to_display w)
  | None -> ());
  Format.printf "@.";
  (* Show the worker-facing presentation when the program declares one. *)
  (match Cylog.Engine.task_view engine o with
  | Some rendered -> Format.printf "%s@." rendered
  | None -> ());
  let worker = Option.value o.asked ~default:(Reldb.Value.String "console") in
  if o.existence then begin
    Printf.printf "  should this tuple exist? [y/n/skip] %!";
    match In_channel.input_line stdin with
    | Some ("y" | "Y" | "yes") ->
        ignore (Cylog.Engine.answer_existence engine o.id ~worker true)
    | Some ("n" | "N" | "no") ->
        ignore (Cylog.Engine.answer_existence engine o.id ~worker false)
    | _ -> Cylog.Engine.decline engine o.id
  end
  else begin
    let values =
      List.map (fun attr -> (attr, Reldb.Value.String (prompt_value attr))) o.open_attrs
    in
    match Cylog.Engine.supply engine o.id ~worker values with
    | Ok _ -> ()
    | Error e -> Printf.printf "  rejected: %s\n%!" (Cylog.Engine.reject_to_string e)
  end

let save_checkpoint engine = function
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      Cylog.Engine.snapshot engine oc;
      close_out oc;
      Format.printf "checkpoint written to %s@." path

let drive_engine interactive max_steps checkpoint engine =
  let rec loop () =
    let steps, signal = Cylog.Engine.run engine ~max_steps in
    (match signal with
    | `Capped -> Format.printf "stopped after %d machine steps (budget hit)@." steps
    | `Quiescent -> ());
    match Cylog.Engine.pending engine with
    | [] -> ()
    | pending when interactive ->
        List.iter (answer_interactively engine) pending;
        if Cylog.Engine.pending engine <> pending then loop ()
    | pending ->
        Format.printf "@.%d open tuples await human input (use --interactive):@."
          (List.length pending);
        List.iter
          (fun (o : Cylog.Engine.open_tuple) ->
            Format.printf "  %s%a awaiting %s@." o.relation Reldb.Tuple.pp o.bound
              (String.concat ", " o.open_attrs))
          pending
  in
  loop ();
  save_checkpoint engine checkpoint;
  Format.printf "@.database at fixpoint:@.%a@." Reldb.Database.pp
    (Cylog.Engine.database engine);
  (match Cylog.Engine.dead_letters engine with
  | [] -> ()
  | dead ->
      Format.printf "@.dead-lettered tasks:@.";
      List.iter
        (fun ((o : Cylog.Engine.open_tuple), reason) ->
          Format.printf "  #%d %s%a — %a@." o.id o.relation Reldb.Tuple.pp o.bound
            Cylog.Lease.pp_reason reason)
        dead);
  match Cylog.Engine.payoffs engine with
  | [] -> ()
  | payoffs ->
      Format.printf "@.payoffs:@.";
      List.iter
        (fun (p, s) ->
          Format.printf "  %s: %s@." (Reldb.Value.to_display p) (Reldb.Value.to_display s))
        payoffs

(* Install --trace-out / --metrics-out around a driver invocation: the
   trace sink streams spans as the engine runs; the metrics registry is
   dumped once at the end. *)
let with_telemetry_outputs metrics_out trace_out engine k =
  let trace_oc = Option.map open_out trace_out in
  (match trace_oc with
  | Some oc -> Cylog.Engine.set_sink engine (Cylog.Telemetry.Sink.jsonl oc)
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      (match metrics_out with
      | Some path ->
          let oc = open_out path in
          output_string oc
            (Cylog.Telemetry.Metrics.to_json (Cylog.Engine.metrics engine));
          output_char oc '\n';
          close_out oc
      | None -> ());
      Option.iter close_out_noerr trace_oc)
    k

(* Install --monitor-out around a driver invocation: a default campaign
   monitor is installed up front (unless the engine already carries one,
   e.g. recovered from a journal that installed it), one final sample is
   taken when the driver returns, and the dashboard is written as JSON —
   or as JSON lines when the path ends in .jsonl. *)
let with_monitor_output monitor_out engine k =
  (match monitor_out with
  | Some _ when Cylog.Engine.monitor engine = None ->
      Cylog.Engine.set_monitor engine (Some Cylog.Monitor.default_config)
  | _ -> ());
  Fun.protect
    ~finally:(fun () ->
      match monitor_out with
      | Some path ->
          ignore (Cylog.Engine.monitor_sample engine ~round:0);
          let oc = open_out path in
          (match Cylog.Engine.monitor engine with
          | Some mon when Filename.check_suffix path ".jsonl" ->
              output_string oc (Cylog.Monitor.to_jsonl mon)
          | _ ->
              output_string oc (Cylog.Engine.monitor_json engine);
              output_char oc '\n');
          close_out oc
      | None -> ())
    k

(* Flush the WAL and report what it did — the run subcommands' epilogue
   whenever a journal is attached. *)
let finish_journal engine =
  match Cylog.Engine.durable_journal engine with
  | None -> ()
  | Some j ->
      Cylog.Journal.close j;
      let s = Cylog.Journal.stats j in
      Format.printf
        "journal %s: %d appends, %d fsyncs (%d dir), %d rotations, %d compactions, \
         %d live segment(s)@."
        (Cylog.Journal.dir j) s.appends s.fsyncs s.dir_fsyncs s.rotations
        s.compactions (List.length s.segments)

let run_cmd interactive max_steps checkpoint metrics_out trace_out monitor_out
    journal path =
  let program = or_die (parse_file path) in
  let engine = load_or_die path ?journal program in
  with_telemetry_outputs metrics_out trace_out engine (fun () ->
      with_monitor_output monitor_out engine (fun () ->
          drive_engine interactive max_steps checkpoint engine));
  finish_journal engine

let resume_cmd interactive max_steps checkpoint metrics_out trace_out path =
  let engine =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Cylog.Engine.restore ic with
        | Cylog.Engine.Snapshot_error reason ->
            prerr_endline (path ^ ": " ^ Cylog.Engine.snapshot_reason_to_string reason);
            exit 1
        | Cylog.Engine.Runtime_error m ->
            prerr_endline (path ^ ": " ^ m);
            exit 1
        | Cylog.Lint.Rejected diags ->
            List.iter (fun d -> prerr_endline (Cylog.Lint.render ~file:path d)) diags;
            exit 1)
  in
  Format.printf "restored %s (clock %d, %d events)@." path (Cylog.Engine.clock engine)
    (Cylog.Engine.event_count engine);
  with_telemetry_outputs metrics_out trace_out engine (fun () ->
      drive_engine interactive max_steps checkpoint engine)

let recover_cmd interactive max_steps checkpoint metrics_out trace_out dir =
  let engine, (stats : Cylog.Engine.recovery_stats) =
    try Cylog.Engine.recover dir with
    | Cylog.Journal.Error e ->
        prerr_endline (Cylog.Journal.error_to_string e);
        exit 1
    | Cylog.Engine.Snapshot_error reason ->
        prerr_endline (dir ^ ": " ^ Cylog.Engine.snapshot_reason_to_string reason);
        exit 1
    | Cylog.Lint.Rejected diags ->
        List.iter (fun d -> prerr_endline (Cylog.Lint.render ~file:dir d)) diags;
        exit 1
  in
  Format.printf
    "recovered %s: base segment %d, %d segment(s) scanned, %d record(s) replayed, %d \
     torn byte(s) truncated (clock %d, %d events)@."
    dir stats.base_segment stats.segments_scanned stats.records_replayed
    stats.truncated_bytes
    (Cylog.Engine.clock engine)
    (Cylog.Engine.event_count engine);
  with_telemetry_outputs metrics_out trace_out engine (fun () ->
      drive_engine interactive max_steps checkpoint engine);
  finish_journal engine

(* --- check --------------------------------------------------------------- *)

let parse_override spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "invalid -W %S (expected CODE=LEVEL)" spec)
  | Some i -> (
      let code = String.sub spec 0 i in
      let level = String.sub spec (i + 1) (String.length spec - i - 1) in
      if not (Cylog.Lint.is_known_code code) then
        Error (Printf.sprintf "unknown diagnostic code %S (see docs/LINT.md)" code)
      else
        match String.lowercase_ascii level with
        | "error" | "err" -> Ok (code, `Error)
        | "warning" | "warn" -> Ok (code, `Warning)
        | "off" -> Ok (code, `Off)
        | other ->
            Error
              (Printf.sprintf "invalid level %S in -W %s (error|warning|off)" other
                 code))

let parse_error_diagnostic (e : Cylog.Parser.error) =
  {
    Cylog.Lint.code = "parse-error";
    severity = Cylog.Lint.Error;
    span =
      {
        Cylog.Ast.start_line = e.line;
        start_col = e.col;
        end_line = e.end_line;
        end_col = e.end_col;
      };
    message = e.message;
  }

let check_cmd format warnings path =
  let overrides = List.map (fun spec -> or_die (parse_override spec)) warnings in
  let emit diags =
    match format with
    | `Json -> print_endline (Cylog.Lint.render_json ~file:path diags)
    | `Text ->
        List.iter (fun d -> print_endline (Cylog.Lint.render ~file:path d)) diags
  in
  match Cylog.Parser.parse (read_file path) with
  | Error e ->
      emit [ parse_error_diagnostic e ];
      exit 1
  | Ok program ->
      let diags = Cylog.Lint.check ~overrides program in
      emit diags;
      (match (format, diags) with
      | `Text, [] ->
          Format.printf "%s: %d statements, %d schema declarations, %d games — OK@."
            path
            (List.length program.Cylog.Ast.statements)
            (List.length program.Cylog.Ast.schemas)
            (List.length program.Cylog.Ast.games)
      | _ -> ());
      if Cylog.Lint.has_errors diags then exit 1

(* --- analyze ------------------------------------------------------------- *)

(* Exit 1 only for the unbounded-task-emission class: an open statement
   whose answer bound is unbounded through a cycle. Standing tasks and
   bounded-by-input certificates are warnings (surfaced by [check]) and
   keep exit 0, so pipelines can still read the certificate. *)
let analyze_cmd format votes path =
  match Cylog.Parser.parse (read_file path) with
  | Error e ->
      (match format with
      | `Json -> print_endline (Cylog.Lint.render_json ~file:path [ parse_error_diagnostic e ])
      | `Text -> print_endline (Cylog.Lint.render ~file:path (parse_error_diagnostic e)));
      exit 1
  | Ok program ->
      let policy =
        if votes <= 1 then Cylog.Analysis.no_policy
        else { Cylog.Analysis.votes; scope = None }
      in
      let cert = Cylog.Analysis.analyze ~policy program in
      (match format with
      | `Json -> print_endline (Cylog.Analysis.certificate_json cert)
      | `Text -> print_string (Cylog.Analysis.certificate_to_string cert));
      let unbounded_emission =
        List.exists
          (fun (tb : Cylog.Analysis.task_bound) ->
            match tb.tb_answers with
            | Cylog.Analysis.Unbounded
                (Cylog.Analysis.Open_cycle _ | Cylog.Analysis.Value_cycle _) ->
                true
            | _ -> false)
          cert.cert_tasks
      in
      if unbounded_emission then exit 1

let graph_cmd path =
  let program = or_die (parse_file path) in
  let engine = load_or_die path program in
  let statements = List.map fst (Cylog.Engine.statements engine) in
  let g = Cylog.Precedence.build statements in
  Format.printf "%a@." Cylog.Pretty.pp_precedence g;
  Format.printf "@.stratified: %b@." (Cylog.Precedence.stratified g)

let classify_cmd path =
  let program = or_die (parse_file path) in
  try Format.printf "%a@." Game.Classes.pp (Game.Classes.classify program)
  with Cylog.Lint.Rejected diags ->
    List.iter (fun d -> prerr_endline (Cylog.Lint.render ~file:path d)) diags;
    exit 1

let pretty_cmd path =
  let program = or_die (parse_file path) in
  print_endline (Cylog.Pretty.program_to_string program)

(* --- repl ----------------------------------------------------------------- *)

let repl_help () =
  print_string
    "Enter CyLog statements terminated by ';' (multi-line input is fine).\n\
     Commands:\n\
    \  :db                  show the database\n\
    \  :pending             show open tuples awaiting humans\n\
    \  :answer ID a=v ...   valuate an open tuple (string values)\n\
    \  :yes ID / :no ID     answer an existence question\n\
    \  :trace               show the firing log\n\
    \  :events [FILTER]     page the journal; FILTER is a kind (fired,\n\
    \                       filtered, human, machine, insert, update,\n\
    \                       delete, payoff, open, vote, dead, early-stop,\n\
    \                       escalated, resolve, sample, alert), a rule\n\
    \                       label, or a worker name\n\
    \  :stats               dump the metrics registry\n\
    \  :monitor             sample and show the campaign monitor\n\
    \                       (cost/latency/quality series, alerts)\n\
    \  :quality             dump worker reliability and task posteriors (JSON)\n\
    \  :explain             show plans, leases and quorum state\n\
    \  :check               lint the program (preloaded + typed statements)\n\
    \  :analyze             print the static budget certificate (cardinality\n\
    \                       bounds and per-open-statement task bounds)\n\
    \  :dead                show dead-lettered tasks\n\
    \  :snapshot FILE       checkpoint the session to FILE\n\
    \  :help                this message\n\
    \  :quit                leave\n"

let repl_cmd file =
  let base_program, base_file =
    match file with
    | Some path -> (or_die (parse_file path), path)
    | None -> (Cylog.Ast.empty_program, "<repl>")
  in
  let engine = load_or_die base_file base_program in
  (* Statements typed at the prompt, in entry order — [:check] lints the
     preloaded source plus these, not the engine's desugared forms. *)
  let typed = ref [] in
  let show_pending () =
    match Cylog.Engine.pending engine with
    | [] -> print_endline "no pending open tuples"
    | pending ->
        List.iter
          (fun (o : Cylog.Engine.open_tuple) ->
            Format.printf "  #%d %s%a awaiting %s%s@." o.id o.relation Reldb.Tuple.pp
              o.bound
              (if o.existence then "yes/no" else String.concat ", " o.open_attrs)
              (match o.asked with
              | Some w -> Printf.sprintf " (worker %s)" (Reldb.Value.to_display w)
              | None -> ""))
          pending
  in
  let run_machine () =
    let before = Cylog.Engine.clock engine in
    ignore (Cylog.Engine.run engine);
    let fired = Cylog.Engine.clock engine - before in
    if fired > 0 then Format.printf "(%d statements fired)@." fired;
    if Cylog.Engine.pending engine <> [] then show_pending ()
  in
  run_machine ();
  let parse_assignments words =
    List.map
      (fun w ->
        match String.index_opt w '=' with
        | Some i ->
            ( String.sub w 0 i,
              Reldb.Value.String (String.sub w (i + 1) (String.length w - i - 1)) )
        | None -> (w, Reldb.Value.Null))
      words
  in
  let handle_command line =
    match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
    | [ ":quit" ] | [ ":q" ] -> `Quit
    | [ ":help" ] -> repl_help (); `Continue
    | [ ":db" ] ->
        Format.printf "%a@." Reldb.Database.pp (Cylog.Engine.database engine);
        `Continue
    | [ ":pending" ] -> show_pending (); `Continue
    | [ ":trace" ] ->
        List.iter
          (fun e -> Format.printf "  %a@." Cylog.Pretty.pp_event e)
          (Cylog.Engine.events engine);
        `Continue
    | ":events" :: filters ->
        let events = Cylog.Engine.events engine in
        let tags (e : Cylog.Engine.event) =
          (if e.fired then [ "fired" ] else [ "filtered" ])
          @ (match e.by_human with
            | Some w -> [ "human"; Reldb.Value.to_display w ]
            | None -> [ "machine" ])
          @ (match e.label with Some l -> [ l ] | None -> [])
          @ List.concat_map
              (fun (eff : Cylog.Engine.effect) ->
                match eff with
                | Inserted _ -> [ "insert" ]
                | Updated _ -> [ "update" ]
                | Deleted _ -> [ "delete" ]
                | Awarded _ -> [ "payoff" ]
                | Open_created _ -> [ "open" ]
                | No_effect -> []
                | Vote_recorded _ -> [ "vote" ]
                | Dead_lettered _ -> [ "dead" ]
                | Adaptive_resolved { escalated; _ } ->
                    [ (if escalated then "escalated" else "early-stop") ]
                | Resolved _ -> [ "resolve" ]
                | Sampled _ -> [ "sample" ]
                | Alert_fired _ -> [ "alert" ])
              e.effects
        in
        let selected =
          match filters with
          | [] -> events
          | fs -> List.filter (fun e -> List.for_all (fun f -> List.mem f (tags e)) fs) events
        in
        List.iter (fun e -> Format.printf "  %a@." Cylog.Pretty.pp_event e) selected;
        Format.printf "(%d of %d events)@." (List.length selected) (List.length events);
        `Continue
    | [ ":stats" ] ->
        Format.printf "%a" Cylog.Telemetry.Metrics.pp (Cylog.Engine.metrics engine);
        `Continue
    | [ ":monitor" ] ->
        (* First use installs a default monitor; the install backfills
           from the event log, so lifecycle history is complete even
           mid-session. Each :monitor takes a fresh sample. *)
        if Cylog.Engine.monitor engine = None then
          Cylog.Engine.set_monitor engine (Some Cylog.Monitor.default_config);
        ignore (Cylog.Engine.monitor_sample engine ~round:0);
        (match Cylog.Engine.monitor engine with
        | Some mon -> Format.printf "%a" Cylog.Monitor.pp mon
        | None -> ());
        `Continue
    | [ ":quality" ] ->
        print_endline (Cylog.Pretty.quality_json engine);
        `Continue
    | [ ":explain" ] ->
        print_string (Cylog.Engine.explain engine);
        `Continue
    | [ ":check" ] ->
        let program =
          {
            base_program with
            Cylog.Ast.statements = base_program.Cylog.Ast.statements @ List.rev !typed;
          }
        in
        (match Cylog.Lint.check program with
        | [] -> print_endline "no diagnostics"
        | diags ->
            List.iter
              (fun d -> print_endline (Cylog.Lint.render ~file:base_file d))
              diags);
        `Continue
    | [ ":analyze" ] ->
        (* Like [:check], the certificate covers the preloaded source plus
           everything typed at the prompt, not the desugared forms. *)
        let program =
          {
            base_program with
            Cylog.Ast.statements = base_program.Cylog.Ast.statements @ List.rev !typed;
          }
        in
        print_string
          (Cylog.Analysis.certificate_to_string (Cylog.Analysis.analyze program));
        `Continue
    | [ ":dead" ] ->
        (match Cylog.Engine.dead_letters engine with
        | [] -> print_endline "no dead-lettered tasks"
        | dead ->
            List.iter
              (fun ((o : Cylog.Engine.open_tuple), reason) ->
                Format.printf "  #%d %s%a — %a@." o.id o.relation Reldb.Tuple.pp
                  o.bound Cylog.Lease.pp_reason reason)
              dead);
        `Continue
    | [ ":snapshot"; path ] ->
        (try
           let oc = open_out_bin path in
           Cylog.Engine.snapshot engine oc;
           close_out oc;
           Format.printf "checkpoint written to %s@." path
         with Sys_error m -> print_endline m);
        `Continue
    | ":answer" :: id :: rest -> (
        match int_of_string_opt id with
        | Some id -> (
            match Cylog.Engine.find_open engine id with
            | Some o -> (
                let worker = Option.value o.asked ~default:(Reldb.Value.String "console") in
                match Cylog.Engine.supply engine id ~worker (parse_assignments rest) with
                | Ok _ -> run_machine (); `Continue
                | Error e -> print_endline (Cylog.Engine.reject_to_string e); `Continue)
            | None -> print_endline "no such open tuple"; `Continue)
        | None -> print_endline "usage: :answer ID attr=value ..."; `Continue)
    | [ (":yes" | ":no") as verdict; id ] -> (
        match (int_of_string_opt id, Cylog.Engine.find_open engine (int_of_string id)) with
        | Some id, Some o -> (
            let worker = Option.value o.asked ~default:(Reldb.Value.String "console") in
            match Cylog.Engine.answer_existence engine id ~worker (verdict = ":yes") with
            | Ok _ -> run_machine (); `Continue
            | Error e -> print_endline (Cylog.Engine.reject_to_string e); `Continue)
        | _ -> print_endline "no such open tuple"; `Continue)
    | _ -> print_endline "unknown command (:help)"; `Continue
  in
  let buffer = Buffer.create 256 in
  print_endline "CyLog REPL — :help for commands";
  let rec loop () =
    Printf.printf (if Buffer.length buffer = 0 then "cylog> " else "  ...> ");
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line when Buffer.length buffer = 0 && String.length (String.trim line) > 0
                     && (String.trim line).[0] = ':' -> (
        match handle_command (String.trim line) with `Quit -> () | `Continue -> loop ())
    | Some line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        if String.contains line ';' || String.contains line '}' then begin
          Buffer.clear buffer;
          (match Cylog.Parser.parse_statements text with
          | Ok statements -> (
              try
                List.iter (Cylog.Engine.add_statement engine) statements;
                typed := List.rev_append statements !typed;
                run_machine ()
              with Cylog.Engine.Runtime_error m -> print_endline m)
          | Error e -> Format.printf "%a@." Cylog.Parser.pp_error e);
          loop ()
        end
        else loop ()
  in
  loop ()

(* --- command wiring ------------------------------------------------------- *)

let interactive_flag =
  Arg.(value & flag & info [ "i"; "interactive" ] ~doc:"Answer open tuples on stdin.")

let max_steps_arg =
  Arg.(value & opt int 1_000_000 & info [ "max-steps" ] ~doc:"Machine step budget.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Write a snapshot to $(docv) when the run finishes; resume it later \
              with the $(b,resume) subcommand.")

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
        ~doc:"Stream tracing spans to $(docv) as JSON lines while running.")

let monitor_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "monitor-out" ] ~docv:"FILE"
        ~doc:"Install a campaign monitor and write its dashboard (lifecycle \
              latency quantiles, cost/latency/quality series, alerts) to \
              $(docv) as JSON when the run finishes — or as JSON lines when \
              $(docv) ends in .jsonl.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:"Write a durable journal (segmented, checksummed WAL) to $(docv) while \
              running: every mutation is logged as it happens, so a crashed run \
              resumes with the $(b,recover) subcommand instead of losing work. \
              The directory must not already hold a journal.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Diagnostic output format: $(b,text) (one line per diagnostic) or \
              $(b,json) (one array).")

let votes_arg =
  Arg.(
    value & opt int 1
    & info [ "votes" ] ~docv:"N"
        ~doc:"Charge $(docv) answers per undesignated task — the quorum's \
              redundant-assignment factor. Default 1 (one answer per task).")

let warn_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "W" ] ~docv:"CODE=LEVEL"
        ~doc:"Override the severity of diagnostic $(i,CODE); $(i,LEVEL) is \
              $(b,error), $(b,warning) or $(b,off). Repeatable. See docs/LINT.md \
              for the code catalogue.")

let cmds =
  [ Cmd.v (Cmd.info "run" ~doc:"Execute a CyLog program")
      Term.(
        const run_cmd $ interactive_flag $ max_steps_arg $ checkpoint_arg
        $ metrics_out_arg $ trace_out_arg $ monitor_out_arg $ journal_arg
        $ file_arg);
    Cmd.v
      (Cmd.info "resume" ~doc:"Resume a run from a snapshot written by --checkpoint")
      Term.(
        const resume_cmd $ interactive_flag $ max_steps_arg $ checkpoint_arg
        $ metrics_out_arg $ trace_out_arg
        $ Arg.(
            required
            & pos 0 (some file) None
            & info [] ~docv:"SNAPSHOT" ~doc:"Snapshot file"));
    Cmd.v
      (Cmd.info "recover"
         ~doc:"Recover a crashed run from its durable journal (written by \
               $(b,run --journal)) and continue it")
      Term.(
        const recover_cmd $ interactive_flag $ max_steps_arg $ checkpoint_arg
        $ metrics_out_arg $ trace_out_arg
        $ Arg.(
            required
            & pos 0 (some dir) None
            & info [] ~docv:"DIR" ~doc:"Journal directory"));
    Cmd.v
      (Cmd.info "check"
         ~doc:"Statically check a CyLog program (safety, stratification, schemas, \
               liveness, games)")
      Term.(const check_cmd $ format_arg $ warn_arg $ file_arg);
    Cmd.v
      (Cmd.info "analyze"
         ~doc:"Compute the static budget certificate: per-relation cardinality \
               bounds and per-open-statement task-emission bounds. Exits 1 when \
               an open statement can issue unboundedly many tasks.")
      Term.(const analyze_cmd $ format_arg $ votes_arg $ file_arg);
    Cmd.v (Cmd.info "graph" ~doc:"Print the rule precedence graph")
      Term.(const graph_cmd $ file_arg);
    Cmd.v (Cmd.info "classify" ~doc:"Print the game class (G_N / G_*)")
      Term.(const classify_cmd $ file_arg);
    Cmd.v (Cmd.info "pretty" ~doc:"Pretty-print a CyLog program")
      Term.(const pretty_cmd $ file_arg);
    Cmd.v (Cmd.info "repl" ~doc:"Interactive CyLog session (optionally preloading FILE)")
      Term.(
        const repl_cmd
        $ Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program to preload")) ]

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "cylog" ~version:"1.0.0"
             ~doc:"CyLog: a declarative language for crowdsourced data management")
          cmds))
