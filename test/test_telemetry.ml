(* Telemetry differential tests.

   The central invariant (docs/OBSERVABILITY.md): every journal-derived
   metric — the [Engine.journal_derived] namespaces, plus all histograms —
   is ONE fold over [Engine.events], applied both incrementally by the
   live registry and from scratch by [Engine.metrics_of_events]. So for
   any driving sequence whatsoever (random programs, canonical humans,
   faulted lease/quorum campaigns, all TweetPecker variants), recounting
   the journal must reproduce the live values exactly — and because
   checkpoint/restore replays the journal through the same public entry
   points, a restored engine must carry the same registry too.

   Tracing gets the analogous treatment: span ids are sequence counters
   and timestamps are the logical clock, so two identical runs under a
   ring sink must produce byte-identical span lists. *)

open Cylog

(* --- Comparable registry views ------------------------------------------- *)

let derived_counters m =
  List.filter (fun (k, _) -> Engine.journal_derived k) (Telemetry.Metrics.counters m)

(* Derived counters + all histograms: everything [metrics_of_events] is
   contracted to reproduce. *)
let derived_view m = (derived_counters m, Telemetry.Metrics.histograms m)

let recount_agrees engine =
  derived_view (Engine.metrics_of_events (Engine.events engine))
  = derived_view (Engine.metrics engine)

(* --- Random programs driven by the canonical human ------------------------ *)

let drive_canonical program =
  (* The generator's Ask/Echo pair is a deliberate open cycle, which
     strict linting rejects as unbounded-task-emission. *)
  let engine = Engine.load ~lint:`Off program in
  ignore (Engine.run engine ~max_steps:20_000);
  let rec answer rounds =
    if rounds > 500 then ()
    else
      let pending =
        List.sort
          (fun (a : Engine.open_tuple) (b : Engine.open_tuple) ->
            compare
              (a.relation, Reldb.Tuple.to_string a.bound)
              (b.relation, Reldb.Tuple.to_string b.bound))
          (Engine.pending engine)
      in
      match pending with
      | [] -> ()
      | o :: _ ->
          let value = Reldb.Value.Int (Reldb.Tuple.hash o.bound mod 5) in
          (match
             Engine.supply engine o.id ~worker:(Reldb.Value.String "human")
               (List.map (fun a -> (a, value)) o.open_attrs)
           with
          | Ok _ -> ()
          | Error _ -> Engine.decline engine o.id);
          ignore (Engine.run engine ~max_steps:20_000);
          answer (rounds + 1)
  in
  answer 0;
  engine

let prop_recount_matches_live =
  QCheck.Test.make ~name:"metrics recounted from the journal = live registry"
    ~count:150 Test_differential.gen_program (fun program ->
      let engine = drive_canonical (Test_differential.with_open_rule program) in
      recount_agrees engine)

let prop_recount_survives_restore =
  QCheck.Test.make ~name:"registry survives snapshot/restore (replayed = derived)"
    ~count:100 Test_differential.gen_program (fun program ->
      let engine = drive_canonical (Test_differential.with_open_rule program) in
      let restored = Engine.restore_string (Engine.snapshot_string engine) in
      recount_agrees restored
      && derived_view (Engine.metrics restored) = derived_view (Engine.metrics engine))

(* --- Faulted lease/quorum campaigns --------------------------------------- *)

let quorum_campaign ?faults ~seed () =
  let src =
    {|rules:
  Item(id:1); Item(id:2); Item(id:3);
  Q: LabelOf(id, label)/open <- Item(id);
|}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  let policy engine ~worker:_ ~rng ~round:_ =
    match Engine.pending engine with
    | [] -> Crowd.Simulator.Pass
    | pending ->
        let o = List.nth pending (Random.State.int rng (List.length pending)) in
        let label = [| "cat"; "dog"; "eel" |].(Random.State.int rng 3) in
        Crowd.Simulator.Answer
          ( o.Engine.id,
            [ ("label", Reldb.Value.String label) ],
            Crowd.Simulator.Enter_value )
  in
  let workers =
    List.map (fun w -> (Reldb.Value.String w, policy)) [ "w1"; "w2"; "w3"; "w4" ]
  in
  let workers =
    match faults with
    | Some fs -> Crowd.Faults.inject ~seed fs workers
    | None -> workers
  in
  let outcome =
    Crowd.Simulator.run ~seed ~max_rounds:100 ~lease:Lease.default_config
      ~policy:(Engine.Fixed 2)
      ~stop:(fun e -> Engine.pending e = [])
      ~workers engine
  in
  ignore outcome;
  engine

let test_campaign_recount () =
  List.iter
    (fun seed ->
      let clean = quorum_campaign ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "clean campaign (seed %d): recount = live" seed)
        true (recount_agrees clean);
      let faulted =
        quorum_campaign ~faults:(List.assoc "all" Crowd.Faults.profiles) ~seed ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "faulted campaign (seed %d): recount = live" seed)
        true (recount_agrees faulted);
      (* Quorum really was exercised — the agreement-rate metrics exist. *)
      Alcotest.(check bool)
        (Printf.sprintf "campaign (seed %d): quorum votes counted" seed)
        true
        (Telemetry.Metrics.counter (Engine.metrics clean) "quorum.votes" > 0);
      let restored = Engine.restore_string (Engine.snapshot_string faulted) in
      Alcotest.(check bool)
        (Printf.sprintf "faulted campaign (seed %d): restored recount = live" seed)
        true (recount_agrees restored);
      Alcotest.(check bool)
        (Printf.sprintf "faulted campaign (seed %d): restored = original registry" seed)
        true
        (derived_view (Engine.metrics restored) = derived_view (Engine.metrics faulted)))
    [ 1; 7; 23 ]

(* --- Adaptive quality campaigns -------------------------------------------- *)

(* The adaptive quorum adds journal-derived counters (quorum.early_stopped,
   quorum.escalated) and the quorum.posterior_at_resolution histogram: the
   [Adaptive_resolved] effect carries the resolution evidence in the
   journal, so recounting must reproduce them like every other derived
   metric, before and after checkpoint/restore. Worker reputation rides
   along in the state record, so the restored engine's reliability table
   must match the original's. *)
let adaptive_campaign_outcome
    ?(policy = Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 5 }) ~seed () =
  let src =
    {|rules:
  Item(id:1); Item(id:2); Item(id:3); Item(id:4); Item(id:5); Item(id:6);
  Q: LabelOf(id, label)/open <- Item(id);
|}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  let truth (o : Engine.open_tuple) =
    let label =
      match Reldb.Tuple.get_or_null o.bound "id" with
      | Reldb.Value.Int i -> [| "cat"; "dog"; "eel" |].(i mod 3)
      | _ -> "cat"
    in
    [ ("label", Reldb.Value.String label) ]
  in
  let workers =
    List.map
      (fun (w : Crowd.Worker.profile) -> (Reldb.Value.String w.name, w))
      (Crowd.Worker.crowd Crowd.Worker.diligent 3 @ [ Crowd.Worker.sloppy "s1" ])
  in
  (engine, Crowd.Simulator.run_routed ~seed ~policy ~truth ~workers engine)

let adaptive_campaign ~seed () = fst (adaptive_campaign_outcome ~seed ())

let test_adaptive_campaign_recount () =
  List.iter
    (fun seed ->
      let engine = adaptive_campaign ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "adaptive campaign (seed %d): recount = live" seed)
        true (recount_agrees engine);
      Alcotest.(check bool)
        (Printf.sprintf "adaptive campaign (seed %d): early stops counted" seed)
        true
        (Telemetry.Metrics.counter (Engine.metrics engine) "quorum.early_stopped"
        > 0);
      Alcotest.(check bool)
        (Printf.sprintf "adaptive campaign (seed %d): posterior histogram present"
           seed)
        true
        (Telemetry.Metrics.histogram (Engine.metrics engine)
           "quorum.posterior_at_resolution"
        <> None);
      let restored = Engine.restore_string (Engine.snapshot_string engine) in
      Alcotest.(check bool)
        (Printf.sprintf "adaptive campaign (seed %d): restored recount = live" seed)
        true (recount_agrees restored);
      Alcotest.(check bool)
        (Printf.sprintf "adaptive campaign (seed %d): restored = original registry"
           seed)
        true
        (derived_view (Engine.metrics restored) = derived_view (Engine.metrics engine));
      Alcotest.(check bool)
        (Printf.sprintf "adaptive campaign (seed %d): reputation survives restore"
           seed)
        true
        (Engine.reliability_table restored = Engine.reliability_table engine))
    [ 3; 9; 31 ]

(* --- TweetPecker variants -------------------------------------------------- *)

let test_tweetpecker_recount () =
  let corpus = Tweets.Generator.generate ~seed:5 12 in
  List.iter
    (fun variant ->
      let name = Tweetpecker.Programs.variant_name variant in
      let o = Tweetpecker.Runner.run ~seed:11 ~corpus variant in
      Alcotest.(check bool) (name ^ ": recount = live") true (recount_agrees o.engine);
      let restored = Engine.restore_string (Engine.snapshot_string o.engine) in
      Alcotest.(check bool)
        (name ^ ": restored recount = live")
        true (recount_agrees restored);
      Alcotest.(check bool)
        (name ^ ": restored = original registry")
        true
        (derived_view (Engine.metrics restored) = derived_view (Engine.metrics o.engine)))
    Tweetpecker.Programs.[ VE; VEI; VRE; VREI ]

(* --- Tracing determinism --------------------------------------------------- *)

let ring_spans program =
  let engine = Engine.load program in
  let sink = Telemetry.Sink.ring 10_000 in
  Engine.set_sink engine sink;
  ignore (Engine.run engine ~max_steps:20_000);
  Telemetry.Sink.contents sink

let prop_tracing_deterministic =
  QCheck.Test.make ~name:"two identical runs emit identical span lists" ~count:100
    Test_differential.gen_program (fun program ->
      ring_spans program = ring_spans program)

let test_tweetpecker_tracing_deterministic () =
  let corpus = Tweets.Generator.generate ~seed:5 8 in
  let spans () =
    let sink = Telemetry.Sink.ring 100_000 in
    ignore (Tweetpecker.Runner.run ~seed:11 ~corpus ~sink Tweetpecker.Programs.VREI);
    Telemetry.Sink.contents sink
  in
  let a = spans () and b = spans () in
  Alcotest.(check bool) "VREI campaign: span streams identical" true (a = b);
  Alcotest.(check bool) "VREI campaign: spans were emitted" true (a <> []);
  let names = List.map (fun (s : Telemetry.span) -> s.name) a in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "VREI campaign: a %S span exists" expected)
        true (List.mem expected names))
    [ "campaign"; "round"; "rule"; "atom-match"; "task" ]

(* --- Engine-local evaluation counters --------------------------------------- *)

(* The "eval." namespace is engine-local — run boundaries and delta-scan
   rounds are not journal events, so these counters sit outside the
   recount contract — but they must still be observable: a run that
   converges in zero steps registers, and delta rounds are counted even
   when every scan comes up empty. *)
let test_zero_step_run_still_observed () =
  let engine = Engine.load (Parser.parse_exn "rules:\n  R(x:1);\n  T(x) <- R(x);\n") in
  ignore (Engine.run engine);
  let m = Engine.metrics engine in
  let runs_after_first = Telemetry.Metrics.counter m "eval.fixpoint.runs" in
  let steps_after_first = Telemetry.Metrics.counter m "eval.fixpoint.steps" in
  Alcotest.(check int) "first run counted" 1 runs_after_first;
  Alcotest.(check bool) "first run took steps" true (steps_after_first > 0);
  (* Quiescent engine: the second run converges in zero steps but is still
     an observation. *)
  ignore (Engine.run engine);
  Alcotest.(check int) "zero-step run counted" 2
    (Telemetry.Metrics.counter m "eval.fixpoint.runs");
  Alcotest.(check int) "zero-step run added no steps" steps_after_first
    (Telemetry.Metrics.counter m "eval.fixpoint.steps")

let test_delta_counters_accumulate () =
  let src = "rules:\n  R(x:1); R(x:2); R(x:3);\n  T(x) <- R(x);\n  U(x) <- T(x);\n" in
  let delta = Engine.load ~strategy:Engine.Optimized (Parser.parse_exn src) in
  ignore (Engine.run delta);
  let m = Engine.metrics delta in
  Alcotest.(check bool) "delta rounds counted" true
    (Telemetry.Metrics.counter m "eval.delta.rounds" > 0);
  Alcotest.(check bool) "delta discoveries counted" true
    (Telemetry.Metrics.counter m "eval.delta.discovered" > 0);
  Alcotest.(check bool) "new rows consumed" true
    (Telemetry.Metrics.counter m "eval.delta.new_rows" > 0);
  (* Monotone program, nothing destroyed: no scoped re-derivations. *)
  Alcotest.(check int) "no resets on a monotone program" 0
    (Telemetry.Metrics.counter m "eval.delta.resets");
  let rescan = Engine.load ~strategy:Engine.Reference (Parser.parse_exn src) in
  ignore (Engine.run rescan);
  Alcotest.(check int) "rescan engine runs no delta rounds" 0
    (Telemetry.Metrics.counter (Engine.metrics rescan) "eval.delta.rounds");
  (* An in-place update invalidates watched delta state: the affected
     statement re-derives and the reset is counted. *)
  let ud =
    Engine.load ~lint:`Off
      (Parser.parse_exn
         {|schema:
  K(a key, b);

rules:
  K(a:1, b:9); R(x:1); R(x:2);
  T(b) <- K(a, b), R(x);
  K(a:x, b:x)/update <- R(x);
|})
  in
  ignore (Engine.run ud);
  Alcotest.(check bool) "updates trigger counted re-derivations" true
    (Telemetry.Metrics.counter (Engine.metrics ud) "eval.delta.resets" > 0)

(* --- Off switches ----------------------------------------------------------- *)

let test_disabled_registry_stays_empty () =
  let program =
    Parser.parse_exn "rules:\n  R(x:1); R(x:2);\n  T(x) <- R(x);\n"
  in
  let engine = Engine.load program in
  Telemetry.Metrics.set_enabled (Engine.metrics engine) false;
  ignore (Engine.run engine);
  Alcotest.(check (list (pair string int)))
    "no counters accumulate while disabled" []
    (Telemetry.Metrics.counters (Engine.metrics engine));
  (* Re-enabling does not resurrect the missed window, but the journal
     recount still reconstructs it in a fresh registry. *)
  let recount = Engine.metrics_of_events (Engine.events engine) in
  Alcotest.(check bool) "recount still reconstructs the blackout" true
    (Telemetry.Metrics.counter recount "engine.events"
     = List.length (Engine.events engine)
    && Telemetry.Metrics.counter recount "engine.events" > 0)

let test_null_sink_emits_nothing () =
  let program = Parser.parse_exn "rules:\n  R(x:1);\n  T(x) <- R(x);\n" in
  let engine = Engine.load program in
  ignore (Engine.run engine);
  Alcotest.(check bool) "null sink has no contents" true
    (Telemetry.Sink.contents (Telemetry.sink (Engine.telemetry engine)) = []);
  Alcotest.(check bool) "explain renders" true
    (String.length (Engine.explain engine) > 0)

(* EXPLAIN names the strategy and shows each rule's path: under
   [Optimized] a rule with a positive atom runs delta scans over cached
   plans; under [Reference] it is rescanned left to right and no plan is
   compiled, so no planner counter moves. *)
let test_explain_names_the_strategy () =
  let src = "rules:\n  R(x:1); S(x:1);\n  J: T(x) <- R(x), S(x);\n" in
  let explain strategy =
    let engine = Engine.load ~strategy (Parser.parse_exn src) in
    ignore (Engine.run engine);
    (engine, String.split_on_char '\n' (Engine.explain engine))
  in
  let rule_lines lines =
    let rec from = function
      | l :: rest when String.starts_with ~prefix:"rule J" l -> l :: until rest
      | _ :: rest -> from rest
      | [] -> []
    and until = function
      | l :: rest when String.starts_with ~prefix:"  " l -> l :: until rest
      | _ -> []
    in
    from lines
  in
  let has_prefix p lines = List.exists (String.starts_with ~prefix:p) lines in
  let header name lines =
    match lines with
    | l :: _ ->
        String.starts_with ~prefix:"EXPLAIN  (clock" l
        && String.ends_with ~suffix:(Printf.sprintf "strategy %s)" name) l
    | [] -> false
  in
  let optimized, lines = explain Engine.Optimized in
  Alcotest.(check bool) "optimized: header names the strategy" true
    (header "optimized" lines);
  (match rule_lines lines with
  | head :: body ->
      Alcotest.(check string) "optimized: rule J is a delta rule" "rule J  [delta]" head;
      Alcotest.(check bool) "optimized: plan-cache line" true (has_prefix "  plan cache:" body)
  | [] -> Alcotest.fail "optimized: no rule J");
  Alcotest.(check bool) "optimized: plans were compiled" true
    (Telemetry.Metrics.counter (Engine.metrics optimized) "planner.delta_cache.misses" > 0);
  let reference, lines = explain Engine.Reference in
  Alcotest.(check bool) "reference: header names the strategy" true
    (header "reference" lines);
  (match rule_lines lines with
  | head :: body ->
      Alcotest.(check string) "reference: rule J is rescanned" "rule J  [rescan]" head;
      Alcotest.(check bool) "reference: joins left to right" true
        (List.mem "  join: R -> S  (left-to-right)" body);
      Alcotest.(check bool) "reference: no plan-cache line" false
        (has_prefix "  plan cache:" body)
  | [] -> Alcotest.fail "reference: no rule J");
  Alcotest.(check (list (pair string int))) "reference: no planner counter" []
    (List.filter
       (fun (k, v) -> String.starts_with ~prefix:"planner." k && v <> 0)
       (Telemetry.Metrics.counters (Engine.metrics reference)))

let suite =
  [ ( "telemetry",
      List.map QCheck_alcotest.to_alcotest
        [ prop_recount_matches_live; prop_recount_survives_restore;
          prop_tracing_deterministic ]
      @ [ Alcotest.test_case "faulted quorum campaigns: recount = live" `Quick
            test_campaign_recount;
          Alcotest.test_case "adaptive campaigns: recount, restore, reputation"
            `Quick test_adaptive_campaign_recount;
          Alcotest.test_case "tweetpecker variants: recount = live" `Slow
            test_tweetpecker_recount;
          Alcotest.test_case "tweetpecker tracing: deterministic spans" `Slow
            test_tweetpecker_tracing_deterministic;
          Alcotest.test_case "zero-step runs are still observed" `Quick
            test_zero_step_run_still_observed;
          Alcotest.test_case "delta counters accumulate" `Quick
            test_delta_counters_accumulate;
          Alcotest.test_case "disabled registry stays empty" `Quick
            test_disabled_registry_stays_empty;
          Alcotest.test_case "null sink emits nothing" `Quick
            test_null_sink_emits_nothing;
          Alcotest.test_case "explain names the strategy and each rule's path" `Quick
            test_explain_names_the_strategy ] ) ]
