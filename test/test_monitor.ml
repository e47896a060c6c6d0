(* Campaign-monitor differential tests.

   The monitor obeys the same derivability contract as the metrics
   registry (docs/OBSERVABILITY.md): its whole state — lifecycle latency
   histograms, every series point, every alert firing — is ONE fold over
   [Engine.events], applied incrementally by the live monitor and from
   scratch by [Monitor.of_events]. So for random faulted adaptive-quorum
   campaigns the rebuilt view must equal the live view exactly, and it
   must survive snapshot/restore and journal recovery (both replay the
   same public entry points). Watchdog verdicts ride in the journaled
   [Alert_fired] effects, so the fold reads firings back instead of
   re-deciding them. *)

open Cylog

let monitor_view_of engine = Option.map Monitor.view (Engine.monitor engine)

let recount_view config engine =
  Some (Monitor.view (Monitor.of_events config (Engine.events engine)))

(* A faulted adaptive-quorum labelling campaign under the monitor: eight
   undesignated items, five workers wrapped in the "all" fault profile,
   lease runtime on, adaptive quorum, one monitor sample per round. *)
let campaign_src =
  {|rules:
  Item(id:1); Item(id:2); Item(id:3); Item(id:4);
  Item(id:5); Item(id:6); Item(id:7); Item(id:8);
  Q: LabelOf(id, label)/open <- Item(id);
|}

let faulted_workers ~seed =
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
    List.map
      (fun w -> (Reldb.Value.String w, policy))
      [ "w1"; "w2"; "w3"; "w4"; "w5" ]
  in
  Crowd.Faults.inject ~seed (List.assoc "all" Crowd.Faults.profiles) workers

let campaign ?budget ?store ~seed () =
  let engine = Engine.load (Parser.parse_exn campaign_src) in
  (match store with
  | Some s ->
      Engine.journal_start ~storage:(Storage.Sim.storage s) engine "journal"
  | None -> ());
  let config = { Monitor.default_config with max_budget = budget } in
  let workers = faulted_workers ~seed in
  let outcome =
    Crowd.Simulator.run ~seed ~max_rounds:150 ~lease:Lease.default_config
      ~policy:(Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 5 })
      ~monitor:config
      ~stop:(fun e -> Engine.pending e = [])
      ~workers engine
  in
  (engine, config, outcome)

(* --- The recount property: live = fold, across restore and recovery ------- *)

let prop_monitor_recount =
  QCheck.Test.make
    ~name:"monitor rebuilt from the event log = live (faulted adaptive campaigns)"
    ~count:25 QCheck.small_nat (fun seed ->
      let engine, config, _ = campaign ~seed () in
      recount_view config engine = monitor_view_of engine)

let prop_monitor_survives_restore =
  QCheck.Test.make
    ~name:"monitor survives snapshot/restore (restored view = live = fold)"
    ~count:15 QCheck.small_nat (fun seed ->
      let engine, config, _ = campaign ~seed () in
      let restored = Engine.restore_string (Engine.snapshot_string engine) in
      monitor_view_of restored = monitor_view_of engine
      && recount_view config restored = monitor_view_of restored)

let prop_monitor_survives_recover =
  QCheck.Test.make
    ~name:"monitor survives journal recovery (recovered view = live = fold)"
    ~count:10 QCheck.small_nat (fun seed ->
      let store = Storage.Sim.create () in
      let engine, config, _ = campaign ~store ~seed () in
      Option.iter Journal.close (Engine.durable_journal engine);
      let recovered, _ =
        Engine.recover ~storage:(Storage.Sim.storage store) "journal"
      in
      monitor_view_of recovered = monitor_view_of engine
      && recount_view config recovered = monitor_view_of recovered)

(* Crash-point recovery: the runner's fault-injecting storage kills the
   campaign mid-round and resumes it on the recovered engine; the monitor
   crosses the crash like every other piece of derived state. *)
let test_monitor_crash_recovery () =
  let corpus = Tweets.Generator.generate ~seed:5 6 in
  let monitor = Monitor.default_config in
  List.iter
    (fun seed ->
      let o =
        Tweetpecker.Runner.run ~seed ~corpus ~monitor
          ~storage_faults:(List.assoc "torn" Crowd.Faults.storage_profiles)
          Tweetpecker.Programs.VE
      in
      Alcotest.(check bool)
        (Printf.sprintf "crash campaign (seed %d): a monitor is installed" seed)
        true
        (Engine.monitor o.engine <> None);
      Alcotest.(check bool)
        (Printf.sprintf "crash campaign (seed %d): recount = live" seed)
        true
        (recount_view monitor o.engine = monitor_view_of o.engine))
    [ 3; 11 ]

(* --- Budget watchdog: journaled alert, fires once, stops the campaign ----- *)

let is_budget_alert = function Event.Budget_exceeded _ -> true | _ -> false

let test_budget_alert_fires_once () =
  let engine, config, outcome = campaign ~budget:10 ~seed:7 () in
  let mon = Option.get (Engine.monitor engine) in
  let budget_firings =
    List.filter
      (fun (f : Monitor.firing) -> is_budget_alert f.alert)
      (Monitor.firings mon)
  in
  Alcotest.(check int) "budget alert fired exactly once" 1
    (List.length budget_firings);
  Alcotest.(check bool) "campaign stopped via the alert" true
    (match outcome.stop_reason with
    | `Alert f -> is_budget_alert f.alert
    | _ -> false);
  (* The firing is evidence in the event log, not monitor memory: exactly
     one [Alert_fired] effect carries it, and the fold reads it back. *)
  let journaled =
    List.concat_map
      (fun (e : Engine.event) ->
        List.filter_map
          (function
            | Engine.Alert_fired { alert; _ } when is_budget_alert alert ->
                Some alert
            | _ -> None)
          e.effects)
      (Engine.events engine)
  in
  Alcotest.(check int) "exactly one Alert_fired effect journaled" 1
    (List.length journaled);
  Alcotest.(check bool) "recount reproduces the firing" true
    (recount_view config engine = monitor_view_of engine);
  (* Sampling after the latch: the watchdog stays quiet even though spent
     still exceeds the budget. *)
  let again = Engine.monitor_sample engine ~round:1000 in
  Alcotest.(check bool) "latched alert does not re-fire" true
    (not (List.exists (fun (f : Monitor.firing) -> is_budget_alert f.alert) again))

(* --- The metrics kill switch short-circuits the monitor ------------------- *)

let test_disabled_monitor_records_nothing () =
  let engine = Engine.load (Parser.parse_exn campaign_src) in
  ignore (Engine.run engine);
  Engine.set_monitor engine (Some Monitor.default_config);
  Telemetry.Metrics.set_enabled (Engine.metrics engine) false;
  let events_before = List.length (Engine.events engine) in
  let view_before = monitor_view_of engine in
  (* Sampling while disabled: no firings, no event, no monitor movement. *)
  let firings = Engine.monitor_sample engine ~round:1 in
  Alcotest.(check bool) "disabled sample returns no firings" true (firings = []);
  Alcotest.(check int) "disabled sample appends no event" events_before
    (List.length (Engine.events engine));
  Alcotest.(check bool) "disabled sample leaves the monitor unchanged" true
    (monitor_view_of engine = view_before);
  (* Lifecycle recording is off too: an answer flows through the engine
     without the monitor seeing it. *)
  (match Engine.pending engine with
  | o :: _ ->
      (match
         Engine.supply engine o.id ~worker:(Reldb.Value.String "w")
           [ ("label", Reldb.Value.String "cat") ]
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Engine.reject_to_string e));
      let mon = Option.get (Engine.monitor engine) in
      Alcotest.(check int) "disabled monitor counted no answers" 0
        (Monitor.answers mon)
  | [] -> Alcotest.fail "campaign produced no pending task");
  (* Re-enabling resumes sampling (the blackout window stays lost — the
     same caveat as the counter recount). *)
  Telemetry.Metrics.set_enabled (Engine.metrics engine) true;
  ignore (Engine.monitor_sample engine ~round:2);
  let mon = Option.get (Engine.monitor engine) in
  Alcotest.(check int) "re-enabled sample lands" 1 (Monitor.samples mon)

(* --- Quantile accessor ----------------------------------------------------- *)

(* Bounds default to [|1;2;5;10;25;50;100;250;1000|]; observations are
   bucketed, quantiles interpolate linearly within the bucket. *)
let test_quantile () =
  let m = Telemetry.Metrics.create () in
  Alcotest.(check bool) "empty histogram has no quantile" true
    (Telemetry.Metrics.histogram m "h" = None);
  for _ = 1 to 10 do
    Telemetry.Metrics.observe m "h" 4 (* bucket (2,5] *)
  done;
  let h = Option.get (Telemetry.Metrics.histogram m "h") in
  let q p = Telemetry.Metrics.quantile h p in
  Alcotest.(check bool) "all mass in one bucket: p50 inside (2,5]" true
    (q 0.5 > 2.0 && q 0.5 <= 5.0);
  Alcotest.(check bool) "quantiles are monotone" true
    (q 0.25 <= q 0.5 && q 0.5 <= q 0.95 && q 0.95 <= q 0.99);
  Telemetry.Metrics.observe m "h" 100_000;
  let h = Option.get (Telemetry.Metrics.histogram m "h") in
  Alcotest.(check (float 1e-9)) "overflow bucket clamps to the last bound"
    1000.0
    (Telemetry.Metrics.quantile h 1.0);
  Alcotest.(check (float 1e-9)) "clamped q below 0 reads the minimum"
    (Telemetry.Metrics.quantile h 0.0)
    (Telemetry.Metrics.quantile h (-1.0))

(* --- A second monitor installed mid-campaign ---------------------------------- *)

(* Re-installing rebuilds the series from the log: after the budget alert
   fired under the first config, a second one with another threshold and
   a ring smaller than the samples taken so far must report what a
   recount, a restore and a recovery report, while sampling goes on. *)
let test_second_monitor () =
  let store = Storage.Sim.create () in
  let engine, _, _ = campaign ~budget:10 ~store ~seed:7 () in
  let samples = Monitor.samples (Option.get (Engine.monitor engine)) in
  Alcotest.(check bool) "the first monitor fired" true
    (Monitor.firings (Option.get (Engine.monitor engine)) <> []);
  let config =
    { Monitor.default_config with max_budget = Some 20; series_capacity = samples / 2 }
  in
  Engine.set_monitor engine (Some config);
  ignore
    (Crowd.Simulator.run ~seed:8 ~max_rounds:12 ~lease:Lease.default_config
       ~on_alert:(fun _ -> `Warn)
       ~stop:(fun e -> Engine.pending e = [])
       ~workers:(faulted_workers ~seed:8) engine);
  let live = monitor_view_of engine in
  let v = Option.get live in
  Alcotest.(check bool) "sampling went on" true (v.v_samples > samples);
  Alcotest.(check bool) "the ring dropped the oldest points" true (v.v_dropped_points > 0);
  Alcotest.(check int) "the ring holds its capacity" config.series_capacity
    (List.length v.v_points);
  Alcotest.(check bool) "recount = live" true (recount_view config engine = live);
  Alcotest.(check bool) "restore = live" true
    (monitor_view_of (Engine.restore_string (Engine.snapshot_string engine)) = live);
  Option.iter Journal.close (Engine.durable_journal engine);
  let recovered, _ = Engine.recover ~storage:(Storage.Sim.storage store) "journal" in
  Alcotest.(check bool) "recovery = live" true (monitor_view_of recovered = live)

(* --- The oldest pending age: a cursor held to the walk ------------------------ *)

let items n = String.concat " " (List.init n (fun i -> Printf.sprintf "Item(id:%d);" (i + 1)))

(* Two label stages, so answers create tasks while older ones are still
   pending. *)
let staged_src =
  Printf.sprintf
    {|rules:
  %s
  Q: LabelOf(id, label)/open <- Item(id);
  C: CheckOf(id, verdict)/open <- LabelOf(id, label);
|}
    (items 40)

(* The standing task comes first, so it is the oldest, and it never
   retires: the moves below only ever answer it. *)
let standing_src =
  Printf.sprintf
    {|schema:
  Rules(rid key auto, cond, p);
rules:
  Workers(p:"kate");
  R: Rules(rid, cond, p)/open[p] <- Workers(p);
  %s
  Q: LabelOf(id, label)/open <- Item(id);
|}
    (items 12)

let age_config = { Monitor.default_config with series_capacity = 4096 }

(* A sample whose point disagrees with the walk over the pending table
   fails at once: a cursor that skipped a pending task may never find
   another one. *)
let sample_against_walk what engine ~round =
  ignore (Engine.monitor_sample engine ~round);
  let mon = Option.get (Engine.monitor engine) in
  let p = List.hd (List.rev (Monitor.points mon)) in
  let walk =
    Oldest_age_reference.oldest_age (List.to_seq (Monitor.view mon).v_pending)
      ~clock:p.p_clock
  in
  if p.p_oldest_age <> walk then
    Alcotest.failf "%s, round %d: oldest age %d, walk %d" what round p.p_oldest_age walk

(* [steps] seeded moves from logical time [from]: each picks a random
   pending task and answers it, declines it, leases it to a worker who
   never answers (the lease times out) or sends it a wrong attribute; a
   standing task is always answered. A reclaim runs every move and a
   sample every third. *)
let age_moves what engine ~rng ~from ~steps =
  let v s = Reldb.Value.String s in
  for now = from to from + steps - 1 do
    ignore (Engine.reclaim engine ~now);
    (match Engine.pending engine with
    | [] -> ()
    | pending -> (
        let o = List.nth pending (Random.State.int rng (List.length pending)) in
        let worker =
          match o.asked with
          | Some w -> w
          | None ->
              v
                (List.find
                   (fun w -> not (Engine.has_voted engine o.id ~worker:(v w)))
                   [ "w1"; "w2"; "w3"; "w4"; "w5" ])
        in
        let values =
          List.map (fun a -> (a, v [| "a"; "b" |].(Random.State.int rng 2))) o.open_attrs
        in
        match if o.repeatable then 0 else Random.State.int rng 10 with
        | 7 -> Engine.decline engine o.id
        | 8 -> ignore (Engine.assign engine o.id ~worker:(v "idle") ~now)
        | 9 -> ignore (Engine.supply engine o.id ~worker [ ("bogus", v "x") ])
        | _ ->
            ignore
              (if o.existence then Engine.answer_existence engine o.id ~worker true
               else Engine.supply engine o.id ~worker values);
            ignore (Engine.run engine)));
    if now mod 3 = 2 then sample_against_walk what engine ~round:now
  done

let point_ages mon = List.map (fun (p : Monitor.point) -> p.p_oldest_age) (Monitor.points mon)

let check_ages what engine =
  let expect = Oldest_age_reference.ages (Engine.events engine) in
  Alcotest.(check (list int)) (what ^ ": live = walk") expect
    (point_ages (Option.get (Engine.monitor engine)));
  Alcotest.(check (list int)) (what ^ ": of_events = walk") expect
    (point_ages (Monitor.of_events age_config (Engine.events engine)));
  expect

(* Every point's oldest age equals the walk over the pending table: live,
   recounted, restored and recovered, and on the restored and recovered
   engines as they go on sampling from a fresh cursor. *)
let test_oldest_age_walk () =
  List.iter
    (fun (name, src, policy) ->
      List.iter
        (fun seed ->
          let what = Printf.sprintf "%s, seed %d" name seed in
          let store = Storage.Sim.create () in
          let engine = Engine.load (Parser.parse_exn src) in
          Engine.journal_start ~storage:(Storage.Sim.storage store) engine "journal";
          Engine.set_lease_config engine
            (Some { Lease.default_config with ttl = 1; max_timeouts = 1 });
          Option.iter (Engine.set_quorum_policy engine) policy;
          Engine.set_monitor engine (Some age_config);
          ignore (Engine.run engine);
          let rng = Random.State.make [| seed |] in
          age_moves what engine ~rng ~from:0 ~steps:45;
          let ages = check_ages what engine in
          Alcotest.(check bool) (what ^ ": tasks still pending when restored") true
            (Engine.pending engine <> []);
          let restored = Engine.restore_string (Engine.snapshot_string engine) in
          Alcotest.(check (list int)) (what ^ ": restored = walk") ages
            (point_ages (Option.get (Engine.monitor restored)));
          age_moves what restored ~rng:(Random.State.copy rng) ~from:45 ~steps:45;
          ignore (check_ages (what ^ ", restored and resumed") restored);
          Option.iter Journal.close (Engine.durable_journal engine);
          let recovered, _ = Engine.recover ~storage:(Storage.Sim.storage store) "journal" in
          Alcotest.(check (list int)) (what ^ ": recovered = walk") ages
            (point_ages (Option.get (Engine.monitor recovered)));
          age_moves what recovered ~rng ~from:45 ~steps:45;
          ignore (check_ages (what ^ ", recovered and resumed") recovered))
        [ 1; 2; 3; 4; 5 ])
    [ ("labelling, no quorum", staged_src, None);
      ("labelling, Fixed 2", staged_src, Some (Engine.Fixed 2));
      ("labelling, Fixed 3", staged_src, Some (Engine.Fixed 3));
      ("standing task, Fixed 2", standing_src, Some (Engine.Fixed 2)) ]

let suite =
  [ ( "monitor",
      List.map QCheck_alcotest.to_alcotest
        [ prop_monitor_recount; prop_monitor_survives_restore;
          prop_monitor_survives_recover ]
      @ [ Alcotest.test_case "crash recovery: recount = live" `Slow
            test_monitor_crash_recovery;
          Alcotest.test_case "budget watchdog fires once and stops the campaign"
            `Quick test_budget_alert_fires_once;
          Alcotest.test_case "metrics kill switch short-circuits the monitor"
            `Quick test_disabled_monitor_records_nothing;
          Alcotest.test_case "histogram quantiles interpolate" `Quick
            test_quantile;
          Alcotest.test_case "a second monitor installed mid-campaign" `Quick
            test_second_monitor;
          Alcotest.test_case "oldest pending age = walk over the pending table" `Quick
            test_oldest_age_walk ] ) ]
