(* Tests for worker models and the crowd simulation loop. *)

let v_str s = Reldb.Value.String s

let test_worker_constructors () =
  let d = Crowd.Worker.diligent "w1" in
  Alcotest.(check bool) "diligent accurate" true (d.accuracy > 0.7);
  Alcotest.(check bool) "diligent honest" true d.honest_selection;
  Alcotest.(check bool) "no rules by default" true (d.rule_strategy = Crowd.Worker.No_rules);
  let r = Crowd.Worker.rational "w2" in
  (match r.rule_strategy with
  | Crowd.Worker.Front_loaded { count } ->
      Alcotest.(check bool) "positive budget" true (count > 0)
  | _ -> Alcotest.fail "rational should front-load rules");
  let s = Crowd.Worker.sloppy "w3" in
  Alcotest.(check bool) "sloppy less accurate" true (s.accuracy < d.accuracy);
  let crowd = Crowd.Worker.crowd Crowd.Worker.diligent 5 in
  Alcotest.(check (list string)) "names" [ "w1"; "w2"; "w3"; "w4"; "w5" ]
    (List.map (fun (w : Crowd.Worker.profile) -> w.name) crowd)

(* A minimal engine: one worker asked to enter values for three items. *)
let mini_engine () =
  Cylog.Engine.load
    (Cylog.Parser.parse_exn
       {|
       rules:
         Item(x:1); Item(x:2); Item(x:3);
         W(p:"kate");
         Ask: Answer(x, value, p)/open[p] <- Item(x), W(p);
       |})

let test_simulator_runs_to_stop () =
  let engine = mini_engine () in
  let answered = ref 0 in
  let policy engine ~worker:_ ~rng:_ ~round:_ =
    match Cylog.Engine.pending engine with
    | o :: _ ->
        incr answered;
        Crowd.Simulator.Answer
          (o.Cylog.Engine.id, [ ("value", v_str "v") ], Crowd.Simulator.Enter_value)
    | [] -> Crowd.Simulator.Pass
  in
  let stop engine =
    match Reldb.Database.find (Cylog.Engine.database engine) "Answer" with
    | Some rel -> Reldb.Relation.cardinal rel >= 3
    | None -> false
  in
  let outcome =
    Crowd.Simulator.run ~stop ~workers:[ (v_str "kate", policy) ] engine
  in
  Alcotest.(check bool) "stopped" true (outcome.stop_reason = `Stopped);
  Alcotest.(check int) "three answers" 3 !answered;
  Alcotest.(check int) "three log entries" 3 (List.length outcome.log);
  (* Log is chronological and carries the worker identity. *)
  List.iter
    (fun (e : Crowd.Simulator.log_entry) ->
      Alcotest.(check bool) "worker recorded" true (Reldb.Value.equal e.worker (v_str "kate"));
      Alcotest.(check string) "relation recorded" "Answer" e.relation)
    outcome.log;
  let clocks = List.map (fun (e : Crowd.Simulator.log_entry) -> e.clock) outcome.log in
  Alcotest.(check bool) "clocks increase" true (List.sort compare clocks = clocks)

let test_simulator_stalls_when_all_pass () =
  let engine = mini_engine () in
  let policy _ ~worker:_ ~rng:_ ~round:_ = Crowd.Simulator.Pass in
  let outcome =
    Crowd.Simulator.run ~stop:(fun _ -> false) ~workers:[ (v_str "kate", policy) ] engine
  in
  Alcotest.(check bool) "stalled" true (outcome.stop_reason = `Stalled);
  Alcotest.(check int) "no log" 0 (List.length outcome.log)

let test_simulator_max_rounds () =
  let engine = mini_engine () in
  (* A policy that acts every round but never satisfies the stop condition:
     answering the same standing question would resolve it, so instead
     alternate passing and let max_rounds bite. *)
  let policy _ ~worker:_ ~rng:_ ~round:_ = Crowd.Simulator.Pass in
  let outcome =
    Crowd.Simulator.run ~max_rounds:2 ~stop:(fun _ -> false)
      ~workers:[ (v_str "kate", policy) ] engine
  in
  (* With an always-passing worker the stall check fires before max_rounds;
     both are acceptable terminal reasons — just never an infinite loop. *)
  Alcotest.(check bool) "terminates" true
    (outcome.stop_reason = `Stalled || outcome.stop_reason = `Max_rounds)

let test_simulator_progress_recorded () =
  let engine = mini_engine () in
  let policy engine ~worker:_ ~rng:_ ~round:_ =
    match Cylog.Engine.pending engine with
    | o :: _ ->
        Crowd.Simulator.Answer
          (o.Cylog.Engine.id, [ ("value", v_str "v") ], Crowd.Simulator.Enter_value)
    | [] -> Crowd.Simulator.Pass
  in
  let progress engine =
    match Reldb.Database.find (Cylog.Engine.database engine) "Answer" with
    | Some rel -> float_of_int (Reldb.Relation.cardinal rel) /. 3.0
    | None -> 0.0
  in
  let outcome =
    Crowd.Simulator.run ~progress
      ~stop:(fun engine -> progress engine >= 1.0)
      ~workers:[ (v_str "kate", policy) ]
      engine
  in
  let ps = List.map (fun (e : Crowd.Simulator.log_entry) -> e.progress) outcome.log in
  Alcotest.(check bool) "progress non-decreasing" true (List.sort compare ps = ps);
  Alcotest.(check bool) "progress starts at 0" true (List.hd ps = 0.0)

let test_simulator_deterministic () =
  let run () =
    let engine = mini_engine () in
    let policy engine ~worker:_ ~rng ~round:_ =
      let pending = Cylog.Engine.pending engine in
      match pending with
      | [] -> Crowd.Simulator.Pass
      | _ ->
          let o = List.nth pending (Random.State.int rng (List.length pending)) in
          Crowd.Simulator.Answer
            (o.Cylog.Engine.id, [ ("value", v_str "v") ], Crowd.Simulator.Enter_value)
    in
    let outcome =
      Crowd.Simulator.run ~seed:11
        ~stop:(fun engine ->
          match Reldb.Database.find (Cylog.Engine.database engine) "Answer" with
          | Some rel -> Reldb.Relation.cardinal rel >= 3
          | None -> false)
        ~workers:[ (v_str "kate", policy) ]
        engine
    in
    List.map (fun (e : Crowd.Simulator.log_entry) -> (e.round, e.clock)) outcome.log
  in
  Alcotest.(check bool) "same seed, same log" true (run () = run ())

(* Early-stop credit: a worker earns one per task that resolved early
   ([Adaptive_resolved] with [escalated = false]) and on which the event
   log shows that worker's accepted vote. The campaign runs under its own
   policy, where tasks stop early, and under one whose tau three votes
   rarely reach, where most escalate and earn no credit. *)
let test_simulator_early_stop_credit () =
  let escalating = Cylog.Engine.Adaptive { tau = 0.99; min_votes = 2; max_votes = 3 } in
  let check ?policy seed =
    let engine, outcome = Test_telemetry.adaptive_campaign_outcome ?policy ~seed () in
    let events = Cylog.Engine.events engine in
    let resolved ~escalated =
      List.concat_map
        (fun (ev : Cylog.Engine.event) ->
          List.filter_map
            (function
              | Cylog.Engine.Adaptive_resolved { open_id; escalated = e; _ }
                when e = escalated ->
                  Some open_id
              | _ -> None)
            ev.effects)
        events
    in
    let early = resolved ~escalated:false in
    let expected w =
      List.length
        (List.filter
           (fun id ->
             List.exists
               (fun (ev : Cylog.Engine.event) ->
                 ev.by_human = Some w
                 && match Cylog.Fold.vote ev with Some (v, _) -> v = id | None -> false)
               events)
           early)
    in
    List.iter
      (fun (w, (s : Crowd.Simulator.worker_stat)) ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d%s: %s's credit" seed
             (if policy = None then "" else ", escalating")
             (Reldb.Value.to_display w))
          (expected w) s.early_stop_credit)
      outcome.worker_stats;
    (outcome, resolved ~escalated:true)
  in
  List.iter
    (fun seed ->
      let outcome, _ = check seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: some credit is earned" seed)
        true
        (List.exists
           (fun (_, (s : Crowd.Simulator.worker_stat)) -> s.early_stop_credit > 0)
           outcome.worker_stats);
      let _, escalated = check ~policy:escalating seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, escalating: some task escalates" seed)
        true (escalated <> []))
    [ 3; 9; 31 ]

let suite =
  [ ( "crowd.worker",
      [ Alcotest.test_case "constructors" `Quick test_worker_constructors ] );
    ( "crowd.simulator",
      [ Alcotest.test_case "runs to stop" `Quick test_simulator_runs_to_stop;
        Alcotest.test_case "stalls when all pass" `Quick test_simulator_stalls_when_all_pass;
        Alcotest.test_case "bounded rounds" `Quick test_simulator_max_rounds;
        Alcotest.test_case "progress recorded" `Quick test_simulator_progress_recorded;
        Alcotest.test_case "deterministic under seed" `Quick test_simulator_deterministic;
        Alcotest.test_case "early-stop credit matches the event log" `Quick
          test_simulator_early_stop_credit ] ) ]
