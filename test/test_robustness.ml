(* The unreliable-crowd runtime: task leases, retry/reassignment,
   dead-lettering, typed supply rejections, quorum aggregation, fault
   injection, and checkpoint/replay. Plus the parser error paths that a
   robust CLI depends on: malformed programs must come back as structured
   errors, never as escaping exceptions. *)

open Cylog

let v_str s = Reldb.Value.String s
let v_int i = Reldb.Value.Int i

(* --- Parser error paths --------------------------------------------------- *)

let check_structured_error name src =
  match Parser.parse src with
  | exception e -> Alcotest.failf "%s: exception escaped Parser.parse: %s" name (Printexc.to_string e)
  | Ok _ -> Alcotest.failf "%s: malformed program parsed" name
  | Error e ->
      Alcotest.(check bool) (name ^ ": line positive") true (e.Parser.line >= 1);
      Alcotest.(check bool) (name ^ ": col non-negative") true (e.Parser.col >= 0);
      Alcotest.(check bool) (name ^ ": message") true (String.length e.Parser.message > 0)

let test_parser_error_paths () =
  check_structured_error "unterminated view body"
    "rules: R(x:1); views: view V { <p>{{x}}</p>";
  check_structured_error "bad /open annotation"
    "rules: Ask: A(x)/open[ <- R(x);";
  check_structured_error "stray token" "rules: R(x:1); %$&;";
  check_structured_error "unterminated statement" "rules: R(x:1";
  check_structured_error "dangling body" "rules: S(x) <- ;";
  check_structured_error "unbalanced head braces" "rules: R(x) { S(x), <- T(x);"

let test_parser_error_paths_never_raise () =
  (* A little corpus of mutilations of a valid program: whatever we cut or
     inject, parse must return, not raise. *)
  let base = "schema:\n  R(x key, y);\nrules:\n  R(x:1, y:2);\n  S(y)/open <- R(x, y);\n" in
  let n = String.length base in
  for cut = 1 to n - 1 do
    match Parser.parse (String.sub base 0 cut) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "prefix %d: exception escaped: %s" cut (Printexc.to_string e)
  done;
  List.iter
    (fun junk ->
      match Parser.parse (base ^ junk) with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "suffix %S: exception escaped: %s" junk (Printexc.to_string e))
    [ "}"; ");"; "/open["; "<-"; "rules:"; "\"unterminated"; "{" ]

(* --- Lease lifecycle ------------------------------------------------------- *)

let lease_cfg = { Lease.ttl = 2; max_timeouts = 2; backoff_base = 1; max_rejections = 2 }

let test_lease_grant_and_renew () =
  let l = Lease.create lease_cfg in
  let w1 = v_str "w1" and w2 = v_str "w2" in
  (match Lease.assign l ~open_id:7 ~worker:w1 ~now:0 ~capacity:1 with
  | Ok lease ->
      Alcotest.(check int) "deadline = now + ttl" 2 lease.Lease.deadline;
      Alcotest.(check int) "granted now" 0 lease.Lease.granted_at
  | Error _ -> Alcotest.fail "first assign should grant");
  Alcotest.(check bool) "holder holds" true (Lease.holds l ~open_id:7 ~worker:w1);
  (* Exclusive: a second worker is refused while the lease is valid. *)
  (match Lease.assign l ~open_id:7 ~worker:w2 ~now:1 ~capacity:1 with
  | Error (`Held w) -> Alcotest.(check bool) "held by w1" true (Reldb.Value.equal w w1)
  | _ -> Alcotest.fail "capacity-1 task must refuse a second worker");
  (* Renewal pushes the holder's deadline. *)
  (match Lease.assign l ~open_id:7 ~worker:w1 ~now:1 ~capacity:1 with
  | Ok lease -> Alcotest.(check int) "renewed deadline" 3 lease.Lease.deadline
  | Error _ -> Alcotest.fail "renewal should succeed")

let test_lease_timeout_backoff_dead_letter () =
  let l = Lease.create lease_cfg in
  let w1 = v_str "w1" and w2 = v_str "w2" in
  (match Lease.assign l ~open_id:3 ~worker:w1 ~now:0 ~capacity:1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "grant");
  (* Deadline 2: overdue at 2. One timeout, backoff 1 round. *)
  (match Lease.reclaim l ~now:2 with
  | [ (3, `Retry at) ] -> Alcotest.(check int) "backoff 2^0" 3 at
  | _ -> Alcotest.fail "one expired lease expected");
  Alcotest.(check bool) "expired holder no longer holds" false
    (Lease.holds l ~open_id:3 ~worker:w1);
  (match Lease.assign l ~open_id:3 ~worker:w2 ~now:2 ~capacity:1 with
  | Error (`Backoff at) -> Alcotest.(check int) "backoff visible" 3 at
  | _ -> Alcotest.fail "assign during backoff must be refused");
  (match Lease.assign l ~open_id:3 ~worker:w2 ~now:3 ~capacity:1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "assign after backoff");
  (* Second timeout exhausts the budget (max_timeouts = 2). *)
  (match Lease.reclaim l ~now:9 with
  | [ (3, `Dead Lease.Timed_out) ] -> ()
  | _ -> Alcotest.fail "task should be dead-lettered");
  Alcotest.(check bool) "dead" true (Lease.is_dead l ~open_id:3 = Some Lease.Timed_out);
  (match Lease.assign l ~open_id:3 ~worker:w1 ~now:10 ~capacity:1 with
  | Error (`Dead Lease.Timed_out) -> ()
  | _ -> Alcotest.fail "assigning a dead task must fail");
  Alcotest.(check int) "dead letters listed" 1 (List.length (Lease.dead_letters l))

let test_lease_rejection_budget () =
  let l = Lease.create lease_cfg in
  (match Lease.note_rejection l ~open_id:5 with
  | `Counted 1 -> ()
  | _ -> Alcotest.fail "first rejection counted");
  match Lease.note_rejection l ~open_id:5 with
  | `Exhausted 2 -> ()
  | _ -> Alcotest.fail "second rejection exhausts the budget (max_rejections = 2)"

let test_lease_redundant_capacity () =
  let l = Lease.create lease_cfg in
  let grant w =
    match Lease.assign l ~open_id:1 ~worker:(v_str w) ~now:0 ~capacity:3 with
    | Ok _ -> true
    | Error _ -> false
  in
  Alcotest.(check bool) "slot 1" true (grant "a");
  Alcotest.(check bool) "slot 2" true (grant "b");
  Alcotest.(check bool) "slot 3" true (grant "c");
  Alcotest.(check bool) "slot 4 refused" false (grant "d");
  Lease.release l ~open_id:1 ~worker:(v_str "b");
  Alcotest.(check bool) "freed slot reusable" true (grant "d")

(* --- Typed supply rejections ---------------------------------------------- *)

let reject_engine () =
  let engine =
    Engine.load
      (Parser.parse_exn
         {|
         rules:
           Seed(s:1);
           Out(k:1, v:"seed");
           Ask: Out(k:2, v)/open <- Seed(s);
         |})
  in
  ignore (Engine.run engine);
  match Engine.pending engine with
  | [ o ] -> (engine, o)
  | _ -> Alcotest.fail "exactly one open tuple expected"

let test_typed_rejects () =
  let engine, o = reject_engine () in
  let w = v_str "kate" in
  (match Engine.supply engine 999 ~worker:w [ ("v", v_str "x") ] with
  | Error (Engine.Stale 999) -> ()
  | _ -> Alcotest.fail "unknown id must be Stale");
  (match Engine.answer_existence engine o.Engine.id ~worker:w true with
  | Error Engine.Wrong_question -> ()
  | _ -> Alcotest.fail "existence answer on a value question must be Wrong_question");
  (match Engine.supply engine o.Engine.id ~worker:w [ ("w", v_str "x") ] with
  | Error (Engine.Wrong_attrs { expected = [ "v" ]; given = [ "w" ] }) -> ()
  | _ -> Alcotest.fail "attribute mismatch must be Wrong_attrs");
  (* Column v of Out already holds a string ("seed"): an int answer
     contradicts the evidence. *)
  (match Engine.supply engine o.Engine.id ~worker:w [ ("v", v_int 3) ] with
  | Error (Engine.Type_mismatch { attr = "v"; _ }) -> ()
  | _ -> Alcotest.fail "wrong-typed value must be Type_mismatch");
  (match Engine.supply engine o.Engine.id ~worker:w [ ("v", v_str "ok") ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid answer rejected: %s" (Engine.reject_to_string e));
  match Engine.supply engine o.Engine.id ~worker:w [ ("v", v_str "again") ] with
  | Error (Engine.Stale _) -> ()
  | _ -> Alcotest.fail "resolved id must be Stale"

let test_designated_worker_reject () =
  let engine =
    Engine.load
      (Parser.parse_exn
         {|
         rules:
           Item(x:1);
           W(p:"kate");
           Ask: Answer(x, value, p)/open[p] <- Item(x), W(p);
         |})
  in
  ignore (Engine.run engine);
  match Engine.pending engine with
  | [ o ] -> (
      match Engine.supply engine o.Engine.id ~worker:(v_str "bob") [ ("value", v_str "x") ] with
      | Error Engine.Not_lease_holder -> ()
      | _ -> Alcotest.fail "a stranger answering a designated task must be Not_lease_holder")
  | _ -> Alcotest.fail "one open tuple expected"

let test_lease_holder_reject_and_budget () =
  let engine, o = reject_engine () in
  Engine.set_lease_config engine (Some lease_cfg);
  let w1 = v_str "w1" and w2 = v_str "w2" in
  (match Engine.assign engine o.Engine.id ~worker:w1 ~now:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "assign should grant");
  (* The task is exclusively leased: another worker's answer bounces. *)
  (match Engine.supply engine o.Engine.id ~worker:w2 [ ("v", v_str "x") ] with
  | Error Engine.Not_lease_holder -> ()
  | _ -> Alcotest.fail "non-holder must be rejected while the lease is live");
  (* Two garbage answers from the holder exhaust the rejection budget
     (max_rejections = 2) and dead-letter the task. *)
  (match Engine.supply engine o.Engine.id ~worker:w1 [ ("bad", v_str "x") ] with
  | Error (Engine.Wrong_attrs _) -> ()
  | _ -> Alcotest.fail "garbage 1");
  (match Engine.supply engine o.Engine.id ~worker:w1 [ ("bad", v_str "x") ] with
  | Error (Engine.Wrong_attrs _) -> ()
  | _ -> Alcotest.fail "garbage 2");
  (match Engine.dead_letters engine with
  | [ (dead, Lease.Rejected_answers 2) ] ->
      Alcotest.(check int) "the task itself" o.Engine.id dead.Engine.id
  | _ -> Alcotest.fail "rejection budget must dead-letter the task");
  (* Dead tasks are gone from the pending pool and carry an audit event. *)
  Alcotest.(check bool) "no longer pending" true (Engine.find_open engine o.Engine.id = None);
  let has_dead_letter_event =
    List.exists
      (fun (e : Engine.event) ->
        List.exists
          (function
            | Engine.Dead_lettered (id, Lease.Rejected_answers 2) -> id = o.Engine.id
            | _ -> false)
          e.effects)
      (Engine.events engine)
  in
  Alcotest.(check bool) "Dead_lettered event recorded" true has_dead_letter_event

let test_decline_is_audited () =
  let engine, o = reject_engine () in
  let events_before = List.length (Engine.events engine) in
  Engine.decline engine o.Engine.id;
  Alcotest.(check bool) "resolved" true (Engine.find_open engine o.Engine.id = None);
  (match Engine.dead_letters engine with
  | [ (dead, Lease.Declined) ] -> Alcotest.(check int) "id" o.Engine.id dead.Engine.id
  | _ -> Alcotest.fail "declined task must be dead-lettered as Declined");
  let events = Engine.events engine in
  Alcotest.(check int) "one audit event appended" (events_before + 1) (List.length events);
  let last = List.nth events (List.length events - 1) in
  (match last.Engine.effects with
  | [ Engine.Dead_lettered (id, Lease.Declined) ] ->
      Alcotest.(check int) "effect names the task" o.Engine.id id
  | _ -> Alcotest.fail "decline must record a Dead_lettered effect");
  (* Declining an unknown id stays a no-op. *)
  Engine.decline engine 999;
  Alcotest.(check int) "no-op decline adds nothing" (events_before + 1)
    (List.length (Engine.events engine))

let test_run_signal () =
  let program =
    Parser.parse_exn
      {|
      rules:
        R(x:1);
        Step1: S(x) <- R(x);
        Step2: T(x) <- S(x);
      |}
  in
  let engine = Engine.load program in
  (match Engine.run engine ~max_steps:1 with
  | 1, `Capped -> ()
  | _ -> Alcotest.fail "run must report hitting the step cap");
  (match Engine.run engine with
  | _, `Quiescent -> ()
  | _, `Capped -> Alcotest.fail "finishing the remaining work must be Quiescent");
  match Engine.run engine with
  | 0, `Quiescent -> ()
  | _ -> Alcotest.fail "a quiescent engine reports 0 steps, Quiescent"

(* --- Quorum --------------------------------------------------------------- *)

let quorum_engine ?(k = 3) src =
  let engine = Engine.load (Parser.parse_exn src) in
  Engine.set_quorum_policy engine (Engine.Fixed k);
  ignore (Engine.run engine);
  engine

let test_quorum_majority () =
  let engine =
    quorum_engine {|
      rules:
        Seed(s:1);
        Ask: Poll(q:1, ans)/open <- Seed(s);
      |}
  in
  let o = match Engine.pending engine with [ o ] -> o | _ -> Alcotest.fail "one task" in
  let vote w value =
    match Engine.supply engine o.Engine.id ~worker:(v_str w) [ ("ans", v_str value) ] with
    | Ok e -> e.Engine.effects
    | Error e -> Alcotest.failf "vote rejected: %s" (Engine.reject_to_string e)
  in
  (match vote "w1" "a" with
  | [ Engine.Vote_recorded (_, 1) ] -> ()
  | _ -> Alcotest.fail "first vote banks, no insert");
  Alcotest.(check bool) "still pending after one vote" true
    (Engine.find_open engine o.Engine.id <> None);
  (match Engine.supply engine o.Engine.id ~worker:(v_str "w1") [ ("ans", v_str "a") ] with
  | Error Engine.Already_voted -> ()
  | _ -> Alcotest.fail "double voting must be rejected");
  ignore (vote "w2" "b");
  (match vote "w3" "a" with
  | [ Engine.Vote_recorded (_, 3); Engine.Inserted ("Poll", t) ] ->
      Alcotest.(check bool) "majority value a" true
        (Reldb.Value.equal (Reldb.Tuple.get_or_null t "ans") (v_str "a"))
  | _ -> Alcotest.fail "third vote must aggregate and insert");
  Alcotest.(check bool) "resolved" true (Engine.find_open engine o.Engine.id = None)

let test_quorum_existence_majority () =
  let engine =
    quorum_engine {|
      rules:
        Cand(tw:1, v:"sunny");
        Ask: Agreed(tw:1, v:"sunny")/open <- Cand(tw, v);
      |}
  in
  let o = match Engine.pending engine with [ o ] -> o | _ -> Alcotest.fail "one task" in
  Alcotest.(check bool) "existence question" true o.Engine.existence;
  let vote w yes =
    match Engine.answer_existence engine o.Engine.id ~worker:(v_str w) yes with
    | Ok e -> e
    | Error e -> Alcotest.failf "vote rejected: %s" (Engine.reject_to_string e)
  in
  ignore (vote "w1" true);
  ignore (vote "w2" false);
  ignore (vote "w3" true);
  match Reldb.Database.find (Engine.database engine) "Agreed" with
  | Some rel -> Alcotest.(check int) "2/3 ayes insert" 1 (Reldb.Relation.cardinal rel)
  | None -> Alcotest.fail "Agreed should exist"

(* Redundant assignment with majority aggregation must label no worse than
   trusting the first answer, under the same per-answer error rate: a lone
   wrong answer is outvoted, and ties fall back to the earliest vote —
   i.e. to exactly the single-answer baseline. *)
let test_quorum_accuracy_vs_single () =
  let n_items = 30 in
  let truth = "t" in
  let wrong item worker =
    (* Deterministic per (item, worker): ~30% error rate, distinct wrong
       values per worker. *)
    let st = Random.State.make [| 97; item; Hashtbl.hash worker |] in
    Random.State.float st 1.0 < 0.3
  in
  let answer item worker = if wrong item worker then "wrong-" ^ worker else truth in
  let source =
    let b = Buffer.create 256 in
    Buffer.add_string b "rules:\n";
    for i = 1 to n_items do
      Buffer.add_string b (Printf.sprintf "  Item(x:%d);\n" i)
    done;
    Buffer.add_string b "  Ask: Label(x, v)/open <- Item(x);\n";
    Buffer.contents b
  in
  let campaign k =
    let engine = Engine.load (Parser.parse_exn source) in
    if k > 1 then
      Engine.set_quorum_policy engine (Engine.Fixed k);
    ignore (Engine.run engine);
    List.iter
      (fun (o : Engine.open_tuple) ->
        let item =
          match Reldb.Tuple.get_or_null o.bound "x" with
          | Reldb.Value.Int i -> i
          | _ -> Alcotest.fail "bound item"
        in
        List.iteri
          (fun j w ->
            if j < k then
              match
                Engine.supply engine o.id ~worker:(v_str w) [ ("v", v_str (answer item w)) ]
              with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "supply: %s" (Engine.reject_to_string e))
          [ "w1"; "w2"; "w3" ])
      (Engine.pending engine);
    ignore (Engine.run engine);
    match Reldb.Database.find (Engine.database engine) "Label" with
    | None -> 0.0
    | Some rel ->
        let correct =
          List.length
            (List.filter
               (fun t -> Reldb.Value.equal (Reldb.Tuple.get_or_null t "v") (v_str truth))
               (Reldb.Relation.tuples rel))
        in
        float_of_int correct /. float_of_int n_items
  in
  let single = campaign 1 and majority = campaign 3 in
  Alcotest.(check bool)
    (Printf.sprintf "majority (%.2f) >= single (%.2f)" majority single)
    true
    (majority >= single);
  Alcotest.(check bool) "errors actually injected" true (single < 1.0)

(* --- Simulator: rejections, rounds, leases -------------------------------- *)

let mini_engine () =
  Engine.load
    (Parser.parse_exn
       {|
       rules:
         Item(x:1); Item(x:2); Item(x:3);
         Ask: Answer(x, value)/open <- Item(x);
       |})

let answer_count engine =
  match Reldb.Database.find (Engine.database engine) "Answer" with
  | Some rel -> Reldb.Relation.cardinal rel
  | None -> 0

let first_pending_policy engine ~worker:_ ~rng:_ ~round:_ =
  match Engine.pending engine with
  | o :: _ ->
      Crowd.Simulator.Answer
        (o.Engine.id, [ ("value", v_str "v") ], Crowd.Simulator.Enter_value)
  | [] -> Crowd.Simulator.Pass

let test_simulator_counts_rejections () =
  let engine = mini_engine () in
  (* Always submits the wrong attribute: every attempt must be counted,
     not silently discarded. *)
  let garbage engine ~worker:_ ~rng:_ ~round:_ =
    match Engine.pending engine with
    | o :: _ ->
        Crowd.Simulator.Answer
          (o.Engine.id, [ ("wrong", v_str "v") ], Crowd.Simulator.Enter_value)
    | [] -> Crowd.Simulator.Pass
  in
  let outcome =
    Crowd.Simulator.run ~stop:(fun _ -> false) ~workers:[ (v_str "kate", garbage) ] engine
  in
  (match outcome.rejections with
  | [ (w, n) ] ->
      Alcotest.(check bool) "worker named" true (Reldb.Value.equal w (v_str "kate"));
      Alcotest.(check bool) "every attempt counted" true (n >= 5)
  | _ -> Alcotest.fail "rejections must surface in the outcome");
  Alcotest.(check int) "nothing logged" 0 (List.length outcome.log)

let test_simulator_reports_actual_rounds () =
  let engine = mini_engine () in
  let pass _ ~worker:_ ~rng:_ ~round:_ = Crowd.Simulator.Pass in
  let outcome =
    Crowd.Simulator.run ~stop:(fun _ -> false) ~workers:[ (v_str "kate", pass) ] engine
  in
  Alcotest.(check bool) "stalled" true (outcome.stop_reason = `Stalled);
  Alcotest.(check int) "empty log" 0 (List.length outcome.log);
  (* The old implementation read the round off the last log entry and
     reported 0 here; five idle rounds actually ran. *)
  Alcotest.(check int) "idle rounds counted" 5 outcome.rounds

let test_simulator_lease_reassignment () =
  let engine = mini_engine () in
  (* w1 grabs a lease on every task it sees but never answers (Drop 1.0),
     then leaves at round 3; w2 inherits the tasks once the leases expire
     and finishes the campaign. *)
  let w1 =
    Crowd.Faults.wrap ~seed:5
      [ Crowd.Faults.Drop 1.0; Crowd.Faults.Crash_round 3 ]
      first_pending_policy
  in
  let outcome =
    Crowd.Simulator.run ~max_rounds:60
      ~lease:{ Lease.ttl = 2; max_timeouts = 10; backoff_base = 1; max_rejections = 10 }
      ~stop:(fun engine -> answer_count engine >= 3)
      ~workers:[ (v_str "w1", w1); (v_str "w2", first_pending_policy) ]
      engine
  in
  Alcotest.(check bool) "campaign completed" true (outcome.stop_reason = `Stopped);
  Alcotest.(check int) "all answers in" 3 (answer_count engine);
  (* While w1 hoarded the lease, w2's attempts were refused and counted. *)
  Alcotest.(check bool) "w2 was blocked at least once" true
    (List.exists
       (fun (w, n) -> Reldb.Value.equal w (v_str "w2") && n > 0)
       outcome.rejections);
  Alcotest.(check int) "no truncated machine runs" 0 outcome.capped_runs

let test_simulator_dead_letters_timeouts () =
  let engine = mini_engine () in
  (* Only a hoarding worker: every task's lease expires over and over
     until the retry budget dead-letters it — and the outcome says so. *)
  let w1 =
    Crowd.Faults.wrap ~seed:5 [ Crowd.Faults.Drop 1.0 ] first_pending_policy
  in
  let outcome =
    Crowd.Simulator.run ~max_rounds:100
      ~lease:{ Lease.ttl = 1; max_timeouts = 2; backoff_base = 1; max_rejections = 5 }
      ~stop:(fun engine -> answer_count engine >= 3)
      ~workers:[ (v_str "w1", w1) ]
      engine
  in
  Alcotest.(check bool) "terminates" true (outcome.stop_reason <> `Max_rounds);
  Alcotest.(check bool) "tasks were dead-lettered" true (outcome.dead_letters <> []);
  List.iter
    (fun ((_ : Engine.open_tuple), reason) ->
      match reason with
      | Lease.Timed_out -> ()
      | r -> Alcotest.failf "expected Timed_out, got %s" (Lease.reason_to_string r))
    outcome.dead_letters

(* --- Fault matrix ---------------------------------------------------------- *)

(* Every fault profile, against both value-entry TweetPecker variants,
   under the full lease + quorum runtime: campaigns must terminate (never
   hang until max_rounds), machine runs must never be truncated, and any
   dead-lettered task must carry a cause the profile can actually
   produce. *)
let test_fault_matrix () =
  let corpus = Tweets.Generator.generate ~seed:5 8 in
  List.iter
    (fun (name, faults) ->
      List.iter
        (fun variant ->
          let o =
            Tweetpecker.Runner.run ~seed:13 ~corpus ~faults
              ~lease:Lease.default_config ~policy:(Engine.Fixed 2) variant
          in
          let label =
            Printf.sprintf "%s × %s" name (Tweetpecker.Programs.variant_name variant)
          in
          Alcotest.(check bool)
            (label ^ ": terminates")
            true
            (o.sim.stop_reason = `Stopped || o.sim.stop_reason = `Stalled);
          Alcotest.(check int) (label ^ ": no capped machine runs") 0 o.sim.capped_runs;
          List.iter
            (fun ((_ : Engine.open_tuple), reason) ->
              let ok =
                match (name, reason) with
                | "drop", Lease.Timed_out -> true
                | ("garble" | "all"), (Lease.Timed_out | Lease.Rejected_answers _) -> true
                | (("delay" | "duplicate" | "crash") [@warning "-11"]), Lease.Timed_out ->
                    true
                | _ -> false
              in
              if not ok then
                Alcotest.failf "%s: unexpected dead-letter reason %s" label
                  (Lease.reason_to_string reason))
            o.sim.dead_letters)
        Tweetpecker.Programs.[ VE; VEI ])
    Crowd.Faults.profiles

(* --- Checkpoint / replay --------------------------------------------------- *)

let engine_trace engine =
  List.map
    (fun (e : Engine.event) ->
      (e.clock, e.statement, e.label, e.valuation, e.fired, e.effects, e.by_human))
    (Engine.events engine)

let test_snapshot_rejects_garbage () =
  (match Engine.restore_string "not a snapshot" with
  | exception Engine.Snapshot_error Engine.Not_a_snapshot -> ()
  | _ -> Alcotest.fail "bad magic must raise Snapshot_error Not_a_snapshot");
  (match Engine.restore_string "CYLOG-SNAPSHOT/1\ncorrupt" with
  | exception Engine.Snapshot_error (Engine.Unsupported_version 1) -> ()
  | _ -> Alcotest.fail "a v1 checkpoint must raise Snapshot_error (Unsupported_version 1)");
  match Engine.restore_string "CYLOG-SNAPSHOT/2\n\x10\x00\x00\x00corrupt" with
  | exception Engine.Snapshot_error (Engine.Unsupported_version 2) -> ()
  | _ -> Alcotest.fail "a v2 checkpoint must raise Snapshot_error (Unsupported_version 2)"

let test_snapshot_restore_midway () =
  (* Checkpoint with tasks still pending, keep answering on the restored
     engine: the continuation must behave like the original would. *)
  let engine, o = reject_engine () in
  Engine.set_lease_config engine (Some lease_cfg);
  (match Engine.assign engine o.Engine.id ~worker:(v_str "w1") ~now:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "assign");
  let snap = Engine.snapshot_string engine in
  let restored = Engine.restore_string snap in
  Alcotest.(check bool) "trace identical at checkpoint" true
    (engine_trace restored = engine_trace engine);
  Alcotest.(check bool) "lease state replayed" true
    (match Engine.assign restored o.Engine.id ~worker:(v_str "w2") ~now:0 with
    | Error (`Held w) -> Reldb.Value.equal w (v_str "w1")
    | _ -> false);
  let finish engine =
    (match Engine.supply engine o.Engine.id ~worker:(v_str "w1") [ ("v", v_str "done") ] with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "finish: %s" (Engine.reject_to_string e));
    ignore (Engine.run engine);
    engine_trace engine
  in
  Alcotest.(check bool) "continuations agree" true (finish restored = finish engine)

let test_snapshot_faulted_campaign_replays () =
  (* The strongest journal: a faulted, leased, quorum campaign writes
     J_assign/J_reclaim/J_set_lease/J_set_quorum entries besides the
     answers. Restore must reproduce the trace byte for byte, and so must
     replaying the whole journal onto a fresh load of the program. *)
  let corpus = Tweets.Generator.generate ~seed:5 6 in
  let o =
    Tweetpecker.Runner.run ~seed:13 ~corpus ~faults:Crowd.Faults.all
      ~lease:Lease.default_config ~policy:(Engine.Fixed 2) Tweetpecker.Programs.VE
  in
  let snap = Engine.snapshot_string o.engine in
  let restored = Engine.restore_string snap in
  Alcotest.(check bool) "trace identical" true
    (engine_trace restored = engine_trace o.engine);
  Alcotest.(check bool) "dead letters identical" true
    (List.map (fun ((t : Engine.open_tuple), r) -> (t.id, r)) (Engine.dead_letters restored)
    = List.map (fun ((t : Engine.open_tuple), r) -> (t.id, r)) (Engine.dead_letters o.engine));
  Alcotest.(check bool) "re-snapshot byte-identical" true
    (Engine.snapshot_string restored = snap);
  let program =
    Tweetpecker.Programs.program Tweetpecker.Programs.VE ~corpus
      ~workers:(List.map (fun (w : Crowd.Worker.profile) -> w.name) o.workers)
  in
  Alcotest.(check bool) "the whole journal replays" true
    (Test_differential.journal_replays program o.engine)

(* Rows the host writes through [Engine.database] are not journaled, so
   only a checkpoint that carries the database keeps them. *)
let test_snapshot_keeps_host_rows () =
  let engine =
    Engine.load
      (Parser.parse_exn "schema:\n  Task(id);\nrules:\n  Q: LabelOf(id, v)/open <- Task(id);\n")
  in
  let tasks = Reldb.Database.find_exn (Engine.database engine) "Task" in
  for i = 0 to 39 do
    ignore (Reldb.Relation.insert tasks (Reldb.Tuple.of_list [ ("id", v_int i) ]))
  done;
  ignore (Engine.run engine);
  let answer e (o : Engine.open_tuple) =
    (match Engine.supply e o.id ~worker:(v_str "w") [ ("v", v_int (o.id mod 3)) ] with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "answer %d: %s" o.id (Engine.reject_to_string r));
    ignore (Engine.run e)
  in
  List.iteri (fun i o -> if i < 15 then answer engine o) (Engine.pending engine);
  let restored = Engine.restore_string (Engine.snapshot_string engine) in
  let pending_ids e = List.map (fun (o : Engine.open_tuple) -> o.id) (Engine.pending e) in
  let tuples e = Reldb.Database.total_tuples (Engine.database e) in
  Alcotest.(check int) "same events" (Engine.event_count engine) (Engine.event_count restored);
  Alcotest.(check bool) "same trace" true (engine_trace restored = engine_trace engine);
  Alcotest.(check int) "same rows" (tuples engine) (tuples restored);
  Alcotest.(check (list int)) "same pending ids" (pending_ids engine) (pending_ids restored);
  Alcotest.(check bool) "same journal" true
    (Engine.journal_dump restored = Engine.journal_dump engine);
  let finish e =
    List.iter (answer e) (Engine.pending e);
    engine_trace e
  in
  Alcotest.(check bool) "answering the rest gives the same trace" true
    (finish restored = finish engine)

let suite =
  [ ( "robustness.parser",
      [ Alcotest.test_case "malformed programs give structured errors" `Quick
          test_parser_error_paths;
        Alcotest.test_case "no exception escapes Parser.parse" `Quick
          test_parser_error_paths_never_raise ] );
    ( "robustness.lease",
      [ Alcotest.test_case "grant, exclusivity, renewal" `Quick test_lease_grant_and_renew;
        Alcotest.test_case "timeout, backoff, dead letter" `Quick
          test_lease_timeout_backoff_dead_letter;
        Alcotest.test_case "rejection budget" `Quick test_lease_rejection_budget;
        Alcotest.test_case "redundant capacity" `Quick test_lease_redundant_capacity ] );
    ( "robustness.engine",
      [ Alcotest.test_case "typed supply rejections" `Quick test_typed_rejects;
        Alcotest.test_case "designated worker" `Quick test_designated_worker_reject;
        Alcotest.test_case "lease holder + rejection budget" `Quick
          test_lease_holder_reject_and_budget;
        Alcotest.test_case "decline is audited" `Quick test_decline_is_audited;
        Alcotest.test_case "run reports quiescent vs capped" `Quick test_run_signal ] );
    ( "robustness.quorum",
      [ Alcotest.test_case "majority resolution" `Quick test_quorum_majority;
        Alcotest.test_case "existence majority" `Quick test_quorum_existence_majority;
        Alcotest.test_case "majority >= single-answer accuracy" `Quick
          test_quorum_accuracy_vs_single ] );
    ( "robustness.simulator",
      [ Alcotest.test_case "rejections are counted" `Quick test_simulator_counts_rejections;
        Alcotest.test_case "actual rounds reported" `Quick
          test_simulator_reports_actual_rounds;
        Alcotest.test_case "expired leases are reassigned" `Quick
          test_simulator_lease_reassignment;
        Alcotest.test_case "hoarded tasks dead-letter as timeouts" `Quick
          test_simulator_dead_letters_timeouts ] );
    ( "robustness.faults",
      [ Alcotest.test_case "fault matrix terminates with correct reasons" `Slow
          test_fault_matrix ] );
    ( "robustness.snapshot",
      [ Alcotest.test_case "garbage is refused" `Quick test_snapshot_rejects_garbage;
        Alcotest.test_case "mid-campaign checkpoint continues identically" `Quick
          test_snapshot_restore_midway;
        Alcotest.test_case "faulted campaign replays byte-identically" `Slow
          test_snapshot_faulted_campaign_replays;
        Alcotest.test_case "rows written by the host survive a checkpoint" `Quick
          test_snapshot_keeps_host_rows ] ) ]
