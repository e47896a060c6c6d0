(* Differential testing: on randomly generated positive Datalog programs
   (no negation, no update/delete, no open predicates) three independent
   evaluators must agree on the least fixpoint:

   - the engine with seminaive delta evaluation (production strategy),
   - the engine with naive rescan (reference strategy),
   - the batch T_{P,S} consequence operator of the formal semantics.

   The cost-based join planner is held to a stronger standard than fixpoint
   agreement: with planning on or off the engine must produce the *same
   event trace* — same statements fired in the same order with the same
   valuations and effects — because planning is specified as a pure
   evaluation-order device (Eval.enumerate replays planned matches over
   the original body and the engine picks the conflict-resolution winner
   explicitly). The trace properties below check this on random programs,
   on all four TweetPecker variants end-to-end, and on the Figure 16
   Turing construction (whose /update rules exercise the planned-rescan
   path rather than the delta path).

   This pins down the two trickiest optimisations in the codebase. *)

open Cylog

(* --- Random program generation ------------------------------------------ *)

(* Relations R0..R3 over attributes a/b; constants 0..4; rule bodies of one
   or two positive atoms sharing variables, with an optional comparison.
   Facts are shuffled in among the rules, so a fact can wake a statement
   that precedes it. *)

let gen_program : Ast.program QCheck.arbitrary =
  let open QCheck.Gen in
  let rel = map (Printf.sprintf "R%d") (int_bound 3) in
  let const = map (fun i -> Ast.Const (Reldb.Value.Int i)) (int_bound 4) in
  let gen_fact =
    let* r = rel in
    let* va = const in
    let* vb = const in
    return
      (Ast.statement
         [ Ast.head_atom
             { Ast.pred = r;
               args =
                 [ { Ast.attr = "a"; bind = Ast.Bound va };
                   { Ast.attr = "b"; bind = Ast.Bound vb } ] } ]
         [])
  in
  let var_names = [ "x"; "y"; "z" ] in
  let gen_rule =
    let* n_atoms = int_range 1 2 in
    let* body_atoms =
      list_repeat n_atoms
        (let* r = rel in
         let* bind_a = oneofl var_names in
         let* bind_b = frequency [ (3, map Option.some (oneofl var_names)); (1, return None) ] in
         let args =
           [ { Ast.attr = "a"; bind = Ast.Bound (Ast.Var bind_a) } ]
           @
           match bind_b with
           | Some v -> [ { Ast.attr = "b"; bind = Ast.Bound (Ast.Var v) } ]
           | None -> []
         in
         return (Ast.literal (Ast.Pos { Ast.pred = r; args })))
    in
    let bound_vars =
      List.concat_map
        (fun (l : Ast.literal) ->
          match l.Ast.lit with
          | Ast.Pos { Ast.args; _ } ->
              List.filter_map
                (fun (arg : Ast.arg) ->
                  match arg.bind with Ast.Bound (Ast.Var v) -> Some v | _ -> None)
                args
          | _ -> [])
        body_atoms
      |> List.sort_uniq compare
    in
    let* cmp =
      frequency
        [ (2, return []);
          ( 1,
            let* v = oneofl bound_vars in
            let* limit = int_bound 4 in
            return
              [ Ast.literal
                  (Ast.Cmp (Ast.Var v, Ast.Le, Ast.Const (Reldb.Value.Int limit))) ] ) ]
    in
    let* head_rel = rel in
    let* ha = oneofl bound_vars in
    let* hb = oneofl bound_vars in
    return
      (Ast.statement
         [ Ast.head_atom
             { Ast.pred = head_rel;
               args =
                 [ { Ast.attr = "a"; bind = Ast.Bound (Ast.Var ha) };
                   { Ast.attr = "b"; bind = Ast.Bound (Ast.Var hb) } ] } ]
         (body_atoms @ cmp))
  in
  let gen =
    let* n_facts = int_range 1 6 in
    let* n_rules = int_range 1 5 in
    let* facts = list_repeat n_facts gen_fact in
    let* rules = list_repeat n_rules gen_rule in
    let* statements = shuffle_l (facts @ rules) in
    return { Ast.schemas = []; statements; games = []; views = [] }
  in
  QCheck.make ~print:Pretty.program_to_string gen

(* --- Extracting comparable state ----------------------------------------- *)

let db_facts db =
  Reldb.Database.relations db
  |> List.concat_map (fun rel ->
         List.map
           (fun t -> (Reldb.Relation.name rel, Reldb.Tuple.to_string t))
           (Reldb.Relation.tuples rel))
  |> List.sort compare

let run_engine ~use_delta program =
  let engine = Engine.load ~use_delta program in
  ignore (Engine.run engine ~max_steps:20_000);
  db_facts (Engine.database engine)

(* The full observable behaviour of a run: every event with its clock,
   statement, valuation, rejection status and effects. Two engines with
   equal traces went through identical computations as far as any client
   can tell. *)
let engine_trace engine =
  List.map
    (fun (e : Engine.event) ->
      (e.clock, e.statement, e.label, e.valuation, e.fired, e.effects))
    (Engine.events engine)

let run_trace ~use_delta ~use_planner program =
  let engine = Engine.load ~use_delta ~use_planner program in
  ignore (Engine.run engine ~max_steps:20_000);
  engine_trace engine

(* Everything two engines can be compared on: the full event trace, the
   final database, and the marshalled API-call journal (byte-identical
   journals mean byte-identical snapshots-modulo-flags — the strongest
   equivalence the acceptance gate asks of delta vs rescan). *)
let engines_equivalent a b =
  engine_trace a = engine_trace b
  && db_facts (Engine.database a) = db_facts (Engine.database b)
  && Engine.journal_dump a = Engine.journal_dump b

let run_semantics program =
  match Semantics.behaviour ~bound:200 program (fun _ -> []) with
  | states, `Fixpoint -> Some (db_facts (Semantics.sure (List.nth states (List.length states - 1))))
  | _, `Bound_reached -> None

(* --- Properties ----------------------------------------------------------- *)

let prop_delta_equals_rescan =
  QCheck.Test.make ~name:"delta evaluation = naive rescan (trace + journal)"
    ~count:300 gen_program (fun program ->
      let load flag =
        let engine = Engine.load ~use_delta:flag program in
        ignore (Engine.run engine ~max_steps:20_000);
        engine
      in
      engines_equivalent (load true) (load false))

let prop_engine_equals_batch_semantics =
  QCheck.Test.make ~name:"operational engine = batch T_{P,S} fixpoint" ~count:200
    gen_program (fun program ->
      match run_semantics program with
      | Some batch -> run_engine ~use_delta:true program = batch
      | None -> QCheck.assume_fail ())

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine evaluation is deterministic" ~count:100 gen_program
    (fun program ->
      let trace () =
        let engine = Engine.load program in
        ignore (Engine.run engine ~max_steps:20_000);
        List.map
          (fun (e : Engine.event) -> (e.statement, e.valuation, e.fired))
          (Engine.events engine)
      in
      trace () = trace ())

let prop_fixpoint_is_stable =
  QCheck.Test.make ~name:"fixpoint is stable under further steps" ~count:100 gen_program
    (fun program ->
      let engine = Engine.load program in
      ignore (Engine.run engine ~max_steps:20_000);
      let before = db_facts (Engine.database engine) in
      (* A quiescent engine must stay quiescent. *)
      (match Engine.step engine with None -> true | Some _ -> false)
      && db_facts (Engine.database engine) = before)

let prop_monotone_growth =
  QCheck.Test.make ~name:"positive programs only grow the database" ~count:100
    gen_program (fun program ->
      let engine = Engine.load program in
      let sizes = ref [] in
      let rec loop n =
        if n > 20_000 then ()
        else begin
          sizes := Reldb.Database.total_tuples (Engine.database engine) :: !sizes;
          match Engine.step engine with Some _ -> loop (n + 1) | None -> ()
        end
      in
      loop 0;
      let ordered = List.rev !sizes in
      List.sort compare ordered = ordered)

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"parse (print program) = program" ~count:300 gen_program
    (fun program ->
      let printed = Pretty.program_to_string program in
      match Parser.parse printed with
      | Ok program' -> Ast.strip_program program' = Ast.strip_program program
      | Error _ -> false)

let prop_printed_program_runs_identically =
  QCheck.Test.make ~name:"printed program evaluates identically" ~count:100 gen_program
    (fun program ->
      let printed = Pretty.program_to_string program in
      run_engine ~use_delta:true (Parser.parse_exn printed)
      = run_engine ~use_delta:true program)

(* Extend the delta/rescan equivalence to the human half: add an open rule
   to each random program and drive both engines with a canonical simulated
   worker — always answer the pending open tuple with the least
   (relation, bound) fingerprint, supplying a value derived from the bound
   part. The policy is independent of engine-internal ordering, so the
   final databases must again coincide. *)
let with_open_rule (program : Ast.program) =
  let ask =
    Ast.statement ~label:"Ask"
      [ Ast.head_atom ~kind:(Ast.Open None)
          { Ast.pred = "Answer";
            args =
              [ { Ast.attr = "a"; bind = Ast.Auto };
                { Ast.attr = "v"; bind = Ast.Auto } ] } ]
      [ Ast.literal
          (Ast.Pos
             { Ast.pred = "R0"; args = [ { Ast.attr = "a"; bind = Ast.Auto } ] }) ]
  in
  let echo =
    (* Human answers feed back into machine rules. *)
    Ast.statement ~label:"Echo"
      [ Ast.head_atom
          { Ast.pred = "R1";
            args =
              [ { Ast.attr = "a"; bind = Ast.Bound (Ast.Var "v") };
                { Ast.attr = "b"; bind = Ast.Bound (Ast.Var "v") } ] } ]
      [ Ast.literal
          (Ast.Pos
             { Ast.pred = "Answer";
               args =
                 [ { Ast.attr = "a"; bind = Ast.Auto };
                   { Ast.attr = "v"; bind = Ast.Auto } ] }) ]
  in
  { program with Ast.statements = program.statements @ [ ask; echo ] }

(* Answer up to [rounds] open tuples, running to quiescence after each:
   always the pending one with the least (relation, bound), with a value
   derived from its bound part. *)
let answer_canonically ?(rounds = 501) engine =
  let rec answer k =
    if k < rounds then
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
          answer (k + 1)
  in
  answer 0

let drive_with_canonical_human ~use_delta ?use_planner program =
  (* [with_open_rule]'s Ask/Echo pair is a deliberate open cycle, which
     strict linting now rejects as unbounded-task-emission. *)
  let engine = Engine.load ~lint:`Off ~use_delta ?use_planner program in
  ignore (Engine.run engine ~max_steps:20_000);
  answer_canonically engine;
  engine

let prop_delta_equals_rescan_with_humans =
  QCheck.Test.make
    ~name:"delta = rescan with a canonical human in the loop (trace + journal)"
    ~count:150 gen_program (fun program ->
      let program = with_open_rule program in
      engines_equivalent
        (drive_with_canonical_human ~use_delta:true program)
        (drive_with_canonical_human ~use_delta:false program))

(* --- Planner differential ------------------------------------------------- *)

let prop_planner_preserves_trace =
  QCheck.Test.make ~name:"planned evaluation replays the naive trace" ~count:200
    gen_program (fun program ->
      run_trace ~use_delta:true ~use_planner:true program
      = run_trace ~use_delta:true ~use_planner:false program
      && run_trace ~use_delta:false ~use_planner:true program
         = run_trace ~use_delta:false ~use_planner:false program)

let prop_planner_preserves_trace_with_humans =
  QCheck.Test.make ~name:"planner on = off with a canonical human in the loop"
    ~count:100 gen_program (fun program ->
      let program = with_open_rule program in
      engines_equivalent
        (drive_with_canonical_human ~use_delta:true ~use_planner:true program)
        (drive_with_canonical_human ~use_delta:true ~use_planner:false program))

(* End-to-end: the four TweetPecker variants on a small corpus. The
   simulator is deterministic given the seed and only observes the engine
   through its public API, so planner on/off must yield the same
   agreement history, rules, extractions and payoffs. *)
let tweetpecker_run variant ~use_planner =
  let corpus = Tweets.Generator.generate ~seed:5 12 in
  let o = Tweetpecker.Runner.run ~seed:11 ~corpus ~use_planner variant in
  ( o.agreed_events,
    List.sort compare o.agreed,
    List.sort compare o.rules_entered,
    List.sort compare o.extracts,
    List.sort compare o.payoffs )

let test_tweetpecker_planner_differential () =
  List.iter
    (fun variant ->
      Alcotest.(check bool)
        (Tweetpecker.Programs.variant_name variant ^ ": planner on = off")
        true
        (tweetpecker_run variant ~use_planner:true
        = tweetpecker_run variant ~use_planner:false))
    Tweetpecker.Programs.[ VE; VEI; VRE; VREI ]

(* The Figure 16 Turing construction updates TuringMachine and Tape in
   place, so its statements evaluate through the rescan strategy: this is
   the differential test for the planned-rescan minimal-support-key
   selection. *)
let turing_trace m ~input ~use_planner =
  let engine = Turing.Cylog_tm.load ~use_planner m ~input in
  ignore (Engine.run engine ~max_steps:20_000);
  engine_trace engine

let test_turing_planner_differential () =
  List.iter
    (fun ((m : Turing.Machine.t), input) ->
      Alcotest.(check bool)
        (m.name ^ ": planner on = off")
        true
        (turing_trace m ~input ~use_planner:true
        = turing_trace m ~input ~use_planner:false))
    [ (Turing.Machine.successor, [ "1"; "1" ]);
      (Turing.Machine.binary_increment, [ "1"; "0"; "1"; "1" ]);
      (Turing.Machine.parity, [ "1"; "1"; "1" ]) ]

(* --- Semi-naive vs naive on non-monotone programs -------------------------- *)

(* Random programs over a keyed relation K with /update and /delete heads:
   in-place mutation invalidates pending delta state mid-fixpoint, so these
   pin down the watch-triggered scoped re-derivation path (and, via the
   optional prefix negation, the generation watch that catches appends
   flipping a discovery-time [not K(..)], and deletions from K that make
   it true again). Facts are shuffled in among the rules. Source-level
   generation keeps counterexamples directly readable. Runs are capped; a
   capped run is still trace-comparable, both engines cut off at the same
   step. *)
let gen_ud_program : string QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* kfacts = list_size (int_range 1 3) (pair (int_bound 4) (int_bound 4)) in
    let* rfacts =
      list_size (int_range 2 8) (triple (int_bound 2) (int_bound 4) (int_bound 4))
    in
    let* upds = list_size (int_range 1 3) (pair (int_bound 2) (int_bound 4)) in
    let* dels = list_size (int_bound 2) (pair (int_bound 2) (int_range 2 4)) in
    let* kdels = list_size (int_bound 1) (pair (int_bound 2) (int_bound 4)) in
    let* copies = list_size (int_bound 2) (pair (int_bound 2) (int_bound 2)) in
    let* with_neg = bool in
    let statements =
      List.map (fun (a, b) -> Printf.sprintf "K(a:%d, b:%d);" a b) kfacts
      @ List.map (fun (r, a, b) -> Printf.sprintf "R%d(a:%d, b:%d);" r a b) rfacts
      @ List.map
          (fun (r, c) -> Printf.sprintf "K(a:x, b:y)/update <- R%d(a:x, b:y), y <= %d;" r c)
          upds
      @ List.map
          (fun (r, c) -> Printf.sprintf "R%d(a:x)/delete <- K(a:x, b:y), %d <= y;" r c)
          dels
      @ List.map
          (fun (r, c) -> Printf.sprintf "K(a:x)/delete <- R%d(a:x, b:y), %d <= y;" r c)
          kdels
      @ List.map
          (fun (r, s) -> Printf.sprintf "R%d(a:y, b:y) <- K(a:x, b:y), R%d(a:x);" r s)
          copies
      @ if with_neg then [ "R2(a:x, b:x) <- R0(a:x), not K(a:x), R1(a:x);" ] else []
    in
    let* statements = shuffle_l statements in
    return
      ("schema:\n  K(a key, b);\n\nrules:\n"
      ^ String.concat "" (List.map (fun st -> "  " ^ st ^ "\n") statements))
  in
  QCheck.make ~print:(fun s -> s) gen

let run_ud ~use_delta src =
  let engine = Engine.load ~lint:`Off ~use_delta (Parser.parse_exn src) in
  ignore (Engine.run engine ~max_steps:3_000);
  engine

let prop_ud_delta_equals_rescan =
  QCheck.Test.make
    ~name:"update/delete programs: delta = rescan (trace + journal)" ~count:200
    gen_ud_program (fun src ->
      engines_equivalent (run_ud ~use_delta:true src) (run_ud ~use_delta:false src))

(* Snapshot taken mid-fixpoint: the restored engine rebuilds pending delta
   state (frontiers, discovered-but-unfired instances) purely by journal
   replay and must then finish the campaign step for step with the
   original. *)
let prop_ud_snapshot_midway =
  QCheck.Test.make
    ~name:"update/delete programs: mid-campaign snapshot resumes identically"
    ~count:100 gen_ud_program (fun src ->
      let engine = Engine.load ~lint:`Off (Parser.parse_exn src) in
      ignore (Engine.run engine ~max_steps:40);
      let restored = Engine.restore_string (Engine.snapshot_string engine) in
      ignore (Engine.run engine ~max_steps:3_000);
      ignore (Engine.run restored ~max_steps:3_000);
      engines_equivalent engine restored)

(* The Figure 16 Turing construction updates TuringMachine and Tape on
   every transition — the heaviest in-place-mutation workload in the
   repo — and must now run identically under semi-naive evaluation. *)
let test_turing_delta_differential () =
  List.iter
    (fun ((m : Turing.Machine.t), input) ->
      let load flag =
        let engine =
          Engine.load ~use_delta:flag
            (Parser.parse_exn (Turing.Cylog_tm.to_source m ~input))
        in
        ignore (Engine.run engine ~max_steps:20_000);
        engine
      in
      Alcotest.(check bool)
        (m.name ^ ": delta on = off")
        true
        (engines_equivalent (load true) (load false)))
    [ (Turing.Machine.successor, [ "1"; "1" ]);
      (Turing.Machine.binary_increment, [ "1"; "0"; "1"; "1" ]);
      (Turing.Machine.parity, [ "1"; "1"; "1" ]) ]

let test_tweetpecker_delta_differential () =
  let corpus = Tweets.Generator.generate ~seed:5 12 in
  List.iter
    (fun variant ->
      let run flag = Tweetpecker.Runner.run ~seed:11 ~corpus ~use_delta:flag variant in
      Alcotest.(check bool)
        (Tweetpecker.Programs.variant_name variant ^ ": delta on = off")
        true
        (engines_equivalent (run true).engine (run false).engine))
    Tweetpecker.Programs.[ VE; VEI; VRE; VREI ]

(* Faulted and adaptive quorum campaigns: lease churn, declines, banked
   ballots and early stopping all ride on the journal; a delta engine must
   reproduce the rescan engine's campaign byte for byte. *)
let quorum_program items =
  Parser.parse_exn
    (Printf.sprintf "rules:\n  %s\n  Q: LabelOf(id, label)/open <- Item(id);\n"
       (String.concat " " (List.init items (fun i -> Printf.sprintf "Item(id:%d);" (i + 1)))))

(* Four random workers answer random pending tasks, and with probability
   [decline] decline the task instead. [check] sees the engine at the start
   of each worker's turn, after each decline and at every stop test: after
   each reclaim, and after each answer with the machine run it triggers. *)
let quorum_campaign ?faults ?(lease = Lease.default_config) ?(decline = 0.0)
    ?(check = ignore) ~seed engine =
  let policy engine ~worker:_ ~rng ~round:_ =
    check engine;
    match Engine.pending engine with
    | [] -> Crowd.Simulator.Pass
    | pending ->
        let o = List.nth pending (Random.State.int rng (List.length pending)) in
        if decline > 0.0 && Random.State.float rng 1.0 < decline then begin
          Engine.decline engine o.Engine.id;
          check engine;
          Crowd.Simulator.Pass
        end
        else
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
  ignore
    (Crowd.Simulator.run ~seed ~max_rounds:100 ~lease ~policy:(Engine.Fixed 2)
       ~stop:(fun e ->
         check e;
         Engine.pending e = [])
       ~workers engine)

let quorum_campaign_engine ~use_delta ?faults ~seed () =
  let engine = Engine.load ~use_delta (quorum_program 3) in
  quorum_campaign ?faults ~seed engine;
  engine

let adaptive_campaign_engine ~use_delta ~seed () =
  let src =
    {|rules:
  Item(id:1); Item(id:2); Item(id:3); Item(id:4); Item(id:5); Item(id:6);
  Q: LabelOf(id, label)/open <- Item(id);
|}
  in
  let engine = Engine.load ~use_delta (Parser.parse_exn src) in
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
  let policy = Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 5 } in
  ignore (Crowd.Simulator.run_routed ~seed ~policy ~truth ~workers engine);
  engine

let test_quorum_delta_differential () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "clean quorum campaign (seed %d): delta on = off" seed)
        true
        (engines_equivalent
           (quorum_campaign_engine ~use_delta:true ~seed ())
           (quorum_campaign_engine ~use_delta:false ~seed ()));
      Alcotest.(check bool)
        (Printf.sprintf "faulted quorum campaign (seed %d): delta on = off" seed)
        true
        (engines_equivalent
           (quorum_campaign_engine ~use_delta:true
              ~faults:(List.assoc "all" Crowd.Faults.profiles) ~seed ())
           (quorum_campaign_engine ~use_delta:false
              ~faults:(List.assoc "all" Crowd.Faults.profiles) ~seed ()));
      Alcotest.(check bool)
        (Printf.sprintf "adaptive campaign (seed %d): delta on = off" seed)
        true
        (engines_equivalent
           (adaptive_campaign_engine ~use_delta:true ~seed ())
           (adaptive_campaign_engine ~use_delta:false ~seed ())))
    [ 1; 7 ]

(* --- Pending and event indexes ----------------------------------------- *)

(* [pending_count], [pending_since], [pending_seq] and [events_since] are
   served from indexes, not derived from [pending] and [events]; each must
   still agree with its definition over those lists. *)
let index_failures engine =
  let failures = ref [] in
  let expect what ok = if not ok then failures := what :: !failures in
  let pending = Engine.pending engine in
  let ids = List.map (fun (o : Engine.open_tuple) -> o.id) pending in
  expect "pending_count = List.length pending"
    (Engine.pending_count engine = List.length ids);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  expect "pending ids strictly ascend" (ascending ids);
  expect "pending_seq = pending" (List.of_seq (Engine.pending_seq engine) = pending);
  let cuts =
    match ids with
    | [] -> [ 0 ]
    | _ -> [ 0; List.nth ids (List.length ids / 2); List.nth ids (List.length ids - 1) ]
  in
  List.iter
    (fun k ->
      expect
        (Printf.sprintf "pending_since ~after:%d" k)
        (List.map (fun (o : Engine.open_tuple) -> o.id) (Engine.pending_since engine ~after:k)
        = List.filter (fun id -> id > k) ids))
    cuts;
  let events = Engine.events engine in
  let n = Engine.event_count engine in
  expect "event_count = List.length events" (n = List.length events);
  List.iter
    (fun k ->
      expect
        (Printf.sprintf "events_since ~after:%d (of %d)" k n)
        (Engine.events_since engine ~after:k = List.filteri (fun i _ -> i >= k) events))
    [ 0; n / 2; n; n + 3 ];
  !failures

let pending_ids engine = List.map (fun (o : Engine.open_tuple) -> o.id) (Engine.pending engine)

(* The quorum campaign under faults, with declines and one-round leases
   that dead-letter on their first timeout, so tasks leave the pool by
   every exit. The indexes are checked at every [check] point; at the 60th,
   an engine restored from a snapshot and one recovered from the compacted
   journal must hold the live engine's pending ids and events, and pass the
   same checks. *)
let test_pending_and_event_indexes () =
  let exits = Hashtbl.create 4 in
  List.iter
    (fun seed ->
      let engine = Engine.load (quorum_program 12) in
      let sim = Storage.Sim.create () in
      let config = { Journal.default_config with compact_every = Some 8 } in
      Engine.journal_start ~config ~storage:(Storage.Sim.storage sim) engine "j";
      let calls = ref 0 in
      let check_indexes what e =
        match index_failures e with
        | [] -> ()
        | f :: _ -> Alcotest.failf "seed %d, call %d, %s: %s" seed !calls what f
      in
      let same_as_live what e other =
        check_indexes what other;
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d: %s: same pending ids" seed what)
          (pending_ids e) (pending_ids other);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: %s: same events" seed what)
          true
          (Engine.events e = Engine.events other)
      in
      let check e =
        incr calls;
        check_indexes "live" e;
        if !calls = 60 then begin
          same_as_live "restored from a snapshot" e
            (Engine.restore_string (Engine.snapshot_string e));
          let recovered, stats =
            Engine.recover ~config
              ~storage:(Storage.Sim.storage (Storage.Sim.copy sim))
              "j"
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: recovery starts from a compaction" seed)
            true
            (stats.Engine.base_segment > 0);
          same_as_live "recovered from the compacted journal" e recovered
        end
      in
      quorum_campaign
        ~faults:(List.assoc "all" Crowd.Faults.profiles)
        ~lease:{ Lease.ttl = 1; max_timeouts = 1; backoff_base = 1; max_rejections = 2 }
        ~decline:0.05 ~check ~seed engine;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: the check ran mid-campaign" seed)
        true (!calls > 60);
      List.iter
        (fun ((_ : Engine.open_tuple), reason) ->
          Hashtbl.replace exits (Lease.reason_to_string reason) ())
        (Engine.dead_letters engine))
    [ 1; 7; 13 ];
  List.iter
    (fun reason ->
      Alcotest.(check bool)
        (Printf.sprintf "some task dead-lettered as %s" reason)
        true (Hashtbl.mem exits reason))
    [ Lease.reason_to_string Lease.Declined; Lease.reason_to_string Lease.Timed_out ]

(* --- Statement scheduling ------------------------------------------------- *)

(* The optimised strategy examines only the statements whose body
   relations changed since they last yielded nothing; the rescan reference
   examines every statement on every step. These comparisons cover the
   ways the schedule's inputs change outside a plain run: rows written
   straight into the database, statements added mid-run, and engines
   rebuilt mid-campaign by a snapshot restore or a journal recovery. *)

(* Host writes: before each, the number of steps to take first; then a
   row for R<rel> valued (a, b). *)
let gen_host_writes =
  let print (steps, rel, a, b) = Printf.sprintf "%d steps, R%d(%d, %d)" steps rel a b in
  QCheck.make ~print:(QCheck.Print.list print)
    QCheck.Gen.(
      list_size (int_range 1 4) (quad (int_bound 5) (int_bound 3) (int_bound 4) (int_bound 4)))

let host_insert engine rel a b =
  match Reldb.Database.find (Engine.database engine) (Printf.sprintf "R%d" rel) with
  | None -> ()
  | Some r ->
      let value attr = Reldb.Value.Int (if attr = "a" then a else b) in
      ignore
        (Reldb.Relation.insert r
           (Reldb.Tuple.of_list
              (List.map
                 (fun attr -> (attr, value attr))
                 (Reldb.Schema.attributes (Reldb.Relation.schema r)))))

let prop_delta_equals_rescan_with_host_rows =
  QCheck.Test.make
    ~name:"delta = rescan with rows inserted between steps (trace + journal)"
    ~count:200 (QCheck.pair gen_program gen_host_writes) (fun (program, writes) ->
      let drive use_delta =
        let engine = Engine.load ~use_delta program in
        List.iter
          (fun (steps, rel, a, b) ->
            for _ = 1 to steps do
              ignore (Engine.step engine)
            done;
            host_insert engine rel a b)
          writes;
        ignore (Engine.run engine ~max_steps:20_000);
        engine
      in
      engines_equivalent (drive true) (drive false))

(* Statements added mid-run, a new /delete target among them: S reads R
   through a delta scan, so the deletion resets its state, and T, added
   after it, negates R. *)
let test_add_statement_delta_differential () =
  let drive use_delta =
    let engine = Engine.load ~use_delta (Parser.parse_exn "rules: R(x:1); S(x) <- R(x);") in
    ignore (Engine.run engine);
    let add src =
      List.iter (Engine.add_statement engine) (Parser.parse_statements_exn src);
      ignore (Engine.run engine)
    in
    add "R(x:1)/delete;";
    let r = Reldb.Database.find_exn (Engine.database engine) "R" in
    Alcotest.(check int) "deleted" 0 (Reldb.Relation.cardinal r);
    add "R(x:9); T(x) <- S(x), not R(x);";
    engine
  in
  let delta = drive true and rescan = drive false in
  let s = Reldb.Database.find_exn (Engine.database delta) "S" in
  Alcotest.(check bool) "reader of the /delete target still derives" true
    (Reldb.Relation.mem s (Reldb.Tuple.of_list [ ("x", Reldb.Value.Int 9) ]));
  Alcotest.(check bool) "delta on = off" true (engines_equivalent delta rescan)

(* A labelling campaign over 160 fact statements, 40 of them after the
   rules, interrupted after 30 answers. The engine rebuilt by a snapshot
   restore and the one rebuilt by cold journal recovery (from a compacted
   in-memory journal) must each finish exactly as the uninterrupted run
   does, and every run must match its rescan counterpart. *)
let fact_heavy_src =
  let item i = Printf.sprintf "  Item(id:%d);\n" i in
  String.concat ""
    (("rules:\n" :: List.init 120 item)
    @ [ "  Q: LabelOf(id, label)/open <- Item(id);\n";
        "  Tally(label) <- LabelOf(id, label);\n";
        "  Item(id)/delete <- LabelOf(id, label:3);\n" ]
    @ List.init 40 (fun i -> item (120 + i)))

let test_fact_heavy_restore_and_recover () =
  let program = Parser.parse_exn fact_heavy_src in
  let config = { Journal.fsync = Journal.Always; segment_bytes = 4096; compact_every = Some 16 } in
  let campaign use_delta =
    (* The /delete on Item closes an open cycle through Q, which strict
       linting rejects as unbounded task emission. *)
    let live = Engine.load ~lint:`Off ~use_delta program in
    ignore (Engine.run live);
    answer_canonically live;
    let sim = Storage.Sim.create () in
    let cut = Engine.load ~lint:`Off ~use_delta program in
    Engine.journal_start ~config ~storage:(Storage.Sim.storage sim) cut "j";
    ignore (Engine.run cut);
    answer_canonically ~rounds:30 cut;
    let restored = Engine.restore_string (Engine.snapshot_string cut) in
    let recovered, _ = Engine.recover ~config ~storage:(Storage.Sim.storage sim) "j" in
    answer_canonically restored;
    answer_canonically recovered;
    [ ("uninterrupted", live); ("restored", restored); ("recovered", recovered) ]
  in
  let delta = campaign true and rescan = campaign false in
  let live = List.assoc "uninterrupted" delta in
  Alcotest.(check bool) "campaign finished" true (Engine.pending live = []);
  List.iter2
    (fun (label, d) (_, r) ->
      Alcotest.(check bool) (label ^ ": same run as uninterrupted") true
        (engines_equivalent d live);
      Alcotest.(check bool) (label ^ ": delta on = off") true (engines_equivalent d r))
    delta rescan

(* --- Semi-naive batch semantics -------------------------------------------- *)

(* [Semantics.behaviour_delta] must walk the exact state sequence of the
   full iteration — same sure tuples AND same open tuples in the same
   first-derivation order, state for state. *)
let same_behaviour program strategies =
  let states
      (behave :
        ?bound:int -> Ast.program -> Semantics.strategies ->
        Semantics.state list * [ `Fixpoint | `Bound_reached ]) =
    match behave ~bound:200 program strategies with
    | states, `Fixpoint -> Some states
    | _, `Bound_reached -> None
  in
  match (states Semantics.behaviour, states Semantics.behaviour_delta) with
  | None, _ | _, None -> QCheck.assume_fail ()
  | Some a, Some b ->
      List.length a = List.length b && List.for_all2 Semantics.equal a b

let prop_semantics_delta_equals_naive =
  QCheck.Test.make ~name:"batch T_{P,S}: semi-naive iteration = full iteration"
    ~count:200 gen_program (fun program -> same_behaviour program (fun _ -> []))

let prop_semantics_delta_equals_naive_with_humans =
  QCheck.Test.make
    ~name:"batch T_{P,S}: semi-naive = full with answering strategies" ~count:100
    gen_program (fun program ->
      let program = with_open_rule program in
      let answer_all st =
        List.map
          (fun (o : Semantics.open_fact) ->
            ( o,
              List.map
                (fun a -> (a, Reldb.Value.Int (Reldb.Tuple.hash o.bound mod 5)))
                o.open_attrs ))
          (Semantics.open_tuples st)
      in
      same_behaviour program answer_all)

(* --- Snapshot / replay differential --------------------------------------- *)

(* A checkpoint holds the decoded state, so for ANY driving sequence —
   machine steps, human answers, declines — the restored engine must
   carry the event trace exactly, and re-checkpointing it must give back
   the same bytes. The journal is also a complete script of the
   campaign: replaying all of it through the public entry points onto a
   fresh load of the program must rebuild the same events and journal.
   Restore decodes state rather than replaying, so these cases are the
   checks of that on random programs and TweetPecker campaigns. *)
let journal_replays ?lint program engine =
  let replayed = Engine.load ?lint program in
  List.iter (Engine.apply_entry replayed) (Engine.journal_entries engine);
  Engine.events replayed = Engine.events engine
  && Engine.journal_dump replayed = Engine.journal_dump engine

let drive_engine_with_canonical_human program =
  (* Deliberate open cycle in [with_open_rule]; see above. *)
  let engine = Engine.load ~lint:`Off program in
  ignore (Engine.run engine ~max_steps:20_000);
  answer_canonically engine;
  engine

let prop_snapshot_replay_is_trace_identical =
  QCheck.Test.make ~name:"snapshot -> restore replays the exact trace" ~count:100
    gen_program (fun program ->
      let program = with_open_rule program in
      let engine = drive_engine_with_canonical_human program in
      let snap = Engine.snapshot_string engine in
      let restored = Engine.restore_string snap in
      engine_trace restored = engine_trace engine
      && db_facts (Engine.database restored) = db_facts (Engine.database engine)
      && Engine.snapshot_string restored = snap
      && journal_replays ~lint:`Off program engine)

let test_tweetpecker_snapshot_replay () =
  List.iter
    (fun variant ->
      let corpus = Tweets.Generator.generate ~seed:5 12 in
      let o = Tweetpecker.Runner.run ~seed:11 ~corpus variant in
      let snap = Engine.snapshot_string o.engine in
      let restored = Engine.restore_string snap in
      let name = Tweetpecker.Programs.variant_name variant in
      Alcotest.(check bool) (name ^ ": trace identical") true
        (engine_trace restored = engine_trace o.engine);
      Alcotest.(check bool) (name ^ ": database identical") true
        (db_facts (Engine.database restored) = db_facts (Engine.database o.engine));
      Alcotest.(check bool) (name ^ ": re-snapshot byte-identical") true
        (Engine.snapshot_string restored = snap);
      let program =
        Tweetpecker.Programs.program variant ~corpus:o.corpus
          ~workers:(List.map (fun (w : Crowd.Worker.profile) -> w.name) o.workers)
      in
      Alcotest.(check bool) (name ^ ": the whole journal replays") true
        (journal_replays program o.engine))
    Tweetpecker.Programs.[ VE; VEI; VRE; VREI ]

(* Restore under an adaptive quorum: the policy is journaled data, the
   reputation model is derived state — so a restored engine must carry the
   same policy, reproduce the trace (including Adaptive_resolved effects),
   re-snapshot to the same bytes, and rebuild the reliability table
   observation for observation. *)
let test_restore_under_adaptive_quorum () =
  let src =
    {|rules:
  Item(id:1); Item(id:2); Item(id:3);
  Q: Label(id, v)/open <- Item(id);
|}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  Engine.set_quorum_policy engine
    (Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 4 });
  ignore (Engine.run engine);
  let vote id worker value =
    match
      Engine.supply engine id ~worker:(Reldb.Value.String worker)
        [ ("v", Reldb.Value.String value) ]
    with
    | Ok _ -> ignore (Engine.run engine)
    | Error e -> Alcotest.failf "vote rejected: %s" (Engine.reject_to_string e)
  in
  (* Task 1: two agreeing votes — early stop. Task 2: four conflicting
     votes — escalation to plurality. Task 3 stays pending with one
     banked vote. *)
  (match List.map (fun (o : Engine.open_tuple) -> o.id) (Engine.pending engine) with
  | [ t1; t2; t3 ] ->
      vote t1 "w1" "cat";
      vote t1 "w2" "cat";
      vote t2 "w1" "dog";
      vote t2 "w2" "cat";
      vote t2 "w3" "dog";
      vote t2 "w4" "cat";
      vote t3 "w1" "bird"
  | pending -> Alcotest.failf "expected 3 open tasks, got %d" (List.length pending));
  let snap = Engine.snapshot_string engine in
  let restored = Engine.restore_string snap in
  Alcotest.(check bool) "adaptive policy reinstated" true
    (Engine.quorum_policy_of restored
    = Some (Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 4 }));
  Alcotest.(check bool) "trace identical" true
    (engine_trace restored = engine_trace engine);
  Alcotest.(check bool) "database identical" true
    (db_facts (Engine.database restored) = db_facts (Engine.database engine));
  Alcotest.(check bool) "re-snapshot byte-identical" true
    (Engine.snapshot_string restored = snap);
  Alcotest.(check bool) "reputation rebuilt identically" true
    (Engine.reliability_table restored = Engine.reliability_table engine);
  (* The early-stop and escalation events must be in the journal the
     restored engine replays. *)
  let adaptive_effects e =
    List.concat_map
      (fun (ev : Engine.event) ->
        List.filter_map
          (function
            | Engine.Adaptive_resolved { escalated; _ } -> Some escalated
            | _ -> None)
          ev.effects)
      (Engine.events e)
  in
  Alcotest.(check (list bool)) "one early stop, one escalation"
    [ false; true ]
    (adaptive_effects engine)

(* Views carve-out robustness: random raw template bodies (any characters,
   balanced braces) survive the pre-lexing split and do not disturb the
   rules around them. *)
let gen_template : string QCheck.arbitrary =
  let open QCheck.Gen in
  let chunk =
    oneof
      [ oneofl [ "<p>"; "</p>"; "it's"; "a \"quote\""; "x = 1;"; "{{tw}}"; "@#$%";
                 "rules"; "//not a comment in here?"; " " ];
        map (String.make 1) (char_range 'a' 'z') ]
  in
  let balanced =
    let* inner = list_size (int_bound 4) chunk in
    let* wrap = bool in
    let body = String.concat "" inner in
    return (if wrap then "{" ^ body ^ "}" else body)
  in
  QCheck.make ~print:(fun s -> s)
    (map (String.concat " ") (list_size (int_range 1 5) balanced))

let prop_views_split_preserves_rules =
  QCheck.Test.make ~name:"views carve-out preserves surrounding rules" ~count:300
    gen_template (fun template ->
      let src =
        Printf.sprintf "rules: R(x:1); views: view V { %s } rules: S(x) <- R(x);"
          template
      in
      match Parser.parse src with
      | Error _ -> false
      | Ok p ->
          List.length p.Ast.statements = 2
          && List.length p.Ast.views = 1
          && (List.hd p.Ast.views).Ast.view_name = "V")

(* --- Precedence graph against the pairwise reference ----------------------- *)

(* [Precedence.build] takes its edges from a relation index and answers
   dependence on demand; [Precedence_reference] tests every pair of
   statements and closes an n×n matrix. Every answer must agree, on
   programs that mix facts among rules and use negation, /update and
   /delete. [negate_some] turns the second body atom of every other
   generated rule into a negated one, so negation meets asserting rules
   and the witness cycles are not all empty. *)
let negate_some (program : Ast.program) =
  let negate k (s : Ast.statement) =
    match s.Ast.body with
    | first :: ({ Ast.lit = Ast.Pos a; _ } as l) :: rest when k mod 2 = 0 ->
        { s with Ast.body = first :: { l with Ast.lit = Ast.Neg a } :: rest }
    | _ -> s
  in
  { program with Ast.statements = List.mapi negate program.Ast.statements }

let same_graph statements =
  let g = Precedence.build statements and r = Precedence_reference.build statements in
  let vertices = List.init (Precedence.size g + 2) (fun i -> i - 1) in
  let for_all_vertices f = List.for_all f vertices in
  Precedence.size g = Precedence_reference.size r
  && Precedence.edges g = Precedence_reference.edges r
  && for_all_vertices (fun q ->
         Precedence.data_complete g q = Precedence_reference.data_complete r q
         && for_all_vertices (fun i ->
                Precedence.depends_on g q i = Precedence_reference.depends_on r q i))
  && Precedence.stratified g = Precedence_reference.stratified r
  && Precedence.parallel_groups g = Precedence_reference.parallel_groups r
  && Precedence.sccs g = Precedence_reference.sccs r
  && Precedence.sccs ~positive_only:true g = Precedence_reference.sccs ~positive_only:true r
  && Precedence.negation_violations g = Precedence_reference.negation_violations r

let prop_precedence_equals_reference =
  QCheck.Test.make ~name:"precedence graph = pairwise reference" ~count:300
    (QCheck.pair gen_program gen_ud_program) (fun (program, ud_src) ->
      same_graph program.Ast.statements
      && same_graph (negate_some program).Ast.statements
      && same_graph (Parser.parse_exn ud_src).Ast.statements)

let suite =
  [ ( "differential",
      List.map QCheck_alcotest.to_alcotest
        [ prop_delta_equals_rescan; prop_delta_equals_rescan_with_humans;
          prop_ud_delta_equals_rescan; prop_ud_snapshot_midway;
          prop_engine_equals_batch_semantics;
          prop_semantics_delta_equals_naive;
          prop_semantics_delta_equals_naive_with_humans;
          prop_engine_deterministic; prop_fixpoint_is_stable; prop_monotone_growth;
          prop_planner_preserves_trace; prop_planner_preserves_trace_with_humans;
          prop_parse_print_roundtrip; prop_printed_program_runs_identically;
          prop_views_split_preserves_rules; prop_snapshot_replay_is_trace_identical ]
      @ [ Alcotest.test_case "tweetpecker variants: planner on = off" `Slow
            test_tweetpecker_planner_differential;
          Alcotest.test_case "tweetpecker variants: delta on = off" `Slow
            test_tweetpecker_delta_differential;
          Alcotest.test_case "tweetpecker variants: snapshot replay" `Slow
            test_tweetpecker_snapshot_replay;
          Alcotest.test_case "restore under adaptive quorum" `Quick
            test_restore_under_adaptive_quorum;
          Alcotest.test_case "quorum campaigns: delta on = off" `Quick
            test_quorum_delta_differential;
          Alcotest.test_case "figure 16 turing: planner on = off" `Quick
            test_turing_planner_differential;
          Alcotest.test_case "figure 16 turing: delta on = off" `Quick
            test_turing_delta_differential ]
      @ [ QCheck_alcotest.to_alcotest prop_delta_equals_rescan_with_host_rows;
          Alcotest.test_case "add_statement mid-run: delta on = off" `Quick
            test_add_statement_delta_differential;
          Alcotest.test_case "fact-heavy restore and recovery: delta on = off" `Quick
            test_fact_heavy_restore_and_recover;
          Alcotest.test_case "pending and event indexes track their lists" `Quick
            test_pending_and_event_indexes;
          QCheck_alcotest.to_alcotest prop_precedence_equals_reference ] ) ]
