(* Tests for statistics-based aggregation (majority voting and the
   one-coin Dawid-Skene EM model) and its comparison against the paper's
   first-agreement mechanism. *)

let v item worker value = { Quality.Aggregate.item; worker; value }

let test_majority_basics () =
  let votes =
    [ v "i1" "a" "x"; v "i1" "b" "x"; v "i1" "c" "y";
      v "i2" "a" "y"; v "i2" "b" "z"; v "i2" "c" "z" ]
  in
  Alcotest.(check (list (pair string string))) "plurality per item"
    [ ("i1", "x"); ("i2", "z") ]
    (Quality.Aggregate.majority votes)

let test_majority_tie_breaks_earliest () =
  let votes = [ v "i" "a" "x"; v "i" "b" "y" ] in
  Alcotest.(check (list (pair string string))) "earliest-voted value wins ties"
    [ ("i", "x") ]
    (Quality.Aggregate.majority votes)

let test_em_agrees_with_majority_on_clean_data () =
  (* With uniformly reliable voters, EM and plurality coincide. *)
  let votes =
    List.concat_map
      (fun i ->
        let item = "i" ^ string_of_int i in
        [ v item "a" "x"; v item "b" "x"; v item "c" "y" ])
      [ 1; 2; 3; 4 ]
  in
  let em = Quality.Aggregate.em votes in
  Alcotest.(check bool) "same consensus" true
    (em.consensus = Quality.Aggregate.majority votes)

let test_em_downweights_bad_worker () =
  (* Items 1..8: workers a and b always vote the truth, worker c always
     votes wrong. On item 9 only c and a disagree with b absent... build a
     case where plurality is 1-1-1 but EM breaks toward the reliable
     worker. *)
  let truth_items = List.init 8 (fun i -> "t" ^ string_of_int i) in
  let clean =
    List.concat_map
      (fun item -> [ v item "good1" "x"; v item "good2" "x"; v item "bad" "y" ])
      truth_items
  in
  (* Disputed item: one vote each from a reliable and an unreliable
     worker. *)
  let disputed = [ v "d" "good1" "right"; v "d" "bad" "wrong" ] in
  let em = Quality.Aggregate.em (clean @ disputed) in
  Alcotest.(check (option string)) "EM sides with the reliable worker"
    (Some "right")
    (List.assoc_opt "d" em.consensus);
  let acc w = List.assoc w em.worker_accuracy in
  Alcotest.(check bool) "reliability separated" true (acc "good1" > 0.8 && acc "bad" < 0.3);
  Alcotest.(check bool) "converged" true (em.iterations < 100)

let test_em_posteriors_normalised () =
  let votes = [ v "i" "a" "x"; v "i" "b" "y"; v "i" "c" "x" ] in
  let em = Quality.Aggregate.em votes in
  List.iter
    (fun (_, post) ->
      let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 post in
      Alcotest.(check bool) "sums to 1" true (abs_float (total -. 1.0) < 1e-9);
      List.iter (fun (_, p) -> Alcotest.(check bool) "in [0,1]" true (p >= 0.0 && p <= 1.0)) post)
    em.posteriors

let test_accuracy_against () =
  let truth = function "i1" -> Some "x" | "i2" -> Some "y" | _ -> None in
  Alcotest.(check bool) "half right" true
    (Quality.Aggregate.accuracy_against ~truth [ ("i1", "x"); ("i2", "z"); ("i3", "q") ]
    = 0.5);
  Alcotest.(check bool) "empty comparable" true
    (Quality.Aggregate.accuracy_against ~truth [ ("i3", "q") ] = 0.0)

(* --- Integration: the three methods on a TweetPecker run ------------------- *)

let test_comparison_on_mixed_crowd () =
  (* Three diligent + two sloppy workers: EM should match or beat plain
     majority, and both statistics-based methods should be in the same
     league as the paper's agreement mechanism. *)
  let corpus = Tweets.Generator.generate ~seed:21 60 in
  let workers =
    Crowd.Worker.crowd Crowd.Worker.diligent 3
    @ [ Crowd.Worker.sloppy "s1"; Crowd.Worker.sloppy "s2" ]
  in
  let o = Tweetpecker.Runner.run ~corpus ~workers Tweetpecker.Programs.VEI in
  let c = Tweetpecker.Aggregation.compare_methods o in
  Alcotest.(check bool) "all methods above chance" true
    (c.agreement_accuracy > 0.5 && c.majority_accuracy > 0.5 && c.em_accuracy > 0.5);
  (* With only five votes per item the one-coin model cannot beat plurality
     by much; it must at least stay in the same league. *)
  Alcotest.(check bool) "EM in the same league as majority" true
    (c.em_accuracy >= c.majority_accuracy -. 0.05);
  (* EM must notice that the sloppy workers are less reliable. *)
  let est w = List.assoc w c.estimated_worker_accuracy in
  let avg_diligent = (est "w1" +. est "w2" +. est "w3") /. 3.0 in
  let avg_sloppy = (est "s1" +. est "s2") /. 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "diligent %.2f > sloppy %.2f" avg_diligent avg_sloppy)
    true (avg_diligent > avg_sloppy)

(* --- EM hardening: planted truth, determinism ----------------------------- *)

let labels = [| "cat"; "dog"; "bird" |]

(* 24 items with a planted truth. Reliable workers r1..r3 answer the truth
   90% of the time and a worker-specific junk value otherwise; sloppy
   workers s1/s2 always vote the same item-independent junk value, so a
   pair of correlated bad votes competes with the reliable plurality. *)
let planted_votes seed =
  let rng = Random.State.make [| 0x3a7; seed |] in
  let items = List.init 24 (fun i -> "i" ^ string_of_int i) in
  let truth_tbl = Hashtbl.create 32 in
  List.iter
    (fun it -> Hashtbl.replace truth_tbl it labels.(Random.State.int rng 3))
    items;
  let votes =
    List.concat_map
      (fun it ->
        let t = Hashtbl.find truth_tbl it in
        let reliable w =
          if Random.State.float rng 1.0 < 0.9 then v it w t
          else v it w ("oops-" ^ w)
        in
        [ reliable "r1"; reliable "r2"; reliable "r3";
          v it "s1" "spam"; v it "s2" "spam" ])
      items
  in
  (votes, fun it -> Hashtbl.find_opt truth_tbl it)

(* EM maximises its own likelihood, not accuracy. Where the reliable
   workers agree, an item has two candidate values (the truth and the
   sloppy workers' shared "spam"), and the one-coin model then scores an
   accuracy-0 worker like an accuracy-1 worker. So on some datasets its
   fixpoint is the mirror labelling: s1 and s2 at accuracy 1, r1-r3 at 0,
   every item "spam". The planted datasets of
   seeds 6415, 9066, 9708 and 9933 end there, with EM at accuracy 0
   against plurality's 0.375-0.458. The claim EM supports is the one
   T-Crowd reports: a gain on average over datasets. Each case draws 30
   seeds and always adds the four mirror seeds. *)
let mirror_seeds = [ 6415; 9066; 9708; 9933 ]

let test_em_at_least_majority_qcheck =
  QCheck.Test.make ~name:"EM >= majority on planted truth" ~count:10
    QCheck.(list_of_size (Gen.return 30) (int_bound 9999))
    (fun seeds ->
      let em_total = ref 0.0 and maj_total = ref 0.0 in
      List.iter
        (fun seed ->
          let votes, truth = planted_votes seed in
          let em = Quality.Aggregate.em votes in
          em_total := !em_total +. Quality.Aggregate.accuracy_against ~truth em.consensus;
          maj_total :=
            !maj_total
            +. Quality.Aggregate.accuracy_against ~truth (Quality.Aggregate.majority votes))
        (seeds @ mirror_seeds);
      !em_total +. 1e-9 >= !maj_total)

let test_em_strictly_beats_outvoted_majority () =
  (* 20 clean items teach EM who is reliable; on 4 disputed items the two
     sloppy workers outvote the lone reliable one, so plurality is wrong
     there while EM recovers every planted label. *)
  let clean =
    List.concat_map
      (fun i ->
        let item = "c" ^ string_of_int i in
        [ v item "r1" "t"; v item "r2" "t"; v item "r3" "t";
          v item "s1" "spam"; v item "s2" "spam" ])
      (List.init 20 (fun i -> i))
  in
  let disputed =
    List.concat_map
      (fun i ->
        let item = "d" ^ string_of_int i in
        [ v item "r1" "t"; v item "s1" "spam"; v item "s2" "spam" ])
      (List.init 4 (fun i -> i))
  in
  let votes = clean @ disputed in
  let truth _ = Some "t" in
  let em = Quality.Aggregate.em votes in
  let em_acc = Quality.Aggregate.accuracy_against ~truth em.consensus in
  let maj_acc =
    Quality.Aggregate.accuracy_against ~truth (Quality.Aggregate.majority votes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "EM %.2f > majority %.2f" em_acc maj_acc)
    true (em_acc > maj_acc);
  Alcotest.(check (float 1e-9)) "EM recovers all planted labels" 1.0 em_acc

let test_em_deterministic () =
  let votes, _ = planted_votes 11 in
  let a = Quality.Aggregate.em votes in
  let b = Quality.Aggregate.em votes in
  Alcotest.(check bool) "identical em_result on identical votes" true (a = b)

(* --- Quality.Model --------------------------------------------------------- *)

let test_model_default_prior () =
  let m = Quality.Model.create () in
  Alcotest.(check (float 1e-9)) "fresh worker at the Beta(4,1) prior mean" 0.8
    (Quality.Model.reliability m "w");
  Alcotest.(check int) "no observations yet" 0 (Quality.Model.observations m "w");
  Alcotest.(check (list string)) "no observed workers" [] (Quality.Model.workers m)

let test_model_observe () =
  let m = Quality.Model.create () in
  Quality.Model.observe m "w" ~agreed:true;
  Alcotest.(check (float 1e-9)) "agreement lifts the mean" (5.0 /. 6.0)
    (Quality.Model.reliability m "w");
  Quality.Model.observe m "w" ~agreed:false;
  Alcotest.(check (float 1e-9)) "disagreement drags it down" (5.0 /. 7.0)
    (Quality.Model.reliability m "w");
  Alcotest.(check int) "both events counted" 2 (Quality.Model.observations m "w");
  Alcotest.(check (list string)) "worker now listed" [ "w" ]
    (Quality.Model.workers m);
  (* Under the optimistic prior a disagreement moves the estimate further
     than an agreement does — sloppy workers sink fast. *)
  let up = Quality.Model.create () and down = Quality.Model.create () in
  Quality.Model.observe up "w" ~agreed:true;
  Quality.Model.observe down "w" ~agreed:false;
  Alcotest.(check bool) "disagreement is the bigger step" true
    (0.8 -. Quality.Model.reliability down "w"
    > Quality.Model.reliability up "w" -. 0.8)

let test_model_roundtrip () =
  let m = Quality.Model.create () in
  Quality.Model.observe m "b" ~agreed:true;
  Quality.Model.observe m "a" ~agreed:false;
  Quality.Model.observe m "a" ~agreed:true;
  let l = Quality.Model.to_assoc m in
  let m' = Quality.Model.of_assoc l in
  Alcotest.(check bool) "to_assoc (of_assoc l) = l" true
    (Quality.Model.to_assoc m' = l);
  List.iter
    (fun w ->
      Alcotest.(check (float 1e-9)) ("reliability survives: " ^ w)
        (Quality.Model.reliability m w)
        (Quality.Model.reliability m' w);
      Alcotest.(check int) ("observations survive: " ^ w)
        (Quality.Model.observations m w)
        (Quality.Model.observations m' w))
    (Quality.Model.workers m)

let test_model_rejects_bad_priors () =
  let bad f =
    match f () with
    | (_ : Quality.Model.t) -> Alcotest.fail "non-positive prior must be refused"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () -> Quality.Model.create ~prior_alpha:0.0 ());
  bad (fun () -> Quality.Model.create ~prior_beta:(-1.0) ())

(* --- Quality.Decide -------------------------------------------------------- *)

let test_decide_default_config () =
  let c = Quality.Decide.default_config in
  Alcotest.(check bool) "tau 0.9, 2..5 votes" true
    (c.Quality.Decide.tau = 0.9 && c.min_votes = 2 && c.max_votes = 5)

let test_decide_posteriors () =
  (* One fresh (0.8) vote: the implicit unseen alternative keeps 0.2. *)
  (match Quality.Decide.posteriors [ ("a", 0.8) ] with
  | [ ("a", p) ] -> Alcotest.(check (float 1e-9)) "single vote" 0.8 p
  | _ -> Alcotest.fail "one candidate expected");
  (* Two agreeing fresh votes clear 0.9: 0.64 / (0.64 + 0.04). *)
  (match Quality.Decide.posteriors [ ("a", 0.8); ("a", 0.8) ] with
  | [ ("a", p) ] ->
      Alcotest.(check (float 1e-9)) "agreeing pair" (0.64 /. 0.68) p
  | _ -> Alcotest.fail "one candidate expected");
  Alcotest.(check bool) "no votes, no candidates" true
    (Quality.Decide.posteriors [] = [])

let test_decide_tie_breaks_earliest () =
  match Quality.Decide.posteriors [ ("x", 0.7); ("y", 0.7) ] with
  | [ (c1, p1); (_, p2) ] ->
      Alcotest.(check (float 1e-9)) "exact tie" p1 p2;
      Alcotest.(check string) "earliest-voted candidate leads" "x" c1
  | _ -> Alcotest.fail "two candidates expected"

let test_decide_clamps_reliability () =
  (* A self-declared perfect worker cannot force certainty... *)
  (match Quality.Decide.top (Quality.Decide.posteriors [ ("a", 1.0) ]) with
  | Some ("a", p) -> Alcotest.(check (float 1e-9)) "clamped to 0.95" 0.95 p
  | _ -> Alcotest.fail "candidate expected");
  (* ...and opposing extreme reliabilities stay finite and ordered. *)
  match Quality.Decide.top (Quality.Decide.posteriors [ ("a", 1.0); ("b", 0.0) ]) with
  | Some (c, p) ->
      Alcotest.(check string) "reliable voter leads" "a" c;
      Alcotest.(check bool) "finite, below 1" true (Float.is_finite p && p < 1.0)
  | None -> Alcotest.fail "candidates expected"

let test_decide_stopping_rule () =
  let open Quality.Decide in
  (* Below min_votes nothing resolves, however confident the lone voter. *)
  (match decide default_config [ ("a", 0.95) ] with
  | Ask_more -> ()
  | _ -> Alcotest.fail "a single vote must not resolve");
  (* Two agreeing fresh votes reach tau. *)
  (match decide default_config [ ("a", 0.8); ("a", 0.8) ] with
  | Resolve ("a", p) -> Alcotest.(check bool) "p >= tau" true (p >= 0.9)
  | _ -> Alcotest.fail "agreeing pair must resolve");
  (* Disagreement below tau keeps asking while votes remain. *)
  (match decide default_config [ ("a", 0.6); ("b", 0.8) ] with
  | Ask_more -> ()
  | _ -> Alcotest.fail "unsettled task must ask for more");
  (* The cap escalates, reporting the best posterior achieved. *)
  match decide { tau = 0.99; min_votes = 2; max_votes = 2 } [ ("a", 0.6); ("b", 0.6) ] with
  | Escalate p -> Alcotest.(check bool) "0 < p < tau" true (p > 0.0 && p < 0.99)
  | _ -> Alcotest.fail "vote cap must escalate"

let test_decide_uncertainty () =
  let u0 = Quality.Decide.uncertainty [] in
  let u1 = Quality.Decide.uncertainty [ ("a", 0.8) ] in
  let u2 = Quality.Decide.uncertainty [ ("a", 0.8); ("a", 0.8) ] in
  Alcotest.(check (float 1e-9)) "unvoted task is maximally uncertain" 1.0 u0;
  Alcotest.(check (float 1e-9)) "one vote" 0.2 u1;
  Alcotest.(check bool) "agreement settles the task" true (u2 < u1 && u1 < u0)

(* --- Quality.Router --------------------------------------------------------- *)

let test_router_floor () =
  let r = Quality.Router.default_config in
  Alcotest.(check bool) "fresh prior qualifies" true
    (Quality.Router.eligible r ~reliability:0.8);
  Alcotest.(check bool) "benched below the floor" false
    (Quality.Router.eligible r ~reliability:0.2);
  Alcotest.(check bool) "floor 0 disables screening" true
    (Quality.Router.eligible { Quality.Router.floor = 0.0 } ~reliability:0.0)

let test_router_pick () =
  Alcotest.(check (option string)) "empty pool" None (Quality.Router.pick []);
  Alcotest.(check (option string)) "highest uncertainty wins"
    (Some "b")
    (Quality.Router.pick [ ("a", 0.3); ("b", 0.9); ("c", 0.9) ]);
  Alcotest.(check (option string)) "ineligible worker routed away" None
    (Quality.Router.route Quality.Router.default_config ~reliability:0.2
       ~tasks:[ ("a", 1.0) ]);
  Alcotest.(check (option string)) "eligible worker gets the open task"
    (Some "b")
    (Quality.Router.route Quality.Router.default_config ~reliability:0.8
       ~tasks:[ ("a", 0.1); ("b", 0.5) ])

(* --- Engine integration: the adaptive quorum policy ------------------------ *)

module E = Cylog.Engine

let vs s = Reldb.Value.String s

let adaptive_engine ?(tau = 0.9) ?(min_votes = 2) ?(max_votes = 4) () =
  let program =
    Cylog.Parser.parse_exn
      {|
      rules:
        Seed(s:1);
        Ask: Poll(q:1, ans)/open <- Seed(s);
      |}
  in
  let engine = E.load program in
  E.set_quorum_policy engine (E.Adaptive { tau; min_votes; max_votes });
  ignore (E.run engine);
  let o = match E.pending engine with [ o ] -> o | _ -> Alcotest.fail "one task" in
  (engine, o)

let vote engine (o : E.open_tuple) w value =
  match E.supply engine o.E.id ~worker:(vs w) [ ("ans", vs value) ] with
  | Ok e -> e.E.effects
  | Error e -> Alcotest.failf "vote rejected: %s" (E.reject_to_string e)

let test_adaptive_early_stop () =
  let engine, o = adaptive_engine () in
  (match vote engine o "w1" "a" with
  | [ E.Vote_recorded (_, 1) ] -> ()
  | _ -> Alcotest.fail "first vote banks; min_votes gates resolution");
  (match vote engine o "w2" "a" with
  | [ E.Vote_recorded (_, 2);
      E.Adaptive_resolved { posterior_pct; escalated = false; _ };
      E.Inserted ("Poll", t) ] ->
      Alcotest.(check bool) "agreed value inserted" true
        (Reldb.Value.equal (Reldb.Tuple.get_or_null t "ans") (vs "a"));
      Alcotest.(check bool) "posterior >= tau" true (posterior_pct >= 90)
  | _ -> Alcotest.fail "two agreeing fresh workers must clear tau = 0.9");
  Alcotest.(check bool) "task left the pool" true
    (E.find_open engine o.E.id = None);
  (* Both voters agreed with the outcome, so their reputation rises. *)
  Alcotest.(check bool) "reliability above the prior mean" true
    (E.worker_reliability engine (vs "w1") > 0.8
    && E.worker_reliability engine (vs "w2") > 0.8)

let test_adaptive_escalates_at_cap () =
  let engine, o = adaptive_engine () in
  ignore (vote engine o "w1" "a");
  ignore (vote engine o "w2" "b");
  (match vote engine o "w3" "a" with
  | [ E.Vote_recorded (_, 3) ] -> ()
  | _ -> Alcotest.fail "confidence not reached: keep asking past min_votes");
  (match vote engine o "w4" "c" with
  | [ E.Vote_recorded (_, 4);
      E.Adaptive_resolved { escalated = true; _ };
      E.Inserted ("Poll", t) ] ->
      Alcotest.(check bool) "fallback plurality decides" true
        (Reldb.Value.equal (Reldb.Tuple.get_or_null t "ans") (vs "a"))
  | _ -> Alcotest.fail "vote cap must escalate to the aggregate");
  (* Escalation still scores reputations against the chosen value. *)
  Alcotest.(check bool) "dissenters sink below the prior" true
    (E.worker_reliability engine (vs "w2") < 0.8
    && E.worker_reliability engine (vs "w1") > 0.8)

let test_adaptive_min_votes_gate () =
  let engine, o = adaptive_engine ~min_votes:3 () in
  ignore (vote engine o "w1" "a");
  (match vote engine o "w2" "a" with
  | [ E.Vote_recorded (_, 2) ] -> ()
  | _ -> Alcotest.fail "a confident pair must still wait for min_votes = 3");
  match vote engine o "w3" "a" with
  | E.Vote_recorded (_, 3) :: E.Adaptive_resolved { escalated = false; _ } :: _ -> ()
  | _ -> Alcotest.fail "third agreeing vote resolves"

let test_adaptive_existence () =
  let program =
    Cylog.Parser.parse_exn
      {|
      rules:
        Cand(tw:1, v:"sunny");
        Ask: Agreed(tw:1, v:"sunny")/open <- Cand(tw, v);
      |}
  in
  let engine = E.load program in
  E.set_quorum_policy engine (E.Adaptive { tau = 0.9; min_votes = 2; max_votes = 4 });
  ignore (E.run engine);
  let o = match E.pending engine with [ o ] -> o | _ -> Alcotest.fail "one task" in
  Alcotest.(check bool) "existence question" true o.E.existence;
  let vote w yes =
    match E.answer_existence engine o.E.id ~worker:(vs w) yes with
    | Ok e -> e.E.effects
    | Error e -> Alcotest.failf "vote rejected: %s" (E.reject_to_string e)
  in
  (match vote "w1" true with
  | [ E.Vote_recorded (_, 1) ] -> ()
  | _ -> Alcotest.fail "first aye banks");
  (match vote "w2" true with
  | E.Vote_recorded (_, 2) :: E.Adaptive_resolved { escalated = false; _ } :: _ -> ()
  | _ -> Alcotest.fail "two fresh ayes must resolve the existence question");
  match Reldb.Database.find (E.database engine) "Agreed" with
  | Some rel -> Alcotest.(check int) "tuple admitted" 1 (Reldb.Relation.cardinal rel)
  | None -> Alcotest.fail "Agreed should exist"

let suite =
  [ ( "quality.aggregate",
      [ Alcotest.test_case "majority basics" `Quick test_majority_basics;
        Alcotest.test_case "majority tie break" `Quick test_majority_tie_breaks_earliest;
        Alcotest.test_case "EM = majority on clean data" `Quick
          test_em_agrees_with_majority_on_clean_data;
        Alcotest.test_case "EM downweights bad workers" `Quick
          test_em_downweights_bad_worker;
        Alcotest.test_case "EM posteriors normalised" `Quick test_em_posteriors_normalised;
        Alcotest.test_case "accuracy_against" `Quick test_accuracy_against;
        QCheck_alcotest.to_alcotest test_em_at_least_majority_qcheck;
        Alcotest.test_case "EM beats an outvoted majority" `Quick
          test_em_strictly_beats_outvoted_majority;
        Alcotest.test_case "EM is deterministic" `Quick test_em_deterministic ] );
    ( "quality.model",
      [ Alcotest.test_case "default prior mean 0.8" `Quick test_model_default_prior;
        Alcotest.test_case "observe moves the posterior" `Quick test_model_observe;
        Alcotest.test_case "assoc roundtrip" `Quick test_model_roundtrip;
        Alcotest.test_case "non-positive priors refused" `Quick
          test_model_rejects_bad_priors ] );
    ( "quality.decide",
      [ Alcotest.test_case "default config" `Quick test_decide_default_config;
        Alcotest.test_case "posteriors" `Quick test_decide_posteriors;
        Alcotest.test_case "ties break earliest" `Quick test_decide_tie_breaks_earliest;
        Alcotest.test_case "reliabilities clamped" `Quick test_decide_clamps_reliability;
        Alcotest.test_case "stopping rule" `Quick test_decide_stopping_rule;
        Alcotest.test_case "uncertainty" `Quick test_decide_uncertainty ] );
    ( "quality.router",
      [ Alcotest.test_case "reliability floor" `Quick test_router_floor;
        Alcotest.test_case "uncertainty sampling" `Quick test_router_pick ] );
    ( "quality.adaptive-quorum",
      [ Alcotest.test_case "confident agreement stops early" `Quick
          test_adaptive_early_stop;
        Alcotest.test_case "vote cap escalates to the aggregate" `Quick
          test_adaptive_escalates_at_cap;
        Alcotest.test_case "min_votes gates resolution" `Quick
          test_adaptive_min_votes_gate;
        Alcotest.test_case "existence questions stop early" `Quick
          test_adaptive_existence ] );
    ( "quality.integration",
      [ Alcotest.test_case "three methods on a mixed crowd" `Quick
          test_comparison_on_mixed_crowd ] ) ]
