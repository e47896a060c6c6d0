(* Property tests for the static budget certificate (Cylog.Analysis).

   Soundness: a campaign never collects more accepted answers than the
   certificate's total-answer bound — checked live, recounted from the
   event log, and across snapshot/restore, with the engine's own
   cross-check counter [analysis.bound.violations] staying 0 throughout.

   Monotonicity: adding a base fact can only grow bounds — the abstract
   domain is ordered 0 < finite(n) < bounded-by-input < unbounded, and
   no relation's bound, nor the totals, ever moves down the order. *)

open Cylog

(* The differential generator's positive Datalog core plus one open
   statement fed from R0 with no feedback: the open relation Answer is
   never read back, so every relation bound — and the certificate — is
   finite. *)
let with_bounded_open (program : Ast.program) =
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
  { program with Ast.statements = program.statements @ [ ask ] }

let answer_everything engine =
  ignore (Engine.run engine ~max_steps:20_000);
  let rec answer rounds =
    if rounds > 500 then ()
    else
      match Engine.pending engine with
      | [] -> ()
      | (o : Engine.open_tuple) :: _ ->
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
  answer 0

let accepted_of m = Telemetry.Metrics.counter m "answers.accepted"
let violations_of m = Telemetry.Metrics.counter m "analysis.bound.violations"

let finite_bound engine =
  Analysis.finite (Engine.certificate engine).Analysis.cert_total_answers

let prop_certificate_sound =
  QCheck.Test.make
    ~name:"certificate soundness: answers <= static bound (live/recount/restore)"
    ~count:150 Test_differential.gen_program (fun program ->
      let program = with_bounded_open program in
      let engine = Engine.load program in
      let bound =
        match finite_bound engine with
        | Some b -> b
        | None -> QCheck.Test.fail_report "bounded open program got no finite bound"
      in
      answer_everything engine;
      let m = Engine.metrics engine in
      let live_ok = accepted_of m <= bound && violations_of m = 0 in
      (* Recounted: the fold over the event log must agree on the spend,
         and — since analysis.* counters are engine-local, not
         journal-derived — report no violations either. *)
      let m' = Engine.metrics_of_events (Engine.events engine) in
      let recount_ok = accepted_of m' = accepted_of m && violations_of m' = 0 in
      (* Across snapshot/restore the replayed engine re-earns the same
         certificate and the same spend, still within bound. *)
      let restored = Engine.restore_string (Engine.snapshot_string engine) in
      let rm = Engine.metrics restored in
      let restore_ok =
        (match finite_bound restored with Some b -> accepted_of rm <= b | None -> false)
        && violations_of rm = 0
      in
      live_ok && recount_ok && restore_ok)

(* -- Monotonicity ---------------------------------------------------------- *)

let leq a b =
  match (a, b) with
  | Analysis.Zero, _ -> true
  | _, Analysis.Unbounded _ -> true
  | Analysis.Finite x, Analysis.Finite y -> x <= y
  | Analysis.Finite _, Analysis.Bounded_by_input -> true
  | Analysis.Bounded_by_input, Analysis.Bounded_by_input -> true
  | _, _ -> false

let gen_program_and_fact =
  let open QCheck.Gen in
  let gen =
    let* program = QCheck.gen Test_differential.gen_program in
    let* r = map (Printf.sprintf "R%d") (int_bound 3) in
    let* va = int_bound 9 in
    let* vb = int_bound 9 in
    let fact =
      Ast.statement
        [ Ast.head_atom
            { Ast.pred = r;
              args =
                [ { Ast.attr = "a"; bind = Ast.Bound (Ast.Const (Reldb.Value.Int va)) };
                  { Ast.attr = "b"; bind = Ast.Bound (Ast.Const (Reldb.Value.Int vb)) } ] } ]
        []
    in
    return (with_bounded_open program, fact)
  in
  QCheck.make
    ~print:(fun (p, f) ->
      Pretty.program_to_string { p with Ast.statements = p.Ast.statements @ [ f ] })
    gen

let prop_monotone =
  QCheck.Test.make ~name:"adding a base fact never shrinks a bound" ~count:200
    gen_program_and_fact (fun (program, fact) ->
      let before = Analysis.analyze program in
      let after =
        Analysis.analyze
          { program with Ast.statements = program.Ast.statements @ [ fact ] }
      in
      let card_after r =
        Option.value
          (List.assoc_opt r after.Analysis.cert_relations)
          ~default:Analysis.Zero
      in
      List.for_all
        (fun (r, c) -> leq c (card_after r))
        before.Analysis.cert_relations
      && leq before.Analysis.cert_total_tasks after.Analysis.cert_total_tasks
      && leq before.Analysis.cert_total_answers after.Analysis.cert_total_answers)

(* -- Campaigns: faulted and adaptive runs stay within the certificate ------ *)

let check_campaign name (o : Tweetpecker.Runner.outcome) =
  (match finite_bound o.engine with
  | None -> Alcotest.fail (name ^ ": VE certificate should be finite")
  | Some bound ->
      let m = Engine.metrics o.engine in
      Alcotest.(check bool)
        (Printf.sprintf "%s: accepted %d <= bound %d" name (accepted_of m) bound)
        true
        (accepted_of m <= bound));
  let m = Engine.metrics o.engine in
  Alcotest.(check int) (name ^ ": live violations") 0 (violations_of m);
  let m' = Engine.metrics_of_events (Engine.events o.engine) in
  Alcotest.(check int)
    (name ^ ": recounted spend agrees")
    (accepted_of m) (accepted_of m')

let test_faulted_campaigns_within_bound () =
  let corpus = Tweets.Generator.generate ~seed:5 6 in
  List.iter
    (fun (name, faults) ->
      let o =
        Tweetpecker.Runner.run ~seed:11 ~corpus ~faults ~policy:(Engine.Fixed 3)
          Tweetpecker.Programs.VE
      in
      check_campaign ("faults=" ^ name) o)
    Crowd.Faults.profiles

let test_adaptive_campaign_within_bound () =
  let corpus = Tweets.Generator.generate ~seed:7 6 in
  let o =
    Tweetpecker.Runner.run ~seed:3 ~corpus
      ~policy:(Engine.Adaptive { tau = 0.8; min_votes = 2; max_votes = 5 })
      Tweetpecker.Programs.VE
  in
  check_campaign "adaptive" o

let suite =
  [ ( "analysis",
      [ QCheck_alcotest.to_alcotest prop_certificate_sound;
        QCheck_alcotest.to_alcotest prop_monotone;
        Alcotest.test_case "faulted campaigns stay within the certificate" `Quick
          test_faulted_campaigns_within_bound;
        Alcotest.test_case "adaptive campaign stays within the certificate" `Quick
          test_adaptive_campaign_within_bound ] ) ]
