(* The paper's evaluation, reproduced: one entry per table and figure,
   printing the paper-reported values next to the measured ones, plus
   the theorems and the ablations DESIGN.md calls out. Every run is
   seeded, so the output is deterministic. *)

open Emit

(* ------------------------------------------------------------------ *)
(* Shared full-scale runs (463 tweets, 5 workers) — computed once.     *)
(* ------------------------------------------------------------------ *)

let corpus = lazy (Tweets.Generator.corpus ())

let outcome variant =
  lazy (Tweetpecker.Runner.run ~corpus:(Lazy.force corpus) variant)

let ve = outcome Tweetpecker.Programs.VE
let vei = outcome Tweetpecker.Programs.VEI
let vre = outcome Tweetpecker.Programs.VRE
let vrei = outcome Tweetpecker.Programs.VREI
let all_outcomes = [ ve; vei; vre; vrei ]

(* ------------------------------------------------------------------ *)
(* Table 1: quality of acquired data                                   *)
(* ------------------------------------------------------------------ *)

(* Paper values (Section 8, Table 1). The VRE/I column of row A is garbled
   in the source text; the paper's finding is that row A differences are
   not statistically significant. *)
let paper_table1_rowA = [ ("VE", (73.5, 6.7, 19.8)); ("VE/I", (72.2, 7.9, 19.9));
                          ("VRE", (71.2, 7.2, 21.6)) ]
let paper_row_b = [ ("VRE", 60.9); ("VRE/I", 77.0) ]
let paper_row_c = [ ("VRE", 2.71); ("VRE/I", 6.32) ]

let run_table1 () =
  section "Table 1: Quality of acquired data (paper -> measured)";
  let outcomes = List.map Lazy.force all_outcomes in
  Format.printf "%-30s" "Technique";
  List.iter
    (fun (o : Tweetpecker.Runner.outcome) ->
      Format.printf "%18s" (Tweetpecker.Programs.variant_name o.variant))
    outcomes;
  Format.printf "@.";
  let row label cell =
    Format.printf "%-30s" label;
    List.iter (fun o -> Format.printf "%18s" (cell o)) outcomes;
    Format.printf "@."
  in
  let paper_a pick (o : Tweetpecker.Runner.outcome) =
    match
      List.assoc_opt (Tweetpecker.Programs.variant_name o.variant) paper_table1_rowA
    with
    | Some t -> Printf.sprintf "%.1f" (pick t)
    | None -> "?"
  in
  let q (o : Tweetpecker.Runner.outcome) = Tweetpecker.Metrics.row_a o in
  row "A: Correct (%)" (fun o ->
      Printf.sprintf "%s -> %.1f" (paper_a (fun (a, _, _) -> a) o) (100.0 *. (q o).correct));
  row "   Incorrect (%)" (fun o ->
      Printf.sprintf "%s -> %.1f" (paper_a (fun (_, b, _) -> b) o) (100.0 *. (q o).incorrect));
  row "   Neither (%)" (fun o ->
      Printf.sprintf "%s -> %.1f" (paper_a (fun (_, _, c) -> c) o) (100.0 *. (q o).neither));
  let with_paper table (o : Tweetpecker.Runner.outcome) value =
    match (List.assoc_opt (Tweetpecker.Programs.variant_name o.variant) table, value) with
    | Some p, Some v -> Printf.sprintf "%.2f -> %.2f" p v
    | None, Some v -> Printf.sprintf "- -> %.2f" v
    | _, None -> "-"
  in
  row "B: Avg confidence of rules (%)" (fun o ->
      with_paper paper_row_b o
        (Option.map (fun x -> 100.0 *. x) (Tweetpecker.Metrics.row_b o)));
  row "C: Avg support of rules (%)" (fun o ->
      with_paper paper_row_c o
        (Option.map (fun x -> 100.0 *. x) (Tweetpecker.Metrics.row_c o)));
  Format.printf
    "@.shape check: row A comparable across variants; B and C clearly higher under VRE/I@.";
  let b v = Option.get (Tweetpecker.Metrics.row_b (Lazy.force v)) in
  let c v = Option.get (Tweetpecker.Metrics.row_c (Lazy.force v)) in
  Format.printf "  B: VRE/I / VRE = %.2fx (paper: %.2fx)@." (b vrei /. b vre) (77.0 /. 60.9);
  Format.printf "  C: VRE/I / VRE = %.2fx (paper: %.2fx)@." (c vrei /. c vre) (6.32 /. 2.71)

(* ------------------------------------------------------------------ *)
(* Figure 4: the VE/I coordination game                                *)
(* ------------------------------------------------------------------ *)

let run_figure4 () =
  section "Figure 4: payoff matrix and extensive form of the VE/I game";
  let game =
    Game.Matrix.coordination ~players:("A", "B") ~values:[ "fine"; "rainy" ] ~reward:1.0
  in
  Format.printf "%a@.@." Game.Matrix.pp_bimatrix game;
  let tree = Game.Extensive.of_matrix_sequential game in
  Format.printf "extensive form (B's information set hides A's move):@.%a@."
    Game.Extensive.pp tree;
  Format.printf "solutions (pure Nash equilibria — the bold paths of the figure):@.";
  List.iter
    (fun profile -> Format.printf "  %s@." (String.concat " / " profile))
    (Game.Matrix.pure_nash_named game);
  Format.printf "paper: the solution is the set of matching-term paths — %s@."
    (if
       List.for_all
         (fun p -> List.length (List.sort_uniq compare p) = 1)
         (Game.Matrix.pure_nash_named game)
     then "reproduced"
     else "NOT reproduced")

(* ------------------------------------------------------------------ *)
(* Figure 6: a path table                                              *)
(* ------------------------------------------------------------------ *)

let run_figure6 () =
  section "Figure 6: path table of one VEI game instance";
  let program =
    {|
    rules:
      Tweet(tw:"It rains in London");
      Worker(pid:"Kate"); Worker(pid:"Pam"); Worker(pid:"Ann");
      VE1: Input(tw, attr:"weather", value, p)/open[p] <- Tweet(tw), Worker(pid:p);
    games:
      game VEI(tw, attr) {
        path:
          VEI1: Path(player:p, action:["value", value]) <- Input(tw, attr, value, p);
        payoff:
          VEI2: Path(player:p1, action:["value", v]) {
            VEI2.1: Payoff[p1 += 1, p2 += 1] <- Path(player:p2, action:["value", v]), p1 != p2;
          }
      }
    |}
  in
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn program) in
  ignore (Cylog.Engine.run engine);
  (* Kate and Ann agree on "rainy"; Pam enters "wet" — the paper's example
     play with payoffs 1, 0, 1. *)
  List.iter
    (fun (o : Cylog.Engine.open_tuple) ->
      let w = Option.get o.asked in
      let value = if Reldb.Value.to_display w = "Pam" then "wet" else "rainy" in
      ignore
        (Cylog.Engine.supply engine o.id ~worker:w [ ("value", Reldb.Value.String value) ]))
    (Cylog.Engine.pending engine);
  ignore (Cylog.Engine.run engine);
  (match Cylog.Engine.game_instances engine "VEI" with
  | params :: _ ->
      Format.printf "Path(Order, Date, Player, Action):@.";
      List.iter
        (fun t ->
          Format.printf "  (%s, %s, %s, %s)@."
            (Reldb.Value.to_display (Reldb.Tuple.get_or_null t "order"))
            (Reldb.Value.to_display (Reldb.Tuple.get_or_null t "date"))
            (Reldb.Value.to_display (Reldb.Tuple.get_or_null t "player"))
            (Reldb.Value.to_display (Reldb.Tuple.get_or_null t "action")))
        (Cylog.Engine.path_table engine "VEI" ~params:(Reldb.Tuple.to_list params))
  | [] -> Format.printf "  (no play)@.");
  Format.printf "payoffs (paper: Kate 1, Pam 0, Ann 1):@.";
  List.iter
    (fun (p, s) ->
      Format.printf "  %s: %s@." (Reldb.Value.to_display p) (Reldb.Value.to_display s))
    (Cylog.Engine.payoffs engine)

(* ------------------------------------------------------------------ *)
(* Figure 10: VREI game tree with expected payoffs                     *)
(* ------------------------------------------------------------------ *)

let run_figure10 () =
  section "Figure 10: expected payoffs in the VREI game (worker accuracy 0.9)";
  Format.printf "%a@." Game.Extensive.pp (Tweetpecker.Analysis.figure10_tree ~accuracy:0.9);
  Format.printf "expected payoff per root action:@.";
  List.iter
    (fun (action, v) -> Format.printf "  %-22s %+.2f@." action v)
    (Tweetpecker.Analysis.figure10_expected ~accuracy:0.9);
  Format.printf
    "@.paper: correct rules/values dominate (Theorem 1 follows by inspection)@."

(* ------------------------------------------------------------------ *)
(* Figure 11: entered vs selected agreements over completion           *)
(* ------------------------------------------------------------------ *)

let run_figure11 () =
  section "Figure 11: breakdown of agreed values into entered and selected";
  let series name o =
    let b = Tweetpecker.Analysis.figure11 (Lazy.force o) in
    Format.printf "%-6s selected share per decile: " name;
    Array.iteri
      (fun d _ ->
        Format.printf "%3.0f%%" (100.0 *. Tweetpecker.Analysis.selected_share b d))
      b.per_decile;
    Format.printf "   (early: %.0f%%)@."
      (100.0 *. Tweetpecker.Analysis.early_selected_share b);
    b
  in
  let b_vre = series "VRE" vre in
  let b_vrei = series "VRE/I" vrei in
  let early = Tweetpecker.Analysis.early_selected_share in
  Format.printf
    "@.paper: the selected share is clearly higher in the early stages under VRE/I — %s@."
    (if early b_vrei > early b_vre then "reproduced" else "NOT reproduced")

(* ------------------------------------------------------------------ *)
(* Figure 12: when workers entered extraction rules                    *)
(* ------------------------------------------------------------------ *)

let run_figure12 () =
  section "Figure 12: rule-entry times (completion-rate deciles)";
  let series name o =
    let counts = Tweetpecker.Analysis.figure12 (Lazy.force o) in
    Format.printf "%-6s rule entries per decile:   " name;
    Array.iter (fun c -> Format.printf "%4d" c) counts;
    Format.printf "@.";
    counts
  in
  let vre_counts = series "VRE" vre in
  let vrei_counts = series "VRE/I" vrei in
  let early a = a.(0) + a.(1) and total a = Array.fold_left ( + ) 0 a in
  Format.printf
    "@.paper: VRE/I entries cluster at the beginning, VRE entries spread — %s@."
    (if early vrei_counts = total vrei_counts && early vre_counts < total vre_counts
     then "reproduced"
     else "NOT reproduced");
  match
    ( Tweetpecker.Analysis.median_rule_entry_progress (Lazy.force vrei),
      Tweetpecker.Analysis.median_rule_entry_progress (Lazy.force vre) )
  with
  | Some m1, Some m2 ->
      Format.printf "median entry completion: VRE/I %.2f vs VRE %.2f@." m1 m2
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Figure 13: evaluation order                                         *)
(* ------------------------------------------------------------------ *)

let figure13_src =
  {|
  rules:
    R(x:1);
    U(x:2);
    T(x) <- R(x), not U(x);
    S(x, y)/open <- R(x);
    R(x:2);
    T(x:1)/delete;
  |}

let run_figure13 () =
  section "Figure 13: possible evaluation order of a CyLog code";
  print_string
    "  1. R(x:1);\n\
    \  2. U(x:2);\n\
    \  3. T(x) <- R(x), not U(x);\n\
    \  4. S(x, y)/open <- R(x);\n\
    \  5. R(x:2);\n\
    \  6. T(x:1)/delete;\n";
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn figure13_src) in
  ignore (Cylog.Engine.run engine);
  let show (e : Cylog.Engine.event) =
    let valuation =
      match List.assoc_opt "x" e.valuation with
      | Some v -> Printf.sprintf " (x=%s)" (Reldb.Value.to_display v)
      | None -> ""
    in
    Printf.sprintf "%d%s%s" (e.statement + 1) valuation
      (if e.fired then "" else " [rejected by negation]")
  in
  Format.printf "@.paper order:    1, 2, 3 (x=1), 4 (x=1), 5, 3 (x=2), 4 (x=2), 6@.";
  Format.printf "measured order: %s@."
    (String.concat ", " (List.map show (Cylog.Engine.events engine)))

(* ------------------------------------------------------------------ *)
(* Figure 14: precedence graph                                         *)
(* ------------------------------------------------------------------ *)

let run_figure14 () =
  section "Figure 14: precedence graph of the Figure 13 rules";
  let program = Cylog.Parser.parse_exn figure13_src in
  let g = Cylog.Precedence.build program.Cylog.Ast.statements in
  Format.printf "%a@." Cylog.Pretty.pp_precedence g;
  Format.printf "@.data complete: rule 6 %b (paper: yes), rule 3 %b (paper: no)@."
    (Cylog.Precedence.data_complete g 5)
    (Cylog.Precedence.data_complete g 2);
  Format.printf "rules 3 and 4 parallelizable: %b (paper: yes)@."
    (Cylog.Precedence.parallelizable g 2 3)

(* ------------------------------------------------------------------ *)
(* Figure 16 / Theorems 3-4: Turing machines in CyLog                  *)
(* ------------------------------------------------------------------ *)

let run_figure16 () =
  section "Figure 16: CyLog rules implementing a Turing machine (Theorem 4)";
  List.iter
    (fun ((m : Turing.Machine.t), input) ->
      let direct =
        match Turing.Machine.run m ~input with
        | Ok (final, steps) ->
            Printf.sprintf "%s/%d steps" (Turing.Machine.tape_string final) steps
        | Error _ -> "timeout"
      in
      let cy = Turing.Cylog_tm.run m ~input in
      Format.printf
        "  %-18s input %-6s direct: %-14s CyLog: %s/%d engine steps — agree: %b@."
        m.name
        (String.concat "" input)
        direct
        (String.concat "" (List.map snd cy.tape))
        cy.engine_steps
        (Turing.Cylog_tm.agrees_with_direct m ~input))
    [ (Turing.Machine.successor, [ "1"; "1" ]);
      (Turing.Machine.binary_increment, [ "1"; "0"; "1"; "1" ]);
      (Turing.Machine.parity, [ "1"; "1"; "1" ]) ];
  Format.printf
    "@.interactive machine (class G_*, Theorem 3): dictating \"ab\" gives tape %S@."
    (Turing.Cylog_tm.Interactive.run ~answers:[ "a"; "b" ]);
  Format.printf "game classes: VE/I program %a, VRE/I program %a (paper: G_1 vs G_*)@."
    Game.Classes.pp
    (Game.Classes.classify
       (Tweetpecker.Programs.program Tweetpecker.Programs.VEI
          ~corpus:(Tweets.Generator.generate ~seed:1 2)
          ~workers:[ "w1" ]))
    Game.Classes.pp
    (Game.Classes.classify
       (Tweetpecker.Programs.program Tweetpecker.Programs.VREI
          ~corpus:(Tweets.Generator.generate ~seed:1 2)
          ~workers:[ "w1" ]))

(* ------------------------------------------------------------------ *)
(* Theorems 1 and 2                                                    *)
(* ------------------------------------------------------------------ *)

let run_theorems () =
  section "Theorems 1 (data quality) and 2 (termination) on the VRE/I run";
  let o = Lazy.force vrei in
  let t1 = Tweetpecker.Analysis.theorem1 o in
  Format.printf "Theorem 1: rational workers enter correct values and rules@.";
  Format.printf "  value entries matching ground truth: %.1f%%@."
    (100.0 *. t1.value_correct_rate);
  (match t1.rule_avg_confidence with
  | Some c -> Format.printf "  average rule confidence:             %.1f%%@." (100.0 *. c)
  | None -> ());
  let dominant = Tweetpecker.Analysis.figure10_expected ~accuracy:0.9 in
  Format.printf "  game-tree expectation: correct value %+.2f vs incorrect %+.2f;@."
    (List.assoc "enter correct value" dominant)
    (List.assoc "enter incorrect value" dominant);
  Format.printf "                         good rule %+.2f vs bad rule %+.2f@."
    (List.assoc "enter good rule" dominant)
    (List.assoc "enter bad rule" dominant);
  let t2 = Tweetpecker.Analysis.theorem2 o in
  Format.printf "@.Theorem 2: VRE/I terminates on a finite tweet set@.";
  Format.printf "  run terminated: %b@." t2.terminated;
  Format.printf "  extraction rules entered (finite): %d@." t2.rules_finite;
  match t2.last_rule_entry_progress with
  | Some p ->
      Format.printf "  last rule entered at completion %.2f (workers stop entering rules)@." p
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out                       *)
(* ------------------------------------------------------------------ *)

let run_ablations () =
  section "Ablation 1: seminaive delta evaluation vs naive rescan";
  let small = Tweets.Generator.generate ~seed:3 60 in
  let program =
    Tweetpecker.Programs.program Tweetpecker.Programs.VE ~corpus:small
      ~workers:[ "w1"; "w2"; "w3"; "w4"; "w5" ]
  in
  let drive engine =
    (* Machine-only driver: answer every pending open with a fixed value,
       which exercises the engine's join machinery deterministically. The
       work is judged on the rows scanned and statements examined. *)
    ignore (Cylog.Engine.run engine);
    let rec loop n =
      if n > 50_000 then ()
      else
        match Cylog.Engine.pending engine with
        | [] -> ()
        | o :: _ ->
            ignore
              (Cylog.Engine.supply engine o.id
                 ~worker:(Option.value o.asked ~default:(Reldb.Value.String "w"))
                 (List.map (fun a -> (a, Reldb.Value.String "v")) o.open_attrs));
            ignore (Cylog.Engine.run engine);
            loop (n + 1)
    in
    loop 0;
    let counter = Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) in
    ( Reldb.Database.total_tuples (Cylog.Engine.database engine),
      counter "eval.rows_scanned",
      counter "eval.statements_examined" )
  in
  let n1, rows_delta, stmts_delta =
    drive (Cylog.Engine.load ~strategy:Cylog.Engine.Optimized program)
  in
  let n2, rows_rescan, stmts_rescan =
    drive (Cylog.Engine.load ~strategy:Cylog.Engine.Reference program)
  in
  Format.printf
    "  rows scanned: delta %d, rescan %d   statements examined: delta %d, rescan %d   \
     (same result: %b)@."
    rows_delta rows_rescan stmts_delta stmts_rescan (n1 = n2);

  section "Ablation 2: rational rule budget vs rule quality (VRE/I)";
  let corpus = Tweets.Generator.generate ~seed:11 150 in
  Format.printf "  %-8s %-14s %-12s %-10s@." "budget" "confidence(B)" "support(C)" "#rules";
  List.iter
    (fun budget ->
      let workers =
        Crowd.Worker.crowd (Crowd.Worker.rational ~rule_count:budget) 5
      in
      let o = Tweetpecker.Runner.run ~corpus ~workers Tweetpecker.Programs.VREI in
      Format.printf "  %-8d %-14s %-12s %-10d@." budget
        (match Tweetpecker.Metrics.row_b o with
        | Some b -> Printf.sprintf "%.1f%%" (100.0 *. b)
        | None -> "-")
        (match Tweetpecker.Metrics.row_c o with
        | Some c -> Printf.sprintf "%.2f%%" (100.0 *. c)
        | None -> "-")
        (List.length o.rules_entered))
    [ 1; 2; 4; 8 ];
  Format.printf
    "  (larger budgets force workers down the support-ordered rule list:@.";
  Format.printf
    "   support drops — the rational small-budget strategy is what drives row C)@.";

  section "Ablation 3: worker models (the paper's future-work axis)";
  Format.printf "  %-10s %-28s %-10s@." "workers" "row A (corr/incorr/neither)" "rounds";
  List.iter
    (fun (label, make) ->
      let workers = Crowd.Worker.crowd make 5 in
      let o = Tweetpecker.Runner.run ~corpus ~workers Tweetpecker.Programs.VEI in
      let q = Tweetpecker.Metrics.row_a o in
      Format.printf "  %-10s %5.1f / %4.1f / %4.1f %%        %-10d@." label
        (100.0 *. q.correct) (100.0 *. q.incorrect) (100.0 *. q.neither)
        o.sim.rounds)
    [ ("diligent", fun name -> Crowd.Worker.diligent name);
      ("sloppy", Crowd.Worker.sloppy) ];
  Format.printf
    "  (the incentive structure is fixed; data quality tracks worker accuracy,@.";
  Format.printf
    "   consistent with the paper's note that Theorem 1 does not bind lazy workers)@.";

  section "Ablation 4: agreement vs statistics-based aggregation";
  (* The paper: "CyLog can also be used to implement other techniques for
     improving the quality of task results, such as statistics-based
     ones." Same inputs, three aggregators, mixed-reliability crowd. *)
  let workers =
    Crowd.Worker.crowd Crowd.Worker.diligent 3
    @ [ Crowd.Worker.sloppy "s1"; Crowd.Worker.sloppy "s2" ]
  in
  let o = Tweetpecker.Runner.run ~corpus ~workers Tweetpecker.Programs.VEI in
  let cq = Tweetpecker.Aggregation.compare_methods o in
  Format.printf "  first-agreement (paper's mechanism): %.1f%%@."
    (100.0 *. cq.agreement_accuracy);
  Format.printf "  plurality voting:                    %.1f%%@."
    (100.0 *. cq.majority_accuracy);
  Format.printf "  Dawid-Skene EM (%2d iterations):      %.1f%%@." cq.em_iterations
    (100.0 *. cq.em_accuracy);
  Format.printf "  EM's reliability estimates: %s@."
    (String.concat ", "
       (List.map
          (fun (w, a) -> Printf.sprintf "%s %.2f" w a)
          cq.estimated_worker_accuracy))

