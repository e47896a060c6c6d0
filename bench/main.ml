(* Benchmark & reproduction harness.

   One entry per table/figure of the paper's evaluation: each prints the
   paper-reported values alongside the values this reproduction measures,
   and a Bechamel micro-benchmark times the core computation behind it.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe table1       # one experiment
     dune exec bench/main.exe bench        # only the Bechamel timings *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

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

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_ablations () =
  section "Ablation 1: seminaive delta evaluation vs naive rescan";
  let small = Tweets.Generator.generate ~seed:3 60 in
  let program =
    Tweetpecker.Programs.program Tweetpecker.Programs.VE ~corpus:small
      ~workers:[ "w1"; "w2"; "w3"; "w4"; "w5" ]
  in
  let drive engine =
    (* Machine-only driver: answer every pending open with a fixed value,
       which exercises the engine's join machinery deterministically. *)
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
    Reldb.Database.total_tuples (Cylog.Engine.database engine)
  in
  let n1, t_delta = time (fun () -> drive (Cylog.Engine.load ~use_delta:true program)) in
  let n2, t_rescan = time (fun () -> drive (Cylog.Engine.load ~use_delta:false program)) in
  Format.printf "  delta:  %.2fs   rescan: %.2fs   speedup %.1fx   (same result: %b)@."
    t_delta t_rescan (t_rescan /. t_delta) (n1 = n2);

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

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let bench_corpus = lazy (Tweets.Generator.generate ~seed:3 20)

let small_outcome =
  lazy (Tweetpecker.Runner.run ~corpus:(Lazy.force bench_corpus) Tweetpecker.Programs.VREI)

let micro_tests () =
  let open Bechamel in
  let corpus20 = Lazy.force bench_corpus in
  [ Test.make ~name:"table1/ve-20-tweets"
      (Staged.stage (fun () ->
           Tweetpecker.Runner.run ~corpus:corpus20 Tweetpecker.Programs.VE));
    Test.make ~name:"table1/vrei-20-tweets"
      (Staged.stage (fun () ->
           Tweetpecker.Runner.run ~corpus:corpus20 Tweetpecker.Programs.VREI));
    Test.make ~name:"figure4/pure-nash-5-terms"
      (Staged.stage (fun () ->
           Game.Matrix.pure_nash
             (Game.Matrix.coordination ~players:("A", "B")
                ~values:[ "a"; "b"; "c"; "d"; "e" ] ~reward:1.0)));
    Test.make ~name:"figure6/path-table"
      (Staged.stage (fun () ->
           let o = Lazy.force small_outcome in
           Cylog.Engine.game_instances o.engine "VREI"));
    Test.make ~name:"figure10/expected-payoffs"
      (Staged.stage (fun () -> Tweetpecker.Analysis.figure10_expected ~accuracy:0.9));
    Test.make ~name:"figure11/breakdown"
      (Staged.stage (fun () -> Tweetpecker.Analysis.figure11 (Lazy.force small_outcome)));
    Test.make ~name:"figure12/rule-entry-histogram"
      (Staged.stage (fun () -> Tweetpecker.Analysis.figure12 (Lazy.force small_outcome)));
    Test.make ~name:"figure13/engine-trace"
      (Staged.stage (fun () ->
           let engine = Cylog.Engine.load (Cylog.Parser.parse_exn figure13_src) in
           Cylog.Engine.run engine));
    Test.make ~name:"figure14/precedence-graph"
      (Staged.stage (fun () ->
           Cylog.Precedence.build (Cylog.Parser.parse_exn figure13_src).Cylog.Ast.statements));
    Test.make ~name:"figure16/turing-in-cylog"
      (Staged.stage (fun () -> Turing.Cylog_tm.run Turing.Machine.successor ~input:[ "1"; "1" ]));
    Test.make ~name:"theorems/game-classification"
      (Staged.stage (fun () ->
           Game.Classes.classify
             (Tweetpecker.Programs.program Tweetpecker.Programs.VREI
                ~corpus:(Tweets.Generator.generate ~seed:1 2)
                ~workers:[ "w1" ])));
    (* Substrate micro-benchmarks. *)
    Test.make ~name:"core/parse-ve-program"
      (Staged.stage
         (let src =
            Tweetpecker.Programs.source Tweetpecker.Programs.VE ~corpus:corpus20
              ~workers:[ "w1"; "w2" ]
          in
          fun () -> Cylog.Parser.parse_exn src));
    Test.make ~name:"core/regex-search"
      (Staged.stage
         (let re = Regex.Engine.compile_exn ~case_insensitive:true "rain|snow" in
          fun () -> Regex.Engine.search re "Morning in Sapporo: heavy snowfall. #tenki"));
    Test.make ~name:"core/natural-join-100x100"
      (Staged.stage
         (let mk n key =
            List.init n (fun i ->
                Reldb.Tuple.of_list
                  [ (key, Reldb.Value.Int (i mod 10)); ("v" ^ key, Reldb.Value.Int i) ])
          in
          let left = mk 100 "k" and right = mk 100 "k" in
          fun () -> Reldb.Ops.natural_join left right)) ]

let run_bench () =
  section "Bechamel micro-benchmarks (ns per run, OLS estimate)";
  (* Force shared fixtures outside the measured closures. *)
  ignore (Lazy.force bench_corpus);
  ignore (Lazy.force small_outcome);
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"cylog" (micro_tests ()))
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      Format.printf "  %-40s %14.0f ns/run   (r2 %.3f)@." name estimate r2)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Shared: telemetry snapshot embedded in every BENCH_*.json           *)
(* ------------------------------------------------------------------ *)

(* Each BENCH record carries the telemetry counters behind its headline
   numbers — plan-cache traffic, journal appends/fsyncs, delta-evaluation
   rounds — so a regression in the measured seconds can be traced to the
   mechanism without re-running under a sink. *)
let telemetry_snapshot_prefixes = [ "planner."; "journal."; "eval." ]

let telemetry_snapshot m =
  let keep k =
    List.exists
      (fun p ->
        String.length k >= String.length p
        && String.equal (String.sub k 0 (String.length p)) p)
      telemetry_snapshot_prefixes
  in
  let rows =
    List.sort compare
      (List.filter (fun (k, _) -> keep k) (Cylog.Telemetry.Metrics.counters m))
  in
  Printf.sprintf "{ %s }"
    (String.concat ", "
       (List.map
          (fun (k, v) ->
            Printf.sprintf "\"%s\": %d" (Cylog.Telemetry.json_escape k) v)
          rows))

(* The run's static budget certificate rides next to the telemetry in the
   artifact: a bound regression (a relation going unbounded, a task bound
   jumping) shows up in the JSON diff like a counter regression does. *)
let certificate_snapshot engine =
  match Cylog.Engine.certificate engine with
  | Some c -> Cylog.Analysis.certificate_json c
  | None -> "null"

(* ------------------------------------------------------------------ *)
(* Joins: cost-based planning + compound-key indexes, scaling study    *)
(* ------------------------------------------------------------------ *)

(* A chain join written in the worst order for left-to-right evaluation:
   the selective atom comes last. The planner flips it around; naive
   evaluation pays for the original order — in particular the seminaive
   discovery for a new [Edge2] row rescans the whole unbound [Edge1]
   prefix, because left-to-right order evaluates [Edge1] before the
   pinned row binds anything. Data at scale [s]: Edge1/Edge2 are chains
   of [40*s] rows joined on [y]; Target selects [2*s] of the [40*s]
   chain endpoints. Rows arrive one link per engine round — the
   incremental regime every crowd-driven program runs in — so naive
   evaluation is quadratic in the chain length while planned evaluation
   stays linear. *)
let joins_src =
  {|schema:
  Edge1(x, y);
  Edge2(y, z);
  Target(z);
  Out(x, z);

rules:
  J: Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z);
|}

type joins_run = {
  j_seconds : float;
  j_rows_scanned : int;
  j_steps : int;
  j_cache_hits : int;
  j_cache_misses : int;
  j_telemetry : string;
  j_certificate : string;
  j_out : Reldb.Tuple.t list;
  j_trace : (int * string option * (string * Reldb.Value.t) list * bool) list;
}

let joins_run ?(metrics = true) ~scale ~use_planner () =
  let n = 40 * scale and t = 2 * scale in
  let engine = Cylog.Engine.load ~use_planner (Cylog.Parser.parse_exn joins_src) in
  if not metrics then
    Cylog.Telemetry.Metrics.set_enabled (Cylog.Engine.metrics engine) false;
  let db = Cylog.Engine.database engine in
  let ins name fields =
    ignore
      (Reldb.Relation.insert
         (Reldb.Database.find_exn db name)
         (Reldb.Tuple.of_list (List.map (fun (a, v) -> (a, Reldb.Value.Int v)) fields)))
  in
  for i = 0 to t - 1 do
    ins "Target" [ ("z", (20 * i) + 3) ]
  done;
  Cylog.Eval.reset_rows_scanned ();
  let j_steps, j_seconds =
    time (fun () ->
        let steps = ref (fst (Cylog.Engine.run engine)) in
        for i = 0 to n - 1 do
          ins "Edge1" [ ("x", i); ("y", i) ];
          ins "Edge2" [ ("y", i); ("z", i) ];
          steps := !steps + fst (Cylog.Engine.run engine)
        done;
        !steps)
  in
  let j_rows_scanned = Cylog.Eval.rows_scanned () in
  let counter = Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) in
  let j_cache_hits =
    counter "planner.rescan_cache.hits" + counter "planner.delta_cache.hits"
  in
  let j_cache_misses =
    counter "planner.rescan_cache.misses" + counter "planner.delta_cache.misses"
  in
  let j_out =
    List.sort compare (Reldb.Relation.tuples (Reldb.Database.find_exn db "Out"))
  in
  let j_trace =
    List.map
      (fun (e : Cylog.Engine.event) -> (e.statement, e.label, e.valuation, e.fired))
      (Cylog.Engine.events engine)
  in
  let j_telemetry = telemetry_snapshot (Cylog.Engine.metrics engine) in
  let j_certificate = certificate_snapshot engine in
  { j_seconds; j_rows_scanned; j_steps; j_cache_hits; j_cache_misses; j_telemetry;
    j_certificate; j_out; j_trace }

type joins_row = { scale : int; naive : joins_run; planned : joins_run }

let joins_row scale =
  { scale;
    naive = joins_run ~scale ~use_planner:false ();
    planned = joins_run ~scale ~use_planner:true () }

let joins_identical r =
  r.naive.j_out = r.planned.j_out && r.naive.j_trace = r.planned.j_trace

let pp_joins_row r =
  let speedup = r.naive.j_seconds /. Float.max 1e-9 r.planned.j_seconds in
  Format.printf
    "  %4dx  naive: %8.3fs %10d rows   planned: %8.3fs %10d rows   speedup %6.1fx  identical: %b@."
    r.scale r.naive.j_seconds r.naive.j_rows_scanned r.planned.j_seconds
    r.planned.j_rows_scanned speedup (joins_identical r);
  Format.printf
    "         plan cache  naive: %d hits / %d misses   planned: %d hits / %d misses@."
    r.naive.j_cache_hits r.naive.j_cache_misses r.planned.j_cache_hits
    r.planned.j_cache_misses

let joins_json rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmark\": \"joins\",\n";
  Buffer.add_string buf
    "  \"body\": \"Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z)\",\n";
  Buffer.add_string buf "  \"scales\": [\n";
  List.iteri
    (fun i r ->
      let run label (m : joins_run) =
        Printf.sprintf
          "      \"%s\": { \"seconds\": %.6f, \"rows_scanned\": %d, \"steps\": %d, \
           \"plan_cache_hits\": %d, \"plan_cache_misses\": %d, \"telemetry\": %s, \
           \"certificate\": %s }"
          label m.j_seconds m.j_rows_scanned m.j_steps m.j_cache_hits m.j_cache_misses
          m.j_telemetry m.j_certificate
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\n\
           \      \"scale\": %d, \"edge_rows\": %d, \"target_rows\": %d,\n\
            %s,\n\
            %s,\n\
           \      \"speedup_wall\": %.2f, \"speedup_rows_scanned\": %.2f,\n\
           \      \"identical_results\": %b\n\
           \    }%s\n"
           r.scale (40 * r.scale) (2 * r.scale) (run "naive" r.naive)
           (run "planned" r.planned)
           (r.naive.j_seconds /. Float.max 1e-9 r.planned.j_seconds)
           (float_of_int r.naive.j_rows_scanned
           /. Float.max 1.0 (float_of_int r.planned.j_rows_scanned))
           (joins_identical r)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run_joins () =
  section "Joins: cost-based planning vs left-to-right evaluation";
  Format.printf "  body: Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z)@.";
  let rows = List.map joins_row [ 10; 100 ] in
  List.iter pp_joins_row rows;
  let out = open_out "BENCH_joins.json" in
  output_string out (joins_json rows);
  close_out out;
  Format.printf "  wrote BENCH_joins.json@."

let run_joins_smoke () =
  (* Tiny-scale planner regression gate, wired into [dune runtest] via the
     [bench-smoke] alias: identical results and no more scanned rows than
     the reference strategy, judged on the deterministic row counter
     rather than wall time. *)
  section "Joins smoke: planner differential at tiny scale";
  let r = joins_row 1 in
  pp_joins_row r;
  let ok_same = joins_identical r in
  let ok_rows = r.planned.j_rows_scanned <= r.naive.j_rows_scanned in
  if not ok_same then
    Format.printf "  FAIL: planned evaluation diverged from naive order@.";
  if not ok_rows then
    Format.printf "  FAIL: planned evaluation scanned more rows than naive@.";
  if not (ok_same && ok_rows) then exit 1;
  Format.printf "  ok: identical results, %d <= %d rows scanned@."
    r.planned.j_rows_scanned r.naive.j_rows_scanned

(* ------------------------------------------------------------------ *)
(* Incremental: per-supply latency under semi-naive vs naive           *)
(* ------------------------------------------------------------------ *)

(* The headline claim of differential evaluation: after preloading a
   large static relation, the cost of absorbing ONE new fact should
   depend on the fact's consequences, not on the database size. The
   campaign preloads [Log] with N rows, opens S labelling tasks, then
   supplies the answers one at a time, measuring each supply+fixpoint
   individually on the deterministic rows-scanned counter (and wall
   time, for the JSON record).

   Under semi-naive evaluation the new [Label] row is the pinned delta
   atom and the planner turns [Log] into an index probe: per-supply work
   is O(1) in N. The naive reference (rescan, left-to-right) re-reads
   [Log] end to end on every step: per-supply work is O(N), so doubling
   the preload doubles the latency.

   With [~facts:true] the preload is written as [Log] fact statements
   ahead of the rules, the way TweetPecker and the fleet carry their base
   data, instead of rows inserted through the database. Each supply then
   also meets the question of which statements a step examines: the
   rescan reference walks every fact statement on every step, the
   optimised strategy only the statements whose body relations changed. *)
let incremental_src ~log_facts =
  let buf = Buffer.create (64 + (log_facts * 24)) in
  Buffer.add_string buf "schema:\n  Log(id, msg);\n  Task(id);\n\nrules:\n";
  for i = 0 to log_facts - 1 do
    Buffer.add_string buf (Printf.sprintf "  Log(id:%d, msg:%d);\n" i i)
  done;
  Buffer.add_string buf
    "  Q: Label(id, v)/open <- Task(id);\n\
    \  J: Out(id, msg, v) <- Log(id, msg), Label(id, v);\n";
  Buffer.contents buf

type inc_run = {
  i_preload : int;
  i_supplies : int;
  i_load_seconds : float;
  i_supply_seconds : float;  (** total across all supplies *)
  i_supply_rows : int;  (** total rows scanned across all supplies *)
  i_supply_examined : int;  (** total statements examined across all supplies *)
  i_rows_first : int;
  i_rows_last : int;
  i_out : int;
  i_telemetry : string;
  i_certificate : string;
}

let incremental_run ?(facts = false) ~preload ~supplies ~semi () =
  let program =
    Cylog.Parser.parse_exn (incremental_src ~log_facts:(if facts then preload else 0))
  in
  let engine =
    if semi then Cylog.Engine.load ~use_delta:true program
    else Cylog.Engine.load ~use_delta:false ~use_planner:false program
  in
  let db = Cylog.Engine.database engine in
  let ins name fields =
    ignore
      (Reldb.Relation.insert
         (Reldb.Database.find_exn db name)
         (Reldb.Tuple.of_list (List.map (fun (a, v) -> (a, Reldb.Value.Int v)) fields)))
  in
  if not facts then
    for i = 0 to preload - 1 do
      ins "Log" [ ("id", i); ("msg", i) ]
    done;
  for i = 0 to supplies - 1 do
    ins "Task" [ ("id", i) ]
  done;
  let _, i_load_seconds = time (fun () -> Cylog.Engine.run engine) in
  let pending = Cylog.Engine.pending engine in
  let total_rows = ref 0 and total_seconds = ref 0.0 and total_examined = ref 0 in
  let rows_first = ref 0 and rows_last = ref 0 in
  let examined () =
    Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) "eval.statements_examined"
  in
  List.iteri
    (fun i (o : Cylog.Engine.open_tuple) ->
      Cylog.Eval.reset_rows_scanned ();
      let examined0 = examined () in
      let _, seconds =
        time (fun () ->
            (match
               Cylog.Engine.supply engine o.id ~worker:(Reldb.Value.String "w")
                 [ ("v", Reldb.Value.Int i) ]
             with
            | Ok _ -> ()
            | Error e -> failwith (Cylog.Engine.reject_to_string e));
            Cylog.Engine.run engine)
      in
      let rows = Cylog.Eval.rows_scanned () in
      total_rows := !total_rows + rows;
      total_examined := !total_examined + (examined () - examined0);
      total_seconds := !total_seconds +. seconds;
      if i = 0 then rows_first := rows;
      rows_last := rows)
    pending;
  {
    i_preload = preload;
    i_supplies = List.length pending;
    i_load_seconds;
    i_supply_seconds = !total_seconds;
    i_supply_rows = !total_rows;
    i_supply_examined = !total_examined;
    i_rows_first = !rows_first;
    i_rows_last = !rows_last;
    i_out =
      (match Reldb.Database.find db "Out" with
      | Some rel -> Reldb.Relation.cardinal rel
      | None -> 0);
    i_telemetry = telemetry_snapshot (Cylog.Engine.metrics engine);
    i_certificate = certificate_snapshot engine;
  }

let inc_mean_rows r = float_of_int r.i_supply_rows /. float_of_int (max 1 r.i_supplies)
let inc_mean_seconds r = r.i_supply_seconds /. float_of_int (max 1 r.i_supplies)
let inc_mean_examined r = float_of_int r.i_supply_examined /. float_of_int (max 1 r.i_supplies)

type inc_row = { i_scale : int; i_facts : bool; i_semi : inc_run; i_naive : inc_run }

let inc_row ?(facts = false) ~supplies preload =
  { i_scale = preload;
    i_facts = facts;
    i_semi = incremental_run ~facts ~preload ~supplies ~semi:true ();
    i_naive = incremental_run ~facts ~preload ~supplies ~semi:false () }

let pp_inc_row r =
  Format.printf
    "  %s %7d   semi: %8.1f rows/supply %6.1f stmts/supply (%.6fs)   naive: %10.1f \
     rows/supply %8.1f stmts/supply (%.6fs)   advantage %8.1fx   same Out: %b@."
    (if r.i_facts then "facts  " else "preload") r.i_scale (inc_mean_rows r.i_semi)
    (inc_mean_examined r.i_semi) (inc_mean_seconds r.i_semi) (inc_mean_rows r.i_naive)
    (inc_mean_examined r.i_naive) (inc_mean_seconds r.i_naive)
    (inc_mean_rows r.i_naive /. Float.max 1.0 (inc_mean_rows r.i_semi))
    (r.i_semi.i_out = r.i_naive.i_out)

(* Growth of a per-supply mean (rows scanned unless [per_supply] says
   otherwise) as the preload scales from the first row to the last: the
   flat-latency verdict. *)
let inc_ratio ?(per_supply = inc_mean_rows) pick rows =
  match (rows, List.rev rows) with
  | small :: _, big :: _ -> per_supply (pick big) /. Float.max 1.0 (per_supply (pick small))
  | _ -> nan

let incremental_json ~supplies rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmark\": \"incremental\",\n";
  Buffer.add_string buf
    "  \"body\": \"Out(id, msg, v) <- Log(id, msg), Label(id, v)\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"supplies\": %d,\n  \"preloads\": [\n" supplies);
  List.iteri
    (fun i r ->
      let run label (m : inc_run) =
        Printf.sprintf
          "      \"%s\": { \"load_seconds\": %.6f, \"supply_seconds_total\": %.6f, \
           \"supply_rows_total\": %d, \"rows_per_supply_mean\": %.2f, \
           \"seconds_per_supply_mean\": %.8f, \"rows_first_supply\": %d, \
           \"rows_last_supply\": %d, \"out_rows\": %d, \"telemetry\": %s, \
           \"certificate\": %s }"
          label m.i_load_seconds m.i_supply_seconds m.i_supply_rows (inc_mean_rows m)
          (inc_mean_seconds m) m.i_rows_first m.i_rows_last m.i_out m.i_telemetry
          m.i_certificate
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\n\
           \      \"preload\": %d,\n\
            %s,\n\
            %s,\n\
           \      \"naive_vs_semi_rows\": %.2f,\n\
           \      \"identical_results\": %b\n\
           \    }%s\n"
           r.i_scale
           (run "semi_naive" r.i_semi)
           (run "naive" r.i_naive)
           (inc_mean_rows r.i_naive /. Float.max 1.0 (inc_mean_rows r.i_semi))
           (r.i_semi.i_out = r.i_naive.i_out)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"semi_naive_growth_across_preloads\": %.3f,\n\
       \  \"naive_growth_across_preloads\": %.3f,\n\
       \  \"flat_gate\": { \"semi_naive_max_growth\": 1.5, \"passed\": %b }\n"
       (inc_ratio (fun r -> r.i_semi) rows)
       (inc_ratio (fun r -> r.i_naive) rows)
       (inc_ratio (fun r -> r.i_semi) rows <= 1.5));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let inc_check rows =
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  List.iter
    (fun r ->
      check
        (Printf.sprintf "results diverge at preload %d" r.i_scale)
        (r.i_semi.i_out = r.i_naive.i_out && r.i_semi.i_out > 0))
    rows;
  check "semi-naive per-supply work grew with the preload (not flat)"
    (inc_ratio (fun r -> r.i_semi) rows <= 1.5);
  check "naive per-supply work did not grow with the preload (no contrast)"
    (inc_ratio (fun r -> r.i_naive) rows >= 2.0);
  List.rev !failures

(* The same verdict on statements examined, for a preload of fact
   statements. *)
let inc_check_examined rows =
  let examined pick = inc_ratio ~per_supply:inc_mean_examined pick rows in
  List.filter_map
    (fun (what, ok) -> if ok then None else Some what)
    [ ( "semi-naive statements examined per supply grew with the fact preload (not flat)",
        examined (fun r -> r.i_semi) <= 1.5 );
      ( "rescan statements examined per supply did not grow with the fact preload \
         (no contrast)",
        examined (fun r -> r.i_naive) >= 2.0 ) ]

let run_incremental () =
  section "Incremental: per-supply cost after a bulk preload (semi-naive vs naive)";
  Format.printf "  body: Out(id, msg, v) <- Log(id, msg), Label(id, v)@.";
  let supplies = 1_000 in
  let rows = List.map (inc_row ~supplies) [ 10_000; 100_000 ] in
  List.iter pp_inc_row rows;
  Format.printf
    "  growth of rows/supply across preloads: semi-naive %.2fx, naive %.2fx@."
    (inc_ratio (fun r -> r.i_semi) rows)
    (inc_ratio (fun r -> r.i_naive) rows);
  let out = open_out "BENCH_incremental.json" in
  output_string out (incremental_json ~supplies rows);
  close_out out;
  Format.printf "  wrote BENCH_incremental.json@.";
  List.iter (fun what -> Format.printf "  NOTE: %s@." what) (inc_check rows)

let run_incremental_smoke () =
  (* Scaled-down flat-latency gate, wired into [dune runtest] via the
     [incremental-smoke] alias and judged on deterministic counters:
     per-supply work must stay flat (<= 1.5x) for semi-naive while the
     naive reference at least doubles across a 5x preload. The preload
     runs twice: as rows inserted through the database, judged on rows
     scanned, and as fact statements in the program text, judged on rows
     scanned and on statements examined. *)
  section "Incremental smoke: flat per-supply latency at small scale";
  let rows = List.map (inc_row ~supplies:50) [ 1_000; 5_000 ] in
  let fact_rows = List.map (inc_row ~facts:true ~supplies:50) [ 1_000; 5_000 ] in
  List.iter pp_inc_row (rows @ fact_rows);
  match inc_check rows @ inc_check fact_rows @ inc_check_examined fact_rows with
  | [] ->
      Format.printf
        "  ok: semi-naive flat (%.2fx growth), naive degrades (%.2fx growth)@."
        (inc_ratio (fun r -> r.i_semi) rows)
        (inc_ratio (fun r -> r.i_naive) rows);
      Format.printf
        "  ok: fact preload: semi-naive examines a flat number of statements (%.2fx \
         growth), rescan degrades (%.2fx growth)@."
        (inc_ratio ~per_supply:inc_mean_examined (fun r -> r.i_semi) fact_rows)
        (inc_ratio ~per_supply:inc_mean_examined (fun r -> r.i_naive) fact_rows)
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Quality: adaptive quorum vs fixed redundancy                        *)
(* ------------------------------------------------------------------ *)

(* A labelling campaign with planted ground truth and undesignated opens
   (so the quorum runtime applies): N items, each awaiting one label from
   a crowd of four diligent and one sloppy worker driven by the quality
   router. The same seeded campaign runs under Fixed k=2, Fixed k=3 and
   the Adaptive policy; the claim under test is that Adaptive matches or
   beats Fixed k=3 on accuracy while consuming fewer answers, because it
   stops early once the reliability-weighted posterior clears tau and
   only escalates on genuinely contested items. *)

let quality_labels = [| "cat"; "dog"; "bird" |]
let quality_truth_of id = quality_labels.(id mod Array.length quality_labels)

let quality_src n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "rules:\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  Item(id:%d);\n" i)
  done;
  Buffer.add_string buf "  Q: LabelOf(id, label)/open <- Item(id);\n";
  Buffer.contents buf

type quality_run = {
  q_label : string;
  q_items : int;
  q_resolved : int;
  q_correct : int;
  q_answers : int;  (** accepted answers — the campaign's paid question count *)
  q_early_stopped : int;
  q_escalated : int;
  q_rounds : int;
  q_reliability : (string * float * int) list;
  q_telemetry : string;
  q_certificate : string;
}

let quality_campaign ~label ~seed ~items ?quorum ?policy () =
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn (quality_src items)) in
  let workers =
    Crowd.Worker.crowd Crowd.Worker.diligent 4 @ [ Crowd.Worker.sloppy "s1" ]
  in
  let sim_workers =
    List.map
      (fun (w : Crowd.Worker.profile) -> (Reldb.Value.String w.name, w))
      workers
  in
  let truth (o : Cylog.Engine.open_tuple) =
    let id =
      match Reldb.Tuple.get_or_null o.bound "id" with
      | Reldb.Value.Int i -> i
      | _ -> 0
    in
    [ ("label", Reldb.Value.String (quality_truth_of id)) ]
  in
  let outcome =
    Crowd.Simulator.run_routed ~seed ?quorum ?policy ~truth ~workers:sim_workers
      engine
  in
  let labelled =
    match Reldb.Database.find (Cylog.Engine.database engine) "LabelOf" with
    | None -> []
    | Some rel -> Reldb.Relation.tuples rel
  in
  let resolved, correct =
    List.fold_left
      (fun (r, c) t ->
        match
          (Reldb.Tuple.get_or_null t "id", Reldb.Tuple.get_or_null t "label")
        with
        | Reldb.Value.Int id, Reldb.Value.String l ->
            (r + 1, if String.equal l (quality_truth_of id) then c + 1 else c)
        | _ -> (r, c))
      (0, 0) labelled
  in
  let counter = Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) in
  {
    q_label = label;
    q_items = items;
    q_resolved = resolved;
    q_correct = correct;
    q_answers = counter "answers.accepted";
    q_early_stopped = counter "quorum.early_stopped";
    q_escalated = counter "quorum.escalated";
    q_rounds = outcome.rounds;
    q_reliability = Cylog.Engine.reliability_table engine;
    q_telemetry = telemetry_snapshot (Cylog.Engine.metrics engine);
    q_certificate = certificate_snapshot engine;
  }

let quality_policy =
  Cylog.Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 5 }

let quality_runs ~seed ~items =
  [ quality_campaign ~label:"fixed-k2" ~seed ~items ~quorum:2 ();
    quality_campaign ~label:"fixed-k3" ~seed ~items ~quorum:3 ();
    quality_campaign ~label:"adaptive" ~seed ~items ~policy:quality_policy () ]

let quality_accuracy r =
  float_of_int r.q_correct /. float_of_int (max 1 r.q_items)

let pp_quality_run r =
  Format.printf
    "  %-10s resolved %d/%d   accuracy %5.1f%%   answers %4d   early-stop %d   \
     escalated %d   rounds %d@."
    r.q_label r.q_resolved r.q_items
    (100.0 *. quality_accuracy r)
    r.q_answers r.q_early_stopped r.q_escalated r.q_rounds

let quality_json ~seed runs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmark\": \"quality\",\n";
  Buffer.add_string buf
    "  \"crowd\": \"4 diligent + 1 sloppy, router-driven assignment\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf
    "  \"adaptive\": { \"tau\": 0.9, \"min_votes\": 2, \"max_votes\": 5 },\n";
  Buffer.add_string buf "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"policy\": \"%s\", \"items\": %d, \"resolved\": %d, \
            \"correct\": %d, \"accuracy\": %.4f, \"answers\": %d, \
            \"early_stopped\": %d, \"escalated\": %d, \"rounds\": %d,\n\
           \      \"reliability\": { %s },\n\
           \      \"telemetry\": %s,\n\
           \      \"certificate\": %s }%s\n"
           r.q_label r.q_items r.q_resolved r.q_correct (quality_accuracy r)
           r.q_answers r.q_early_stopped r.q_escalated r.q_rounds
           (String.concat ", "
              (List.map
                 (fun (w, rel, n) ->
                   Printf.sprintf "\"%s\": { \"mean\": %.4f, \"observations\": %d }"
                     w rel n)
                 r.q_reliability))
           r.q_telemetry r.q_certificate
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let quality_check runs =
  let find l = List.find (fun r -> r.q_label = l) runs in
  let fixed3 = find "fixed-k3" and adaptive = find "adaptive" in
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  check "adaptive left tasks unresolved" (adaptive.q_resolved = adaptive.q_items);
  check "adaptive accuracy below fixed k=3"
    (quality_accuracy adaptive >= quality_accuracy fixed3);
  check "adaptive consumed no fewer answers than fixed k=3"
    (adaptive.q_answers < fixed3.q_answers);
  check "adaptive never early-stopped" (adaptive.q_early_stopped > 0);
  List.rev !failures

let run_quality () =
  section "Quality: adaptive early stopping vs fixed redundancy";
  let seed = 7 and items = 60 in
  let runs = quality_runs ~seed ~items in
  List.iter pp_quality_run runs;
  let out = open_out "BENCH_quality.json" in
  output_string out (quality_json ~seed runs);
  close_out out;
  Format.printf "  wrote BENCH_quality.json@.";
  List.iter (fun what -> Format.printf "  NOTE: %s@." what) (quality_check runs)

let run_quality_smoke () =
  (* The adaptive-beats-fixed gate, wired into [dune runtest] via the
     [quality-smoke] alias: the same seeded campaign as [run_quality],
     judged on deterministic counters. *)
  section "Quality smoke: adaptive vs fixed k=3 on the seeded campaign";
  let runs = quality_runs ~seed:7 ~items:60 in
  List.iter pp_quality_run runs;
  match quality_check runs with
  | [] -> Format.printf "  ok: all tasks resolved, accuracy >= fixed k=3, fewer answers@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Durability: WAL append throughput and O(live-state) recovery        *)
(* ------------------------------------------------------------------ *)

(* Two measurements back docs/DURABILITY.md's claims: (a) the price of
   the fsync policy — append throughput under Always / Every_n / Never,
   on real files so Always pays real fsyncs; (b) recovery cost against
   journal length with and without compaction — compaction folds the
   resolved state into a snapshot segment, so the records replayed at
   recovery (the deterministic proxy for restore cost) stay bounded by
   [compact_every] instead of growing with the campaign. *)

let dur_dir = "BENCH_journal.dir"

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> Cylog.Storage.Posix.delete (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let dur_policy_name = function
  | Cylog.Journal.Always -> "always"
  | Cylog.Journal.Every_n n -> Printf.sprintf "every-%d" n
  | Cylog.Journal.Never -> "never"

type dur_policy_run = {
  d_policy : string;
  d_appends : int;
  d_fsyncs : int;
  d_rotations : int;
  d_seconds : float;
}

let dur_throughput ?sim ~count fsync =
  let storage = Option.map Cylog.Storage.Sim.storage sim in
  if sim = None then rm_rf dur_dir;
  let config =
    { Cylog.Journal.default_config with fsync; segment_bytes = 1 lsl 16 }
  in
  let payload = String.make 128 'x' in
  let j = Cylog.Journal.create ~config ?storage ~genesis:"bench" dur_dir in
  let (), d_seconds =
    time (fun () ->
        for _ = 1 to count do
          Cylog.Journal.append j payload
        done;
        Cylog.Journal.close j)
  in
  let st = Cylog.Journal.stats j in
  if sim = None then rm_rf dur_dir;
  {
    d_policy = dur_policy_name fsync;
    d_appends = st.Cylog.Journal.appends;
    d_fsyncs = st.Cylog.Journal.fsyncs;
    d_rotations = st.Cylog.Journal.rotations;
    d_seconds;
  }

type dur_recovery_run = {
  r_tasks : int;
  r_compacted : bool;
  r_records_replayed : int;
  r_base_segment : int;
  r_segments_scanned : int;
  r_write_seconds : float;
  r_recover_seconds : float;
  r_identical : bool;
  r_telemetry : string;
  r_certificate : string;
}

(* A labelling campaign of [tasks] journaled supplies: bulk state goes in
   before the journal starts (the genesis snapshot carries it), then each
   answer is one durable WAL entry. Recovery is measured cold. *)
let dur_src = "schema:\n  Task(id);\nrules:\n  Q: LabelOf(id, v)/open <- Task(id);\n"

let dur_campaign ?sim ~tasks ~compact () =
  let storage = Option.map Cylog.Storage.Sim.storage sim in
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn dur_src) in
  let db = Cylog.Engine.database engine in
  for i = 0 to tasks - 1 do
    ignore
      (Reldb.Relation.insert
         (Reldb.Database.find_exn db "Task")
         (Reldb.Tuple.of_list [ ("id", Reldb.Value.Int i) ]))
  done;
  ignore (Cylog.Engine.run engine);
  let config =
    { Cylog.Journal.default_config with
      segment_bytes = 1 lsl 15;
      compact_every = (if compact then Some 64 else None) }
  in
  if sim = None then rm_rf dur_dir;
  Cylog.Engine.journal_start ~config ?storage engine dur_dir;
  let (), r_write_seconds =
    time (fun () ->
        List.iter
          (fun (o : Cylog.Engine.open_tuple) ->
            (match
               Cylog.Engine.supply engine o.id ~worker:(Reldb.Value.String "w")
                 [ ("v", Reldb.Value.Int (o.id mod 3)) ]
             with
            | Ok _ -> ()
            | Error e -> failwith (Cylog.Engine.reject_to_string e));
            ignore (Cylog.Engine.run engine))
          (Cylog.Engine.pending engine);
        Option.iter Cylog.Journal.close (Cylog.Engine.durable_journal engine))
  in
  let (recovered, stats), r_recover_seconds =
    time (fun () -> Cylog.Engine.recover ~config ?storage dur_dir)
  in
  let r_identical =
    Cylog.Engine.journal_dump recovered = Cylog.Engine.journal_dump engine
  in
  if sim = None then rm_rf dur_dir;
  {
    r_tasks = tasks;
    r_compacted = compact;
    r_records_replayed = stats.Cylog.Engine.records_replayed;
    r_base_segment = stats.Cylog.Engine.base_segment;
    r_segments_scanned = stats.Cylog.Engine.segments_scanned;
    r_write_seconds;
    r_recover_seconds;
    r_identical;
    r_telemetry = telemetry_snapshot (Cylog.Engine.metrics engine);
    r_certificate = certificate_snapshot engine;
  }

let pp_dur_policy_run r =
  Format.printf
    "  %-10s %6d appends in %8.4fs  (%10.0f appends/s)   %6d fsyncs   %d rotations@."
    r.d_policy r.d_appends r.d_seconds
    (float_of_int r.d_appends /. Float.max 1e-9 r.d_seconds)
    r.d_fsyncs r.d_rotations

let pp_dur_recovery_run r =
  Format.printf
    "  %5d tasks  %-14s  write %8.4fs   recover %8.4fs   %5d records replayed   \
     base seg %d / %d scanned   identical: %b@."
    r.r_tasks
    (if r.r_compacted then "compacted" else "no-compaction")
    r.r_write_seconds r.r_recover_seconds r.r_records_replayed r.r_base_segment
    r.r_segments_scanned r.r_identical

let durability_json policies recoveries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmark\": \"durability\",\n";
  Buffer.add_string buf "  \"payload_bytes\": 128,\n  \"fsync_policies\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"policy\": \"%s\", \"appends\": %d, \"fsyncs\": %d, \
            \"rotations\": %d, \"seconds\": %.6f, \"appends_per_sec\": %.0f }%s\n"
           r.d_policy r.d_appends r.d_fsyncs r.d_rotations r.d_seconds
           (float_of_int r.d_appends /. Float.max 1e-9 r.d_seconds)
           (if i = List.length policies - 1 then "" else ",")))
    policies;
  Buffer.add_string buf "  ],\n  \"recovery\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"tasks\": %d, \"compacted\": %b, \"records_replayed\": %d, \
            \"base_segment\": %d, \"segments_scanned\": %d, \
            \"write_seconds\": %.6f, \"recover_seconds\": %.6f, \
            \"identical_results\": %b, \"telemetry\": %s, \"certificate\": %s }%s\n"
           r.r_tasks r.r_compacted r.r_records_replayed r.r_base_segment
           r.r_segments_scanned r.r_write_seconds r.r_recover_seconds r.r_identical
           r.r_telemetry r.r_certificate
           (if i = List.length recoveries - 1 then "" else ",")))
    recoveries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* The deterministic gates: fsync counts must order with the policies,
   recovery must be exact, and compaction must bound the replay length
   (the O(live-state) restore claim, judged on records replayed). *)
let dur_check policies recoveries =
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  let fsyncs name =
    (List.find (fun r -> r.d_policy = name) policies).d_fsyncs
  in
  check "fsync counts do not order always > every-8 > never"
    (fsyncs "always" > fsyncs "every-8" && fsyncs "every-8" > fsyncs "never");
  List.iter
    (fun r ->
      check
        (Printf.sprintf "recovery diverged (%d tasks, compacted %b)" r.r_tasks
           r.r_compacted)
        r.r_identical)
    recoveries;
  List.iter
    (fun r ->
      match
        List.find_opt
          (fun c -> c.r_compacted && c.r_tasks = r.r_tasks)
          recoveries
      with
      | Some c ->
          check
            (Printf.sprintf
               "compaction did not bound the replay at %d tasks (%d vs %d records)"
               r.r_tasks c.r_records_replayed r.r_records_replayed)
            (2 * c.r_records_replayed < r.r_records_replayed);
          check
            (Printf.sprintf "compaction never advanced the base at %d tasks" r.r_tasks)
            (c.r_base_segment > 0)
      | None -> ())
    (List.filter (fun r -> not r.r_compacted) recoveries);
  List.rev !failures

let run_durability () =
  section "Durability: WAL append throughput per fsync policy (POSIX files)";
  let policies =
    List.map
      (dur_throughput ~count:1500)
      [ Cylog.Journal.Always; Cylog.Journal.Every_n 8; Cylog.Journal.Never ]
  in
  List.iter pp_dur_policy_run policies;
  section "Durability: recovery cost vs journal length (compaction = O(live state))";
  let recoveries =
    List.concat_map
      (fun tasks ->
        [ dur_campaign ~tasks ~compact:false (); dur_campaign ~tasks ~compact:true () ])
      [ 300; 1200 ]
  in
  List.iter pp_dur_recovery_run recoveries;
  let out = open_out "BENCH_durability.json" in
  output_string out (durability_json policies recoveries);
  close_out out;
  Format.printf "  wrote BENCH_durability.json@.";
  List.iter (fun what -> Format.printf "  NOTE: %s@." what) (dur_check policies recoveries)

let run_durability_smoke () =
  (* Scaled-down durability gate, wired into [dune runtest] via the
     [durability-smoke] alias. In-memory storage keeps it fast and
     deterministic: the gates judge fsync counters and records replayed,
     not wall time. *)
  section "Durability smoke: fsync policy counters and compacted recovery";
  let policies =
    List.map
      (fun p -> dur_throughput ~sim:(Cylog.Storage.Sim.create ()) ~count:300 p)
      [ Cylog.Journal.Always; Cylog.Journal.Every_n 8; Cylog.Journal.Never ]
  in
  List.iter pp_dur_policy_run policies;
  let recoveries =
    List.concat_map
      (fun compact ->
        [ dur_campaign ~sim:(Cylog.Storage.Sim.create ()) ~tasks:150 ~compact () ])
      [ false; true ]
  in
  List.iter pp_dur_recovery_run recoveries;
  match dur_check policies recoveries with
  | [] ->
      Format.printf
        "  ok: fsync counters order with the policies, recovery exact, compaction \
         bounds the replay@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Monitor: campaign observability — latencies, series, watchdogs      *)
(* ------------------------------------------------------------------ *)

(* A faulted adaptive labelling campaign under the campaign monitor:
   [items] undesignated tasks, five workers wrapped in the drop fault
   profile, lease runtime on, adaptive quorum, one monitor sample per
   round. The budget-capped variant arms [max_budget] and must stop via
   the journaled [Alert_fired] within one round of the crossing; the
   journaled variant (Sim storage) is recovered afterwards and the
   monitor recounted from the recovered event log. *)

let monitor_policy engine ~worker:_ ~rng ~round:_ =
  match Cylog.Engine.pending engine with
  | [] -> Crowd.Simulator.Pass
  | pending ->
      let o = List.nth pending (Random.State.int rng (List.length pending)) in
      let label = [| "cat"; "dog"; "bird" |].(Random.State.int rng 3) in
      Crowd.Simulator.Answer
        ( o.Cylog.Engine.id,
          [ ("label", Reldb.Value.String label) ],
          Crowd.Simulator.Enter_value )

let monitor_campaign ?budget ?store ?(monitored = true) ~seed ~items () =
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn (quality_src items)) in
  (match store with
  | Some s ->
      Cylog.Engine.journal_start
        ~storage:(Cylog.Storage.Sim.storage s)
        engine "journal"
  | None -> ());
  let config = { Cylog.Monitor.default_config with max_budget = budget } in
  let workers =
    List.map
      (fun w -> (Reldb.Value.String w, monitor_policy))
      [ "w1"; "w2"; "w3"; "w4"; "w5" ]
  in
  let workers =
    Crowd.Faults.inject ~seed (List.assoc "drop" Crowd.Faults.profiles) workers
  in
  let outcome =
    Crowd.Simulator.run ~seed ~max_rounds:400 ~lease:Cylog.Lease.default_config
      ~policy:quality_policy
      ?monitor:(if monitored then Some config else None)
      ~stop:(fun e ->
        Cylog.Engine.pending e = [] && Cylog.Engine.run e |> snd = `Quiescent)
      ~workers engine
  in
  (engine, config, outcome)

let stop_name = function
  | `Stopped -> "stopped"
  | `Stalled -> "stalled"
  | `Max_rounds -> "max-rounds"
  | `Alert _ -> "alert"

let monitor_e2e mon p =
  match List.assoc_opt "lifecycle.end_to_end" (Cylog.Monitor.histograms mon) with
  | Some h -> Cylog.Telemetry.Metrics.quantile h p
  | None -> 0.0

let budget_firings mon =
  List.filter
    (fun (f : Cylog.Monitor.firing) ->
      match f.alert with Cylog.Event.Budget_exceeded _ -> true | _ -> false)
    (Cylog.Monitor.firings mon)

(* First series round whose spent exceeds the budget — the watchdog must
   have fired on that very sample (it checks before the point is pushed),
   so the campaign stops within one round of the crossing. *)
let budget_crossing mon budget =
  List.find_map
    (fun (p : Cylog.Monitor.point) ->
      if p.p_spent > budget then Some p.p_round else None)
    (Cylog.Monitor.points mon)

type monitor_checks = {
  c_fired_once : bool;
  c_stopped_via_alert : bool;
  c_within_one_round : bool;
  c_recount : bool;
  c_recovered : bool;
}

let monitor_budget_run ~seed ~items ~budget =
  let store = Cylog.Storage.Sim.create () in
  let engine, config, outcome = monitor_campaign ~budget ~store ~seed ~items () in
  Option.iter Cylog.Journal.close (Cylog.Engine.durable_journal engine);
  let mon = Option.get (Cylog.Engine.monitor engine) in
  let live = Cylog.Monitor.view mon in
  let recount =
    Cylog.Monitor.view (Cylog.Monitor.of_events config (Cylog.Engine.events engine))
  in
  let recovered, _ =
    Cylog.Engine.recover ~storage:(Cylog.Storage.Sim.storage store) "journal"
  in
  let recovered_view =
    match Cylog.Engine.monitor recovered with
    | Some m -> Some (Cylog.Monitor.view m)
    | None -> None
  in
  let firings = budget_firings mon in
  let checks =
    {
      c_fired_once = List.length firings = 1;
      c_stopped_via_alert =
        (match outcome.stop_reason with `Alert _ -> true | _ -> false);
      c_within_one_round =
        (match (firings, budget_crossing mon budget) with
        | [ f ], Some crossing -> f.at_round <= crossing + 1
        | _ -> false);
      c_recount = recount = live;
      c_recovered = recovered_view = Some live;
    }
  in
  (engine, mon, outcome, checks)

let monitor_check_failures c =
  List.filter_map
    (fun (what, ok) -> if ok then None else Some what)
    [ ("budget alert did not fire exactly once", c.c_fired_once);
      ("campaign did not stop via the alert", c.c_stopped_via_alert);
      ("alert fired more than one round after the budget crossing",
       c.c_within_one_round);
      ("event-log recount disagrees with the live monitor", c.c_recount);
      ("recovered monitor disagrees with the live monitor", c.c_recovered) ]

let monitor_json_report ~seed ~items ~budget (engine, mon, outcome)
    (engine_b, mon_b, outcome_b, checks) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"benchmark\": \"monitor\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d, \"items\": %d,\n" seed items);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"campaign\": {\n\
       \    \"rounds\": %d, \"stop\": \"%s\",\n\
       \    \"e2e_p50\": %.2f, \"e2e_p95\": %.2f, \"e2e_p99\": %.2f,\n\
       \    \"monitor\": %s,\n\
       \    \"telemetry\": %s,\n\
       \    \"certificate\": %s\n\
       \  },\n"
       outcome.Crowd.Simulator.rounds
       (stop_name outcome.Crowd.Simulator.stop_reason)
       (monitor_e2e mon 0.5) (monitor_e2e mon 0.95) (monitor_e2e mon 0.99)
       (Cylog.Monitor.to_json mon)
       (telemetry_snapshot (Cylog.Engine.metrics engine))
       (certificate_snapshot engine));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"budget_capped\": {\n\
       \    \"budget\": %d, \"rounds\": %d, \"stop\": \"%s\",\n\
       \    \"crossing_round\": %d, \"alert_round\": %d,\n\
       \    \"alert_fired_once\": %b, \"stopped_via_alert\": %b, \
        \"stopped_within_one_round\": %b,\n\
       \    \"recount_agrees\": %b, \"recovered_agrees\": %b,\n\
       \    \"monitor\": %s,\n\
       \    \"telemetry\": %s,\n\
       \    \"certificate\": %s\n\
       \  }\n}\n"
       budget outcome_b.Crowd.Simulator.rounds
       (stop_name outcome_b.Crowd.Simulator.stop_reason)
       (Option.value (budget_crossing mon_b budget) ~default:(-1))
       (match budget_firings mon_b with
       | f :: _ -> f.at_round
       | [] -> -1)
       checks.c_fired_once checks.c_stopped_via_alert checks.c_within_one_round
       checks.c_recount checks.c_recovered
       (Cylog.Monitor.to_json mon_b)
       (telemetry_snapshot (Cylog.Engine.metrics engine_b))
       (certificate_snapshot engine_b));
  Buffer.contents buf

let pp_monitor_run label mon (outcome : Crowd.Simulator.outcome) =
  Format.printf
    "  %-14s %3d rounds (%s)   %3d samples   spent %4d   answers %4d   \
     e2e p50/p95/p99 %.1f/%.1f/%.1f   alerts %d@."
    label outcome.rounds (stop_name outcome.stop_reason)
    (Cylog.Monitor.samples mon) (Cylog.Monitor.spent mon)
    (Cylog.Monitor.answers mon) (monitor_e2e mon 0.5) (monitor_e2e mon 0.95)
    (monitor_e2e mon 0.99)
    (List.length (Cylog.Monitor.firings mon))

let run_monitor () =
  section "Monitor: faulted adaptive campaign — latencies, series, watchdogs";
  let seed = 7 and items = 40 in
  let budget = 60 in
  let engine, _, outcome = monitor_campaign ~seed ~items () in
  let mon = Option.get (Cylog.Engine.monitor engine) in
  pp_monitor_run "free-running" mon outcome;
  let ((_, mon_b, outcome_b, checks) as capped) =
    monitor_budget_run ~seed ~items ~budget
  in
  pp_monitor_run "budget-capped" mon_b outcome_b;
  (match budget_firings mon_b with
  | f :: _ ->
      Format.printf "  budget %d crossed at round %d, alert at round %d (%s)@."
        budget
        (Option.value (budget_crossing mon_b budget) ~default:(-1))
        f.at_round
        (Cylog.Event.alert_to_string f.alert)
  | [] -> Format.printf "  budget %d never crossed@." budget);
  let out = open_out "BENCH_monitor.json" in
  output_string out (monitor_json_report ~seed ~items ~budget (engine, mon, outcome) capped);
  close_out out;
  Format.printf "  wrote BENCH_monitor.json@.";
  List.iter
    (fun what -> Format.printf "  NOTE: %s@." what)
    (monitor_check_failures checks)

(* ------------------------------------------------------------------ *)
(* Telemetry: JSON-output smoke test and null-sink overhead gate       *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON well-formedness checker, enough for the dialect
   Telemetry emits (objects, arrays, strings with escapes, ints/floats,
   booleans, null). Validates the whole input is one JSON value. *)
exception Bad_json

let json_parses s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then s.[!i] else raise Bad_json in
  let adv () = incr i in
  let skip_ws () =
    while !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      adv ()
    done
  in
  let expect c = if peek () <> c then raise Bad_json else adv () in
  let keyword k = String.iter (fun c -> if peek () <> c then raise Bad_json else adv ()) k in
  let pstring () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> adv ()
      | '\\' -> adv (); ignore (peek ()); adv (); go ()
      | _ -> adv (); go ()
    in
    go ()
  in
  let digits () =
    let saw = ref false in
    while !i < n && (match s.[!i] with '0' .. '9' -> true | _ -> false) do
      saw := true;
      adv ()
    done;
    if not !saw then raise Bad_json
  in
  let number () =
    if peek () = '-' then adv ();
    digits ();
    if !i < n && s.[!i] = '.' then (adv (); digits ());
    if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
      adv ();
      if !i < n && (s.[!i] = '+' || s.[!i] = '-') then adv ();
      digits ()
    end
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | '{' ->
        adv ();
        skip_ws ();
        if peek () = '}' then adv ()
        else
          let rec members () =
            skip_ws (); pstring (); skip_ws (); expect ':'; value (); skip_ws ();
            if peek () = ',' then (adv (); members ()) else expect '}'
          in
          members ()
    | '[' ->
        adv ();
        skip_ws ();
        if peek () = ']' then adv ()
        else
          let rec elements () =
            value (); skip_ws ();
            if peek () = ',' then (adv (); elements ()) else expect ']'
          in
          elements ()
    | '"' -> pstring ()
    | 't' -> keyword "true"
    | 'f' -> keyword "false"
    | 'n' -> keyword "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> raise Bad_json);
    skip_ws ()
  in
  try
    value ();
    !i = n
  with Bad_json -> false

(* The counters any campaign with tasks, leases and a quorum must have
   produced — the smoke contract for --metrics-out consumers. *)
let mandatory_metric_keys =
  [ "engine.events"; "engine.fired"; "open.created"; "answers.accepted";
    "lease.granted"; "quorum.votes"; "db.inserted" ]

let run_telemetry_smoke () =
  section "Telemetry smoke: faulted quorum campaign under the JSON sink";
  let src =
    {|rules:
  Item(id:1); Item(id:2); Item(id:3); Item(id:4);
  Q: LabelOf(id, label)/open <- Item(id);
|}
  in
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn src) in
  let spans = ref [] in
  Cylog.Engine.set_sink engine
    (Cylog.Telemetry.Sink.fn (fun s -> spans := s :: !spans));
  let policy engine ~worker:_ ~rng ~round:_ =
    match Cylog.Engine.pending engine with
    | [] -> Crowd.Simulator.Pass
    | pending ->
        let o = List.nth pending (Random.State.int rng (List.length pending)) in
        let label = [| "cat"; "dog" |].(Random.State.int rng 2) in
        Crowd.Simulator.Answer
          ( o.Cylog.Engine.id,
            [ ("label", Reldb.Value.String label) ],
            Crowd.Simulator.Enter_value )
  in
  let workers =
    List.map (fun w -> (Reldb.Value.String w, policy)) [ "w1"; "w2"; "w3"; "w4" ]
  in
  let workers = Crowd.Faults.inject ~seed:5 (List.assoc "drop" Crowd.Faults.profiles) workers in
  let outcome =
    Crowd.Simulator.run ~seed:5 ~max_rounds:200 ~lease:Cylog.Lease.default_config
      ~quorum:2
      ~stop:(fun e -> Cylog.Engine.pending e = [] && Cylog.Engine.run e |> snd = `Quiescent)
      ~workers engine
  in
  Format.printf "  campaign: %d rounds, %d events, %d spans@." outcome.rounds
    (Cylog.Engine.event_count engine)
    (List.length !spans);
  let failures = ref 0 in
  let check what ok =
    if not ok then begin
      incr failures;
      Format.printf "  FAIL: %s@." what
    end
  in
  let metrics_json = Cylog.Telemetry.Metrics.to_json (Cylog.Engine.metrics engine) in
  check "metrics JSON does not parse" (json_parses metrics_json);
  check "no spans were emitted" (!spans <> []);
  List.iter
    (fun s -> check "span JSON line does not parse" (json_parses (Cylog.Telemetry.span_to_json s)))
    !spans;
  List.iter
    (fun key ->
      check
        (Printf.sprintf "mandatory metric %s missing" key)
        (Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) key > 0))
    mandatory_metric_keys;
  (* The derivability invariant, end to end: recounting the journal must
     reproduce every journal-derived counter of the live registry. *)
  let recount = Cylog.Engine.metrics_of_events (Cylog.Engine.events engine) in
  let derived m =
    List.filter
      (fun (k, _) -> Cylog.Engine.journal_derived k)
      (Cylog.Telemetry.Metrics.counters m)
  in
  check "journal recount disagrees with live registry"
    (derived recount = derived (Cylog.Engine.metrics engine));
  if !failures > 0 then exit 1;
  Format.printf "  ok: JSON parses, %d mandatory keys present, journal recount agrees@."
    (List.length mandatory_metric_keys)

let run_telemetry_overhead () =
  section "Telemetry overhead: joins with the metrics registry on vs off (null sink)";
  (* Wall-clock assertions flake; take best-of-3 and accept either the
     2%% relative bound or a small absolute floor at this tiny scale. *)
  let best f =
    List.fold_left
      (fun acc _ -> Float.min acc (f ()).j_seconds)
      Float.infinity [ (); (); () ]
  in
  ignore (joins_run ~scale:10 ~use_planner:true ()) (* warm-up *);
  let on = best (fun () -> joins_run ~scale:10 ~use_planner:true ()) in
  let off = best (fun () -> joins_run ~metrics:false ~scale:10 ~use_planner:true ()) in
  let delta = on -. off in
  let pct = 100.0 *. delta /. Float.max 1e-9 off in
  Format.printf "  metrics on: %.4fs   off: %.4fs   delta %+.4fs (%+.1f%%)@." on off
    delta pct;
  if delta > 0.05 && pct > 2.0 then begin
    Format.printf "  FAIL: instrumentation overhead above 2%% (and 0.05s)@.";
    exit 1
  end;
  Format.printf "  ok: overhead within tolerance (<=2%% or <=0.05s)@.";
  (* Monitor sampling rides the same budget: the identical seeded faulted
     campaign with and without the monitor installed, null sink. *)
  let best_campaign monitored =
    List.fold_left
      (fun acc () ->
        let _, seconds =
          time (fun () -> monitor_campaign ~monitored ~seed:7 ~items:20 ())
        in
        Float.min acc seconds)
      Float.infinity [ (); (); () ]
  in
  ignore (monitor_campaign ~seed:7 ~items:20 ()) (* warm-up *);
  let m_on = best_campaign true in
  let m_off = best_campaign false in
  let m_delta = m_on -. m_off in
  let m_pct = 100.0 *. m_delta /. Float.max 1e-9 m_off in
  Format.printf "  monitor on: %.4fs   off: %.4fs   delta %+.4fs (%+.1f%%)@." m_on
    m_off m_delta m_pct;
  if m_delta > 0.05 && m_pct > 2.0 then begin
    Format.printf "  FAIL: monitor sampling overhead above 2%% (and 0.05s)@.";
    exit 1
  end;
  Format.printf "  ok: monitor sampling within tolerance (<=2%% or <=0.05s)@."

(* The monitor regression gate, wired into [dune runtest] via the
   [monitor-smoke] alias: the budget-capped faulted campaign must fire
   the budget alert exactly once, stop via the journaled alert within
   one round of the crossing, produce parseable JSON, and recount
   byte-identically from the event log — live, and after journal
   recovery. *)
let run_monitor_smoke () =
  section "Monitor smoke: budget watchdog on the seeded faulted campaign";
  let (_, mon, outcome, checks) = monitor_budget_run ~seed:7 ~items:30 ~budget:30 in
  pp_monitor_run "budget-capped" mon outcome;
  let failures = monitor_check_failures checks in
  let failures =
    if json_parses (Cylog.Monitor.to_json mon) then failures
    else failures @ [ "monitor JSON does not parse" ]
  in
  let jsonl_ok =
    List.for_all json_parses
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' (Cylog.Monitor.to_jsonl mon)))
  in
  let failures =
    if jsonl_ok then failures
    else failures @ [ "a monitor JSONL line does not parse" ]
  in
  match failures with
  | [] ->
      Format.printf
        "  ok: alert fired once, campaign stopped on it, JSON parses, recount \
         and recovery agree@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Serve: the sharded multi-campaign server                            *)
(* ------------------------------------------------------------------ *)

(* One fleet run: generated labeling campaigns partitioned over [shards]
   engine shards, driven to completion by the simulated crowd through the
   server's task-queue API. Ops are the requests the shards actually
   pumped (leases, answers, reclaims, samples); latency percentiles are
   exact order statistics over the per-request service times. *)
type serve_run = {
  sv_shards : int;
  sv_campaigns : int;
  sv_items : int;
  sv_workers : int;
  sv_journaled : bool;
  sv_ops : int;
  sv_elapsed : float;
  sv_ops_per_s : float;
  sv_p50_ns : float;
  sv_p95_ns : float;
  sv_p99_ns : float;
  sv_answers : int;
  sv_resolved : int;
  sv_stopped : bool;
}

let serve_run ?journal ~shards ~campaigns ~items ~workers () =
  let server =
    match journal with
    | None -> Server.create ~shards ()
    | Some config ->
        (* fault-free in-memory storage per shard: the journal write path
           runs in full (CRC, rotation, compaction) without disk noise *)
        let sims = Array.init shards (fun _ -> Cylog.Storage.Sim.create ()) in
        Server.create ~journal_root:"serve-journal" ~journal_config:config
          ~storage:(fun i -> Cylog.Storage.Sim.storage sims.(i))
          ~shards ()
  in
  let config =
    {
      Crowd.Fleet_sim.default_config with
      campaigns;
      items;
      workers;
      max_rounds = 2000;
    }
  in
  Crowd.Fleet_sim.open_campaigns server config;
  let t0 = Unix.gettimeofday () in
  let o = Crowd.Fleet_sim.run ~config server in
  let elapsed = Unix.gettimeofday () -. t0 in
  let view = Server.stats server in
  let ops = view.Server.Fleet.requests in
  {
    sv_shards = shards;
    sv_campaigns = campaigns;
    sv_items = items;
    sv_workers = workers;
    sv_journaled = journal <> None;
    sv_ops = ops;
    sv_elapsed = elapsed;
    sv_ops_per_s = (if elapsed > 0. then float_of_int ops /. elapsed else 0.);
    sv_p50_ns = view.Server.Fleet.p50_ns;
    sv_p95_ns = view.Server.Fleet.p95_ns;
    sv_p99_ns = view.Server.Fleet.p99_ns;
    sv_answers = o.answers;
    sv_resolved = o.resolved;
    sv_stopped = o.stop_reason = `Done;
  }

let pp_serve_run r =
  Format.printf
    "  %d shard(s)%s: %d ops in %.3fs = %9.0f ops/s   p50 %.0fns p95 %.0fns \
     p99 %.0fns   (%d answers, %d resolved)@."
    r.sv_shards
    (if r.sv_journaled then " journaled" else "")
    r.sv_ops r.sv_elapsed r.sv_ops_per_s r.sv_p50_ns r.sv_p95_ns r.sv_p99_ns
    r.sv_answers r.sv_resolved

let serve_json runs =
  let run_json r =
    Printf.sprintf
      {|    { "shards": %d, "campaigns": %d, "items": %d, "workers": %d, "journaled": %b,
      "ops": %d, "elapsed_s": %.6f, "ops_per_s": %.0f,
      "latency_ns": { "p50": %.0f, "p95": %.0f, "p99": %.0f },
      "answers": %d, "resolved": %d, "completed": %b }|}
      r.sv_shards r.sv_campaigns r.sv_items r.sv_workers r.sv_journaled r.sv_ops
      r.sv_elapsed r.sv_ops_per_s r.sv_p50_ns r.sv_p95_ns r.sv_p99_ns
      r.sv_answers r.sv_resolved r.sv_stopped
  in
  Printf.sprintf "{\n  \"serve\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map run_json runs))

(* Regression gates for both the full bench and the smoke: every run
   completes with the exact quorum arithmetic (items × campaigns tasks,
   ×3 votes), and the 8-shard fleet sustains the target throughput. *)
let serve_check runs =
  let failures = ref [] in
  let note fmt = Format.kasprintf (fun s -> failures := !failures @ [ s ]) fmt in
  List.iter
    (fun r ->
      let tasks = r.sv_campaigns * r.sv_items in
      if not r.sv_stopped then
        note "%d-shard run did not complete its campaigns" r.sv_shards;
      if r.sv_resolved <> tasks then
        note "%d-shard run resolved %d tasks, expected %d" r.sv_shards
          r.sv_resolved tasks;
      if r.sv_answers <> tasks * 3 then
        note "%d-shard run accepted %d answers, expected %d" r.sv_shards
          r.sv_answers (tasks * 3))
    runs;
  (match
     List.find_opt (fun r -> r.sv_shards >= 8 && not r.sv_journaled) runs
   with
  | Some r when r.sv_ops_per_s < 1e4 ->
      note "8-shard fleet at %.0f ops/s, below the 10^4 floor" r.sv_ops_per_s
  | _ -> ());
  !failures

let run_serve () =
  section "Serve: fleet throughput vs shard count (in-memory engines)";
  let scaling =
    List.map
      (fun shards ->
        serve_run ~shards ~campaigns:4 ~items:120 ~workers:24 ())
      [ 1; 2; 4; 8 ]
  in
  List.iter pp_serve_run scaling;
  section "Serve: durable fleet (segmented WAL per slot, batched fsync)";
  let durable =
    serve_run
      ~journal:
        {
          Cylog.Journal.default_config with
          fsync = Cylog.Journal.Every_n 8;
          compact_every = Some 256;
        }
      ~shards:8 ~campaigns:4 ~items:120 ~workers:24 ()
  in
  pp_serve_run durable;
  let runs = scaling @ [ durable ] in
  let out = open_out "BENCH_serve.json" in
  output_string out (serve_json runs);
  close_out out;
  Format.printf "  wrote BENCH_serve.json@.";
  List.iter (fun what -> Format.printf "  NOTE: %s@." what) (serve_check runs)

(* A campaign of [rows] x 100 label tasks from [rows] + 100 facts: the
   cross product keeps set-up cheap, since lint and analysis walk facts
   while the history grows with the tasks. *)
let history_source ~rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "schema:\n  Row(r);\n  Col(c);\n  LabelOf(r, c, label);\nrules:\n";
  for r = 0 to rows - 1 do
    Buffer.add_string buf (Printf.sprintf "  Row(r:%d);\n" r)
  done;
  for c = 0 to 99 do
    Buffer.add_string buf (Printf.sprintf "  Col(c:%d);\n" c)
  done;
  Buffer.add_string buf "  Q: LabelOf(r, c, label)/open <- Row(r), Col(c);\n";
  Buffer.contents buf

(* A 1-shard server whose one slot has been driven to [tasks] resolved
   tasks, with a poll cursor already at the end of its history. *)
let history_slot ~tasks =
  let campaign = "history" in
  let server = Server.create ~shards:1 () in
  Server.open_campaign server ~name:campaign
    (Cylog.Parser.parse_exn (history_source ~rows:(tasks / 100)));
  let cursor = Server.poll_cursor server ~campaign in
  (match Server.Shard.engine (Server.shard server 0) ~campaign with
  | None -> ()
  | Some e ->
      List.iter
        (fun (ot : Cylog.Engine.open_tuple) ->
          ignore
            (Server.supply server ~campaign { Server.shard = 0; local = ot.id }
               ~worker:(Reldb.Value.String "w1")
               [ ("label", Reldb.Value.String "x") ]))
        (Cylog.Engine.pending e));
  let resolved = List.length (Server.resolve_poll server ~campaign cursor) in
  (server, campaign, cursor, resolved)

(* The history-length gate: polls that find no new events, pending counts
   and leases on the drained campaign must cost about the same on a slot
   with 10^4 resolved tasks as on one with 10^3. Each figure is the best of
   5 trials; the two slots take turns, so a slow phase of the host hits
   both. Returns the failures. *)
let serve_history_gate () =
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let slots = List.map (fun tasks -> (tasks, history_slot ~tasks)) [ 1_000; 10_000 ] in
  List.iter
    (fun (tasks, (server, _, _, resolved)) ->
      let pending = Server.pending_total server in
      if resolved <> tasks || pending <> 0 then
        fail "history slot: %d of %d tasks resolved, %d pending" resolved tasks pending)
    slots;
  let requests =
    [ ( "10^4 resolve_poll",
        10_000,
        fun (server, campaign, cursor, _) ->
          ignore (Server.resolve_poll server ~campaign cursor) );
      ("10^3 pending_total", 1_000, fun (server, _, _, _) -> ignore (Server.pending_total server));
      ( "10^3 lease",
        1_000,
        fun (server, campaign, _, _) ->
          ignore (Server.lease server ~campaign ~worker:(Reldb.Value.String "w1") ~now:0) ) ]
  in
  List.iter
    (fun (what, calls, request) ->
      let best = Array.make (List.length slots) infinity in
      for _ = 1 to 5 do
        List.iteri
          (fun i (_, slot) ->
            let (), dt =
              time (fun () ->
                  for _ = 1 to calls do
                    request slot
                  done)
            in
            best.(i) <- min best.(i) dt)
          slots
      done;
      let ratio = best.(1) /. best.(0) in
      Format.printf "  %s: %.2f ms at 10^3 resolved tasks, %.2f ms at 10^4 (%.2fx)@." what
        (best.(0) *. 1e3) (best.(1) *. 1e3) ratio;
      if ratio > 2.0 then
        fail "%s: %.2fx slower at 10^4 resolved tasks than at 10^3 (gate 2x)" what ratio)
    requests;
  !failures

(* The serve regression gate, wired into [dune runtest] via the
   [serve-smoke] alias: a small fixed-seed fleet on in-memory storage
   must route every partitioned fact to its hash-owned shard, finish the
   campaigns with exact quorum arithmetic, merge a sane fleet monitor,
   and recover every shard's slot from its compacted journal to a
   byte-identical trace with O(live state) replay. A history-length gate
   then holds polls, pending counts and leases to the live state. *)
let run_serve_smoke () =
  section "Serve smoke: routing, merged monitor and recovery on a seeded fleet";
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let shards = 3 in
  let sims = Array.init shards (fun _ -> Cylog.Storage.Sim.create ()) in
  let server =
    Server.create ~journal_root:"serve-journal"
      ~journal_config:
        {
          Cylog.Journal.default_config with
          fsync = Cylog.Journal.Every_n 4;
          compact_every = Some 64;
        }
      ~storage:(fun i -> Cylog.Storage.Sim.storage sims.(i))
      ~shards ()
  in
  let config =
    { Crowd.Fleet_sim.default_config with campaigns = 2; items = 10; workers = 6 }
  in
  Crowd.Fleet_sim.open_campaigns server config;
  (* every Item fact must sit exactly on the shard its key hashes to *)
  let items_seen = ref 0 in
  for k = 0 to config.campaigns - 1 do
    let campaign = Crowd.Fleet_sim.campaign_name k in
    for s = 0 to shards - 1 do
      match Server.Shard.engine (Server.shard server s) ~campaign with
      | None -> fail "shard %d has no engine for %s" s campaign
      | Some e -> (
          match Reldb.Database.find (Cylog.Engine.database e) "Item" with
          | None -> ()
          | Some rel ->
              List.iter
                (fun tuple ->
                  match Reldb.Tuple.get tuple "id" with
                  | Some (Reldb.Value.Int _ as id) ->
                      incr items_seen;
                      let expect =
                        Server.Router.shard_of_values ~shards [ id ]
                      in
                      if expect <> s then
                        fail "item %s of %s landed on shard %d, hash owns %d"
                          (Reldb.Value.to_display id) campaign s expect
                  | _ -> ())
                (Reldb.Relation.tuples rel))
    done
  done;
  if !items_seen <> config.campaigns * config.items then
    fail "%d items across the fleet, expected %d (split lost or duplicated facts)"
      !items_seen
      (config.campaigns * config.items);
  let o = Crowd.Fleet_sim.run ~config server in
  let tasks = config.campaigns * config.items in
  if o.stop_reason <> `Done then fail "fleet run did not complete";
  if o.resolved <> tasks then fail "resolved %d tasks, expected %d" o.resolved tasks;
  if o.answers <> tasks * config.quorum then
    fail "accepted %d answers, expected %d" o.answers (tasks * config.quorum);
  let view = Server.stats server in
  if view.Server.Fleet.pending <> 0 then
    fail "%d tasks still pending after completion" view.Server.Fleet.pending;
  (match view.Server.Fleet.monitor with
  | None -> fail "no merged fleet monitor"
  | Some m ->
      if m.Server.Fleet.f_answers <> o.answers then
        fail "merged monitor counts %d answers, loop saw %d"
          m.Server.Fleet.f_answers o.answers;
      if m.Server.Fleet.f_retired <> tasks then
        fail "merged monitor retired %d tasks, expected %d"
          m.Server.Fleet.f_retired tasks;
      if m.Server.Fleet.f_pending <> 0 then
        fail "merged monitor reports %d pending" m.Server.Fleet.f_pending);
  if not (json_parses (Server.Fleet.to_json view)) then
    fail "fleet JSON does not parse";
  (* recovery round-trip per shard: compact, recover, compare traces —
     the replay after the snapshot must be O(live state), i.e. ~nothing
     for a finished campaign *)
  let campaign = Crowd.Fleet_sim.campaign_name 0 in
  for s = 0 to shards - 1 do
    match Server.Shard.engine (Server.shard server s) ~campaign with
    | None -> fail "shard %d lost campaign %s" s campaign
    | Some e -> (
        let before = Cylog.Engine.journal_dump e in
        Cylog.Engine.compact_journal e;
        let stats = Server.recover_shard server s ~campaign () in
        match Server.Shard.engine (Server.shard server s) ~campaign with
        | None -> fail "shard %d lost campaign %s after recovery" s campaign
        | Some e' ->
            if Cylog.Engine.journal_dump e' <> before then
              fail "shard %d: recovered trace differs from the live one" s;
            if stats.Cylog.Engine.records_replayed > 2 then
              fail
                "shard %d: %d records replayed after compaction (live state \
                 only should remain)"
                s stats.Cylog.Engine.records_replayed)
  done;
  List.iter (fun what -> fail "%s" what) (serve_history_gate ());
  match !failures with
  | [] ->
      Format.printf
        "  ok: facts routed by hash, campaigns completed, fleet view merged, \
         every shard recovered byte-identically, request cost independent of \
         history@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Set-up scaling: lint and the budget certificate stay linear         *)
(* ------------------------------------------------------------------ *)

(* Every fact is a statement, so a TweetPecker program over n tweets has
   about n statements. The gate, wired into [dune runtest] via the
   [setup-smoke] alias: the words [Lint.check] and [Analysis.analyze]
   allocate (a count that repeats exactly) may grow at most 2.5x per
   doubling of the corpus — linear growth is 2x, quadratic 4x. Sizes run
   in ascending order and the first failing doubling stops the gate, so
   a quadratic regression costs seconds, not minutes and gigabytes. Times
   are the best of 5 and are printed, not gated. *)
let setup_sizes = [ 1_000; 2_000; 4_000; 8_000 ]
let setup_growth_gate = 2.5

let setup_program tweets =
  let variant = Tweetpecker.Programs.VREI in
  Tweetpecker.Programs.program variant
    ~corpus:(Tweets.Generator.generate ~seed:7 tweets)
    ~workers:
      (List.map
         (fun (w : Crowd.Worker.profile) -> w.name)
         (Tweetpecker.Runner.default_workers variant))

(* Minor-heap words allocated by one call, and its best time of 5. *)
let setup_measure f =
  let w0 = Gc.minor_words () in
  ignore (f ());
  let words = Gc.minor_words () -. w0 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let _, dt = time f in
    best := min !best dt
  done;
  (words, !best)

let run_setup_smoke () =
  section "Setup smoke: lint and certificate allocation per doubling (VRE/I)";
  Format.printf "  %7s %10s %14s %9s %14s %9s@." "tweets" "statements" "lint words"
    "lint ms" "cert words" "cert ms";
  let rec go prev = function
    | [] -> []
    | tweets :: rest ->
        let program = setup_program tweets in
        let lint_w, lint_s = setup_measure (fun () -> Cylog.Lint.check program) in
        let cert_w, cert_s = setup_measure (fun () -> Cylog.Analysis.analyze program) in
        Format.printf "  %7d %10d %14.0f %9.1f %14.0f %9.1f@." tweets
          (List.length program.Cylog.Ast.statements)
          lint_w (lint_s *. 1e3) cert_w (cert_s *. 1e3);
        let failures =
          match prev with
          | None -> []
          | Some (prev_tweets, prev_lint, prev_cert) ->
              List.filter_map
                (fun (what, now, before) ->
                  let growth = now /. before in
                  Format.printf "    %s words grew %.2fx from %d to %d tweets@." what growth
                    prev_tweets tweets;
                  if growth > setup_growth_gate then
                    Some
                      (Printf.sprintf "%s words grew %.2fx from %d to %d tweets (gate %.1fx)"
                         what growth prev_tweets tweets setup_growth_gate)
                  else None)
                [ ("Lint.check", lint_w, prev_lint); ("Analysis.analyze", cert_w, prev_cert) ]
        in
        if failures <> [] then failures else go (Some (tweets, lint_w, cert_w)) rest
  in
  match go None setup_sizes with
  | [] -> Format.printf "  setup smoke: OK@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", run_table1); ("figure4", run_figure4); ("figure6", run_figure6);
    ("figure10", run_figure10); ("figure11", run_figure11); ("figure12", run_figure12);
    ("figure13", run_figure13); ("figure14", run_figure14); ("figure16", run_figure16);
    ("theorems", run_theorems); ("ablations", run_ablations);
    ("joins", run_joins); ("joins-smoke", run_joins_smoke);
    ("incremental", run_incremental); ("incremental-smoke", run_incremental_smoke);
    ("quality", run_quality); ("quality-smoke", run_quality_smoke);
    ("telemetry-smoke", run_telemetry_smoke);
    ("telemetry-overhead", run_telemetry_overhead);
    ("durability", run_durability); ("durability-smoke", run_durability_smoke);
    ("monitor", run_monitor); ("monitor-smoke", run_monitor_smoke);
    ("serve", run_serve); ("serve-smoke", run_serve_smoke);
    ("setup-smoke", run_setup_smoke);
    ("bench", run_bench) ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    match requested with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> Some (n, f)
            | None ->
                Format.printf "unknown experiment %S (available: %s)@." n
                  (String.concat ", " (List.map fst experiments));
                None)
          names
  in
  List.iter (fun (_, f) -> f ()) to_run
