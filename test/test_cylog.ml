(* Tests for the CyLog language: lexer, parser, pretty-printer, evaluation,
   the engine (open predicates, conflict resolution, update/delete, game
   aspects) and the formal semantics operator. *)

open Cylog

let v_int i = Reldb.Value.Int i
let v_str s = Reldb.Value.String s

(* --- Lexer ------------------------------------------------------------- *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "Tweet(tw) <- T(x:1), p1 != p2; // comment" in
  let kinds = List.map (fun { Lexer.token; _ } -> token) toks in
  Alcotest.(check bool) "shape" true
    (kinds
    = [ Lexer.UIDENT "Tweet"; Lexer.LPAREN; Lexer.IDENT "tw"; Lexer.RPAREN;
        Lexer.ARROW; Lexer.UIDENT "T"; Lexer.LPAREN; Lexer.IDENT "x";
        Lexer.COLON; Lexer.INT 1; Lexer.RPAREN; Lexer.COMMA; Lexer.IDENT "p1";
        Lexer.NEQ; Lexer.IDENT "p2"; Lexer.SEMI; Lexer.EOF ])

let test_lexer_dotted_label () =
  match Lexer.tokenize "VE2.1:" with
  | [ { Lexer.token = Lexer.UIDENT "VE2.1"; _ }; { Lexer.token = Lexer.COLON; _ };
      { Lexer.token = Lexer.EOF; _ } ] ->
      ()
  | _ -> Alcotest.fail "dotted label should lex as one name"

let test_lexer_bang_shorthand () =
  (* The paper writes p1!p2 for inequality. *)
  let toks = Lexer.tokenize "p1!p2" in
  Alcotest.(check int) "three tokens + eof" 4 (List.length toks);
  match toks with
  | _ :: { Lexer.token = Lexer.NEQ; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected NEQ"

let test_lexer_comments_and_strings () =
  let toks = Lexer.tokenize "/* block \n comment */ R(x:\"a\\\"b\\n\")" in
  match toks with
  | { Lexer.token = Lexer.UIDENT "R"; _ } :: _ :: _ :: _
    :: { Lexer.token = Lexer.STRING s; _ } :: _ ->
      Alcotest.(check string) "escapes" "a\"b\n" s
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try ignore (Lexer.tokenize "R(x) @ y"); false with Lexer.Error _ -> true);
  Alcotest.(check bool) "unterminated string" true
    (try ignore (Lexer.tokenize "R(x:\"abc)"); false with Lexer.Error _ -> true)

(* --- Parser ------------------------------------------------------------ *)

let test_parse_figure3 () =
  let p =
    Parser.parse_exn
      {|
      rules:
        Pre1: TweetOriginal(tw:"It rains in London", loc:"London");
        Pre2: ValidCity(cname:"London");
        Pre3: Tweet(tw) <- TweetOriginal(tw, loc), ValidCity(cname:loc);
        Pre4: Worker(pid:1, name:"Shun");
        Pre5: Worker(pid:2, name:"Ken");
        VE1: Input(tw, attr:"weather", value, p)/open[p] <- Tweet(tw), Worker(pid:p);
        VE2: Output(tw, weather:value) <- Input(tw, attr:"weather", value, p:p1),
                                          Input(tw, attr:"weather", value, p:p2), p1 != p2;
      |}
  in
  Alcotest.(check int) "7 statements" 7 (List.length p.Ast.statements);
  let ve1 = List.nth p.Ast.statements 5 in
  Alcotest.(check (option string)) "label" (Some "VE1") ve1.Ast.label;
  Alcotest.(check bool) "open head" true (Ast.statement_is_open ve1);
  let facts = List.filter Ast.statement_is_fact p.Ast.statements in
  Alcotest.(check int) "4 facts" 4 (List.length facts)

let test_parse_block_style () =
  (* Pre3 in block style, from Section 4. *)
  let p =
    Parser.parse_exn
      {|
      rules:
        TweetOriginal(tw, loc) {
          ValidCity(cname:loc) {
            Tweet(tw);
          }
        }
      |}
  in
  match p.Ast.statements with
  | [ { Ast.heads = [ { Ast.head = Ast.Head_atom { atom; _ }; _ } ]; body; _ } ] ->
      Alcotest.(check string) "head" "Tweet" atom.Ast.pred;
      Alcotest.(check int) "prefix length" 2 (List.length body)
  | _ -> Alcotest.fail "expected one desugared statement"

let test_parse_block_multi_statement () =
  (* P1 { P2; P3; } means two rules sharing the body P1. *)
  let p = Parser.parse_exn "rules: P(x) { Q(x); R(x); }" in
  Alcotest.(check int) "two rules" 2 (List.length p.Ast.statements);
  List.iter
    (fun (s : Ast.statement) ->
      Alcotest.(check int) "shared prefix" 1 (List.length s.Ast.body))
    p.Ast.statements

let test_parse_multi_head () =
  (* Comma-separated heads: one atomic multi-head rule (Figure 16). *)
  let p = Parser.parse_exn "rules: A(x)/update, B(x)/update <- C(x);" in
  match p.Ast.statements with
  | [ { Ast.heads = [ _; _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected one statement with two heads"

let test_parse_games_section () =
  let p =
    Parser.parse_exn
      {|
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
  match p.Ast.games with
  | [ g ] ->
      Alcotest.(check string) "name" "VEI" g.Ast.game_name;
      Alcotest.(check (list string)) "params" [ "tw"; "attr" ] g.Ast.game_params;
      Alcotest.(check int) "one path rule" 1 (List.length g.Ast.path_rules);
      Alcotest.(check int) "one payoff rule" 1 (List.length g.Ast.payoff_rules);
      let payoff = List.hd g.Ast.payoff_rules in
      (match payoff.Ast.heads with
      | [ { Ast.head = Ast.Head_payoff [ ("p1", _); ("p2", _) ]; _ } ] -> ()
      | _ -> Alcotest.fail "payoff head shape");
      Alcotest.(check int) "payoff body: prefix + atom + cmp" 3
        (List.length payoff.Ast.body)
  | _ -> Alcotest.fail "expected one game"

let test_parse_schema_section () =
  let p =
    Parser.parse_exn
      "schema: Rules(rid key auto, cond, attr, value, p); Extracts(tw key, attr key, value key, rid);"
  in
  match p.Ast.schemas with
  | [ rules; extracts ] ->
      Alcotest.(check string) "name" "Rules" rules.Ast.rel_name;
      Alcotest.(check bool) "rid key+auto" true
        (List.mem ("rid", true, true) rules.Ast.rel_attrs);
      Alcotest.(check int) "extracts arity" 4 (List.length extracts.Ast.rel_attrs)
  | _ -> Alcotest.fail "expected two declarations"

let test_parse_views_skipped () =
  (* View bodies are raw: arbitrary markup never reaches the lexer. *)
  let p = Parser.parse_exn "views: view Anything { goes(here) @ $ 'raw' } rules: R(x:1);" in
  Alcotest.(check int) "rules parsed after views" 1 (List.length p.Ast.statements);
  Alcotest.(check int) "view extracted" 1 (List.length p.Ast.views)

let test_parse_errors_located () =
  match Parser.parse "rules: R(x) <- ;" with
  | Error e -> Alcotest.(check bool) "line recorded" true (e.Parser.line >= 1)
  | Ok _ -> Alcotest.fail "should not parse"

let test_parse_negation_and_builtin () =
  let stmts = Parser.parse_statements_exn
      "T(x) <- R(x), not U(x), matches(\"rain\", x), y = x + 1, y < 10;" in
  match stmts with
  | [ { Ast.body; _ } ] -> (
      match List.map (fun (l : Ast.literal) -> l.Ast.lit) body with
      | [ Ast.Pos _; Ast.Neg _; Ast.Call ("matches", _); Ast.Cmp _; Ast.Cmp _ ] -> ()
      | _ -> Alcotest.fail "body shape")
  | _ -> Alcotest.fail "body shape"

let test_pretty_roundtrip () =
  let src =
    {|
    schema:
      Extracts(tw key, attr key, value key, rid);
    rules:
      Pre1: TweetOriginal(tw:"It rains", loc:"London");
      VE1: Input(tw, attr:"weather", value, p)/open[p] <- Tweet(tw), Worker(pid:p);
      D1: T(x:1)/delete;
      U1: R(x:1, y)/update <- P(y), not Q(y);
    games:
      game G(tw) {
        path:
          P1: Path(player:p, action:[value]) <- Input(tw, value, p);
        payoff:
          P2: Payoff[p1 += 2] <- Path(player:p1, action:[v]);
      }
    |}
  in
  let p = Parser.parse_exn src in
  let printed = Pretty.program_to_string p in
  let p' = Parser.parse_exn printed in
  Alcotest.(check bool) "roundtrip equal" true
    (Ast.strip_program p = Ast.strip_program p')

(* --- Views section ------------------------------------------------------ *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec loop i = i + m <= n && (String.sub hay i m = needle || loop (i + 1)) in
  m = 0 || loop 0

let test_views_parsed () =
  let src =
    {|
    rules:
      Tweet(tw:"It rains in London");
      W(p:1);
      Ask: Input(tw, value, p)/open[p] <- Tweet(tw), W(p);

    views:
      view Input {
        <p>Tweet: {{tw}}</p>
        <input name="value" placeholder="it's a weather term"/>
      }
    |}
  in
  let p = Parser.parse_exn src in
  (match p.Ast.views with
  | [ v ] ->
      Alcotest.(check string) "name" "Input" v.Ast.view_name;
      Alcotest.(check bool) "raw markup preserved" true
        (contains v.Ast.template "<input name=\"value\"");
      Alcotest.(check bool) "apostrophe kept" true (contains v.Ast.template "it's")
  | _ -> Alcotest.fail "expected one view");
  (* The apostrophe in the template must not break the lexer. *)
  Alcotest.(check int) "rules still parsed" 3 (List.length p.Ast.statements)

let test_views_render_open () =
  let src =
    {|
    rules:
      Tweet(tw:"It rains in London");
      W(p:1);
      Ask: Input(tw, value, p)/open[p] <- Tweet(tw), W(p);
    views:
      view Input {
        Tweet: {{tw}} | your answer: {{value}}
      }
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  match Engine.pending engine with
  | [ o ] -> (
      match Engine.task_view engine o with
      | Some rendered ->
          Alcotest.(check bool) "bound attr substituted" true
            (contains rendered "It rains in London");
          Alcotest.(check bool) "open attr blanked" true (contains rendered "____");
          Alcotest.(check bool) "asks for value" true
            (contains rendered "please provide: value")
      | None -> Alcotest.fail "view should render")
  | _ -> Alcotest.fail "expected one open"

let test_views_multiple_sections () =
  let src = "views: view A { one } rules: R(x:1); views: view B { two }" in
  let p = Parser.parse_exn src in
  Alcotest.(check int) "both views" 2 (List.length p.Ast.views);
  Alcotest.(check int) "rule kept" 1 (List.length p.Ast.statements)

let test_views_errors_located () =
  match Parser.parse "views: view A { never closed" with
  | Error e -> Alcotest.(check bool) "line" true (e.Parser.line >= 1)
  | Ok _ -> Alcotest.fail "unterminated view must fail"

let test_views_roundtrip () =
  let src = "rules: R(x:1); views: view R { <b>{{x}}</b> }" in
  let p = Parser.parse_exn src in
  let p' = Parser.parse_exn (Pretty.program_to_string p) in
  Alcotest.(check bool) "roundtrip" true
    (Ast.strip_program p = Ast.strip_program p')

(* --- Engine: Figure 13 evaluation order -------------------------------- *)

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

let test_figure13_order () =
  let engine = Engine.load (Parser.parse_exn figure13_src) in
  let steps, _ = Engine.run engine in
  Alcotest.(check int) "8 evaluation steps" 8 steps;
  let trace =
    List.map
      (fun (e : Engine.event) ->
        (e.statement, List.assoc_opt "x" e.valuation, e.fired))
      (Engine.events engine)
  in
  (* Paper order: 1, 2, 3(x=1), 4(x=1), 5, 3(x=2), 4(x=2), 6 — rule 3 with
     x=2 is evaluated but rejected by the trailing negation. *)
  Alcotest.(check bool) "order matches Figure 13" true
    (trace
    = [ (0, None, true); (1, None, true);
        (2, Some (v_int 1), true); (3, Some (v_int 1), true);
        (4, None, true); (2, Some (v_int 2), false);
        (3, Some (v_int 2), true); (5, None, true) ])

let test_figure13_delete_applies () =
  let engine = Engine.load (Parser.parse_exn figure13_src) in
  ignore (Engine.run engine);
  let t_rel = Reldb.Database.find_exn (Engine.database engine) "T" in
  (* T(x:1) held between rule 3 and rule 6, then was deleted. *)
  Alcotest.(check int) "T empty after rule 6" 0 (Reldb.Relation.cardinal t_rel);
  let opens = Engine.pending engine in
  Alcotest.(check int) "two open tuples for S" 2 (List.length opens);
  List.iter
    (fun (o : Engine.open_tuple) ->
      Alcotest.(check (list string)) "y is the open slot" [ "y" ] o.open_attrs;
      Alcotest.(check bool) "not an existence question" false o.existence)
    opens

(* --- Engine: VE (Figure 3) --------------------------------------------- *)

let ve_src =
  {|
  rules:
    Pre1: TweetOriginal(tw:"It rains in London", loc:"London");
    Pre2: ValidCity(cname:"London");
    Pre3: Tweet(tw) <- TweetOriginal(tw, loc), ValidCity(cname:loc);
    Pre4: Worker(pid:1, name:"Shun");
    Pre5: Worker(pid:2, name:"Ken");
    VE1: Input(tw, attr:"weather", value, p)/open[p] <- Tweet(tw), Worker(pid:p);
    VE2: Output(tw, weather:value) <- Input(tw, attr:"weather", value, p:p1),
                                      Input(tw, attr:"weather", value, p:p2), p1 != p2;
  |}

let test_ve_open_tuples () =
  let engine = Engine.load (Parser.parse_exn ve_src) in
  ignore (Engine.run engine);
  let opens = Engine.pending engine in
  Alcotest.(check int) "one open input per worker" 2 (List.length opens);
  List.iter
    (fun (o : Engine.open_tuple) ->
      Alcotest.(check string) "relation" "Input" o.relation;
      Alcotest.(check (list string)) "open attr" [ "value" ] o.open_attrs;
      Alcotest.(check bool) "designated worker" true (o.asked <> None))
    opens;
  (* Only the designated worker may answer. *)
  let o = List.hd opens in
  (match Engine.supply engine o.id ~worker:(v_str "nobody") [ ("value", v_str "rainy") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong worker accepted");
  ()

let test_ve_agreement () =
  let engine = Engine.load (Parser.parse_exn ve_src) in
  ignore (Engine.run engine);
  let answer value (o : Engine.open_tuple) =
    match o.asked with
    | Some w -> (
        match Engine.supply engine o.id ~worker:w [ ("value", v_str value) ] with
        | Ok _ -> ()
        | Error m -> Alcotest.fail (Engine.reject_to_string m))
    | None -> Alcotest.fail "expected designated worker"
  in
  (match Engine.pending engine with
  | [ o1; o2 ] ->
      answer "rainy" o1;
      ignore (Engine.run engine);
      (* One input alone cannot produce an agreement. *)
      let out = Reldb.Database.find_exn (Engine.database engine) "Output" in
      Alcotest.(check int) "no agreement yet" 0 (Reldb.Relation.cardinal out);
      answer "rainy" o2;
      ignore (Engine.run engine)
  | _ -> Alcotest.fail "expected two open tuples");
  let out = Reldb.Database.find_exn (Engine.database engine) "Output" in
  Alcotest.(check int) "agreed value stored" 1 (Reldb.Relation.cardinal out);
  match Reldb.Relation.tuples out with
  | [ t ] ->
      Alcotest.(check string) "value" "rainy"
        (Reldb.Value.string_exn (Reldb.Tuple.get_exn t "weather"))
  | _ -> Alcotest.fail "expected one output tuple"

let test_ve_disagreement_no_output () =
  let engine = Engine.load (Parser.parse_exn ve_src) in
  ignore (Engine.run engine);
  List.iteri
    (fun i (o : Engine.open_tuple) ->
      let w = Option.get o.asked in
      let value = if i = 0 then "rainy" else "wet" in
      match Engine.supply engine o.id ~worker:w [ ("value", v_str value) ] with
      | Ok _ -> ()
      | Error m -> Alcotest.fail (Engine.reject_to_string m))
    (Engine.pending engine);
  ignore (Engine.run engine);
  let out = Reldb.Database.find_exn (Engine.database engine) "Output" in
  Alcotest.(check int) "no agreement on different values" 0 (Reldb.Relation.cardinal out)

(* --- Engine: VE/I game aspect (Figure 5) -------------------------------- *)

let vei_src = ve_src ^ {|
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

let run_vei answers =
  let engine = Engine.load (Parser.parse_exn vei_src) in
  ignore (Engine.run engine);
  List.iteri
    (fun i (o : Engine.open_tuple) ->
      let w = Option.get o.asked in
      match Engine.supply engine o.id ~worker:w [ ("value", v_str (List.nth answers i)) ] with
      | Ok _ -> ()
      | Error m -> Alcotest.fail (Engine.reject_to_string m))
    (Engine.pending engine);
  ignore (Engine.run engine);
  engine

let test_vei_agreement_pays_both () =
  let engine = run_vei [ "rainy"; "rainy" ] in
  let payoffs = Engine.payoffs engine in
  Alcotest.(check int) "two players paid" 2 (List.length payoffs);
  List.iter
    (fun (_, score) ->
      (* Support-set dedup: the symmetric valuations (p1,p2)/(p2,p1) pay
         each player exactly once. *)
      Alcotest.(check bool) "score is 1" true (Reldb.Value.equal score (v_int 1)))
    payoffs

let test_vei_disagreement_pays_nobody () =
  let engine = run_vei [ "rainy"; "wet" ] in
  Alcotest.(check int) "no payoffs" 0 (List.length (Engine.payoffs engine))

let test_vei_path_table () =
  let engine = run_vei [ "rainy"; "rainy" ] in
  let instances = Engine.game_instances engine "VEI" in
  Alcotest.(check int) "one game instance" 1 (List.length instances);
  let params = Reldb.Tuple.to_list (List.hd instances) in
  let path = Engine.path_table engine "VEI" ~params in
  Alcotest.(check int) "two actions recorded" 2 (List.length path);
  List.iteri
    (fun i t ->
      Alcotest.(check bool) "order renumbered" true
        (Reldb.Value.equal (Reldb.Tuple.get_or_null t "order") (v_int (i + 1)));
      match Reldb.Tuple.get_or_null t "action" with
      | Reldb.Value.List [ Reldb.Value.String "value"; Reldb.Value.String "rainy" ] -> ()
      | v -> Alcotest.fail ("unexpected action " ^ Reldb.Value.to_string v))
    path

(* --- Engine: update semantics ------------------------------------------- *)

let test_update_merges_mentioned_attrs () =
  let src =
    {|
    schema:
      Tape(pos key, sym);
    rules:
      Tape(pos:0, sym:"a");
      Tape(pos:0)/update;
      Tape(pos:1)/update;
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  let tape = Reldb.Database.find_exn (Engine.database engine) "Tape" in
  Alcotest.(check int) "two cells" 2 (Reldb.Relation.cardinal tape);
  (match Reldb.Relation.find_by_key tape (Reldb.Tuple.of_list [ ("pos", v_int 0) ]) with
  | Some (_, t) ->
      Alcotest.(check string) "unmentioned attr preserved" "a"
        (Reldb.Value.string_exn (Reldb.Tuple.get_exn t "sym"))
  | None -> Alcotest.fail "cell 0 missing");
  match Reldb.Relation.find_by_key tape (Reldb.Tuple.of_list [ ("pos", v_int 1) ]) with
  | Some (_, t) ->
      Alcotest.(check bool) "fresh cell has null sym" true
        (Reldb.Value.is_null (Reldb.Tuple.get_or_null t "sym"))
  | None -> Alcotest.fail "cell 1 missing"

let test_update_requires_key () =
  let src = "schema: R(x key, y); rules: R(y:1)/update;" in
  let engine = Engine.load (Parser.parse_exn src) in
  Alcotest.(check bool) "missing key rejected" true
    (try ignore (Engine.run engine); false with Engine.Runtime_error _ -> true)

(* --- Engine: Turing machine fragment (Figure 16) ------------------------- *)

let tm_src =
  {|
  schema:
    TuringMachine(id key, st, head);
    Tape(pos key, sym);
    Rule(st, sym, new_st, new_sym, dir);
  rules:
    /* Successor machine on unary tape: walk right over 1s, append a 1. */
    Rule(st:"s", sym:"1", new_st:"s", new_sym:"1", dir:1);
    Rule(st:"s", sym:"", new_st:"h", new_sym:"1", dir:0);
    Tape(pos:0, sym:"1");
    Tape(pos:1, sym:"1");
    TuringMachine(id:1, st:"s", head:0);
    Fill: Tape(pos:head, sym:"")/update <- TuringMachine(id, head), not Tape(pos:head);
    Step: TuringMachine(id, head), Tape(pos:head, sym), Rule(st, sym, new_st, new_sym, dir),
          TuringMachine(id, st), new_pos = pos + dir {
      TuringMachine(id, st:new_st, head:new_pos)/update,
      Tape(pos, sym:new_sym)/update
    }
  |}

let test_turing_fragment () =
  let engine = Engine.load (Parser.parse_exn tm_src) in
  ignore (Engine.run engine ~max_steps:200);
  let tm = Reldb.Database.find_exn (Engine.database engine) "TuringMachine" in
  (match Reldb.Relation.tuples tm with
  | [ t ] ->
      Alcotest.(check string) "halted" "h"
        (Reldb.Value.string_exn (Reldb.Tuple.get_exn t "st"))
  | _ -> Alcotest.fail "expected one machine");
  let tape = Reldb.Database.find_exn (Engine.database engine) "Tape" in
  let ones =
    List.length
      (Reldb.Relation.filter
         (fun t -> Reldb.Value.equal (Reldb.Tuple.get_or_null t "sym") (v_str "1"))
         tape)
  in
  Alcotest.(check int) "two 1s became three" 3 ones

(* --- Engine: existence questions ----------------------------------------- *)

let test_existence_question () =
  let src =
    {|
    rules:
      Candidate(tw:"t1", value:"rainy");
      Worker(pid:9);
      Ask: Inputs(tw, value, p)/open[p] <- Candidate(tw, value), Worker(pid:p);
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  match Engine.pending engine with
  | [ o ] ->
      Alcotest.(check bool) "existence question" true o.existence;
      (* supply is rejected; answer_existence works. *)
      (match Engine.supply engine o.id ~worker:(v_int 9) [] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "supply should be rejected");
      (match Engine.answer_existence engine o.id ~worker:(v_int 9) true with
      | Ok _ -> ()
      | Error m -> Alcotest.fail (Engine.reject_to_string m));
      let inputs = Reldb.Database.find_exn (Engine.database engine) "Inputs" in
      Alcotest.(check int) "tuple inserted on yes" 1 (Reldb.Relation.cardinal inputs)
  | _ -> Alcotest.fail "expected one open tuple"

let test_existence_no_leaves_relation_empty () =
  let src =
    {|
    rules:
      Candidate(tw:"t1", value:"rainy");
      Worker(pid:9);
      Ask: Inputs(tw, value, p)/open[p] <- Candidate(tw, value), Worker(pid:p);
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  (match Engine.pending engine with
  | [ o ] -> (
      match Engine.answer_existence engine o.id ~worker:(v_int 9) false with
      | Ok _ -> ()
      | Error m -> Alcotest.fail (Engine.reject_to_string m))
  | _ -> Alcotest.fail "expected one open tuple");
  let inputs = Reldb.Database.find_exn (Engine.database engine) "Inputs" in
  Alcotest.(check int) "no tuple on no" 0 (Reldb.Relation.cardinal inputs);
  Alcotest.(check int) "resolved" 0 (List.length (Engine.pending engine))

(* --- Engine: standing tasks (repeatable opens) ----------------------------- *)

let test_standing_task_rule_entry () =
  (* VRE1: Rules has an auto-increment key the rule leaves unmentioned, so
     the open tuple is a standing task — a worker can enter unboundedly
     many extraction rules — this is what puts VRE in the unbounded game
     class G_star. *)
  let src =
    {|
    schema:
      Rules(rid key auto, cond, attr, value, p);
    rules:
      Workers(p:"kate");
      VRE1: Rules(rid, cond, attr, value, p)/open[p] <- Workers(p);
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  (match Engine.pending engine with
  | [ o ] ->
      Alcotest.(check bool) "repeatable" true o.repeatable;
      Alcotest.(check bool) "rid not asked" false (List.mem "rid" o.open_attrs);
      let enter cond value =
        match
          Engine.supply engine o.id ~worker:(v_str "kate")
            [ ("cond", v_str cond); ("attr", v_str "weather"); ("value", v_str value) ]
        with
        | Ok _ -> ()
        | Error m -> Alcotest.fail (Engine.reject_to_string m)
      in
      enter "rain" "rainy";
      enter "sun" "sunny";
      Alcotest.(check int) "still pending after answers" 1
        (List.length (Engine.pending engine))
  | _ -> Alcotest.fail "expected one standing task");
  let rules = Reldb.Database.find_exn (Engine.database engine) "Rules" in
  Alcotest.(check int) "two rules entered" 2 (Reldb.Relation.cardinal rules);
  let rids =
    List.map (fun t -> Reldb.Value.int_exn (Reldb.Tuple.get_exn t "rid"))
      (Reldb.Relation.tuples rules)
  in
  Alcotest.(check (list int)) "machine-assigned ids" [ 1; 2 ] rids

(* --- Engine: key-based first-rule-wins ------------------------------------ *)

let test_extracts_first_rule_wins () =
  let src =
    {|
    schema:
      Extracts(tw key, attr key, value key, rid);
    rules:
      Tweets(tw:"heavy rain today");
      Rules(rid:1, cond:"rain", attr:"weather", value:"rainy");
      Rules(rid:2, cond:"rain", attr:"weather", value:"rainy");
      E: Extracts(tw, attr, value, rid) <- Tweets(tw), Rules(rid, cond, attr:"weather", value),
                                           matches(cond, tw);
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  let extracts = Reldb.Database.find_exn (Engine.database engine) "Extracts" in
  match Reldb.Relation.tuples extracts with
  | [ t ] ->
      (* The earlier rule (rid 1) supplied the extraction; rid 2's identical
         extraction was rejected by the key. *)
      Alcotest.(check bool) "first rule wins" true
        (Reldb.Value.equal (Reldb.Tuple.get_exn t "rid") (v_int 1))
  | ts -> Alcotest.fail (Printf.sprintf "expected one extract, got %d" (List.length ts))

(* --- Engine: more edge cases ------------------------------------------------ *)

let test_multi_head_atomicity () =
  (* Both heads of a multi-head rule apply under the same valuation even
     though the first head's update invalidates the body (the Figure 16
     transition needs this). *)
  let src =
    {|
    schema:
      M(id key, st);
      Log(st key);
    rules:
      M(id:1, st:"a");
      Step: M(id, st:"b")/update, Log(st) <- M(id, st:"a");
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  let db = Engine.database engine in
  let m = Reldb.Database.find_exn db "M" in
  (match Reldb.Relation.tuples m with
  | [ t ] ->
      Alcotest.(check string) "state updated" "b"
        (Reldb.Value.string_exn (Reldb.Tuple.get_exn t "st"))
  | _ -> Alcotest.fail "one machine");
  let log = Reldb.Database.find_exn db "Log" in
  match Reldb.Relation.tuples log with
  | [ t ] ->
      (* The Log head saw the pre-update valuation st = "a". *)
      Alcotest.(check string) "second head used original valuation" "a"
        (Reldb.Value.string_exn (Reldb.Tuple.get_exn t "st"))
  | _ -> Alcotest.fail "one log entry"

let test_unknown_builtin_is_runtime_error () =
  let engine = Engine.load (Parser.parse_exn "rules: R(x:1); T(x) <- R(x), frobnicate(x);") in
  Alcotest.(check bool) "raised" true
    (try ignore (Engine.run engine); false with Engine.Runtime_error _ -> true)

let test_payoff_arithmetic_deltas () =
  let src =
    {|
    rules:
      Score(p:"kate", base:3);
    games:
      game G() {
        path:
          P: Path(player:p, action:[base]) <- Score(p, base);
        payoff:
          Q: Payoff[p += base * 2 - 1] <- Path(player:p, action:[base]);
      }
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  Alcotest.(check bool) "3*2-1 = 5" true
    (Reldb.Value.equal (Engine.payoff_of engine (v_str "kate")) (v_int 5))

let test_supply_resolved_open_rejected () =
  let src = "rules: W(p:1); Ask: A(x:1, v, p)/open[p] <- W(p);" in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  match Engine.pending engine with
  | [ o ] -> (
      (match Engine.supply engine o.id ~worker:(v_int 1) [ ("v", v_str "a") ] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Engine.reject_to_string e));
      match Engine.supply engine o.id ~worker:(v_int 1) [ ("v", v_str "b") ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "resolved open must reject a second answer")
  | _ -> Alcotest.fail "expected one open"

let test_supply_wrong_attrs_rejected () =
  let src = "rules: W(p:1); Ask: A(x:1, v, p)/open[p] <- W(p);" in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  match Engine.pending engine with
  | [ o ] -> (
      match Engine.supply engine o.id ~worker:(v_int 1) [ ("wrong", v_str "a") ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "mismatched attributes must be rejected")
  | _ -> Alcotest.fail "expected one open"

let test_pending_since_incremental () =
  let src =
    {|
    rules:
      W(p:1);
      Item(x:1); Item(x:2);
      Ask: A(x, v, p)/open[p] <- Item(x), W(p);
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  let all = Engine.pending_since engine ~after:0 in
  Alcotest.(check int) "two new opens" 2 (List.length all);
  let ids = List.map (fun (o : Engine.open_tuple) -> o.id) all in
  Alcotest.(check bool) "ascending ids" true (List.sort compare ids = ids);
  let later = Engine.pending_since engine ~after:(List.hd ids) in
  Alcotest.(check int) "only newer opens" 1 (List.length later);
  Alcotest.(check int) "nothing beyond the last" 0
    (List.length (Engine.pending_since engine ~after:(List.nth ids 1)))

let test_schema_inference_merges_usage () =
  (* A relation used with different attribute subsets gets the union. *)
  let src = "rules: R(a:1); S(x) <- R(a:x); T(x) <- R(b:x);" in
  let engine = Engine.load (Parser.parse_exn src) in
  let r = Reldb.Database.find_exn (Engine.database engine) "R" in
  Alcotest.(check (list string)) "attributes merged" [ "a"; "b" ]
    (List.sort compare (Reldb.Schema.attributes (Reldb.Relation.schema r)))

let test_decline_removes_open () =
  let src = "rules: W(p:1); Ask: A(x:1, v, p)/open[p] <- W(p);" in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  (match Engine.pending engine with
  | [ o ] -> Engine.decline engine o.id
  | _ -> Alcotest.fail "expected one open");
  Alcotest.(check int) "declined open gone" 0 (List.length (Engine.pending engine));
  let a = Reldb.Database.find_exn (Engine.database engine) "A" in
  Alcotest.(check int) "nothing inserted" 0 (Reldb.Relation.cardinal a)

let test_game_without_params_single_instance () =
  let src =
    {|
    rules:
      E(x:1); E(x:2);
    games:
      game G() {
        path:
          P: Path(player:"m", action:[x]) <- E(x);
        payoff:
          Q: Payoff[p += 1] <- Path(player:p, action:[x]);
      }
    |}
  in
  let engine = Engine.load (Parser.parse_exn src) in
  ignore (Engine.run engine);
  Alcotest.(check int) "one instance" 1 (List.length (Engine.game_instances engine "G"));
  let path = Engine.path_table engine "G" ~params:[] in
  Alcotest.(check int) "two actions in the single instance" 2 (List.length path);
  (* Each distinct path row pays once: score 2. *)
  Alcotest.(check bool) "payoff accumulated per action" true
    (Reldb.Value.equal (Engine.payoff_of engine (v_str "m")) (v_int 2))

(* --- Engine: incremental statements (REPL) ---------------------------------- *)

let test_add_statement_incremental () =
  let engine = Engine.load (Parser.parse_exn "rules: R(x:1); R(x:2);") in
  ignore (Engine.run engine);
  let add src =
    List.iter (Engine.add_statement engine) (Parser.parse_statements_exn src);
    ignore (Engine.run engine)
  in
  add "S(x) <- R(x);";
  let s = Reldb.Database.find_exn (Engine.database engine) "S" in
  Alcotest.(check int) "rule applied to existing facts" 2 (Reldb.Relation.cardinal s);
  (* Later facts flow through earlier-added rules. *)
  add "R(x:3);";
  Alcotest.(check int) "new fact derives" 3 (Reldb.Relation.cardinal s);
  (* Using an unknown attribute of an existing relation is an error. *)
  Alcotest.(check bool) "schema fixed" true
    (try add "T(y) <- R(zzz:y);"; false with Engine.Runtime_error _ -> true)

(* --- Precedence graph (Figure 14) ----------------------------------------- *)

let test_precedence_figure14 () =
  let p = Parser.parse_exn figure13_src in
  let g = Precedence.build p.Ast.statements in
  (* Statements: 0:R, 1:U, 2:T<-R,not U, 3:S/open<-R, 4:R, 5:T/delete. *)
  Alcotest.(check bool) "R1 -> T3" true
    (List.exists (fun (e : Precedence.edge) -> e.src = 0 && e.dst = 2) (Precedence.edges g));
  Alcotest.(check bool) "R1 -> S4" true
    (List.exists (fun (e : Precedence.edge) -> e.src = 0 && e.dst = 3) (Precedence.edges g));
  Alcotest.(check bool) "T3 -> T6 (update/delete)" true
    (List.exists (fun (e : Precedence.edge) -> e.src = 2 && e.dst = 5) (Precedence.edges g));
  (* R5 -> T3 is a backward edge. *)
  (match
     List.find_opt (fun (e : Precedence.edge) -> e.src = 4 && e.dst = 2) (Precedence.edges g)
   with
  | Some e -> Alcotest.(check bool) "backward" false e.forward
  | None -> Alcotest.fail "missing backward edge R5 -> T3");
  Alcotest.(check bool) "T6 depends on R1 (composite)" true (Precedence.depends_on g 5 0);
  Alcotest.(check bool) "rules 3 and 4 parallelizable" true (Precedence.parallelizable g 2 3);
  (* Rule 6 is data complete; rule 3 is not (R5 feeds it from below). *)
  Alcotest.(check bool) "rule 6 data complete" true (Precedence.data_complete g 5);
  Alcotest.(check bool) "rule 3 not data complete" false (Precedence.data_complete g 2);
  Alcotest.(check bool) "program not stratified" false (Precedence.stratified g)

let test_precedence_stratified () =
  let p = Parser.parse_exn "rules: R(x:1); U(x:1); T(x) <- R(x), not U(x);" in
  let g = Precedence.build p.Ast.statements in
  Alcotest.(check bool) "stratified" true (Precedence.stratified g)

let test_precedence_parallel_groups () =
  let p = Parser.parse_exn figure13_src in
  let g = Precedence.build p.Ast.statements in
  let groups = Precedence.parallel_groups g in
  (* Every statement appears exactly once. *)
  let flat = List.concat groups in
  Alcotest.(check (list int)) "partition" [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare flat);
  (* Rules 3 and 4 (indices 2 and 3) are independent — the paper says they
     can run in parallel, so some group holds both. *)
  Alcotest.(check bool) "rules 3 and 4 grouped" true
    (List.exists (fun grp -> List.mem 2 grp && List.mem 3 grp) groups);
  (* Groups really are independent sets. *)
  List.iter
    (fun grp ->
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              if i <> j then
                Alcotest.(check bool) "independent" true (Precedence.parallelizable g i j))
            grp)
        grp)
    groups

let test_precedence_backward_cycle () =
  (* A <- B / B <- A: a two-statement cycle whose B -> A flow is a
     backward edge. Neither statement is data complete, they can never
     share a parallel group, and the closure makes each self-dependent. *)
  let p = Parser.parse_exn "rules: A(x) <- B(x); B(x) <- A(x);" in
  let g = Precedence.build p.Ast.statements in
  (match
     List.find_opt
       (fun (e : Precedence.edge) -> e.src = 1 && e.dst = 0)
       (Precedence.edges g)
   with
  | Some e -> Alcotest.(check bool) "B -> A backward" false e.forward
  | None -> Alcotest.fail "missing backward edge B -> A");
  Alcotest.(check bool) "0 self-dependent via the cycle" true
    (Precedence.depends_on g 0 0);
  Alcotest.(check bool) "0 not data complete" false (Precedence.data_complete g 0);
  Alcotest.(check bool) "1 not data complete" false (Precedence.data_complete g 1);
  Alcotest.(check (list (list int))) "cycle members never grouped" [ [ 0 ]; [ 1 ] ]
    (Precedence.parallel_groups g)

let test_precedence_self_loop () =
  (* Direct self-recursion draws no self edge (edges need i <> q): the
     statement's own tuples reach later evaluations through the delta
     semantics, not a precedence hazard, so it stays data complete. *)
  let p = Parser.parse_exn "rules: R(x:1); R(x:y+1) <- R(x:y), y < 3;" in
  let g = Precedence.build p.Ast.statements in
  Alcotest.(check bool) "no self edge" true
    (List.for_all (fun (e : Precedence.edge) -> e.src <> e.dst) (Precedence.edges g));
  Alcotest.(check bool) "not self-dependent" false (Precedence.depends_on g 1 1);
  Alcotest.(check bool) "data complete" true (Precedence.data_complete g 1);
  Alcotest.(check bool) "stratified (no negation)" true (Precedence.stratified g)

let test_negation_violations_witness () =
  let p =
    Parser.parse_exn "rules: A(x:1); T(x) <- A(x), not U(x); U(x) <- T(x);"
  in
  let g = Precedence.build p.Ast.statements in
  (match Precedence.negation_violations g with
  | [ v ] ->
      Alcotest.(check int) "vertex" 1 v.Precedence.vertex;
      Alcotest.(check string) "negated" "U" v.Precedence.negated;
      Alcotest.(check int) "writer" 2 v.Precedence.writer;
      Alcotest.(check (list int)) "cycle T -> U" [ 1; 2 ] v.Precedence.cycle
  | vs -> Alcotest.fail (Printf.sprintf "expected one violation, got %d" (List.length vs)));
  (* Figure 13's negation reads U, which only an *earlier* fact writes:
     not data complete, yet no negation violation. *)
  let g13 = Precedence.build (Parser.parse_exn figure13_src).Ast.statements in
  Alcotest.(check bool) "figure 13 not stratified" false (Precedence.stratified g13);
  Alcotest.(check int) "figure 13 has no negation violation" 0
    (List.length (Precedence.negation_violations g13))

let test_negation_violations_update_exempt () =
  (* Fill-if-absent (Figure 16): an /update writer below the negation is
     legal; the same writer as a plain assert is the textbook violation. *)
  let build src = Precedence.build (Parser.parse_exn src).Ast.statements in
  Alcotest.(check int) "update writer exempt" 0
    (List.length
       (Precedence.negation_violations
          (build "rules: T(x) <- A(x), not U(x); U(x:1)/update;")));
  Alcotest.(check int) "assert writer flagged" 1
    (List.length
       (Precedence.negation_violations
          (build "rules: T(x) <- A(x), not U(x); U(x:1);")))

(* --- Formal semantics (Section 9.2) ---------------------------------------- *)

let test_semantics_supported () =
  Alcotest.(check bool) "ve supported" true (Semantics.supported (Parser.parse_exn ve_src));
  Alcotest.(check bool) "figure13 not supported" false
    (Semantics.supported (Parser.parse_exn figure13_src))

let test_semantics_machine_only_fixpoint () =
  let p = Parser.parse_exn "rules: R(x:1); S(x) <- R(x); T(x) <- S(x);" in
  let states, outcome = Semantics.behaviour p (fun _ -> []) in
  Alcotest.(check bool) "fixpoint reached" true (outcome = `Fixpoint);
  (* K0=∅, K1={R}, K2={R,S}, K3={R,S,T}, K4=K3. *)
  Alcotest.(check int) "five states" 5 (List.length states);
  let final = List.nth states (List.length states - 1) in
  Alcotest.(check int) "three tuples" 3 (Semantics.sure_count final)

let test_semantics_human_consequences () =
  let p = Parser.parse_exn ve_src in
  let strategies st =
    (* Both workers answer "rainy" as soon as their open tuples appear —
       a solution of the coordination game. *)
    List.filter_map
      (fun (o : Semantics.open_fact) ->
        if o.relation = "Input" then Some (o, [ ("value", v_str "rainy") ]) else None)
      (Semantics.open_tuples st)
  in
  match Semantics.conclusion p strategies with
  | None -> Alcotest.fail "no conclusion"
  | Some final ->
      let out = Reldb.Database.find_exn (Semantics.sure final) "Output" in
      Alcotest.(check int) "rational conclusion stores the agreed value" 1
        (Reldb.Relation.cardinal out)

let test_semantics_multiple_rational_conclusions () =
  (* The semantics of a CyLog program is the SET of its rational
     behaviours: the VE/I coordination game has several solutions (all
     matching-term profiles), each yielding its own conclusion. *)
  let p = Parser.parse_exn ve_src in
  let strategy term st =
    List.filter_map
      (fun (o : Semantics.open_fact) ->
        if o.relation = "Input" then Some (o, [ ("value", v_str term) ]) else None)
      (Semantics.open_tuples st)
  in
  let agreed_value term =
    match Semantics.conclusion p (strategy term) with
    | None -> Alcotest.fail "no conclusion"
    | Some final -> (
        let out = Reldb.Database.find_exn (Semantics.sure final) "Output" in
        match Reldb.Relation.tuples out with
        | [ t ] -> Reldb.Value.to_display (Reldb.Tuple.get_or_null t "weather")
        | _ -> Alcotest.fail "expected one output")
  in
  (* Both all-"rainy" and all-"wet" are solutions of the coordination game;
     the program has (at least) two rational conclusions. *)
  Alcotest.(check string) "rainy conclusion" "rainy" (agreed_value "rainy");
  Alcotest.(check string) "wet conclusion" "wet" (agreed_value "wet")

let test_semantics_open_not_used_for_inference () =
  (* Open tuples must not feed rule bodies: only sure tuples do (the
     closed-world assumption over K_sure, Section 9.3). *)
  let p =
    Parser.parse_exn
      "rules: W(pid:1); A(x, v)/open[pid] <- W(pid), x = 1; B(x) <- A(x, v);"
  in
  let states, _ = Semantics.behaviour p (fun _ -> []) in
  let final = List.nth states (List.length states - 1) in
  let b = Reldb.Database.find_exn (Semantics.sure final) "B" in
  Alcotest.(check int) "B stays empty while A is open" 0 (Reldb.Relation.cardinal b)

let suite =
  [ ( "cylog.lexer",
      [ Alcotest.test_case "basics" `Quick test_lexer_basics;
        Alcotest.test_case "dotted label" `Quick test_lexer_dotted_label;
        Alcotest.test_case "! shorthand" `Quick test_lexer_bang_shorthand;
        Alcotest.test_case "comments and strings" `Quick test_lexer_comments_and_strings;
        Alcotest.test_case "errors" `Quick test_lexer_errors ] );
    ( "cylog.parser",
      [ Alcotest.test_case "figure 3 program" `Quick test_parse_figure3;
        Alcotest.test_case "block style" `Quick test_parse_block_style;
        Alcotest.test_case "block with several statements" `Quick
          test_parse_block_multi_statement;
        Alcotest.test_case "multi-head rule" `Quick test_parse_multi_head;
        Alcotest.test_case "games section" `Quick test_parse_games_section;
        Alcotest.test_case "schema section" `Quick test_parse_schema_section;
        Alcotest.test_case "views skipped" `Quick test_parse_views_skipped;
        Alcotest.test_case "errors located" `Quick test_parse_errors_located;
        Alcotest.test_case "negation and builtins" `Quick test_parse_negation_and_builtin;
        Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip ] );
    ( "cylog.engine",
      [ Alcotest.test_case "figure 13 evaluation order" `Quick test_figure13_order;
        Alcotest.test_case "figure 13 delete applies" `Quick test_figure13_delete_applies;
        Alcotest.test_case "VE open tuples" `Quick test_ve_open_tuples;
        Alcotest.test_case "VE agreement" `Quick test_ve_agreement;
        Alcotest.test_case "VE disagreement" `Quick test_ve_disagreement_no_output;
        Alcotest.test_case "VE/I agreement pays both once" `Quick
          test_vei_agreement_pays_both;
        Alcotest.test_case "VE/I disagreement pays nobody" `Quick
          test_vei_disagreement_pays_nobody;
        Alcotest.test_case "VE/I path table (Figure 6)" `Quick test_vei_path_table;
        Alcotest.test_case "update merges mentioned attrs" `Quick
          test_update_merges_mentioned_attrs;
        Alcotest.test_case "update requires key" `Quick test_update_requires_key;
        Alcotest.test_case "Turing machine fragment (Figure 16)" `Quick
          test_turing_fragment;
        Alcotest.test_case "existence question: yes" `Quick test_existence_question;
        Alcotest.test_case "existence question: no" `Quick
          test_existence_no_leaves_relation_empty;
        Alcotest.test_case "standing task: unbounded rule entry" `Quick
          test_standing_task_rule_entry;
        Alcotest.test_case "Extracts: first rule wins" `Quick
          test_extracts_first_rule_wins;
        Alcotest.test_case "multi-head atomicity" `Quick test_multi_head_atomicity;
        Alcotest.test_case "unknown builtin raises" `Quick
          test_unknown_builtin_is_runtime_error;
        Alcotest.test_case "payoff arithmetic deltas" `Quick test_payoff_arithmetic_deltas;
        Alcotest.test_case "resolved open rejects re-answer" `Quick
          test_supply_resolved_open_rejected;
        Alcotest.test_case "wrong attributes rejected" `Quick
          test_supply_wrong_attrs_rejected;
        Alcotest.test_case "pending_since incremental" `Quick test_pending_since_incremental;
        Alcotest.test_case "schema inference merges usage" `Quick
          test_schema_inference_merges_usage;
        Alcotest.test_case "decline removes open" `Quick test_decline_removes_open;
        Alcotest.test_case "parameterless game: one instance" `Quick
          test_game_without_params_single_instance;
        Alcotest.test_case "incremental statements" `Quick test_add_statement_incremental ] );
    ( "cylog.views",
      [ Alcotest.test_case "parsed around raw markup" `Quick test_views_parsed;
        Alcotest.test_case "render open tuple" `Quick test_views_render_open;
        Alcotest.test_case "multiple sections" `Quick test_views_multiple_sections;
        Alcotest.test_case "errors located" `Quick test_views_errors_located;
        Alcotest.test_case "roundtrip" `Quick test_views_roundtrip ] );
    ( "cylog.precedence",
      [ Alcotest.test_case "figure 14 graph" `Quick test_precedence_figure14;
        Alcotest.test_case "stratified program" `Quick test_precedence_stratified;
        Alcotest.test_case "parallel groups" `Quick test_precedence_parallel_groups;
        Alcotest.test_case "backward-edge cycle" `Quick test_precedence_backward_cycle;
        Alcotest.test_case "self-recursive rule" `Quick test_precedence_self_loop;
        Alcotest.test_case "negation violation witness" `Quick
          test_negation_violations_witness;
        Alcotest.test_case "update writers exempt from violations" `Quick
          test_negation_violations_update_exempt ] );
    ( "cylog.semantics",
      [ Alcotest.test_case "supported fragment" `Quick test_semantics_supported;
        Alcotest.test_case "machine-only fixpoint" `Quick test_semantics_machine_only_fixpoint;
        Alcotest.test_case "human consequences" `Quick test_semantics_human_consequences;
        Alcotest.test_case "multiple rational conclusions" `Quick
          test_semantics_multiple_rational_conclusions;
        Alcotest.test_case "open tuples not used for inference" `Quick
          test_semantics_open_not_used_for_inference ] ) ]
