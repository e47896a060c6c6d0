(* Tests for the from-scratch regex engine used by extraction rules. *)

let re = Regex.Engine.compile_exn

let check_full pattern input expected =
  Alcotest.(check bool)
    (Printf.sprintf "%S full-matches %S" pattern input)
    expected
    (Regex.Engine.full_match (re pattern) input)

let check_search pattern input expected =
  Alcotest.(check bool)
    (Printf.sprintf "%S occurs in %S" pattern input)
    expected
    (Regex.Engine.search (re pattern) input)

(* --- Parser ----------------------------------------------------------- *)

let test_parse_errors () =
  let bad = [ "("; ")"; "a)"; "["; "[]"; "[z-a]"; "a{2,1}"; "*a"; "a\\"; "a|*"; "a{"; "\\q" ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" p) false (Regex.Engine.is_valid p))
    bad;
  let good = [ ""; "a"; "a|b"; "(ab)*"; "[a-z]+"; "a{2}"; "a{2,}"; "a{2,5}"; "\\d\\w\\s"; "^a$"; "[^ab]"; "a-b"; "[a\\-b]" ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "%S accepted" p) true (Regex.Engine.is_valid p))
    good

let test_roundtrip () =
  let patterns = [ "a(b|c)*d"; "[a-z0-9]+"; "x{2,5}y?"; "^rain.*$"; "\\d+|\\w*" ] in
  List.iter
    (fun p ->
      let ast = Regex.Parse.parse_exn p in
      let printed = Regex.Syntax.to_pattern ast in
      let ast' = Regex.Parse.parse_exn printed in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %S -> %S" p printed)
        true
        (Regex.Syntax.equal ast ast'))
    patterns

(* --- Matching --------------------------------------------------------- *)

let test_literals () =
  check_full "rain" "rain" true;
  check_full "rain" "rains" false;
  check_full "rain" "rai" false;
  check_full "" "" true;
  check_full "" "a" false

let test_any_and_classes () =
  check_full "r..n" "rain" true;
  check_full "r..n" "rn" false;
  check_full "[a-c]+" "abcba" true;
  check_full "[a-c]+" "abd" false;
  check_full "[^a-c]+" "xyz" true;
  check_full "[^a-c]+" "xaz" false;
  check_full "\\d{3}" "123" true;
  check_full "\\d{3}" "12x" false;
  check_full "\\w+" "ab_9" true;
  check_full "\\s" " " true;
  check_full "\\S" " " false

let test_repetition () =
  check_full "a*" "" true;
  check_full "a*" "aaaa" true;
  check_full "a+" "" false;
  check_full "a+" "aaa" true;
  check_full "a?b" "b" true;
  check_full "a?b" "ab" true;
  check_full "a?b" "aab" false;
  check_full "a{2,3}" "a" false;
  check_full "a{2,3}" "aa" true;
  check_full "a{2,3}" "aaa" true;
  check_full "a{2,3}" "aaaa" false;
  check_full "a{2,}" "aaaaa" true;
  check_full "a{2}" "aa" true;
  check_full "a{2}" "aaa" false;
  check_full "(ab){2}" "abab" true

let test_alternation_grouping () =
  check_full "rain|snow" "rain" true;
  check_full "rain|snow" "snow" true;
  check_full "rain|snow" "hail" false;
  check_full "(fine|sunny) day" "sunny day" true;
  check_full "a(b|c)*d" "abcbcd" true;
  check_full "a(b|c)*d" "ad" true;
  check_full "a(b|c)*d" "axd" false

let test_anchors () =
  check_search "^rain" "rain in london" true;
  check_search "^rain" "heavy rain" false;
  check_search "london$" "rain in london" true;
  check_search "london$" "london fog" false;
  check_full "^abc$" "abc" true

let test_search_semantics () =
  (* matches(cond, tw): the condition occurs anywhere in the tweet. *)
  check_search "rain" "It rains in London" true;
  check_search "snow" "It rains in London" false;
  check_search "r.in" "It rains in London" true;
  check_search "London" "It rains in London" true

let test_case_insensitive () =
  let r = Regex.Engine.compile_exn ~case_insensitive:true "london" in
  Alcotest.(check bool) "LONDON matches" true (Regex.Engine.search r "LONDON calling");
  Alcotest.(check bool) "London matches" true (Regex.Engine.search r "in London");
  let r2 = Regex.Engine.compile_exn ~case_insensitive:true "[a-d]+" in
  Alcotest.(check bool) "class widened" true (Regex.Engine.full_match r2 "AbCd")

let test_find_spans () =
  let r = re "a+" in
  Alcotest.(check (option (pair int int))) "leftmost longest for start" (Some (2, 5))
    (Regex.Engine.find r "xxaaax");
  Alcotest.(check (list (pair int int))) "find_all" [ (0, 1); (2, 4) ]
    (Regex.Engine.find_all r "axaax");
  Alcotest.(check string) "matched_string" "aa"
    (Regex.Engine.matched_string "axaax" (2, 4));
  Alcotest.(check string) "replace" "x_y_z"
    (Regex.Engine.replace r ~by:"_" "xaayaaaz")

let test_empty_match_progress () =
  (* Patterns matching the empty string must not loop forever in find_all. *)
  let r = re "a*" in
  let spans = Regex.Engine.find_all r "bab" in
  Alcotest.(check bool) "terminates" true (List.length spans <= 4)

let test_pathological_no_blowup () =
  (* (a?){n}a{n} against a^n kills backtrackers; the Pike VM is linear. *)
  let n = 20 in
  let pattern = Printf.sprintf "(a?){%d}a{%d}" n n in
  let input = String.make n 'a' in
  let t0 = Sys.time () in
  check_full pattern input true;
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool) "fast" true (elapsed < 1.0)

let test_instruction_budget () =
  Alcotest.(check bool) "huge repeat rejected" true
    (try ignore (Regex.Nfa.compile (Regex.Parse.parse_exn "(a{1000}){1000}")); false
     with Regex.Nfa.Too_large -> true)

(* --- Oracle-based property tests -------------------------------------- *)

(* A tiny reference matcher by direct AST interpretation: [interp re s]
   returns the set of suffix offsets reachable after consuming a prefix. *)
let rec interp (re : Regex.Syntax.t) (s : string) (pos : int) : int list =
  let dedup = List.sort_uniq compare in
  match re with
  | Empty -> [ pos ]
  | Char c -> if pos < String.length s && s.[pos] = c then [ pos + 1 ] else []
  | Any -> if pos < String.length s then [ pos + 1 ] else []
  | Class { negated; ranges } ->
      if pos >= String.length s then []
      else
        let c = s.[pos] in
        let hit = List.exists (fun (lo, hi) -> c >= lo && c <= hi) ranges in
        if hit <> negated then [ pos + 1 ] else []
  | Bol -> if pos = 0 then [ pos ] else []
  | Eol -> if pos = String.length s then [ pos ] else []
  | Seq (a, b) -> dedup (List.concat_map (interp b s) (interp a s pos))
  | Alt (a, b) -> dedup (interp a s pos @ interp b s pos)
  | Opt a -> dedup (pos :: interp a s pos)
  | Star a ->
      let rec fix frontier seen =
        let next =
          List.concat_map (interp a s) frontier
          |> List.filter (fun p -> not (List.mem p seen))
          |> List.sort_uniq compare
        in
        if next = [] then seen else fix next (dedup (next @ seen))
      in
      fix [ pos ] [ pos ]
  | Plus a -> dedup (List.concat_map (interp (Star a) s) (interp a s pos))
  | Repeat (a, lo, hi) ->
      let rec consume n frontier =
        if n = 0 then frontier else consume (n - 1) (dedup (List.concat_map (interp a s) frontier))
      in
      let base = consume lo [ pos ] in
      (match hi with
      | None -> dedup (List.concat_map (interp (Star a) s) base)
      | Some h ->
          let rec extra n frontier acc =
            if n = 0 then acc
            else
              let next = dedup (List.concat_map (interp a s) frontier) in
              extra (n - 1) next (dedup (next @ acc))
          in
          extra (h - lo) base base)

let oracle_full_match re s = List.mem (String.length s) (interp re s 0)

(* Random small regexes over {a, b} and random small inputs. *)
let gen_regex : Regex.Syntax.t QCheck.arbitrary =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return Regex.Syntax.Empty;
        return (Regex.Syntax.Char 'a');
        return (Regex.Syntax.Char 'b');
        return Regex.Syntax.Any;
        return (Regex.Syntax.Class { negated = false; ranges = [ ('a', 'b') ] });
        return (Regex.Syntax.Class { negated = true; ranges = [ ('a', 'a') ] }) ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      oneof
        [ leaf;
          map2 (fun a b -> Regex.Syntax.Seq (a, b)) (node (depth - 1)) (node (depth - 1));
          map2 (fun a b -> Regex.Syntax.Alt (a, b)) (node (depth - 1)) (node (depth - 1));
          map (fun a -> Regex.Syntax.Star a) (node (depth - 1));
          map (fun a -> Regex.Syntax.Plus a) (node (depth - 1));
          map (fun a -> Regex.Syntax.Opt a) (node (depth - 1));
          map (fun a -> Regex.Syntax.Repeat (a, 1, Some 2)) (node (depth - 1)) ]
  in
  QCheck.make
    ~print:(fun r -> Regex.Syntax.to_pattern r)
    (node 3)

let gen_input : string QCheck.arbitrary =
  QCheck.make ~print:(fun s -> s)
    QCheck.Gen.(map (String.concat "") (list_size (int_bound 6) (oneofl [ "a"; "b"; "c" ])))

let prop_vm_agrees_with_oracle =
  (* run_at reports the longest accepting offset, and accepting offsets are
     bounded by the input length, so a full match exists iff run_at returns
     exactly the input length. *)
  QCheck.Test.make ~name:"NFA VM agrees with AST interpreter" ~count:1000
    (QCheck.pair gen_regex gen_input) (fun (ast, s) ->
      let prog = Regex.Nfa.compile ast in
      let full_vm =
        match Regex.Nfa.run_at prog s 0 with
        | Some stop -> stop = String.length s
        | None -> false
      in
      full_vm = oracle_full_match ast s)

let prop_roundtrip_print_parse =
  QCheck.Test.make ~name:"print/parse roundtrip preserves semantics" ~count:500
    (QCheck.pair gen_regex gen_input) (fun (ast, s) ->
      let printed = Regex.Syntax.to_pattern ast in
      match Regex.Parse.parse printed with
      | Error _ -> false
      | Ok ast' -> oracle_full_match ast s = oracle_full_match ast' s)

let prop_search_iff_some_substring =
  QCheck.Test.make ~name:"search = exists matching substring" ~count:300
    (QCheck.pair gen_regex gen_input) (fun (ast, s) ->
      let pattern = Regex.Syntax.to_pattern ast in
      match Regex.Engine.compile pattern with
      | Error _ -> QCheck.assume_fail ()
      | Ok r ->
          let n = String.length s in
          let any_sub = ref false in
          for i = 0 to n do
            for j = i to n do
              if oracle_full_match ast (String.sub s i (j - i)) then any_sub := true
            done
          done;
          Regex.Engine.search r s = !any_sub)

(* Worker-entered patterns are arbitrary strings, so [compile] must
   return on every one. The generator favours what repetition bounds and
   groups are made of: digit runs up to 25 long inside braces (past
   [max_int] from 19 digits on) and groups nested three deep under bounds
   (past the instruction budget, or around a body that compiles to
   nothing). *)
let gen_pattern_text =
  let open QCheck.Gen in
  let digits =
    map (String.concat "")
      (list_size (int_range 1 25) (map string_of_int (int_range 0 9)))
  in
  let piece =
    frequency
      [ ( 4,
          map (String.make 1)
            (oneofl
               [ 'a'; 'b'; '('; ')'; '{'; '}'; ','; '|'; '*'; '+'; '?'; '['; ']';
                 '^'; '$'; '\\'; '.'; '-' ]) );
        (2, digits);
        (2, map (fun d -> "{" ^ d ^ "}") digits);
        (1, map2 (fun d e -> "{" ^ d ^ "," ^ e ^ "}") digits digits) ]
  in
  let rec nested depth =
    let flat = map (String.concat "") (list_size (int_range 0 5) piece) in
    if depth = 0 then flat
    else
      frequency
        [ (1, flat);
          ( 2,
            map2
              (fun inner d -> "(" ^ inner ^ "){" ^ d ^ "}")
              (nested (depth - 1)) digits ) ]
  in
  map (String.concat "") (list_size (int_range 1 3) (nested 3))

let prop_compile_never_raises =
  QCheck.Test.make ~name:"compile returns on any pattern text" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") gen_pattern_text)
    (fun p ->
      let returns case_insensitive =
        match Regex.Engine.compile ~case_insensitive p with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      returns false && returns true)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_vm_agrees_with_oracle; prop_roundtrip_print_parse;
      prop_search_iff_some_substring; prop_compile_never_raises ]

let suite =
  [ ( "regex.parse",
      [ Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip ] );
    ( "regex.match",
      [ Alcotest.test_case "literals" `Quick test_literals;
        Alcotest.test_case "any and classes" `Quick test_any_and_classes;
        Alcotest.test_case "repetition" `Quick test_repetition;
        Alcotest.test_case "alternation/grouping" `Quick test_alternation_grouping;
        Alcotest.test_case "anchors" `Quick test_anchors;
        Alcotest.test_case "search semantics" `Quick test_search_semantics;
        Alcotest.test_case "case insensitive" `Quick test_case_insensitive;
        Alcotest.test_case "find spans" `Quick test_find_spans;
        Alcotest.test_case "empty-match progress" `Quick test_empty_match_progress;
        Alcotest.test_case "no pathological blowup" `Quick test_pathological_no_blowup;
        Alcotest.test_case "instruction budget" `Quick test_instruction_budget ] );
    ("regex.properties", qcheck_tests) ]
