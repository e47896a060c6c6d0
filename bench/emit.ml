(* Output of the bench harness: section headers, verdicts and the
   BENCH_*.json artifacts. Artifacts hold counts only, never wall time,
   so regenerating one gives the same bytes; timing claims belong to
   perfbench/, which repeats runs and reports their spread. *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* The descriptions of the checks that did not hold. *)
let failed checks = List.filter_map (fun (what, ok) -> if ok then None else Some what) checks

(* A gate's verdict: [ok] when every check held, else each failure and
   exit 1. *)
let verdict ~ok = function
  | [] -> Format.printf "  ok: %s@." ok
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* The full-scale experiments report failed checks without failing. *)
let notes = List.iter (fun what -> Format.printf "  NOTE: %s@." what)

type json =
  | Int of int
  | Float of float  (** printed with four decimals *)
  | Bool of bool
  | String of string
  | Raw of string  (** JSON the library already rendered, embedded verbatim *)
  | List of json list
  | Obj of (string * json) list

(* One member per line, two-space indent: a changed count is a one-line
   diff. *)
let to_string v =
  let buf = Buffer.create 4096 in
  let str s = Printf.bprintf buf "\"%s\"" (Cylog.Telemetry.json_escape s) in
  let rec value indent = function
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Printf.bprintf buf "%.4f" f
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | String s -> str s
    | Raw s -> Buffer.add_string buf s
    | List vs -> block indent ('[', ']') (List.map (fun v -> (None, v)) vs)
    | Obj kvs -> block indent ('{', '}') (List.map (fun (k, v) -> (Some k, v)) kvs)
  and block indent (opening, closing) members =
    let inner = indent ^ "  " in
    Buffer.add_char buf opening;
    List.iteri
      (fun i (key, v) ->
        Printf.bprintf buf "%s\n%s" (if i = 0 then "" else ",") inner;
        Option.iter (fun k -> str k; Buffer.add_string buf ": ") key;
        value inner v)
      members;
    Printf.bprintf buf "\n%s%c" indent closing
  in
  value "" v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let list f xs = List (List.map f xs)

let write_artifact file v =
  let out = open_out_bin file in
  output_string out (to_string v);
  close_out out;
  Format.printf "  wrote %s@." file

(* The telemetry counters behind an artifact's headline numbers —
   plan-cache traffic, journal appends/fsyncs, delta rounds, statements
   examined — so a changed count can be traced to its mechanism. *)
let telemetry m =
  let keep (k, _) =
    List.exists (fun prefix -> String.starts_with ~prefix k) [ "planner."; "journal."; "eval." ]
  in
  let counters = List.filter keep (Cylog.Telemetry.Metrics.counters m) in
  Obj (List.map (fun (k, v) -> (k, Int v)) (List.sort compare counters))

(* The static budget certificate: a bound regression (a relation going
   unbounded, a task bound jumping) shows in the artifact diff like a
   counter regression does. *)
let certificate engine =
  Raw (Cylog.Analysis.certificate_json (Cylog.Engine.certificate engine))

(* Minimal checker, enough for the dialect the library and this printer
   emit (objects, arrays, strings with escapes, ints/floats, booleans,
   null). Validates that the whole input is one JSON value. *)
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

(* The emitter test each smoke runs on its own rows: the artifact it
   would write must parse. *)
let parse_check name v =
  if json_parses (to_string v) then [] else [ Printf.sprintf "%s JSON does not parse" name ]
