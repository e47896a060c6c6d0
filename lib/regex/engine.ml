type t = { pattern : string; program : Nfa.program }

(* Case-insensitivity is a source-to-source transform: every literal letter
   becomes a two-character class, every class range over letters is
   duplicated in the other case. *)
let rec decase (re : Syntax.t) : Syntax.t =
  let both c =
    let lo = Char.lowercase_ascii c and up = Char.uppercase_ascii c in
    if lo = up then Syntax.Char c
    else Syntax.Class { negated = false; ranges = [ (lo, lo); (up, up) ] }
  in
  match re with
  | Syntax.Char c -> both c
  | Syntax.Class { negated; ranges } ->
      let widen (lo, hi) =
        let crosses pred = pred lo || pred hi in
        let is_lower c = c >= 'a' && c <= 'z' in
        let is_upper c = c >= 'A' && c <= 'Z' in
        if crosses is_lower then
          [ (lo, hi); (Char.uppercase_ascii (max lo 'a'), Char.uppercase_ascii (min hi 'z')) ]
        else if crosses is_upper then
          [ (lo, hi); (Char.lowercase_ascii (max lo 'A'), Char.lowercase_ascii (min hi 'Z')) ]
        else [ (lo, hi) ]
      in
      Syntax.Class { negated; ranges = List.concat_map widen ranges }
  | Syntax.Seq (a, b) -> Syntax.Seq (decase a, decase b)
  | Syntax.Alt (a, b) -> Syntax.Alt (decase a, decase b)
  | Syntax.Star a -> Syntax.Star (decase a)
  | Syntax.Plus a -> Syntax.Plus (decase a)
  | Syntax.Opt a -> Syntax.Opt (decase a)
  | Syntax.Repeat (a, lo, hi) -> Syntax.Repeat (decase a, lo, hi)
  | (Syntax.Empty | Syntax.Any | Syntax.Bol | Syntax.Eol) as leaf -> leaf

let compile ?(case_insensitive = false) pattern =
  match Parse.parse pattern with
  | Error e -> Error e
  | Ok ast -> (
      let ast = if case_insensitive then decase ast else ast in
      match Nfa.compile ast with
      | program -> Ok { pattern; program }
      | exception Nfa.Too_large ->
          Error { Parse.position = 0; message = "pattern too large to compile" })

let compile_exn ?case_insensitive pattern =
  match compile ?case_insensitive pattern with
  | Ok re -> re
  | Error e -> invalid_arg (Format.asprintf "%a (in %S)" Parse.pp_error e pattern)

let pattern re = re.pattern

let full_match re s =
  match Nfa.run_at re.program s 0 with
  | Some stop -> stop = String.length s
  | None -> false

let search re s = Nfa.search_from re.program s 0 <> None
let find re s = Nfa.search_from re.program s 0

let find_all re s =
  let n = String.length s in
  let rec loop from acc =
    if from > n then List.rev acc
    else
      match Nfa.search_from re.program s from with
      | None -> List.rev acc
      | Some (start, stop) ->
          let next = if stop = start then stop + 1 else stop in
          loop next ((start, stop) :: acc)
  in
  loop 0 []

let matched_string s (start, stop) = String.sub s start (stop - start)

let replace re ~by s =
  let spans = find_all re s in
  let buf = Buffer.create (String.length s) in
  let pos = ref 0 in
  List.iter
    (fun (start, stop) ->
      Buffer.add_substring buf s !pos (start - !pos);
      Buffer.add_string buf by;
      pos := stop)
    spans;
  Buffer.add_substring buf s !pos (String.length s - !pos);
  Buffer.contents buf

let is_valid pattern = Result.is_ok (compile pattern)
