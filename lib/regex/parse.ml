type error = { position : int; message : string }

exception Fail of error

let fail position message = raise (Fail { position; message })

type state = { pattern : string; mutable pos : int }

let peek st = if st.pos < String.length st.pattern then Some st.pattern.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st.pos (Printf.sprintf "expected %C" c)

let digit_class = Syntax.{ negated = false; ranges = [ ('0', '9') ] }

let word_class =
  Syntax.{ negated = false; ranges = [ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ] }

let space_class =
  Syntax.{ negated = false; ranges = [ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ] }

let negate (c : Syntax.char_class) = Syntax.{ c with negated = not c.negated }

let parse_escape st =
  match peek st with
  | None -> fail st.pos "dangling backslash"
  | Some c ->
      advance st;
      (match c with
      | 'd' -> Syntax.Class digit_class
      | 'D' -> Syntax.Class (negate digit_class)
      | 'w' -> Syntax.Class word_class
      | 'W' -> Syntax.Class (negate word_class)
      | 's' -> Syntax.Class space_class
      | 'S' -> Syntax.Class (negate space_class)
      | 'n' -> Syntax.Char '\n'
      | 't' -> Syntax.Char '\t'
      | 'r' -> Syntax.Char '\r'
      | '\\' | '.' | '*' | '+' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '^' | '$'
      | '-' ->
          Syntax.Char c
      | _ -> fail (st.pos - 1) (Printf.sprintf "unknown escape \\%c" c))

let parse_class_member st =
  match peek st with
  | None -> fail st.pos "unterminated character class"
  | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st.pos "dangling backslash in class"
      | Some c ->
          advance st;
          (match c with
          | 'n' -> `Char '\n'
          | 't' -> `Char '\t'
          | 'r' -> `Char '\r'
          | 'd' -> `Ranges digit_class.ranges
          | 'w' -> `Ranges word_class.ranges
          | 's' -> `Ranges space_class.ranges
          | _ -> `Char c))
  | Some c ->
      advance st;
      `Char c

let parse_class st =
  (* Called after '['. *)
  let negated =
    match peek st with
    | Some '^' ->
        advance st;
        true
    | _ -> false
  in
  let ranges = ref [] in
  let rec loop () =
    match peek st with
    | None -> fail st.pos "unterminated character class"
    | Some ']' -> advance st
    | Some _ -> (
        match parse_class_member st with
        | `Ranges rs ->
            ranges := List.rev_append rs !ranges;
            loop ()
        | `Char lo -> (
            match peek st with
            | Some '-' when st.pos + 1 < String.length st.pattern
                            && st.pattern.[st.pos + 1] <> ']' ->
                advance st;
                (match parse_class_member st with
                | `Char hi ->
                    if Char.code hi < Char.code lo then
                      fail st.pos (Printf.sprintf "inverted range %c-%c" lo hi);
                    ranges := (lo, hi) :: !ranges;
                    loop ()
                | `Ranges _ -> fail st.pos "class escape cannot end a range")
            | _ ->
                ranges := (lo, lo) :: !ranges;
                loop ()))
  in
  loop ();
  if !ranges = [] then fail st.pos "empty character class";
  Syntax.Class { negated; ranges = List.rev !ranges }

let parse_int st =
  let start = st.pos in
  let rec loop () =
    match peek st with
    | Some c when c >= '0' && c <= '9' ->
        advance st;
        loop ()
    | _ -> ()
  in
  loop ();
  if st.pos = start then None
  else
    match int_of_string_opt (String.sub st.pattern start (st.pos - start)) with
    | Some n -> Some n
    | None -> fail start "repetition bound too large"

let parse_bounds st =
  (* Called after '{'. *)
  let lo = match parse_int st with Some n -> n | None -> fail st.pos "expected bound" in
  let hi =
    match peek st with
    | Some ',' ->
        advance st;
        (match parse_int st with Some n -> Some n | None -> None)
    | _ -> Some lo
  in
  expect st '}';
  (match hi with
  | Some h when h < lo -> fail st.pos (Printf.sprintf "bounds {%d,%d} inverted" lo h)
  | _ -> ());
  (lo, hi)

let rec parse_alt st =
  let left = parse_concat st in
  match peek st with
  | Some '|' ->
      advance st;
      Syntax.Alt (left, parse_alt st)
  | _ -> left

and parse_concat st =
  let rec loop acc =
    match peek st with
    | None | Some ')' | Some '|' -> acc
    | Some _ ->
        let r = parse_repeat st in
        loop (if acc = Syntax.Empty then r else Syntax.Seq (acc, r))
  in
  loop Syntax.Empty

and parse_repeat st =
  let atom = parse_atom st in
  let rec loop acc =
    match peek st with
    | Some '*' ->
        advance st;
        loop (Syntax.Star acc)
    | Some '+' ->
        advance st;
        loop (Syntax.Plus acc)
    | Some '?' ->
        advance st;
        loop (Syntax.Opt acc)
    | Some '{' ->
        advance st;
        let lo, hi = parse_bounds st in
        loop (Syntax.Repeat (acc, lo, hi))
    | _ -> acc
  in
  loop atom

and parse_atom st =
  match peek st with
  | None -> fail st.pos "expected an atom"
  | Some '(' ->
      advance st;
      let inner = parse_alt st in
      expect st ')';
      inner
  | Some '[' ->
      advance st;
      parse_class st
  | Some '.' ->
      advance st;
      Syntax.Any
  | Some '^' ->
      advance st;
      Syntax.Bol
  | Some '$' ->
      advance st;
      Syntax.Eol
  | Some '\\' ->
      advance st;
      parse_escape st
  | Some (('*' | '+' | '?' | '{' | ')' | '|' | ']' | '}') as c) ->
      fail st.pos (Printf.sprintf "unexpected %C" c)
  | Some c ->
      advance st;
      Syntax.Char c

let parse pattern =
  let st = { pattern; pos = 0 } in
  try
    let re = parse_alt st in
    if st.pos < String.length pattern then
      Error { position = st.pos; message = "trailing input" }
    else Ok re
  with Fail e -> Error e

let pp_error ppf { position; message } =
  Format.fprintf ppf "regex parse error at %d: %s" position message

let parse_exn pattern =
  match parse pattern with
  | Ok re -> re
  | Error e -> invalid_arg (Format.asprintf "%a (in %S)" pp_error e pattern)
