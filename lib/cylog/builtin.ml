type t = Reldb.Value.t list -> Reldb.Value.t

exception Unknown of string
exception Bad_arguments of { name : string; message : string }

type registry = (string, t) Hashtbl.t

let bad name message = raise (Bad_arguments { name; message })

let string_arg name = function
  | Reldb.Value.String s -> s
  | v -> bad name ("expected a string, got " ^ Reldb.Value.to_string v)

let two name f = function
  | [ a; b ] -> f a b
  | args -> bad name (Printf.sprintf "expected 2 arguments, got %d" (List.length args))

let one name f = function
  | [ a ] -> f a
  | args -> bad name (Printf.sprintf "expected 1 argument, got %d" (List.length args))

let bool b = Reldb.Value.Bool b

(* matches(cond, text): true iff the regex [cond] occurs somewhere in
   [text] — the paper's extraction-rule semantics ("if a tweet matches with
   the condition"). Compiled patterns are cached per registry; malformed
   worker-entered patterns simply never match. *)
let make_matches () =
  let cache : (string, Regex.Engine.t option) Hashtbl.t = Hashtbl.create 64 in
  fun args ->
    two "matches"
      (fun cond text ->
        let cond = string_arg "matches" cond in
        let text = string_arg "matches" text in
        let compiled =
          match Hashtbl.find_opt cache cond with
          | Some c -> c
          | None ->
              let c =
                match Regex.Engine.compile ~case_insensitive:true cond with
                | Ok r -> Some r
                | Error _ -> None
              in
              Hashtbl.replace cache cond c;
              c
        in
        match compiled with
        | Some r -> bool (Regex.Engine.search r text)
        | None -> bool false)
      args

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let register reg name f = Hashtbl.replace reg name f

let call reg name args =
  match Hashtbl.find_opt reg name with
  | Some f -> f args
  | None -> raise (Unknown name)

let default () =
  let reg : registry = Hashtbl.create 16 in
  register reg "matches" (make_matches ());
  register reg "contains"
    (two "contains" (fun a b ->
         bool (contains_substring (string_arg "contains" a) (string_arg "contains" b))));
  register reg "starts_with"
    (two "starts_with" (fun a b ->
         let s = string_arg "starts_with" a and p = string_arg "starts_with" b in
         bool (String.length p <= String.length s && String.sub s 0 (String.length p) = p)));
  register reg "ends_with"
    (two "ends_with" (fun a b ->
         let s = string_arg "ends_with" a and p = string_arg "ends_with" b in
         let n = String.length s and m = String.length p in
         bool (m <= n && String.sub s (n - m) m = p)));
  register reg "lowercase"
    (one "lowercase" (fun a ->
         Reldb.Value.String (String.lowercase_ascii (string_arg "lowercase" a))));
  register reg "length"
    (one "length" (fun a ->
         match a with
         | Reldb.Value.String s -> Reldb.Value.Int (String.length s)
         | Reldb.Value.List l -> Reldb.Value.Int (List.length l)
         | v -> bad "length" ("expected string or list, got " ^ Reldb.Value.to_string v)));
  register reg "concat"
    (two "concat" (fun a b ->
         Reldb.Value.String (string_arg "concat" a ^ string_arg "concat" b)));
  register reg "abs"
    (one "abs" (fun a ->
         match a with
         | Reldb.Value.Int i -> Reldb.Value.Int (abs i)
         | Reldb.Value.Float f -> Reldb.Value.Float (Float.abs f)
         | v -> bad "abs" ("expected a number, got " ^ Reldb.Value.to_string v)));
  register reg "min"
    (two "min" (fun a b -> if Reldb.Value.compare a b <= 0 then a else b));
  register reg "max"
    (two "max" (fun a b -> if Reldb.Value.compare a b >= 0 then a else b));
  register reg "mod"
    (two "mod" (fun a b ->
         match (a, b) with
         | Reldb.Value.Int _, Reldb.Value.Int 0 -> bad "mod" "division by zero"
         | Reldb.Value.Int x, Reldb.Value.Int y -> Reldb.Value.Int (x mod y)
         | _ -> bad "mod" "expected integers"));
  reg
