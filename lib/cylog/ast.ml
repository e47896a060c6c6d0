type span = {
  start_line : int;
  start_col : int;
  end_line : int;
  end_col : int;
}

let no_span = { start_line = 0; start_col = 0; end_line = 0; end_col = 0 }

let span_is_known s = s <> no_span

type binop = Add | Sub | Mul | Div

type expr =
  | Const of Reldb.Value.t
  | Var of string
  | List of expr list
  | Binop of binop * expr * expr

type cmpop = Eq | Neq | Lt | Le | Gt | Ge

type arg = { attr : string; bind : bind }
and bind = Auto | Bound of expr

type atom = { pred : string; args : arg list }

type lit =
  | Pos of atom
  | Neg of atom
  | Cmp of expr * cmpop * expr
  | Call of string * expr list

type literal = { lit : lit; lit_span : span }

type head_kind = Assert | Open of expr option | Update | Delete

type head_node =
  | Head_atom of { atom : atom; kind : head_kind }
  | Head_payoff of (string * expr) list

type head = { head : head_node; head_span : span }

type statement = {
  label : string option;
  heads : head list;
  body : literal list;
  stmt_span : span;
}

type schema_decl = {
  rel_name : string;
  rel_attrs : (string * bool * bool) list;
  decl_span : span;
}

type game_decl = {
  game_name : string;
  game_params : string list;
  path_rules : statement list;
  payoff_rules : statement list;
}

type view = { view_name : string; template : string }

type program = {
  schemas : schema_decl list;
  statements : statement list;
  games : game_decl list;
  views : view list;
}

let empty_program = { schemas = []; statements = []; games = []; views = [] }

(* -- Smart constructors -------------------------------------------------- *)

let literal ?(span = no_span) lit = { lit; lit_span = span }

let head_atom ?(span = no_span) ?(kind = Assert) atom =
  { head = Head_atom { atom; kind }; head_span = span }

let head_payoff ?(span = no_span) updates =
  { head = Head_payoff updates; head_span = span }

let statement ?label ?(span = no_span) heads body =
  { label; heads; body; stmt_span = span }

(* -- Span erasure (for span-insensitive structural equality) ------------- *)

let strip_literal l = { l with lit_span = no_span }
let strip_head h = { h with head_span = no_span }

let strip_statement s =
  {
    s with
    heads = List.map strip_head s.heads;
    body = List.map strip_literal s.body;
    stmt_span = no_span;
  }

let strip_schema_decl (d : schema_decl) = { d with decl_span = no_span }

let strip_game g =
  {
    g with
    path_rules = List.map strip_statement g.path_rules;
    payoff_rules = List.map strip_statement g.payoff_rules;
  }

let strip_program p =
  {
    p with
    schemas = List.map strip_schema_decl p.schemas;
    statements = List.map strip_statement p.statements;
    games = List.map strip_game p.games;
  }

(* -- Helpers ------------------------------------------------------------- *)

let rec expr_vars = function
  | Const _ -> []
  | Var v -> [ v ]
  | List es -> List.concat_map expr_vars es
  | Binop (_, a, b) -> expr_vars a @ expr_vars b

let expr_vars e = List.sort_uniq String.compare (expr_vars e)

let literal_positive_preds l =
  match l.lit with
  | Pos { pred; _ } -> [ pred ]
  | Neg _ | Cmp _ | Call _ -> []

let body_preds body =
  List.sort_uniq String.compare
    (List.concat_map
       (fun l ->
         match l.lit with
         | Pos { pred; _ } | Neg { pred; _ } -> [ pred ]
         | Cmp _ | Call _ -> [])
       body)

let head_pred h =
  match h.head with
  | Head_atom { atom; _ } -> Some atom.pred
  | Head_payoff _ -> None

let statement_preds s =
  List.sort_uniq String.compare (List.filter_map head_pred s.heads)

let statement_is_fact s = s.body = []

let statement_is_open s =
  List.exists
    (fun h ->
      match h.head with
      | Head_atom { kind = Open _; _ } -> true
      | Head_atom _ | Head_payoff _ -> false)
    s.heads

(* Variables a positive atom makes available downstream: every attribute
   name (testing arguments re-expose the attribute variable, see
   [Eval.match_atom]) plus the variables of bound expressions (alias
   bindings and list destructuring both bind). *)
let atom_vars_bound a =
  List.concat_map
    (fun arg -> arg.attr :: (match arg.bind with Auto -> [] | Bound e -> expr_vars e))
    a.args

module Vars = Set.Make (String)

(* Order-insensitive binding fixpoint over a body: positive atoms bind
   unconditionally; [v = e] (either direction) binds [v] once [e] is
   closed, mirroring [Eval.check_filter]. Order-insensitivity avoids false
   positives under planner reordering. *)
let body_bound ~init body =
  let bound = ref init in
  List.iter
    (fun l ->
      match l.lit with
      | Pos a -> List.iter (fun v -> bound := Vars.add v !bound) (atom_vars_bound a)
      | Neg _ | Cmp _ | Call _ -> ())
    body;
  let closed e = List.for_all (fun v -> Vars.mem v !bound) (expr_vars e) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        match l.lit with
        | Cmp (Var v, Eq, e) when (not (Vars.mem v !bound)) && closed e ->
            bound := Vars.add v !bound;
            changed := true
        | Cmp (e, Eq, Var v) when (not (Vars.mem v !bound)) && closed e ->
            bound := Vars.add v !bound;
            changed := true
        | _ -> ())
      body
  done;
  !bound

(* -- Game-aspect desugaring ---------------------------------------------- *)

let path_relation_name game = "Path@" ^ game

let rewrite_game_statement game params s =
  let atom a =
    if a.pred <> "Path" then a
    else
      {
        pred = path_relation_name game;
        args = List.map (fun p -> { attr = p; bind = Auto }) params @ a.args;
      }
  in
  let literal l =
    match l.lit with
    | Pos a -> { l with lit = Pos (atom a) }
    | Neg a -> { l with lit = Neg (atom a) }
    | Cmp _ | Call _ -> l
  in
  let head h =
    match h.head with
    | Head_atom { atom = a; kind } -> { h with head = Head_atom { atom = atom a; kind } }
    | Head_payoff _ -> h
  in
  { s with heads = List.map head s.heads; body = List.map literal s.body }
