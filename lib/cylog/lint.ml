type severity = Error | Warning

type diagnostic = {
  code : string;
  severity : severity;
  span : Ast.span;
  message : string;
}

exception Rejected of diagnostic list

let severity_name = function Error -> "error" | Warning -> "warning"

module S = Set.Make (String)

(* -- Catalogue ----------------------------------------------------------- *)

let all_codes =
  [
    (* Safety / range restriction (Section 4.1). *)
    ("unsafe-head-var", Error, "head variable not bound by the body");
    ("unsafe-neg-var", Error, "negated atom uses a variable no positive atom binds");
    ("unsafe-cmp-var", Error, "comparison over variables no positive atom binds");
    ("unsafe-call-var", Error, "builtin call over variables no positive atom binds");
    ("payoff-unbound-var", Error, "payoff head pays a variable the body does not bind");
    (* Stratification (Section 9.1, Figure 14). *)
    ("unstratified", Error, "negated relation is asserted by a later statement");
    ("self-negation", Error, "statement negates a relation its own heads assert");
    (* Schema conformance. *)
    ("duplicate-schema", Error, "relation declared twice in the schema section");
    ("duplicate-attr", Error, "attribute declared twice in one relation");
    ("multiple-auto", Error, "more than one auto attribute in one relation");
    ("unknown-attr", Error, "atom mentions an attribute absent from the declared schema");
    ("type-conflict", Warning, "constants of conflicting types stored in one column");
    (* Liveness. *)
    ("undefined-relation", Warning, "relation read but never declared or written");
    ("unused-relation", Warning, "declared relation never read or written");
    ("unreachable-rule", Warning, "rule reads a relation nothing can ever populate");
    ("dead-delete", Warning, "/delete targets a relation nothing ever populates");
    (* Game aspects (Section 8). *)
    ("payoff-outside-game", Warning, "payoff head outside any game block");
    ("game-no-path", Warning, "game declares no path rules");
    ("game-never-fires", Warning, "no path rule of the game can ever fire");
    ("game-dead-open", Warning, "/open head in a game rule that can never fire");
    (* Budget analysis (Analysis module). *)
    ("unbounded-task-emission", Error, "open statement can issue unboundedly many tasks");
    ("budget-unknown", Warning, "open statement's task budget cannot be bounded statically");
    ("statically-dead-open", Warning, "open statement whose body cardinality is provably 0");
  ]

let default_severity code =
  match List.find_opt (fun (c, _, _) -> String.equal c code) all_codes with
  | Some (_, s, _) -> s
  | None -> Warning

let is_known_code code =
  List.exists (fun (c, _, _) -> String.equal c code) all_codes

let diag ?(span = Ast.no_span) code fmt =
  Format.kasprintf
    (fun message -> { code; severity = default_severity code; span; message })
    fmt

(* -- Shared traversals --------------------------------------------------- *)

(* Every rule of the program: main statements plus each game's path and
   payoff rules, tagged with the game context (its Skolem parameters are
   implicitly bound in game rules). *)
let all_rules (p : Ast.program) =
  List.map (fun s -> (None, s)) p.statements
  @ List.concat_map
      (fun (g : Ast.game_decl) ->
        List.map (fun s -> (Some g, s)) (g.path_rules @ g.payoff_rules))
      p.games

let head_writes ?(kinds = [ `Assert; `Open; `Update ]) (s : Ast.statement) =
  List.filter_map
    (fun (h : Ast.head) ->
      match h.Ast.head with
      | Ast.Head_atom { atom; kind } ->
          let k =
            match kind with
            | Ast.Assert -> `Assert
            | Ast.Open _ -> `Open
            | Ast.Update -> `Update
            | Ast.Delete -> `Delete
          in
          if List.mem k kinds then Some atom.Ast.pred else None
      | Ast.Head_payoff _ -> None)
    s.Ast.heads

(* Variables an atom needs when it only tests (negation): bare attributes
   read the equally-named variable, bound expressions their variables. *)
let atom_vars_used (a : Ast.atom) =
  List.concat_map
    (fun (arg : Ast.arg) ->
      match arg.Ast.bind with
      | Ast.Auto -> [ arg.Ast.attr ]
      | Ast.Bound e -> Ast.expr_vars e)
    a.Ast.args

let sorted_unbound bound vars =
  List.sort_uniq String.compare (List.filter (fun v -> not (S.mem v bound)) vars)

(* -- Family 1: safety / range restriction -------------------------------- *)

let check_safety ~params (s : Ast.statement) =
  let bound = Ast.body_bound ~init:params s.Ast.body in
  let out = ref [] in
  let emit d = out := d :: !out in
  List.iter
    (fun (l : Ast.literal) ->
      match l.Ast.lit with
      | Ast.Pos _ -> ()
      | Ast.Neg a ->
          List.iter
            (fun v ->
              emit
                (diag ~span:l.Ast.lit_span "unsafe-neg-var"
                   "variable %s in negated atom %s is not bound by a positive body atom"
                   v a.Ast.pred))
            (sorted_unbound bound (atom_vars_used a))
      | Ast.Cmp (lhs, _, rhs) ->
          List.iter
            (fun v ->
              emit
                (diag ~span:l.Ast.lit_span "unsafe-cmp-var"
                   "variable %s in comparison is not bound by a positive body atom" v))
            (sorted_unbound bound (Ast.expr_vars lhs @ Ast.expr_vars rhs))
      | Ast.Call (f, args) ->
          List.iter
            (fun v ->
              emit
                (diag ~span:l.Ast.lit_span "unsafe-call-var"
                   "variable %s in call to %s is not bound by a positive body atom" v f))
            (sorted_unbound bound (List.concat_map Ast.expr_vars args)))
    s.Ast.body;
  List.iter
    (fun (h : Ast.head) ->
      match h.Ast.head with
      | Ast.Head_atom { atom; kind } ->
          List.iter
            (fun (arg : Ast.arg) ->
              match (arg.Ast.bind, kind) with
              | Ast.Auto, (Ast.Open _ | Ast.Delete) ->
                  (* Open slots (worker-supplied values) and delete
                     wildcards are legitimately unbound. *)
                  ()
              | Ast.Auto, (Ast.Assert | Ast.Update) ->
                  if not (S.mem arg.Ast.attr bound) then
                    emit
                      (diag ~span:h.Ast.head_span "unsafe-head-var"
                         "head variable %s of %s is not bound by the body"
                         arg.Ast.attr atom.Ast.pred)
              | Ast.Bound e, _ ->
                  List.iter
                    (fun v ->
                      emit
                        (diag ~span:h.Ast.head_span "unsafe-head-var"
                           "head variable %s of %s is not bound by the body" v
                           atom.Ast.pred))
                    (sorted_unbound bound (Ast.expr_vars e)))
            atom.Ast.args;
          (match kind with
          | Ast.Open (Some e) ->
              List.iter
                (fun v ->
                  emit
                    (diag ~span:h.Ast.head_span "unsafe-head-var"
                       "asked-worker expression of %s/open uses unbound variable %s"
                       atom.Ast.pred v))
                (sorted_unbound bound (Ast.expr_vars e))
          | _ -> ())
      | Ast.Head_payoff updates ->
          List.iter
            (fun (player, delta) ->
              if not (S.mem player bound) then
                emit
                  (diag ~span:h.Ast.head_span "payoff-unbound-var"
                     "payoff player %s is not bound by the body" player);
              List.iter
                (fun v ->
                  emit
                    (diag ~span:h.Ast.head_span "payoff-unbound-var"
                       "payoff delta for %s uses unbound variable %s" player v))
                (sorted_unbound bound (Ast.expr_vars delta)))
            updates)
    s.Ast.heads;
  List.rev !out

(* -- Family 2: stratification -------------------------------------------- *)

let check_self_negation (s : Ast.statement) =
  let writes = head_writes ~kinds:[ `Assert; `Open ] s in
  let negs =
    List.filter_map
      (fun (l : Ast.literal) ->
        match l.Ast.lit with
        | Ast.Neg a -> Some (a.Ast.pred, l.Ast.lit_span)
        | _ -> None)
      s.Ast.body
  in
  List.filter_map
    (fun (r, span) ->
      if List.mem r writes then
        Some
          (diag ~span "self-negation"
             "statement both asserts and negates %s: the rule re-fires on its own output"
             r)
      else None)
    negs

let check_stratification (statements : Ast.statement list) =
  let g = Precedence.build statements in
  List.map
    (fun (v : Precedence.violation) ->
      let s = Precedence.statement_at g v.vertex in
      let cycle =
        match v.cycle with
        | [] -> ""
        | p ->
            Printf.sprintf " (cycle: %s -> %s)"
              (String.concat " -> " (List.map (Precedence.vertex_name g) p))
              (Precedence.vertex_name g v.vertex)
      in
      diag ~span:s.Ast.stmt_span "unstratified"
        "negation over %s is not stratified: %s asserts %s after this rule first evaluates%s"
        v.negated
        (Precedence.vertex_name g v.writer)
        v.negated cycle)
    (Precedence.negation_violations g)

(* -- Family 3: schema conformance ---------------------------------------- *)

let check_schema_decls (p : Ast.program) =
  let out = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (d : Ast.schema_decl) ->
      if Hashtbl.mem seen d.Ast.rel_name then
        out :=
          diag ~span:d.Ast.decl_span "duplicate-schema" "relation %s is declared twice"
            d.Ast.rel_name
          :: !out
      else Hashtbl.add seen d.Ast.rel_name ();
      let attrs = Hashtbl.create 8 in
      let autos = ref 0 in
      List.iter
        (fun (a, _key, auto) ->
          if Hashtbl.mem attrs a then
            out :=
              diag ~span:d.Ast.decl_span "duplicate-attr"
                "attribute %s of %s is declared twice" a d.Ast.rel_name
              :: !out
          else Hashtbl.add attrs a ();
          if auto then incr autos)
        d.Ast.rel_attrs;
      if !autos > 1 then
        out :=
          diag ~span:d.Ast.decl_span "multiple-auto"
            "relation %s declares %d auto attributes; at most one is supported"
            d.Ast.rel_name !autos
          :: !out)
    p.Ast.schemas;
  List.rev !out

(* Every atom of a statement with the span to blame: heads carry their own
   span, body atoms their literal's. *)
let statement_atoms (s : Ast.statement) =
  List.filter_map
    (fun (h : Ast.head) ->
      match h.Ast.head with
      | Ast.Head_atom { atom; _ } -> Some (atom, h.Ast.head_span)
      | Ast.Head_payoff _ -> None)
    s.Ast.heads
  @ List.filter_map
      (fun (l : Ast.literal) ->
        match l.Ast.lit with
        | Ast.Pos a | Ast.Neg a -> Some (a, l.Ast.lit_span)
        | Ast.Cmp _ | Ast.Call _ -> None)
      s.Ast.body

(* Relations whose schema the engine synthesises itself: [Payoff] is
   auto-declared (player/score) and each game's [Path] table gains the
   Skolem parameters plus order/date columns. *)
let engine_managed rel = String.equal rel "Payoff" || String.equal rel "Path"

let check_schema_conformance (p : Ast.program) =
  let declared = Hashtbl.create 8 in
  List.iter
    (fun (d : Ast.schema_decl) ->
      if not (Hashtbl.mem declared d.Ast.rel_name) then
        Hashtbl.add declared d.Ast.rel_name
          (List.map (fun (a, _, _) -> a) d.Ast.rel_attrs))
    p.Ast.schemas;
  let out = ref [] in
  (* Evidence-based column typing over constant arguments, shared with the
     engine's runtime checks through [Reldb.Value.type_name]. *)
  let evidence : (string * string, string * Ast.span) Hashtbl.t = Hashtbl.create 16 in
  let conflicted = Hashtbl.create 8 in
  List.iter
    (fun (_game, s) ->
      List.iter
        (fun ((atom : Ast.atom), span) ->
          (match Hashtbl.find_opt declared atom.Ast.pred with
          | Some attrs when not (engine_managed atom.Ast.pred) ->
              List.iter
                (fun (arg : Ast.arg) ->
                  if not (List.mem arg.Ast.attr attrs) then
                    out :=
                      diag ~span "unknown-attr"
                        "%s has no attribute %s (declared: %s)" atom.Ast.pred
                        arg.Ast.attr (String.concat ", " attrs)
                      :: !out)
                atom.Ast.args
          | _ -> ());
          if not (engine_managed atom.Ast.pred) then
            List.iter
              (fun (arg : Ast.arg) ->
                match arg.Ast.bind with
                | Ast.Bound (Ast.Const v) when not (Reldb.Value.is_null v) -> (
                    let key = (atom.Ast.pred, arg.Ast.attr) in
                    let tn = Reldb.Value.type_name v in
                    match Hashtbl.find_opt evidence key with
                    | None -> Hashtbl.add evidence key (tn, span)
                    | Some (prev, prev_span) ->
                        if
                          (not (String.equal prev tn))
                          && not (Hashtbl.mem conflicted key)
                        then begin
                          Hashtbl.add conflicted key ();
                          out :=
                            diag ~span "type-conflict"
                              "attribute %s of %s holds %s here but %s at line %d"
                              arg.Ast.attr atom.Ast.pred tn prev
                              prev_span.Ast.start_line
                            :: !out
                        end)
                | _ -> ())
              atom.Ast.args)
        (statement_atoms s))
    (all_rules p);
  List.rev !out

(* -- Family 4: liveness --------------------------------------------------- *)

(* Fixpoint reachability: a rule can fire once every relation its positive
   body atoms read is populated. Declared relations count as populated —
   they are EDB input points the host may fill through the engine API —
   as do the engine-managed tables. *)
let fireable_rules (p : Ast.program) =
  let rules = Array.of_list (all_rules p) in
  let n = Array.length rules in
  let populated = ref (S.of_list (List.map (fun d -> d.Ast.rel_name) p.Ast.schemas)) in
  populated := S.add "Payoff" !populated;
  let fireable = Array.make n false in
  let positive_reads i =
    let _, s = rules.(i) in
    List.concat_map Ast.literal_positive_preds s.Ast.body
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if
        (not fireable.(i))
        && List.for_all
             (fun r -> S.mem r !populated || engine_managed r)
             (positive_reads i)
      then begin
        fireable.(i) <- true;
        changed := true;
        let _, s = rules.(i) in
        List.iter (fun r -> populated := S.add r !populated) (head_writes s)
      end
    done
  done;
  (rules, fireable, !populated)

let check_liveness (p : Ast.program) (rules, fireable, populated) =
  let out = ref [] in
  (* Syntactic mentions, for unused/undefined checks. *)
  let written = ref S.empty and read = ref S.empty in
  let read_sites : (string, Ast.span) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (_g, (s : Ast.statement)) ->
      List.iter (fun r -> written := S.add r !written) (head_writes s);
      List.iter
        (fun (l : Ast.literal) ->
          match l.Ast.lit with
          | Ast.Pos a | Ast.Neg a ->
              read := S.add a.Ast.pred !read;
              if not (Hashtbl.mem read_sites a.Ast.pred) then
                Hashtbl.add read_sites a.Ast.pred l.Ast.lit_span
          | Ast.Cmp _ | Ast.Call _ -> ())
        s.Ast.body)
    rules;
  let delete_targets = ref S.empty in
  Array.iter
    (fun (_g, (s : Ast.statement)) ->
      List.iter (fun r -> delete_targets := S.add r !delete_targets)
        (head_writes ~kinds:[ `Delete ] s))
    rules;
  let declared = S.of_list (List.map (fun d -> d.Ast.rel_name) p.Ast.schemas) in
  (* undefined-relation: read somewhere, no schema, no write anywhere. *)
  S.iter
    (fun r ->
      if
        (not (S.mem r declared))
        && (not (S.mem r !written))
        && not (engine_managed r)
      then
        let span =
          match Hashtbl.find_opt read_sites r with Some s -> s | None -> Ast.no_span
        in
        out :=
          diag ~span "undefined-relation"
            "relation %s is read but never declared, asserted or opened" r
          :: !out)
    !read;
  (* unused-relation: declared, never mentioned, not presented by a view. *)
  List.iter
    (fun (d : Ast.schema_decl) ->
      let r = d.Ast.rel_name in
      if
        (not (S.mem r !read))
        && (not (S.mem r !written))
        && (not (S.mem r !delete_targets))
        && not (List.exists (fun (v : Ast.view) -> String.equal v.Ast.view_name r) p.Ast.views)
      then
        out :=
          diag ~span:d.Ast.decl_span "unused-relation"
            "relation %s is declared but no rule reads or writes it" r
          :: !out)
    p.Ast.schemas;
  (* unreachable-rule: a main rule whose positive reads can never all be
     populated (game rules are covered by the game checks). *)
  Array.iteri
    (fun i (game, (s : Ast.statement)) ->
      if game = None && not fireable.(i) then
        out :=
          diag ~span:s.Ast.stmt_span "unreachable-rule"
            "rule can never fire: no statement, schema or open head populates %s"
            (String.concat ", "
               (List.filter
                  (fun r -> not (S.mem r populated))
                  (List.sort_uniq String.compare
                     (List.concat_map Ast.literal_positive_preds s.Ast.body))))
          :: !out)
    rules;
  (* dead-delete: /delete over a relation nothing ever populates. *)
  Array.iter
    (fun (_g, (s : Ast.statement)) ->
      List.iter
        (fun (h : Ast.head) ->
          match h.Ast.head with
          | Ast.Head_atom { atom; kind = Ast.Delete } ->
              let r = atom.Ast.pred in
              if
                (not (S.mem r declared))
                && (not (S.mem r !written))
                && not (engine_managed r)
              then
                out :=
                  diag ~span:h.Ast.head_span "dead-delete"
                    "/delete targets %s, which nothing ever populates" r
                  :: !out
          | _ -> ())
        s.Ast.heads)
    rules;
  List.rev !out

(* -- Family 5: game aspects ---------------------------------------------- *)

let check_games (p : Ast.program) (rules, fireable, _) =
  let rule_fireable (s : Ast.statement) =
    (* Statements are compared physically: [all_rules] preserves them. *)
    let found = ref true in
    Array.iteri (fun i (_g, s') -> if s' == s then found := fireable.(i)) rules;
    !found
  in
  let out = ref [] in
  (* payoff-outside-game: the engine evaluates these, but the paper's
     payoff semantics is per game instance. *)
  List.iter
    (fun (s : Ast.statement) ->
      List.iter
        (fun (h : Ast.head) ->
          match h.Ast.head with
          | Ast.Head_payoff _ ->
              out :=
                diag ~span:h.Ast.head_span "payoff-outside-game"
                  "payoff head outside any game block: payoffs are per-game-instance"
                :: !out
          | Ast.Head_atom _ -> ())
        s.Ast.heads)
    p.Ast.statements;
  List.iter
    (fun (g : Ast.game_decl) ->
      (match (g.Ast.path_rules, g.Ast.payoff_rules) with
      | [], pr ->
          let span =
            match pr with s :: _ -> s.Ast.stmt_span | [] -> Ast.no_span
          in
          out :=
            diag ~span "game-no-path"
              "game %s declares no path rules: no moves can ever be recorded"
              g.Ast.game_name
            :: !out
      | path, _ ->
          if not (List.exists rule_fireable path) then
            out :=
              diag ~span:(List.hd path).Ast.stmt_span "game-never-fires"
                "no path rule of game %s can ever fire" g.Ast.game_name
              :: !out);
      List.iter
        (fun (s : Ast.statement) ->
          if not (rule_fireable s) then
            List.iter
              (fun (h : Ast.head) ->
                match h.Ast.head with
                | Ast.Head_atom { kind = Ast.Open _; atom } ->
                    out :=
                      diag ~span:h.Ast.head_span "game-dead-open"
                        "open head %s sits in a game rule that can never fire"
                        atom.Ast.pred
                      :: !out
                | Ast.Head_atom _ | Ast.Head_payoff _ -> ())
              s.Ast.heads)
        (g.Ast.path_rules @ g.Ast.payoff_rules))
    p.Ast.games;
  List.rev !out

(* -- Budget analysis (A codes) -------------------------------------------- *)

(* One diagnostic per open head whose certificate entry is not finite and
   positive. The analysis itself is total, so this family never masks the
   others. Standing opens and host-input-bounded opens are warnings — they
   are legitimate crowd idioms (VRE's rule collection) that a campaign
   server should cap with a runtime budget; true recursion through an open
   relation is an error, with the witness cycle in the message. *)
let check_analysis (p : Ast.program) =
  let cert = Analysis.analyze p in
  List.concat_map
    (fun (t : Analysis.task_bound) ->
      match t.Analysis.tb_answers with
      | Analysis.Unbounded ((Analysis.Open_cycle _ | Analysis.Value_cycle _) as r) ->
          [
            diag ~span:t.tb_span "unbounded-task-emission"
              "open statement %s on %s can issue unboundedly many tasks: %s"
              t.tb_label t.tb_relation
              (Analysis.card_to_string (Analysis.Unbounded r));
          ]
      | Analysis.Unbounded Analysis.Standing ->
          [
            diag ~span:t.tb_span "budget-unknown"
              "open statement %s on %s is standing (fresh auto key per answer), so its budget needs a runtime cap"
              t.tb_label t.tb_relation;
          ]
      | Analysis.Bounded_by_input ->
          [
            diag ~span:t.tb_span "budget-unknown"
              "open statement %s on %s is bounded only by host-supplied input"
              t.tb_label t.tb_relation;
          ]
      | Analysis.Zero ->
          [
            diag ~span:t.tb_span "statically-dead-open"
              "open statement %s on %s has body cardinality 0 and can never issue a task"
              t.tb_label t.tb_relation;
          ]
      | Analysis.Finite _ -> [])
    cert.Analysis.cert_tasks

(* -- Driver --------------------------------------------------------------- *)

let compare_diag a b =
  let c = compare (a.span.Ast.start_line, a.span.Ast.start_col)
            (b.span.Ast.start_line, b.span.Ast.start_col) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c else String.compare a.message b.message

let apply_overrides overrides diags =
  if overrides = [] then diags
  else
    List.filter_map
      (fun d ->
        match List.assoc_opt d.code overrides with
        | None -> Some d
        | Some `Off -> None
        | Some `Error -> Some { d with severity = Error }
        | Some `Warning -> Some { d with severity = Warning })
      diags

let check ?(overrides = []) (p : Ast.program) =
  let safety =
    List.concat_map
      (fun (game, s) ->
        let params =
          match game with
          | None -> S.empty
          | Some (g : Ast.game_decl) -> S.of_list g.Ast.game_params
        in
        check_safety ~params s @ check_self_negation s)
      (all_rules p)
  in
  let live = fireable_rules p in
  let diags =
    safety
    @ check_stratification p.Ast.statements
    @ check_schema_decls p
    @ check_schema_conformance p
    @ check_liveness p live
    @ check_games p live
    @ check_analysis p
  in
  apply_overrides overrides (List.stable_sort compare_diag diags)

let errors diags = List.filter (fun d -> d.severity = Error) diags
let has_errors diags = List.exists (fun d -> d.severity = Error) diags

(* -- Rendering ------------------------------------------------------------ *)

let render ?(file = "<input>") d =
  if Ast.span_is_known d.span then
    Printf.sprintf "%s:%d:%d-%d:%d: %s: %s %s" file d.span.Ast.start_line
      d.span.Ast.start_col d.span.Ast.end_line d.span.Ast.end_col
      (severity_name d.severity) d.code d.message
  else
    Printf.sprintf "%s: %s: %s %s" file (severity_name d.severity) d.code d.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json ?(file = "<input>") diags =
  let one d =
    Printf.sprintf
      "{\"file\":\"%s\",\"code\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\",\"span\":{\"start_line\":%d,\"start_col\":%d,\"end_line\":%d,\"end_col\":%d}}"
      (json_escape file) (json_escape d.code)
      (severity_name d.severity)
      (json_escape d.message) d.span.Ast.start_line d.span.Ast.start_col
      d.span.Ast.end_line d.span.Ast.end_col
  in
  "[" ^ String.concat "," (List.map one diags) ^ "]"
