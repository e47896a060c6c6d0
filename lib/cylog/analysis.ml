(* Abstract interpretation for budget certificates. The domain, widening
   rule and certificate format are documented in docs/ANALYSIS.md; the
   interface comment in analysis.mli states the contract (total,
   deterministic, closed-world seeds). *)

module S = Set.Make (String)

type reason =
  | Standing
  | Open_cycle of string list
  | Value_cycle of string list

type card = Zero | Finite of int | Bounded_by_input | Unbounded of reason

(* Saturation ceiling for the finite arithmetic: Herbrand widening can
   produce |V|^arity, which must neither overflow nor render as a
   platform-dependent max_int. *)
let cap = 1_000_000_000

let norm n = if n <= 0 then Zero else Finite (min n cap)

let card_add a b =
  match (a, b) with
  | Zero, x | x, Zero -> x
  | Unbounded r, _ | _, Unbounded r -> Unbounded r
  | Bounded_by_input, _ | _, Bounded_by_input -> Bounded_by_input
  | Finite a, Finite b -> norm (if a > cap - b then cap else a + b)

(* A provably-empty factor annihilates even an unbounded one: zero
   instances of a standing task never issue. *)
let card_mul a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | Unbounded r, _ | _, Unbounded r -> Unbounded r
  | Bounded_by_input, _ | _, Bounded_by_input -> Bounded_by_input
  | Finite a, Finite b -> norm (if b <> 0 && a > cap / b then cap else a * b)

let card_join a b =
  match (a, b) with
  | Unbounded r, _ | _, Unbounded r -> Unbounded r
  | Bounded_by_input, _ | _, Bounded_by_input -> Bounded_by_input
  | Finite a, Finite b -> Finite (max a b)
  | Zero, x | x, Zero -> x

let pow v k =
  let v = min v cap in
  let rec go acc i =
    if i >= k then acc
    else if v <> 0 && acc > cap / v then cap
    else go (acc * v) (i + 1)
  in
  if k <= 0 then 1 else go 1 0

let finite = function Zero -> Some 0 | Finite n -> Some n | _ -> None

let cycle_to_string = function
  | [] -> ""
  | rels -> Printf.sprintf " via %s" (String.concat " -> " rels)

let reason_to_string = function
  | Standing -> "standing task"
  | Open_cycle c -> Printf.sprintf "open recursion%s" (cycle_to_string c)
  | Value_cycle c -> Printf.sprintf "value recursion%s" (cycle_to_string c)

let card_to_string = function
  | Zero -> "0"
  | Finite n -> Printf.sprintf "<= %d" n
  | Bounded_by_input -> "bounded-by-input"
  | Unbounded r -> Printf.sprintf "unbounded (%s)" (reason_to_string r)

type policy = { votes : int; scope : string list option }

let no_policy = { votes = 1; scope = None }

type task_bound = {
  tb_label : string;
  tb_span : Ast.span;
  tb_relation : string;
  tb_instances : card;
  tb_multiplier : card;
  tb_answers : card;
}

type certificate = {
  cert_relations : (string * card) list;
  cert_tasks : task_bound list;
  cert_total_tasks : card;
  cert_total_answers : card;
  cert_policy : string;
  cert_assumptions : string list;
}

(* -- Game-aspect desugaring (as in Engine.effective_statements) --------- *)

(* Every effective statement with the Skolem parameters implicitly bound
   in it (game rules only; the engine passes them through the Path args). *)
let effective (p : Ast.program) =
  List.map (fun s -> (s, [])) p.Ast.statements
  @ List.concat_map
      (fun (g : Ast.game_decl) ->
        let params = g.Ast.game_params in
        List.map
          (fun s -> (Ast.rewrite_game_statement g.Ast.game_name params s, params))
          (g.Ast.path_rules @ g.Ast.payoff_rules))
      p.Ast.games

(* Relations a statement inserts tuples into, for cardinality purposes:
   Assert, Open and Update heads (Update inserts when the key is absent);
   payoff heads feed the engine-managed Payoff table. Deletes only
   shrink. *)
let card_writes (s : Ast.statement) =
  List.filter_map
    (fun (h : Ast.head) ->
      match h.Ast.head with
      | Ast.Head_atom { atom; kind = Ast.Assert | Ast.Open _ | Ast.Update } ->
          Some atom.Ast.pred
      | Ast.Head_atom { kind = Ast.Delete; _ } -> None
      | Ast.Head_payoff _ -> Some "Payoff")
    s.Ast.heads

let positive_reads (s : Ast.statement) =
  List.concat_map Ast.literal_positive_preds s.Ast.body

(* The engine makes an open tuple standing ({e repeatable}) when the head
   mentions the relation's auto-increment attribute but the body leaves it
   unbound: the machine then mints a fresh key per answer and the task
   never retires. *)
let standing autos bound (atom : Ast.atom) =
  match Hashtbl.find_opt autos atom.Ast.pred with
  | None -> false
  | Some auto ->
      List.exists
        (fun (arg : Ast.arg) ->
          String.equal arg.Ast.attr auto
          &&
          match arg.Ast.bind with
          | Ast.Auto -> not (S.mem arg.Ast.attr bound)
          | Ast.Bound e -> List.exists (fun v -> not (S.mem v bound)) (Ast.expr_vars e))
        atom.Ast.args

(* -- Value generation (breaks the Herbrand widening) ---------------------- *)

let expr_builds = function
  | Ast.Const _ | Ast.Var _ -> false
  | Ast.List _ | Ast.Binop _ -> true

let head_builds (h : Ast.head) =
  match h.Ast.head with
  | Ast.Head_atom { atom; _ } ->
      List.exists
        (fun (arg : Ast.arg) ->
          match arg.Ast.bind with Ast.Auto -> false | Ast.Bound e -> expr_builds e)
        atom.Ast.args
  | Ast.Head_payoff updates -> List.exists (fun (_, e) -> expr_builds e) updates

let body_builds (s : Ast.statement) =
  List.exists
    (fun (l : Ast.literal) ->
      match l.Ast.lit with
      | Ast.Cmp (a, Ast.Eq, b) -> expr_builds a || expr_builds b
      | _ -> false)
    s.Ast.body

(* -- The analysis --------------------------------------------------------- *)

let stmt_key (s : Ast.statement) i =
  match s.Ast.label with Some l -> l | None -> Printf.sprintf "#%d" (i + 1)

let policy_to_string policy =
  if policy.votes <= 1 then "one answer per task"
  else
    Printf.sprintf "up to %d answers per undesignated task%s" policy.votes
      (match policy.scope with
      | None -> ""
      | Some rs -> " on " ^ String.concat ", " rs)

let analyze ?(policy = no_policy) ?(live_counts = []) (p : Ast.program) =
  let rules = effective p in
  let arr = Array.of_list rules in
  let n = Array.length arr in
  let stmts = List.map fst rules in
  (* Auto-increment attributes: explicit declarations, plus the [order]
     column the engine synthesises for each game's path table. *)
  let autos : (string, string) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (d : Ast.schema_decl) ->
      List.iter
        (fun (a, _key, auto) ->
          if auto && not (Hashtbl.mem autos d.Ast.rel_name) then
            Hashtbl.add autos d.Ast.rel_name a)
        d.Ast.rel_attrs)
    p.Ast.schemas;
  let declared = S.of_list (List.map (fun (d : Ast.schema_decl) -> d.Ast.rel_name) p.Ast.schemas) in
  List.iter
    (fun (g : Ast.game_decl) ->
      let r = Ast.path_relation_name g.Ast.game_name in
      if (not (S.mem r declared)) && not (Hashtbl.mem autos r) then
        Hashtbl.add autos r "order")
    p.Ast.games;
  (* Attribute inventories, for arities. *)
  let attrs : (string, S.t ref) Hashtbl.t = Hashtbl.create 16 in
  let note r a =
    match Hashtbl.find_opt attrs r with
    | Some set -> set := S.add a !set
    | None -> Hashtbl.add attrs r (ref (S.singleton a))
  in
  List.iter
    (fun (d : Ast.schema_decl) ->
      List.iter (fun (a, _, _) -> note d.Ast.rel_name a) d.Ast.rel_attrs)
    p.Ast.schemas;
  note "Payoff" "player";
  note "Payoff" "score";
  List.iter
    (fun (g : Ast.game_decl) ->
      let r = Ast.path_relation_name g.Ast.game_name in
      List.iter (note r) g.Ast.game_params;
      note r "order";
      note r "date")
    p.Ast.games;
  let scan_atom (a : Ast.atom) =
    List.iter (fun (arg : Ast.arg) -> note a.Ast.pred arg.Ast.attr) a.Ast.args
  in
  List.iter
    (fun (s : Ast.statement) ->
      List.iter
        (fun (h : Ast.head) ->
          match h.Ast.head with
          | Ast.Head_atom { atom; _ } -> scan_atom atom
          | Ast.Head_payoff _ -> ())
        s.Ast.heads;
      List.iter
        (fun (l : Ast.literal) ->
          match l.Ast.lit with
          | Ast.Pos a | Ast.Neg a -> scan_atom a
          | Ast.Cmp _ | Ast.Call _ -> ())
        s.Ast.body)
    stmts;
  let arity r =
    match Hashtbl.find_opt attrs r with
    | Some set -> max 1 (S.cardinal !set)
    | None -> 1
  in
  (* The program's constant pool, for the Herbrand widening. *)
  let consts = ref [] in
  let rec scan_expr = function
    | Ast.Const v -> consts := v :: !consts
    | Ast.Var _ -> ()
    | Ast.List es -> List.iter scan_expr es
    | Ast.Binop (_, a, b) -> scan_expr a; scan_expr b
  in
  let scan_atom_exprs (a : Ast.atom) =
    List.iter
      (fun (arg : Ast.arg) ->
        match arg.Ast.bind with Ast.Auto -> () | Ast.Bound e -> scan_expr e)
      a.Ast.args
  in
  List.iter
    (fun (s : Ast.statement) ->
      List.iter
        (fun (h : Ast.head) ->
          match h.Ast.head with
          | Ast.Head_atom { atom; kind } ->
              scan_atom_exprs atom;
              (match kind with Ast.Open (Some e) -> scan_expr e | _ -> ())
          | Ast.Head_payoff updates -> List.iter (fun (_, e) -> scan_expr e) updates)
        s.Ast.heads;
      List.iter
        (fun (l : Ast.literal) ->
          match l.Ast.lit with
          | Ast.Pos a | Ast.Neg a -> scan_atom_exprs a
          | Ast.Cmp (a, _, b) -> scan_expr a; scan_expr b
          | Ast.Call (_, es) -> List.iter scan_expr es)
        s.Ast.body)
    stmts;
  let n_consts = List.length (List.sort_uniq compare !consts) in
  (* Seeds. *)
  let has_fact = Hashtbl.create 8 in
  List.iter
    (fun (s : Ast.statement) ->
      if s.Ast.body = [] then
        List.iter
          (fun (h : Ast.head) ->
            match h.Ast.head with
            | Ast.Head_atom { atom; kind = Ast.Assert | Ast.Update } ->
                Hashtbl.replace has_fact atom.Ast.pred ()
            | _ -> ())
          s.Ast.heads)
    stmts;
  let cards : (string, card) Hashtbl.t = Hashtbl.create 16 in
  let card_of r = Option.value (Hashtbl.find_opt cards r) ~default:Zero in
  let bump r c = Hashtbl.replace cards r (card_add (card_of r) c) in
  let input_relations =
    List.sort_uniq String.compare
      (List.filter (fun r -> not (Hashtbl.mem has_fact r)) (S.elements declared))
  in
  List.iter (fun r -> Hashtbl.replace cards r Bounded_by_input) input_relations;
  List.iter
    (fun (r, count) -> Hashtbl.replace cards r (card_join (card_of r) (norm count)))
    live_counts;
  (* Statement machinery shared by the component walk and the task pass. *)
  let standing_at i (s : Ast.statement) atom =
    standing autos (Ast.body_bound ~init:(S.of_list (snd arr.(i))) s.Ast.body) atom
  in
  let instances (s : Ast.statement) =
    List.fold_left
      (fun acc (l : Ast.literal) ->
        match l.Ast.lit with
        | Ast.Pos a -> card_mul acc (card_of a.Ast.pred)
        | Ast.Neg _ | Ast.Cmp _ | Ast.Call _ -> acc)
      (Finite 1) s.Ast.body
  in
  let self_recursive (s : Ast.statement) =
    let writes = card_writes s in
    List.exists (fun r -> List.mem r writes) (positive_reads s)
  in
  (* Recursive strata: SCCs of the precedence graph restricted to
     positive reads, plus single statements that positively read a
     relation they write (build records no self-edges). *)
  let g = Precedence.build stmts in
  let comps = Precedence.sccs ~positive_only:true g in
  let wild_of = Array.make n None in
  let process_component comp =
    let stmt i = fst arr.(i) in
    let recursive =
      match comp with [ i ] -> self_recursive (stmt i) | _ -> List.length comp > 1
    in
    if not recursive then
      List.iter
        (fun i ->
          let s = stmt i in
          let inst = instances s in
          List.iter
            (fun (h : Ast.head) ->
              match h.Ast.head with
              | Ast.Head_payoff _ -> bump "Payoff" inst
              | Ast.Head_atom { atom; kind = Ast.Assert | Ast.Update } ->
                  bump atom.Ast.pred inst
              | Ast.Head_atom { atom; kind = Ast.Open _ } ->
                  if inst = Zero then ()
                  else if standing_at i s atom then bump atom.Ast.pred (Unbounded Standing)
                  else bump atom.Ast.pred inst
              | Ast.Head_atom { kind = Ast.Delete; _ } -> ())
            s.Ast.heads)
        comp
    else begin
      let members = List.map (fun i -> (i, stmt i)) comp in
      let writes =
        List.sort_uniq String.compare (List.concat_map (fun (_, s) -> card_writes s) members)
      in
      let reads =
        List.sort_uniq String.compare
          (List.concat_map (fun (_, s) -> positive_reads s) members)
      in
      (* The relations carrying the recursion, as the witness cycle. *)
      let cycle = List.filter (fun r -> List.mem r writes) reads in
      let has_open =
        List.exists
          (fun (_, (s : Ast.statement)) ->
            List.exists
              (fun (h : Ast.head) ->
                match h.Ast.head with
                | Ast.Head_atom { kind = Ast.Open _; _ } -> true
                | _ -> false)
              s.Ast.heads)
          members
      in
      let builds =
        List.exists
          (fun (_, (s : Ast.statement)) ->
            List.exists head_builds s.Ast.heads
            || body_builds s
            || List.exists (fun r -> Hashtbl.mem autos r) (card_writes s))
          members
      in
      if has_open || builds then begin
        let reason = if has_open then Open_cycle cycle else Value_cycle cycle in
        List.iter (fun (i, _) -> wild_of.(i) <- Some reason) members;
        List.iter (fun r -> bump r (Unbounded reason)) writes
      end
      else begin
        (* Tame stratum: every derivable value already lives in the
           program's constant pool or in a tuple of an external input, so
           each member relation holds at most |V|^arity tuples. *)
        let externals = List.filter (fun r -> not (List.mem r writes)) reads in
        let v =
          List.fold_left
            (fun acc r -> card_add acc (card_mul (card_of r) (Finite (arity r))))
            (norm n_consts) externals
        in
        List.iter
          (fun r ->
            match v with
            | Zero -> ()
            | Finite v -> bump r (norm (pow v (arity r)))
            | Bounded_by_input -> bump r Bounded_by_input
            | Unbounded reason -> bump r (Unbounded reason))
          writes
      end
    end
  in
  List.iter process_component comps;
  (* Task-emission bounds, against the final relation cardinalities. *)
  let scope_ok r =
    match policy.scope with None -> true | Some rs -> List.mem r rs
  in
  let tasks = ref [] in
  Array.iteri
    (fun i ((s : Ast.statement), _) ->
      List.iter
        (fun (h : Ast.head) ->
          match h.Ast.head with
          | Ast.Head_atom { atom; kind = Ast.Open worker } ->
              let inst =
                match wild_of.(i) with
                | Some reason -> Unbounded reason
                | None -> instances s
              in
              let multiplier =
                if standing_at i s atom then Unbounded Standing
                else if worker <> None then Finite 1
                else if policy.votes > 1 && scope_ok atom.Ast.pred then
                  Finite policy.votes
                else Finite 1
              in
              tasks :=
                {
                  tb_label = stmt_key s i;
                  tb_span = h.Ast.head_span;
                  tb_relation = atom.Ast.pred;
                  tb_instances = inst;
                  tb_multiplier = multiplier;
                  tb_answers = card_mul inst multiplier;
                }
                :: !tasks
          | _ -> ())
        s.Ast.heads)
    arr;
  let tasks = List.rev !tasks in
  let relations =
    let names = Hashtbl.fold (fun r _ acc -> S.add r acc) attrs S.empty in
    let names = Hashtbl.fold (fun r _ acc -> S.add r acc) cards names in
    List.map (fun r -> (r, card_of r)) (S.elements names)
  in
  let assumptions =
    ("closed world: tuples come only from this program's facts, rules and open answers"
     ::
     List.map
       (fun r ->
         Printf.sprintf "%s: declared input relation, bounded by whatever the host supplies" r)
       input_relations)
    @ (if live_counts = [] then []
       else [ "seeds joined with live database cardinalities" ])
  in
  {
    cert_relations = relations;
    cert_tasks = tasks;
    cert_total_tasks =
      List.fold_left (fun acc t -> card_add acc t.tb_instances) Zero tasks;
    cert_total_answers =
      List.fold_left (fun acc t -> card_add acc t.tb_answers) Zero tasks;
    cert_policy = policy_to_string policy;
    cert_assumptions = List.sort_uniq String.compare assumptions;
  }

(* -- Rendering ------------------------------------------------------------ *)

let certificate_to_string c =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "budget certificate";
  line "  policy: %s" c.cert_policy;
  line "  total task instances: %s" (card_to_string c.cert_total_tasks);
  line "  total answers:        %s" (card_to_string c.cert_total_answers);
  (match c.cert_tasks with
  | [] -> line "tasks: none (no open statements)"
  | tasks ->
      line "tasks:";
      let width =
        List.fold_left
          (fun w t -> max w (String.length t.tb_label + String.length t.tb_relation + 1))
          0 tasks
      in
      List.iter
        (fun t ->
          line "  %-*s  instances %s, per-instance %s, answers %s" width
            (t.tb_label ^ " " ^ t.tb_relation)
            (card_to_string t.tb_instances)
            (card_to_string t.tb_multiplier)
            (card_to_string t.tb_answers))
        tasks);
  (match c.cert_relations with
  | [] -> ()
  | rels ->
      line "relation cardinalities:";
      let width =
        List.fold_left (fun w (r, _) -> max w (String.length r)) 0 rels
      in
      List.iter (fun (r, card) -> line "  %-*s  %s" width r (card_to_string card)) rels);
  line "assumptions:";
  List.iter (fun a -> line "  - %s" a) c.cert_assumptions;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let card_json = function
  | Zero -> {|{"kind":"finite","max":0}|}
  | Finite n -> Printf.sprintf {|{"kind":"finite","max":%d}|} n
  | Bounded_by_input -> {|{"kind":"bounded-by-input"}|}
  | Unbounded reason ->
      let kind, cycle =
        match reason with
        | Standing -> ("standing", [])
        | Open_cycle c -> ("open-cycle", c)
        | Value_cycle c -> ("value-cycle", c)
      in
      Printf.sprintf {|{"kind":"unbounded","reason":"%s","cycle":[%s]}|} kind
        (String.concat ","
           (List.map (fun r -> "\"" ^ json_escape r ^ "\"") cycle))

let certificate_json c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"policy\":\"";
  Buffer.add_string buf (json_escape c.cert_policy);
  Buffer.add_string buf "\",\"relations\":{";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (r, card) -> Printf.sprintf "\"%s\":%s" (json_escape r) (card_json card))
          c.cert_relations));
  Buffer.add_string buf "},\"tasks\":[";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun t ->
            Printf.sprintf
              {|{"label":"%s","relation":"%s","instances":%s,"per_instance":%s,"answers":%s}|}
              (json_escape t.tb_label) (json_escape t.tb_relation)
              (card_json t.tb_instances)
              (card_json t.tb_multiplier)
              (card_json t.tb_answers))
          c.cert_tasks));
  Buffer.add_string buf "],\"total_tasks\":";
  Buffer.add_string buf (card_json c.cert_total_tasks);
  Buffer.add_string buf ",\"total_answers\":";
  Buffer.add_string buf (card_json c.cert_total_answers);
  Buffer.add_string buf ",\"assumptions\":[";
  Buffer.add_string buf
    (String.concat ","
       (List.map (fun a -> "\"" ^ json_escape a ^ "\"") c.cert_assumptions));
  Buffer.add_string buf "]}";
  Buffer.contents buf
