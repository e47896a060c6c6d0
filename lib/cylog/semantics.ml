type open_fact = {
  relation : string;
  bound : Reldb.Tuple.t;
  open_attrs : string list;
  asked : Reldb.Value.t option;
}

type state = {
  program : Ast.program;
  builtins : Builtin.registry;
  db : Reldb.Database.t;  (* K_sure *)
  opens : open_fact list;  (* K_open, first-derivation order *)
  resolved : open_fact list;
      (* open tuples already valuated by humans: a spent question is not
         re-asked when logic re-derives it (the engine's firing memo plays
         the same role operationally) *)
  frontiers : (string * int) list;
      (* per-relation high-water marks of the database this state's machine
         consequences were last enumerated against; rows at or above a
         frontier are the ΔR the semi-naive operator [apply_delta] joins
         against. [[]] means no application has run yet (full scan). *)
}

type strategies = state -> (open_fact * (string * Reldb.Value.t) list) list

let supported (p : Ast.program) =
  let statement_ok (s : Ast.statement) =
    List.for_all
      (fun (h : Ast.head) ->
        match h.Ast.head with
        | Ast.Head_atom { kind = Ast.Update | Ast.Delete; _ } -> false
        | Ast.Head_atom _ | Ast.Head_payoff _ -> true)
      s.heads
  in
  List.for_all statement_ok p.statements
  && List.for_all
       (fun (g : Ast.game_decl) ->
         List.for_all statement_ok g.path_rules
         && List.for_all statement_ok g.payoff_rules)
       p.games

(* The reference semantics evaluates whatever it is given — admission
   policy (lint) is the operational engine's concern, and the
   differential tests drive deliberately unbounded open programs. *)
let fresh_engine (p : Ast.program) = Engine.load ~lint:`Off p

let initial p =
  if not (supported p) then
    invalid_arg "Semantics: programs with /update or /delete need the operational Engine";
  let engine = fresh_engine p in
  { program = p; builtins = Engine.builtins engine; db = Engine.database engine;
    opens = []; resolved = []; frontiers = [] }

let sure st = st.db
let open_tuples st = st.opens
let sure_count st = Reldb.Database.total_tuples st.db

let open_fact_equal a b =
  String.equal a.relation b.relation
  && Reldb.Tuple.equal a.bound b.bound
  && a.open_attrs = b.open_attrs
  && (match (a.asked, b.asked) with
     | None, None -> true
     | Some x, Some y -> Reldb.Value.equal x y
     | _ -> false)

let frontier_map db =
  List.map
    (fun r -> (Reldb.Relation.name r, Reldb.Relation.high_water r))
    (Reldb.Database.relations db)

let frontier_of fs name =
  match List.assoc_opt name fs with Some n -> n | None -> 0

let pos_preds (body : Ast.literal list) =
  List.filter_map
    (fun (l : Ast.literal) ->
      match l.Ast.lit with Ast.Pos a -> Some a.Ast.pred | _ -> None)
    body

let has_payoff (s : Ast.statement) =
  List.exists
    (fun (h : Ast.head) ->
      match h.Ast.head with Ast.Head_payoff _ -> true | Ast.Head_atom _ -> false)
    s.heads

(* One application of T_{P,S}. We replay the program's statements over a
   copy of K_sure: every instance whose body holds over the {e input}
   K_sure contributes its head. To get the simultaneous (not cascading)
   operator, enumeration runs against the input database while insertions
   go to the output copy. [enumerate_stmt] decides which instances of a
   statement are visited — {!apply} visits all of them, {!apply_delta}
   only those touching rows at or above the previous application's
   frontiers. *)
let apply_with ~enumerate_stmt st (strategies : strategies) =
  let input_db = st.db in
  let out_db = Reldb.Database.copy st.db in
  let engine = fresh_engine st.program in
  let builtins = st.builtins in
  let statements = Engine.statements engine in
  ignore engine;
  let new_opens = ref [] in
  let add_open o =
    let pending = st.resolved @ st.opens @ List.rev !new_opens in
    if not (List.exists (open_fact_equal o) pending) then new_opens := o :: !new_opens
  in
  let insert_sure pred bindings =
    match Reldb.Database.find out_db pred with
    | None -> ()
    | Some rel -> ignore (Reldb.Relation.insert rel (Reldb.Tuple.of_list bindings))
  in
  let award player delta =
    match Reldb.Database.find out_db "Payoff" with
    | None -> ()
    | Some rel ->
        let current =
          match
            Reldb.Relation.find_by_key rel (Reldb.Tuple.of_list [ ("player", player) ])
          with
          | Some (_, tuple) -> (
              match Reldb.Tuple.get_or_null tuple "score" with
              | Reldb.Value.Null -> Reldb.Value.Int 0
              | v -> v)
          | None -> Reldb.Value.Int 0
        in
        ignore
          (Reldb.Relation.update rel
             (Reldb.Tuple.of_list
                [ ("player", player); ("score", Reldb.Value.add current delta) ]))
  in
  let apply_head env (h : Ast.head) =
    match h.Ast.head with
    | Ast.Head_payoff updates ->
        List.iter
          (fun (player_var, delta_expr) ->
            match Binding.find env player_var with
            | Some player ->
                award player (Eval.eval_expr builtins env delta_expr)
            | None -> ())
          updates
    | Ast.Head_atom { atom; kind } -> (
        let bound, opens_attrs =
          List.fold_left
            (fun (bound, opens) (arg : Ast.arg) ->
              let expr =
                match arg.bind with Ast.Auto -> Ast.Var arg.attr | Ast.Bound e -> e
              in
              match Eval.try_eval_expr builtins env expr with
              | Some v -> ((arg.attr, v) :: bound, opens)
              | None -> (bound, arg.attr :: opens))
            ([], []) atom.args
        in
        let bound = List.rev bound and opens_attrs = List.rev opens_attrs in
        match kind with
        | Ast.Assert ->
            if opens_attrs = [] then insert_sure atom.pred bound
        | Ast.Open worker ->
            let asked =
              match worker with
              | Some e -> Eval.try_eval_expr builtins env e
              | None -> None
            in
            add_open
              {
                relation = atom.pred;
                bound = Reldb.Tuple.of_list bound;
                open_attrs = opens_attrs;
                asked;
              }
        | Ast.Update | Ast.Delete -> ())
  in
  (* Immediate logical consequences over the input K_sure. *)
  List.iter
    (fun ((s : Ast.statement), _) ->
      try
        enumerate_stmt st builtins input_db s ~f:(fun (m : Eval.matched) ->
            List.iter (apply_head m.env) s.heads)
      with Eval.Error _ -> ())
    statements;
  (* Immediate human consequences: strategies valuate pending open tuples. *)
  let choices = strategies st in
  let consumed = ref [] in
  List.iter
    (fun (o, values) ->
      if List.exists (open_fact_equal o) st.opens then begin
        let bindings = Reldb.Tuple.to_list o.bound @ values in
        insert_sure o.relation bindings;
        consumed := o :: !consumed
      end)
    choices;
  let still_open o = not (List.exists (open_fact_equal o) !consumed) in
  let opens' = List.filter still_open (st.opens @ List.rev !new_opens) in
  (* The frontier records what this round's enumeration ran against: rows
     appended during the round (machine heads, human valuations) sit at or
     above it and are the next round's ΔR. *)
  { st with db = out_db; opens = opens'; resolved = st.resolved @ !consumed;
    frontiers = frontier_map input_db }

(* Full enumeration: every instance over the input database, in
   conflict-resolution (left-to-right lexicographic) order. *)
let enumerate_all _st builtins db (s : Ast.statement) ~f =
  Eval.enumerate ~rows_scanned:(ref 0) builtins db s.body ~init:Binding.empty
    ~f:(fun m -> f m; `Continue)

(* Semi-naive enumeration: only instances whose support touches at least
   one row at or above the previous application's frontiers. Each positive
   atom takes a turn as the pinned delta atom; atoms to its left are held
   below their frontiers so every new instance is discovered exactly once
   (at the position of its leftmost new row). Discoveries are replayed to
   [f] in ascending support-key order, i.e. exactly the relative order the
   full scan visits them in — so open tuples keep first-derivation order.

   Soundness over the supported fragment: the database only grows, so a
   [Neg]/[Cmp]/[Call] literal can only flip from passing to failing —
   an instance over old rows that newly holds is impossible, and one that
   already held contributed its (idempotent) heads in the round it was
   discovered. Payoff heads are the exception — a full scan re-awards a
   persisting instance every round — so payoff statements fall back to
   full enumeration. *)
let enumerate_delta st builtins db (s : Ast.statement) ~f =
  if st.frontiers = [] || has_payoff s then enumerate_all st builtins db s ~f
  else begin
    let preds = pos_preds s.body in
    let discovered = ref [] in
    List.iteri
      (fun p pred ->
        let lo = frontier_of st.frontiers pred in
        let hi =
          match Reldb.Database.find db pred with
          | Some r -> Reldb.Relation.high_water r
          | None -> 0
        in
        for row = lo to hi - 1 do
          let plan i =
            if i < p then Eval.Below (frontier_of st.frontiers (List.nth preds i))
            else if i = p then Eval.Exactly row
            else Eval.All
          in
          Eval.enumerate ~plan ~rows_scanned:(ref 0) builtins db s.body ~init:Binding.empty
            ~f:(fun m ->
              discovered := m :: !discovered;
              `Continue)
        done)
      preds;
    List.iter f (List.sort Eval.compare_matched (List.rev !discovered))
  end

let apply st strategies = apply_with ~enumerate_stmt:enumerate_all st strategies

let apply_delta st strategies =
  apply_with ~enumerate_stmt:enumerate_delta st strategies

let db_tuples db =
  List.concat_map
    (fun rel ->
      List.map (fun t -> (Reldb.Relation.name rel, t)) (Reldb.Relation.tuples rel))
    (Reldb.Database.relations db)

let equal a b =
  let ta = List.sort compare (db_tuples a.db) and tb = List.sort compare (db_tuples b.db) in
  List.length ta = List.length tb
  && List.for_all2
       (fun (ra, tua) (rb, tub) -> String.equal ra rb && Reldb.Tuple.equal tua tub)
       ta tb
  && List.length a.opens = List.length b.opens
  && List.for_all2 open_fact_equal a.opens b.opens

let behaviour_with ~step ?(bound = 1000) p strategies =
  let rec loop k states n =
    if n >= bound then (List.rev states, `Bound_reached)
    else
      let k' = step k strategies in
      if equal k k' then (List.rev (k' :: states), `Fixpoint)
      else loop k' (k' :: states) (n + 1)
  in
  let k0 = initial p in
  loop k0 [ k0 ] 0

let behaviour ?bound p strategies = behaviour_with ~step:apply ?bound p strategies

let behaviour_delta ?bound p strategies =
  behaviour_with ~step:apply_delta ?bound p strategies

let conclusion p strategies =
  match behaviour p strategies with
  | states, `Fixpoint -> Some (List.nth_opt states (List.length states - 1) |> Option.get)
  | _, `Bound_reached -> None
