exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let rec eval_expr builtins env = function
  | Ast.Const v -> v
  | Ast.Var v -> (
      match Binding.find env v with
      | Some value -> value
      | None -> error "unbound variable %s" v)
  | Ast.List es -> Reldb.Value.List (List.map (eval_expr builtins env) es)
  | Ast.Binop (op, a, b) -> (
      let va = eval_expr builtins env a and vb = eval_expr builtins env b in
      try
        match op with
        | Ast.Add -> Reldb.Value.add va vb
        | Ast.Sub -> Reldb.Value.sub va vb
        | Ast.Mul -> Reldb.Value.mul va vb
        | Ast.Div -> Reldb.Value.div va vb
      with Invalid_argument m -> error "%s" m)

let try_eval_expr builtins env e =
  try Some (eval_expr builtins env e) with Error _ -> None

(* Pattern-match an argument expression against a stored value, binding
   unbound variables. List expressions destructure list values, so a game
   aspect can write [action:["value", v]] and recover [v]. *)
let rec match_expr builtins env expr actual =
  match expr with
  | Ast.Var v -> (
      match Binding.find env v with
      | Some bound -> if Reldb.Value.equal bound actual then Some env else None
      | None -> Some (Binding.bind env v actual))
  | Ast.Const c -> if Reldb.Value.equal c actual then Some env else None
  | Ast.List es -> (
      match actual with
      | Reldb.Value.List vs when List.length es = List.length vs ->
          List.fold_left2
            (fun env e v ->
              match env with None -> None | Some env -> match_expr builtins env e v)
            (Some env) es vs
      | _ -> None)
  | Ast.Binop _ -> (
      match try_eval_expr builtins env expr with
      | Some expected -> if Reldb.Value.equal expected actual then Some env else None
      | None -> error "arithmetic argument uses unbound variables")

let match_atom env (atom : Ast.atom) tuple ~builtins =
  let step env (arg : Ast.arg) =
    match env with
    | None -> None
    | Some env -> (
        let actual = Reldb.Tuple.get_or_null tuple arg.attr in
        match arg.bind with
        | Ast.Auto -> (
            match Binding.find env arg.attr with
            | Some bound -> if Reldb.Value.equal bound actual then Some env else None
            | None -> Some (Binding.bind env arg.attr actual))
        | Ast.Bound (Ast.Var v) when not (Binding.mem env v) ->
            (* Alias binding: [p:p1] names the tuple's value [p1] without
               touching variable [p] (so two atoms can join on distinct
               aliases of the same attribute). *)
            Some (Binding.bind env v actual)
        | Ast.Bound e -> (
            (* A testing argument also keeps the attribute-named variable
               available downstream: [attr:"weather"] binds [attr], and
               [pos:head] binds [pos] for Figure 16's [new_pos = pos + dir]. *)
            match match_expr builtins env e actual with
            | Some env ->
                if Binding.mem env arg.attr then Some env
                else Some (Binding.bind env arg.attr actual)
            | None -> None))
  in
  List.fold_left step (Some env) atom.args

let atom_pattern builtins env (atom : Ast.atom) =
  (* Pattern of evaluable argument constraints, for negation checks and
     index probes. Returns (attr, value) tests plus the attrs that are
     unconstrained. *)
  List.filter_map
    (fun (arg : Ast.arg) ->
      match arg.bind with
      | Ast.Auto -> (
          match Binding.find env arg.attr with
          | Some v -> Some (arg.attr, v)
          | None -> None)
      | Ast.Bound e -> (
          match try_eval_expr builtins env e with
          | Some v -> Some (arg.attr, v)
          | None -> None))
    atom.args

let neg_holds builtins db env (atom : Ast.atom) =
  (* Every argument must be evaluable: negation in CyLog is a test over
     sure tuples, not a binder. *)
  List.iter
    (fun (arg : Ast.arg) ->
      match arg.bind with
      | Ast.Auto ->
          if not (Binding.mem env arg.attr) then
            error "negated atom %s: attribute %s is unbound" atom.pred arg.attr
      | Ast.Bound e ->
          if try_eval_expr builtins env e = None then
            error "negated atom %s: argument %s uses unbound variables" atom.pred arg.attr)
    atom.args;
  let pattern = atom_pattern builtins env atom in
  match Reldb.Database.find db atom.pred with
  | None -> true
  | Some rel -> not (Reldb.Relation.mem_pattern rel pattern)

let compare_values op a b =
  let c = Reldb.Value.compare a b in
  match op with
  | Ast.Eq -> Reldb.Value.equal a b
  | Ast.Neq -> not (Reldb.Value.equal a b)
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let check_filter builtins db env (lit : Ast.literal) =
  match lit.Ast.lit with
  | Ast.Pos _ -> error "check_filter applied to a positive atom"
  | Ast.Neg atom -> if neg_holds builtins db env atom then `Pass env else `Fail
  | Ast.Call (name, args) -> (
      let vs = List.map (eval_expr builtins env) args in
      let result =
        try Builtin.call builtins name vs with
        | Builtin.Unknown n -> error "unknown builtin %s" n
        | Builtin.Bad_arguments { name; message } -> error "builtin %s: %s" name message
      in
      if Reldb.Value.truthy result then `Pass env else `Fail)
  | Ast.Cmp (lhs, op, rhs) -> (
      (* [v = e] with [v] unbound and [e] closed binds [v] (the paper's
         [new_pos = pos + dir]); symmetrically for [e = v]. *)
      let lv = try_eval_expr builtins env lhs in
      let rv = try_eval_expr builtins env rhs in
      match (op, lhs, lv, rhs, rv) with
      | _, _, Some a, _, Some b -> if compare_values op a b then `Pass env else `Fail
      | Ast.Eq, Ast.Var v, None, _, Some b -> `Pass (Binding.bind env v b)
      | Ast.Eq, _, Some a, Ast.Var v, None -> `Pass (Binding.bind env v a)
      | _ ->
          let op_str =
            match op with
            | Ast.Eq -> "=" | Ast.Neq -> "!=" | Ast.Lt -> "<"
            | Ast.Le -> "<=" | Ast.Gt -> ">" | Ast.Ge -> ">="
          in
          let side e v = match (e, v) with
            | Ast.Var name, None -> name
            | _ -> "<expr>"
          in
          error "comparison %s %s %s uses unbound variables" (side lhs lv)
            op_str (side rhs rv))

type matched = { env : Binding.t; support : (string * int * int) list }

(* The conflict-resolution ordering key of an instance: its support rows
   (and versions) in body order. Left-to-right enumeration produces
   instances in ascending key order, so "the instance valued by the
   earliest rows" is the minimum under this key. *)
let support_key (m : matched) = List.map (fun (_, row, ver) -> (row, ver)) m.support

let compare_matched a b = compare (support_key a) (support_key b)

(* Merge two key-ascending instance lists, preserving order — how the
   engine folds each delta scan's discoveries into its pending set so the
   head of the merged list is always the conflict-resolution winner. *)
let merge_matched a b = List.merge compare_matched a b

type row_range = All | Below of int | Exactly of int

let candidate_rows builtins db env (atom : Ast.atom) range =
  match Reldb.Database.find db atom.pred with
  | None -> []
  | Some rel -> (
      match range with
      | Exactly i -> (
          match Reldb.Relation.row rel i with Some t -> [ (i, t) ] | None -> [])
      | All | Below _ -> (
          (* Probe the compound-key index over every argument already
             determined; fall back to a full scan when none is. *)
          let rows =
            match atom_pattern builtins env atom with
            | [] -> Reldb.Relation.rows rel
            | pat -> Reldb.Relation.rows_with_pattern rel pat
          in
          match range with
          | Below k -> List.filter (fun (i, _) -> i < k) rows
          | All | Exactly _ -> rows))

(* Re-evaluate the original body over one known-good choice of supporting
   tuples (one per positive atom, indexed by position in the original
   body). This is how planned enumeration reports valuations: whatever
   order the atoms were actually joined in, the reported environment and
   support are exactly what left-to-right evaluation would have produced —
   alias bindings, attribute-variable bindings and comparison-binders
   included — so events, fingerprints and tie-break keys are independent
   of the plan. *)
let replay builtins db body ~init tuples =
  let rec go pos_idx env support = function
    | [] -> Some { env; support = List.rev support }
    | { Ast.lit = Ast.Pos atom; _ } :: rest -> (
        let i, tuple = tuples.(pos_idx) in
        match match_atom env atom tuple ~builtins with
        | Some env' ->
            let version =
              match Reldb.Database.find db atom.pred with
              | Some r -> Reldb.Relation.row_version r i
              | None -> 0
            in
            go (pos_idx + 1) env' ((atom.pred, i, version) :: support) rest
        | None -> None)
    | lit :: rest -> (
        match check_filter builtins db env lit with
        | `Pass env' -> go pos_idx env' support rest
        | `Fail -> None)
  in
  go 0 init [] body

let enumerate ?(plan = fun _ -> All) ?reordered ~rows_scanned builtins db body ~init ~f =
  let stop = ref false in
  match reordered with
  | None ->
      (* Left-to-right evaluation in body order: valuations are produced in
         lexicographic order of the row indices chosen per positive atom. *)
      let rec go pos_idx env support = function
        | [] ->
            if not !stop then
              if f { env; support = List.rev support } = `Stop then stop := true
        | { Ast.lit = Ast.Pos atom; _ } :: rest ->
            let rel = Reldb.Database.find db atom.pred in
            let version i =
              match rel with Some r -> Reldb.Relation.row_version r i | None -> 0
            in
            let rec try_rows = function
              | [] -> ()
              | (i, tuple) :: more ->
                  if not !stop then begin
                    incr rows_scanned;
                    (match match_atom env atom tuple ~builtins with
                    | Some env' ->
                        go (pos_idx + 1) env' ((atom.pred, i, version i) :: support) rest
                    | None -> ());
                    try_rows more
                  end
            in
            try_rows (candidate_rows builtins db env atom (plan pos_idx))
        | lit :: rest -> (
            match check_filter builtins db env lit with
            | `Pass env' -> go pos_idx env' support rest
            | `Fail -> ())
      in
      go 0 init [] body
  | Some (literals, order) ->
      (* Planned evaluation: [literals] is the planner's reordering of
         [body]; the positive atom at evaluation position [k] sits at
         position [order.(k)] of the original body. [plan] ranges are
         keyed by original positions, so the engine's seminaive delta
         machinery is oblivious to the reordering. Each full match is
         replayed over the original [body] before reaching [f]. *)
      let tuples = Array.make (Array.length order) (0, Reldb.Tuple.empty) in
      let rec go pos_idx env = function
        | [] ->
            if not !stop then begin
              match replay builtins db body ~init tuples with
              | Some m -> if f m = `Stop then stop := true
              | None -> ()  (* unreachable: the planned match succeeded *)
            end
        | { Ast.lit = Ast.Pos atom; _ } :: rest ->
            let rec try_rows = function
              | [] -> ()
              | (i, tuple) :: more ->
                  if not !stop then begin
                    incr rows_scanned;
                    (match match_atom env atom tuple ~builtins with
                    | Some env' ->
                        tuples.(order.(pos_idx)) <- (i, tuple);
                        go (pos_idx + 1) env' rest
                    | None -> ());
                    try_rows more
                  end
            in
            try_rows (candidate_rows builtins db env atom (plan order.(pos_idx)))
        | lit :: rest -> (
            match check_filter builtins db env lit with
            | `Pass env' -> go pos_idx env' rest
            | `Fail -> ())
      in
      go 0 init literals

let split_tail body =
  let last_pos =
    List.fold_left
      (fun (idx, last) (lit : Ast.literal) ->
        match lit.Ast.lit with
        | Ast.Pos _ -> (idx + 1, idx)
        | Ast.Neg _ | Ast.Cmp _ | Ast.Call _ -> (idx + 1, last))
      (0, -1) body
    |> snd
  in
  let rec split idx = function
    | [] -> ([], [])
    | lit :: rest ->
        if idx <= last_pos then
          let prefix, tail = split (idx + 1) rest in
          (lit :: prefix, tail)
        else ([], lit :: rest)
  in
  split 0 body
