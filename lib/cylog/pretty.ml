let comma ppf () = Format.fprintf ppf ", "

let pp_binop ppf op =
  Format.pp_print_string ppf
    (match op with Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/")

(* Constants must re-lex to the same value: [%g] would print [1.0] as [1],
   which re-parses as an integer, so integral floats keep a trailing
   [.0]. *)
let pp_const ppf = function
  | Reldb.Value.Float f when Float.is_integer f && Float.abs f < 1e15 ->
      Format.fprintf ppf "%.1f" f
  | v -> Reldb.Value.pp ppf v

let rec pp_expr ppf = function
  | Ast.Const v -> pp_const ppf v
  | Ast.Var v -> Format.pp_print_string ppf v
  | Ast.List es ->
      Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:comma pp_expr) es
  | Ast.Binop (op, a, b) ->
      Format.fprintf ppf "(%a %a %a)" pp_expr a pp_binop op pp_expr b

let pp_arg ppf { Ast.attr; bind } =
  match bind with
  | Ast.Auto -> Format.pp_print_string ppf attr
  | Ast.Bound e -> Format.fprintf ppf "%s:%a" attr pp_expr e

let pp_atom ppf { Ast.pred; args } =
  Format.fprintf ppf "%s(%a)" pred (Format.pp_print_list ~pp_sep:comma pp_arg) args

let pp_cmpop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Ast.Eq -> "="
    | Ast.Neq -> "!="
    | Ast.Lt -> "<"
    | Ast.Le -> "<="
    | Ast.Gt -> ">"
    | Ast.Ge -> ">=")

let pp_lit ppf = function
  | Ast.Pos a -> pp_atom ppf a
  | Ast.Neg a -> Format.fprintf ppf "not %a" pp_atom a
  | Ast.Cmp (a, op, b) -> Format.fprintf ppf "%a %a %a" pp_expr a pp_cmpop op pp_expr b
  | Ast.Call (f, args) ->
      Format.fprintf ppf "%s(%a)" f (Format.pp_print_list ~pp_sep:comma pp_expr) args

let pp_literal ppf (l : Ast.literal) = pp_lit ppf l.Ast.lit

let pp_head_node ppf = function
  | Ast.Head_atom { atom; kind } -> (
      pp_atom ppf atom;
      match kind with
      | Ast.Assert -> ()
      | Ast.Open None -> Format.pp_print_string ppf "/open"
      | Ast.Open (Some e) -> Format.fprintf ppf "/open[%a]" pp_expr e
      | Ast.Update -> Format.pp_print_string ppf "/update"
      | Ast.Delete -> Format.pp_print_string ppf "/delete")
  | Ast.Head_payoff updates ->
      let update ppf (player, delta) =
        Format.fprintf ppf "%s += %a" player pp_expr delta
      in
      Format.fprintf ppf "Payoff[%a]"
        (Format.pp_print_list ~pp_sep:comma update)
        updates

let pp_head ppf (h : Ast.head) = pp_head_node ppf h.Ast.head

let pp_statement ppf { Ast.label; heads; body; _ } =
  (match label with Some l -> Format.fprintf ppf "%s: " l | None -> ());
  Format.pp_print_list ~pp_sep:comma pp_head ppf heads;
  (match body with
  | [] -> ()
  | _ ->
      Format.fprintf ppf " <- %a" (Format.pp_print_list ~pp_sep:comma pp_literal) body);
  Format.pp_print_string ppf ";"

let pp_schema_decl ppf { Ast.rel_name; rel_attrs; _ } =
  let attr ppf (a, key, auto) =
    Format.pp_print_string ppf a;
    if key then Format.pp_print_string ppf " key";
    if auto then Format.pp_print_string ppf " auto"
  in
  Format.fprintf ppf "%s(%a);" rel_name (Format.pp_print_list ~pp_sep:comma attr) rel_attrs

let pp_game ppf { Ast.game_name; game_params; path_rules; payoff_rules } =
  Format.fprintf ppf "@[<v 2>game %s(%a) {" game_name
    (Format.pp_print_list ~pp_sep:comma Format.pp_print_string)
    game_params;
  Format.fprintf ppf "@,@[<v 2>path:";
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_statement s) path_rules;
  Format.fprintf ppf "@]@,@[<v 2>payoff:";
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_statement s) payoff_rules;
  Format.fprintf ppf "@]@]@,}"

let pp_program ppf { Ast.schemas; statements; games; views } =
  if schemas <> [] then begin
    Format.fprintf ppf "@[<v 2>schema:";
    List.iter (fun s -> Format.fprintf ppf "@,%a" pp_schema_decl s) schemas;
    Format.fprintf ppf "@]@,@,"
  end;
  Format.fprintf ppf "@[<v 2>rules:";
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_statement s) statements;
  Format.fprintf ppf "@]";
  if games <> [] then begin
    Format.fprintf ppf "@,@,@[<v 2>games:";
    List.iter (fun g -> Format.fprintf ppf "@,%a" pp_game g) games;
    Format.fprintf ppf "@]"
  end;
  if views <> [] then begin
    (* Raw templates: emitted verbatim (they are extracted again before
       lexing on re-parse). *)
    Format.fprintf ppf "@,@,views:";
    List.iter
      (fun (v : Ast.view) ->
        Format.fprintf ppf "@,view %s {@,%s@,}" v.view_name v.template)
      views
  end

let program_to_string p = Format.asprintf "@[<v>%a@]" pp_program p

(* -- Precedence graphs --------------------------------------------------- *)

let pp_precedence ppf g =
  Format.fprintf ppf "@[<v>vertices:";
  for i = 0 to Precedence.size g - 1 do
    Format.fprintf ppf "@,  %s: %a"
      (Precedence.vertex_name g i)
      pp_statement
      (Precedence.statement_at g i)
  done;
  Format.fprintf ppf "@,edges:";
  List.iter
    (fun (e : Precedence.edge) ->
      Format.fprintf ppf "@,  %s %s %s (via %s)"
        (Precedence.vertex_name g e.src)
        (if e.forward then "->" else "-->")
        (Precedence.vertex_name g e.dst)
        e.via)
    (Precedence.edges g);
  Format.fprintf ppf "@]"

(* -- Journal events ------------------------------------------------------ *)

let pp_effect ppf (eff : Engine.effect) =
  match eff with
  | Engine.Inserted (rel, tuple) ->
      Format.fprintf ppf "+%s%s" rel (Reldb.Tuple.to_string tuple)
  | Engine.Updated (rel, tuple) ->
      Format.fprintf ppf "~%s%s" rel (Reldb.Tuple.to_string tuple)
  | Engine.Deleted (rel, n) -> Format.fprintf ppf "-%s x%d" rel n
  | Engine.Awarded deltas ->
      Format.fprintf ppf "payoff %s"
        (String.concat ","
           (List.map
              (fun (player, delta) ->
                let d = Reldb.Value.to_display delta in
                let d = if String.length d > 0 && d.[0] <> '-' then "+" ^ d else d in
                Reldb.Value.to_display player ^ d)
              deltas))
  | Engine.Open_created id -> Format.fprintf ppf "open #%d" id
  | Engine.No_effect -> Format.fprintf ppf "(no effect)"
  | Engine.Vote_recorded (id, n) -> Format.fprintf ppf "vote #%d (%d banked)" id n
  | Engine.Dead_lettered (id, reason) ->
      Format.fprintf ppf "dead #%d (%s)" id (Lease.reason_to_string reason)
  | Engine.Adaptive_resolved { open_id; posterior_pct; escalated } ->
      Format.fprintf ppf "%s #%d (posterior %d%%)"
        (if escalated then "escalated" else "early-stop")
        open_id posterior_pct
  | Engine.Resolved id -> Format.fprintf ppf "resolved #%d" id
  | Engine.Sampled { round } -> Format.fprintf ppf "sample (round %d)" round
  | Engine.Alert_fired { round; alert } ->
      Format.fprintf ppf "ALERT (round %d) %s" round (Event.alert_to_string alert)

let pp_event ppf (e : Engine.event) =
  let rule =
    match e.label with Some l -> l | None -> "#" ^ string_of_int e.statement
  in
  Format.fprintf ppf "c%-4d %-12s" e.clock rule;
  (match e.by_human with
  | Some w -> Format.fprintf ppf " by %-8s" (Reldb.Value.to_display w)
  | None -> ());
  if (not e.fired) && e.effects = [] then Format.fprintf ppf " (tail-filtered)";
  if e.valuation <> [] then
    Format.fprintf ppf " {%s}"
      (String.concat ", "
         (List.map
            (fun (attr, v) -> attr ^ "=" ^ Reldb.Value.to_display v)
            e.valuation));
  List.iter (fun eff -> Format.fprintf ppf "  %a" pp_effect eff) e.effects

(* The quality report: per-worker reliability plus the posterior state of
   every pending task — one JSON object, shared by `tweetpecker
   --quality-out` and the REPL's `:quality`. Reuses Telemetry's escaper so
   all three JSON surfaces (metrics, spans, quality) speak one dialect. *)
let quality_json engine =
  let buf = Buffer.create 512 in
  let esc s = Telemetry.json_escape s in
  Buffer.add_string buf "{\"workers\":{";
  List.iteri
    (fun i (w, r, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":{\"reliability\":%.6f,\"observations\":%d}" (esc w) r n))
    (Engine.reliability_table engine);
  Buffer.add_string buf "},\"tasks\":{";
  List.iteri
    (fun i (o : Engine.open_tuple) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%d\":{\"relation\":\"%s\",\"votes\":%d,\"uncertainty\":%.6f,\"posteriors\":{"
           o.Engine.id (esc o.Engine.relation)
           (Engine.votes_banked engine o.Engine.id)
           (Engine.task_uncertainty engine o.Engine.id));
      List.iteri
        (fun j (attr, cands) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\":[" (esc attr));
          List.iteri
            (fun k (v, p) ->
              if k > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf "{\"value\":\"%s\",\"posterior\":%.6f}"
                   (esc (Reldb.Value.to_display v)) p))
            cands;
          Buffer.add_char buf ']')
        (Engine.task_posteriors engine o.Engine.id);
      Buffer.add_string buf "}}")
    (Engine.pending engine);
  Buffer.add_string buf "}}";
  Buffer.contents buf
