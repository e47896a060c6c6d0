type open_id = Event.open_id

type origin = Main | Game_path of string | Game_payoff of string

type open_tuple = {
  id : open_id;
  statement : int;
  label : string option;
  relation : string;
  bound : Reldb.Tuple.t;
  open_attrs : string list;
  asked : Reldb.Value.t option;
  existence : bool;
  repeatable : bool;
  created_at : int;
}

(* The event vocabulary lives in {!Event} (a leaf module, so the campaign
   monitor can fold over it from below); re-exported here with type
   equations so [Engine.Inserted] etc. keep working unchanged. *)
type effect = Event.effect =
  | Inserted of string * Reldb.Tuple.t
  | Updated of string * Reldb.Tuple.t
  | Deleted of string * int
  | Awarded of (Reldb.Value.t * Reldb.Value.t) list
  | Open_created of open_id
  | No_effect
  | Vote_recorded of open_id * int
  | Dead_lettered of open_id * Lease.reason
  | Adaptive_resolved of { open_id : open_id; posterior_pct : int; escalated : bool }
  | Resolved of open_id
  | Sampled of { round : int }
  | Alert_fired of { round : int; alert : Event.alert }

type event = Event.event = {
  clock : int;
  statement : int;
  label : string option;
  valuation : (string * Reldb.Value.t) list;
  fired : bool;
  effects : effect list;
  by_human : Reldb.Value.t option;
}

exception Runtime_error of string

let runtime_error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* --- Typed answer rejections ------------------------------------------------ *)

type reject =
  | Stale of open_id
  | Not_lease_holder
  | Wrong_question
  | Already_voted
  | Wrong_attrs of { expected : string list; given : string list }
  | Type_mismatch of { attr : string; value : Reldb.Value.t }

let reject_to_string = function
  | Stale id -> Printf.sprintf "no pending open tuple with id %d" id
  | Not_lease_holder -> "the task is leased or designated to another worker"
  | Wrong_question -> "value answer to an existence question (or vice versa)"
  | Already_voted -> "this worker already voted on the task"
  | Wrong_attrs { expected; _ } ->
      Printf.sprintf "the answer must bind exactly %s" (String.concat ", " expected)
  | Type_mismatch { attr; value } ->
      Printf.sprintf "value %s has the wrong type for attribute %s"
        (Reldb.Value.to_string value) attr

(* Stable, space-free identifiers for metric-key suffixes (unlike the
   prose of [reject_to_string]/[Lease.reason_to_string]). *)
let reject_key = function
  | Stale _ -> "stale"
  | Not_lease_holder -> "not_lease_holder"
  | Wrong_question -> "wrong_question"
  | Already_voted -> "already_voted"
  | Wrong_attrs _ -> "wrong_attrs"
  | Type_mismatch _ -> "type_mismatch"

(* --- Quorum (redundant assignment + aggregation) --------------------------- *)

type quorum_policy =
  | Fixed of int
  | Adaptive of { tau : float; min_votes : int; max_votes : int }

(* The policy {!set_quorum_policy} installed, as the journal records it. *)
type quorum_state = {
  qs_policy : quorum_policy;
  qs_relations : string list option;
}

let policy_cap = function Fixed k -> k | Adaptive a -> a.max_votes

(* A ballot binds each slot of its question once. The slots of a value
   question are its open attributes; an existence question has the one
   slot [exists_slot], bound to [Bool yes]. *)
type ballot = (string * Reldb.Value.t) list

let exists_slot = "(exists)"

(* --- Journal ------------------------------------------------------------------ *)

(* Every externally-triggered mutation is journaled. Replaying the journal
   through the public API onto the loaded program reproduces the trace —
   the engine is deterministic — so a WAL needs only a state record plus
   the entries since, and the whole journal is a script of the campaign. *)
type jentry =
  | J_run of int
  | J_step
  | J_supply of open_id * Reldb.Value.t * (string * Reldb.Value.t) list
  | J_answer of open_id * Reldb.Value.t * bool
  | J_decline of open_id
  | J_assign of open_id * Reldb.Value.t * int
  | J_reclaim of int
  | J_add_statement of Ast.statement
  | J_set_lease of Lease.config option
  | J_set_quorum of quorum_state option
  | J_set_monitor of Monitor.config option
  | J_sample of int  (* monitor round-boundary sample *)

(* Which evaluation path the engine takes; the two are trace-identical. *)
type strategy = Reference | Optimized

(* Debug instrumentation: enable with Logs.Src.set_level on "cylog.engine". *)
let log_src = Logs.Src.create "cylog.engine" ~doc:"CyLog evaluation engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* What the last delta scan of a statement did — surfaced by EXPLAIN. *)
type delta_mode =
  | Delta_idle  (* no new facts, nothing to do *)
  | Delta_differential  (* consumed only appended rows (new-facts joins) *)
  | Delta_rederived  (* a watched counter moved: scoped re-derivation *)

(* Which change counter a delta statement watches on one body relation.
   Relations read positively are invalidated only by destructive
   mutations (appends flow through the frontier instead); relations
   negated in the prefix invalidate on any change — even a pure append
   can flip a negation that was checked at discovery time. *)
type watch_kind = Watch_destructions | Watch_generation

(* First-class delta state of one statement: a ΔR frontier per positive
   body atom plus the instances discovered but not yet fired. [pending]
   is kept sorted by {!Eval.support_key}, so its head is always the
   conflict-resolution winner — exactly the instance naive rescan would
   fire next; delta and rescan evaluation are therefore trace-identical,
   not merely fixpoint-equivalent. [watch] snapshots one change counter
   per body relation (see {!watch_kind}); when a watched counter moves
   the statement drops its state and re-derives from row zero — a reset
   scoped to the statements reading the mutated relation, never a global
   rescan. *)
type delta_state = {
  mutable frontiers : int array;  (* per positive atom: processed watermark *)
  mutable pending : Eval.matched list;  (* discovered, unfired; key-ascending *)
  mutable watch : int array;  (* last-seen counter per watch_rel; [||] = fresh *)
  (* Last-scan evidence for EXPLAIN's delta view. *)
  mutable last_new : int array;  (* per atom: rows consumed as the delta atom *)
  mutable last_discovered : int;
  mutable last_mode : delta_mode;
}

(* What a WAL state record carries besides live state, each part
   marshalled once: the program, cut when the first record is written,
   and one chunk per cut since — the events and journal entries appended
   between two cuts. *)
type encoded_history = {
  program_bytes : string;
  mutable chunks : string list;  (* reverse chronological *)
  mutable events_covered : int;  (* the events the chunks hold *)
  mutable journal_cut : jentry list;
      (* the journal when the last chunk was cut; the journal only grows
         at its head, so the entries since are those in front of it *)
}

type stmt_info = {
  stmt : Ast.statement;
  origin : origin;
  prefix : Ast.literal list;
  tail : Ast.literal list;
  pos_preds : string list;  (* positive-atom relations, in body order *)
  body_rels : string list;
  watch_rels : (string * watch_kind) list;  (* per body relation, deduped *)
  payoff_dedup : bool;  (* unordered-support memo (game payoff rules) *)
  mutable exhausted_gen : int;  (* -1: never fully enumerated *)
  (* Compiled join plans of a delta scan, one per pinned atom position,
     cached against the per-relation statistics epochs of the body
     ({!Planner.stats_key}): a supply into a relation outside the body
     never evicts them, and appends into a body relation only do when its
     cardinality bucket moves. *)
  mutable delta_plans : Planner.t array;
  mutable delta_plans_key : int array;
  delta : delta_state option;
      (* Seminaive evaluation for every statement with at least one
         positive atom (under [Optimized]): instead of re-enumerating the
         whole join per step, only combinations involving a row above
         some atom's frontier are discovered, merged into [pending] by
         support key and fired one per step. Statements over relations
         that /update or /delete statements target stay differential
         between destructive mutations and re-derive (scoped to
         themselves) when one lands. Fact and filter-only statements
         ([pos_preds = []]), and every statement under [Reference], use
         the rescan path: left-to-right enumeration up to the first
         unfired instance. *)
}

type t = {
  db : Reldb.Database.t;
  builtins : Builtin.registry;
  strategy : strategy;
  mutable infos : stmt_info array;
  mutable schedule : Schedule.t;
      (* the statements a step under [Optimized] examines; rebuilt, all
         awake, whenever [infos] is — derived state, never serialised *)
  fired : (string, unit) Hashtbl.t;
  open_tbl : (open_id, open_tuple) Hashtbl.t;
  open_ids : open_id Reldb.Dynarray.t;
      (* ascending (= creation order): every pending id, plus ids resolved
         since the last prune (see [prune_open_ids]) *)
  mutable next_open : open_id;
  mutable clock : int;
  events : event Reldb.Dynarray.t;  (* chronological *)
  path_rels : (string, string list) Hashtbl.t;  (* path relation -> params *)
  views : Ast.view list;
  program : Ast.program;  (* as loaded, for state records *)
  mutable leases : Lease.t option;  (* None: lease runtime off *)
  mutable quorum : quorum_state option;
  reputation : Quality.Model.t;
      (* online per-worker reliability, learnt from agreement with quorum
         resolutions; serialised in every state record ([st_reputation]),
         and updated by the entries replayed after it *)
  votes : (open_id, (Reldb.Value.t * ballot) list) Hashtbl.t;  (* reverse *)
  mutable dead : (open_tuple * Lease.reason) list;  (* reverse *)
  mutable journal : jentry list;  (* reverse chronological *)
  mutable encoded : encoded_history option;
      (* history already marshalled for WAL state records; None until the
         first one (see [state_parts]) *)
  tel : Telemetry.t;
  mutable fold : Fold.t;
      (* the event fold behind the journal-derived counters and the
         monitor; [set_monitor] swaps in a refold of [events] *)
  task_spans : (open_id, Telemetry.handle) Hashtbl.t;
      (* span id of each pending task's "task" span (tracing only), so
         lease/vote/resolve spans can parent to it across steps *)
  mutable monitor : Monitor.t option;
      (* campaign monitor over [fold]; derived state — [set_monitor]
         backfills it from [events] and restore/recovery rebuild it the
         same way, never from serialised bytes *)
  mutable wal : Journal.t option;  (* durable WAL sink; None = volatile *)
  mutable wal_compact_pending : bool;
      (* a compaction was requested mid-entry; it runs at the start of
         the NEXT journaled entry, when the requesting one is fully
         applied (see [wal_append]) *)
  rows_scanned : int ref;
      (* candidate rows the current step has handed to the atom matcher;
         reset per step and folded into [eval.rows_scanned] *)
  mutable analysis_cache : (Analysis.certificate * int option) option;
      (* the program's certificate under the installed quorum policy and
         its finite total-answer bound (None = not statically finite);
         derived state — recomputed on demand, invalidated by
         [add_statement] and [install_quorum], never serialised *)
}

(* --- Durable journal (WAL) -------------------------------------------------- *)

(* A WAL genesis or compaction record's payload: a version tag (the
   magic, then the version as one byte), then separately marshalled
   values back to back —

     "CYLOG-STATE/" \004  program  chunk_1 .. chunk_n  live_state

   The history is encoded once. The program is marshalled by the first
   record; each record marshals the live state afresh and, as a new
   chunk, the events and journal entries appended since the previous
   record, and copies every other part from strings the engine kept
   (see [encoded_history]). So a record costs O(live state + new
   history) to marshal, and, since everything it copies comes first,
   O(live state + new history) to checksum: the journal reuses the CRC
   register after each leading part it saw in the previous record
   ({!Journal.compact}). Closure-bearing state — builtins,
   statement plans and delta frontiers, telemetry — is rebuilt by
   [restore_state]. The fired memo rides along, so the rebuilt delta
   state re-derives without re-firing and the continued trace stays
   byte-identical. *)
type live_state = {
  st_strategy : strategy;
  st_db : Reldb.Database.t;
  st_fired : (string, unit) Hashtbl.t;
  st_open_tbl : (open_id, open_tuple) Hashtbl.t;
  st_next_open : open_id;
  st_clock : int;
  st_leases : Lease.t option;
  st_quorum : quorum_state option;
  st_reputation : Quality.Model.t;
  st_votes : (open_id, (Reldb.Value.t * ballot) list) Hashtbl.t;
  st_dead : (open_tuple * Lease.reason) list;
}

type history_chunk = {
  hc_events : event array;  (* chronological *)
  hc_journal : jentry list;  (* chronological *)
}

let state_magic = "CYLOG-STATE/"
let state_version = 4
let state_tag = state_magic ^ String.make 1 (Char.chr state_version)

(* The entries of a reverse-chronological journal in front of [cut],
   oldest first. *)
let entries_since cut journal =
  let rec go l acc =
    if l == cut then acc
    else match l with e :: rest -> go rest (e :: acc) | [] -> invalid_arg "Engine.entries_since"
  in
  go journal []

(* The parts of a state record, concatenated by [Journal] as it frames
   them. Cuts a chunk from the history not yet encoded. Flags [] reject
   closures at marshal time — a safety net against a closure-bearing
   field sneaking into the payload. *)
let state_parts t =
  let h =
    match t.encoded with
    | Some h -> h
    | None ->
        let h =
          { program_bytes = Marshal.to_string (t.program : Ast.program) [];
            chunks = [];
            events_covered = 0;
            journal_cut = [] }
        in
        t.encoded <- Some h;
        h
  in
  let n_events = Reldb.Dynarray.length t.events in
  if n_events > h.events_covered || t.journal != h.journal_cut then begin
    let chunk =
      {
        hc_events =
          Array.init (n_events - h.events_covered) (fun i ->
              Reldb.Dynarray.get t.events (h.events_covered + i));
        hc_journal = entries_since h.journal_cut t.journal;
      }
    in
    h.chunks <- Marshal.to_string chunk [] :: h.chunks;
    h.events_covered <- n_events;
    h.journal_cut <- t.journal
  end;
  let live =
    {
      st_strategy = t.strategy;
      st_db = t.db;
      st_fired = t.fired;
      st_open_tbl = t.open_tbl;
      st_next_open = t.next_open;
      st_clock = t.clock;
      st_leases = t.leases;
      st_quorum = t.quorum;
      st_reputation = t.reputation;
      st_votes = t.votes;
      st_dead = t.dead;
    }
  in
  state_tag :: h.program_bytes :: List.rev_append h.chunks [ Marshal.to_string live [] ]

let wal_append t (e : jentry) =
  match t.wal with
  | None -> ()
  | Some j ->
      if t.wal_compact_pending then begin
        (* Deferred from the previous entry: its effects are now fully
           applied and [e] is not yet journaled, so the state is a
           consistent cut. Compacting inside [e]'s own append would
           snapshot a state that excludes an entry already in the WAL,
           and recovery would skip that entry's effects. *)
        t.wal_compact_pending <- false;
        Journal.compact j (state_parts t)
      end;
      Journal.append j (Marshal.to_string (e : jentry) []);
      if Journal.wants_compaction j then t.wal_compact_pending <- true

let journal t e =
  wal_append t e;
  t.journal <- e :: t.journal

let attach_journal t j =
  t.wal <- Some j;
  t.wal_compact_pending <- false;
  Journal.set_telemetry j t.tel ~clock:(fun () -> t.clock)

let journal_start ?config ?storage t dir =
  let j = Journal.create ?config ?storage ~genesis:(state_parts t) dir in
  attach_journal t j

let durable_journal t = t.wal

(* Between public calls the engine is always at a consistent cut (every
   journaled entry's effects are fully applied), so compacting here is
   safe in exactly the way the deferred path above is. *)
let compact_journal t =
  match t.wal with
  | None -> ()
  | Some j ->
      t.wal_compact_pending <- false;
      Journal.compact j (state_parts t)

(* --- Game-aspect desugaring -------------------------------------------- *)

let effective_statements (program : Ast.program) =
  let main = List.map (fun s -> (s, Main)) program.statements in
  let per_game (g : Ast.game_decl) =
    let rewrite origin s = (Ast.rewrite_game_statement g.game_name g.game_params s, origin) in
    List.map (rewrite (Game_path g.game_name)) g.path_rules
    @ List.map (rewrite (Game_payoff g.game_name)) g.payoff_rules
  in
  main @ List.concat_map per_game program.games

(* --- Schema inference ---------------------------------------------------- *)

let add_attr seen order pred attr =
  let key = (pred, attr) in
  if not (Hashtbl.mem seen key) then begin
    Hashtbl.replace seen key ();
    let prev = try Hashtbl.find order pred with Not_found -> [] in
    Hashtbl.replace order pred (attr :: prev)
  end

let declare_relations db (program : Ast.program) statements path_rels =
  let seen = Hashtbl.create 64 and order = Hashtbl.create 16 in
  let scan_atom (a : Ast.atom) =
    List.iter (fun (arg : Ast.arg) -> add_attr seen order a.pred arg.attr) a.args
  in
  let scan_literal (l : Ast.literal) =
    match l.Ast.lit with
    | Ast.Pos a | Ast.Neg a -> scan_atom a
    | Ast.Cmp _ | Ast.Call _ -> ()
  in
  let scan_head (h : Ast.head) =
    match h.Ast.head with
    | Ast.Head_atom { atom; _ } -> scan_atom atom
    | Ast.Head_payoff _ -> ()
  in
  (* Path relations start with their Skolem parameters plus the bookkeeping
     columns of Figure 6. *)
  Hashtbl.iter
    (fun rel params ->
      List.iter (add_attr seen order rel) params;
      add_attr seen order rel "order";
      add_attr seen order rel "date")
    path_rels;
  List.iter
    (fun ((s : Ast.statement), _) ->
      List.iter scan_head s.heads;
      List.iter scan_literal s.body)
    statements;
  (* Explicit declarations win. *)
  let explicit = Hashtbl.create 16 in
  List.iter
    (fun (d : Ast.schema_decl) ->
      Hashtbl.replace explicit d.rel_name ();
      let attrs = List.map (fun (a, _, _) -> a) d.rel_attrs in
      let key = List.filter_map (fun (a, k, _) -> if k then Some a else None) d.rel_attrs in
      let autos = List.filter_map (fun (a, _, au) -> if au then Some a else None) d.rel_attrs in
      let auto_increment = match autos with [] -> None | [ a ] -> Some a | _ ->
        runtime_error "relation %s declares several auto attributes" d.rel_name
      in
      try ignore (Reldb.Database.declare db (Reldb.Schema.make ~key ?auto_increment ~name:d.rel_name attrs))
      with Invalid_argument m -> runtime_error "%s" m)
    program.schemas;
  (* Payoff bookkeeping. *)
  if not (Hashtbl.mem explicit "Payoff") then
    ignore
      (Reldb.Database.declare db
         (Reldb.Schema.make ~key:[ "player" ] ~name:"Payoff" [ "player"; "score" ]));
  Hashtbl.replace explicit "Payoff" ();
  (* Inferred relations: set semantics, no key; path relations auto-number
     their [order] column. *)
  Hashtbl.iter
    (fun pred rev_attrs ->
      if not (Hashtbl.mem explicit pred) then begin
        let attrs = List.rev rev_attrs in
        let auto_increment = if Hashtbl.mem path_rels pred then Some "order" else None in
        try ignore (Reldb.Database.declare db (Reldb.Schema.make ?auto_increment ~name:pred attrs))
        with Invalid_argument m -> runtime_error "%s" m
      end)
    order

(* --- Loading -------------------------------------------------------------- *)

let make_info strategy ((s : Ast.statement), origin) =
  let prefix, tail = Eval.split_tail s.body in
  let pos_preds =
    List.filter_map
      (fun (l : Ast.literal) ->
        match l.Ast.lit with Ast.Pos a -> Some a.Ast.pred | _ -> None)
      prefix
  in
  let body_rels = Ast.body_preds s.body in
  (* Relations negated before the last positive atom are checked during
     discovery, so any change to them (not just a destructive one) must
     reset the delta state; tail negations re-check at fire time and need
     no watch beyond destructions. *)
  let prefix_negs =
    List.filter_map
      (fun (l : Ast.literal) ->
        match l.Ast.lit with Ast.Neg a -> Some a.Ast.pred | _ -> None)
      prefix
  in
  let watch_rels =
    List.map
      (fun r ->
        (r, if List.mem r prefix_negs then Watch_generation else Watch_destructions))
      body_rels
  in
  let n_atoms = List.length pos_preds in
  {
    stmt = s;
    origin;
    prefix;
    tail;
    pos_preds;
    body_rels;
    watch_rels;
    payoff_dedup =
      (match origin with Game_payoff _ -> true | Main | Game_path _ -> false);
    exhausted_gen = -1;
    delta_plans = [||];
    delta_plans_key = [||];
    delta =
      (if strategy = Optimized && pos_preds <> [] then
         Some
           {
             frontiers = Array.make n_atoms 0;
             pending = [];
             watch = [||];
             last_new = Array.make n_atoms 0;
             last_discovered = 0;
             last_mode = Delta_idle;
           }
       else None);
  }

let schedule_of db infos = Schedule.create db (Array.map (fun i -> i.body_rels) infos)

(* Each game's path relation, with its Skolem parameters. *)
let path_rels_of (program : Ast.program) =
  let path_rels = Hashtbl.create 4 in
  List.iter
    (fun (g : Ast.game_decl) ->
      Hashtbl.replace path_rels (Ast.path_relation_name g.game_name) g.game_params)
    program.games;
  path_rels

(* The one engine constructor: [load] hands it a fresh live state and no
   history, [restore_state] a decoded state and the history it carried.
   Everything else is derived and starts fresh — plans, delta frontiers,
   builtins, telemetry, the event fold, the certificate. *)
let create (program : Ast.program) statements path_rels (p : live_state) ~events
    ~journal ~encoded =
  let infos = Array.of_list (List.map (make_info p.st_strategy) statements) in
  {
    db = p.st_db;
    builtins = Builtin.default ();
    strategy = p.st_strategy;
    infos;
    schedule = schedule_of p.st_db infos;
    fired = p.st_fired;
    open_tbl = p.st_open_tbl;
    open_ids =
      Reldb.Dynarray.of_list
        (List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) p.st_open_tbl []));
    next_open = p.st_next_open;
    clock = p.st_clock;
    events;
    path_rels;
    views = program.views;
    program;
    leases = p.st_leases;
    quorum = p.st_quorum;
    reputation = p.st_reputation;
    votes = p.st_votes;
    dead = p.st_dead;
    journal;
    encoded;
    tel = Telemetry.create ();
    fold = Fold.create ();
    task_spans = Hashtbl.create 16;
    monitor = None;
    wal = None;
    wal_compact_pending = false;
    rows_scanned = ref 0;
    analysis_cache = None;
  }

let load ?(strategy = Optimized) ?(lint = `Strict) (program : Ast.program) =
  (match lint with
  | `Off -> ()
  | `Strict | `Warn -> (
      let diags = Lint.check program in
      match lint with
      | `Strict when Lint.has_errors diags -> raise (Lint.Rejected diags)
      | _ ->
          List.iter
            (fun (d : Lint.diagnostic) ->
              Logs.warn (fun m -> m "lint: %s" (Lint.render d)))
            diags));
  let path_rels = path_rels_of program in
  let statements = effective_statements program in
  let db = Reldb.Database.create () in
  declare_relations db program statements path_rels;
  create program statements path_rels ~events:(Reldb.Dynarray.create ()) ~journal:[]
    ~encoded:None
    {
      st_strategy = strategy;
      st_db = db;
      st_fired = Hashtbl.create 1024;
      st_open_tbl = Hashtbl.create 64;
      st_next_open = 1;
      st_clock = 0;
      st_leases = None;
      st_quorum = None;
      st_reputation = Quality.Model.create ();
      st_votes = Hashtbl.create 16;
      st_dead = [];
    }

let database t = t.db
let statements t = Array.to_list (Array.map (fun i -> (i.stmt, i.origin)) t.infos)

(* --- Incremental statements (REPL support) --------------------------------- *)

let declare_for_statement t (s : Ast.statement) =
  let atoms =
    List.filter_map
      (fun (h : Ast.head) ->
        match h.Ast.head with
        | Ast.Head_atom { atom; _ } -> Some atom
        | Ast.Head_payoff _ -> None)
      s.heads
    @ List.filter_map
        (fun (l : Ast.literal) ->
          match l.Ast.lit with
          | Ast.Pos a | Ast.Neg a -> Some a
          | Ast.Cmp _ | Ast.Call _ -> None)
        s.body
  in
  List.iter
    (fun (atom : Ast.atom) ->
      match Reldb.Database.find t.db atom.pred with
      | Some rel ->
          let schema = Reldb.Relation.schema rel in
          List.iter
            (fun (arg : Ast.arg) ->
              if not (Reldb.Schema.has_attribute schema arg.attr) then
                runtime_error
                  "relation %s has no attribute %s (schemas are fixed once declared)"
                  atom.pred arg.attr)
            atom.args
      | None ->
          let attrs =
            List.fold_left
              (fun acc (arg : Ast.arg) ->
                if List.mem arg.attr acc then acc else acc @ [ arg.attr ])
              [] atom.args
          in
          ignore (Reldb.Database.declare t.db (Reldb.Schema.make ~name:atom.pred attrs)))
    atoms

let add_statement t (s : Ast.statement) =
  journal t (J_add_statement s);
  declare_for_statement t s;
  (* New /update or /delete targets need no special handling: delta
     statements reading the affected relations watch their destruction
     counters and re-derive themselves when a mutation actually lands. *)
  t.infos <- Array.append t.infos [| make_info t.strategy (s, Main) |];
  t.schedule <- schedule_of t.db t.infos;
  t.analysis_cache <- None

let builtins t = t.builtins
let clock t = t.clock
let events t = Reldb.Dynarray.to_list t.events
let event_count t = Reldb.Dynarray.length t.events

(* The events after cursor [after] are the log's slots from [after] on —
   the campaign server's resolve-poll cursor reads them without touching
   the prefix it has already consumed. *)
let events_since t ~after =
  let rec collect events first i acc =
    if i < first then acc
    else collect events first (i - 1) (Reldb.Dynarray.get events i :: acc)
  in
  collect t.events (max 0 after) (Reldb.Dynarray.length t.events - 1) []

(* --- Telemetry --------------------------------------------------------------- *)

let telemetry t = t.tel
let metrics t = Telemetry.metrics t.tel
let set_sink t sink = Telemetry.set_sink t.tel sink

let metrics_of_events events =
  let m = Telemetry.Metrics.create () and fold = Fold.create () in
  List.iter (Fold.apply fold m) events;
  m

let journal_derived_prefixes =
  [
    "engine.events";
    "engine.fired";
    "engine.tail_filtered";
    "answers.accepted";
    "db.";
    "open.";
    "payoff.";
    "quorum.";
    "monitor.";
  ]

let journal_derived name =
  List.exists
    (fun p ->
      String.length name >= String.length p && String.sub name 0 (String.length p) = p)
    journal_derived_prefixes

(* --- Memoisation ----------------------------------------------------------- *)

let fingerprint idx info (support : (string * int * int) list) =
  let support = if info.payoff_dedup then List.sort compare support else support in
  let buf = Buffer.create 32 in
  Buffer.add_string buf (string_of_int idx);
  List.iter
    (fun (pred, row, version) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf pred;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int row);
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int version))
    support;
  Buffer.contents buf

let body_generation t info =
  List.fold_left
    (fun acc rel ->
      match Reldb.Database.find t.db rel with
      | Some r -> acc + Reldb.Relation.generation r
      | None -> acc)
    0 info.body_rels

(* --- Join plans -------------------------------------------------------------- *)

(* Per-relation statistics key the plan cache is validated against:
   one epoch per body relation, so a supply into an unrelated relation
   never evicts a plan, and appends into a body relation only do when
   they move its cardinality bucket (or after a destructive mutation). *)
let plan_key t info = Planner.stats_key t.db info.body_rels

(* Per-pinned-atom plans for a delta scan: scanning new rows of atom [i]
   evaluates the body with atom [i] pinned to one row, so each position
   gets its own plan with that atom costed at a single row. *)
let delta_plans t info ~n_atoms =
  let key = plan_key t info in
  if info.delta_plans_key <> key || Array.length info.delta_plans <> n_atoms then begin
    Telemetry.Metrics.incr (Telemetry.metrics t.tel) "planner.delta_cache.misses";
    info.delta_plans <-
      Array.init n_atoms (fun i -> Planner.plan ~exact_atom:i t.db info.prefix);
    info.delta_plans_key <- key
  end
  else Telemetry.Metrics.incr (Telemetry.metrics t.tel) "planner.delta_cache.hits";
  info.delta_plans

(* --- Head application -------------------------------------------------------- *)

let relation_of t pred =
  match Reldb.Database.find t.db pred with
  | Some r -> r
  | None -> runtime_error "relation %s was never declared" pred

let eval_head_args t env (atom : Ast.atom) =
  (* Partition head arguments into evaluable bindings and open slots. *)
  List.fold_left
    (fun (bound, opens) (arg : Ast.arg) ->
      let expr = match arg.bind with Ast.Auto -> Ast.Var arg.attr | Ast.Bound e -> e in
      match Eval.try_eval_expr t.builtins env expr with
      | Some v -> ((arg.attr, v) :: bound, opens)
      | None -> (bound, arg.attr :: opens))
    ([], []) atom.args
  |> fun (bound, opens) -> (List.rev bound, List.rev opens)

let stamp_path_date t pred bound =
  (* Path tables record when each action happened (Figure 6). *)
  if Hashtbl.mem t.path_rels pred && not (List.mem_assoc "date" bound) then
    ("date", Reldb.Value.Int t.clock) :: bound
  else bound

let insert_tuple t pred bound =
  let rel = relation_of t pred in
  let bound = stamp_path_date t pred bound in
  match Reldb.Relation.insert rel (Reldb.Tuple.of_list bound) with
  | Reldb.Relation.Inserted i -> (
      match Reldb.Relation.row rel i with
      | Some tuple -> Inserted (pred, tuple)
      | None -> No_effect)
  | Reldb.Relation.Duplicate_tuple _ | Reldb.Relation.Duplicate_key _ -> No_effect

let update_tuple t pred bound =
  let rel = relation_of t pred in
  let schema = Reldb.Relation.schema rel in
  let key = Reldb.Schema.key schema in
  List.iter
    (fun k ->
      if not (List.mem_assoc k bound) then
        runtime_error "update of %s does not determine key attribute %s" pred k)
    key;
  (* /update only overwrites the attributes the head mentions; the rest of
     an existing tuple is preserved (Figure 16's tape-extension rule relies
     on this). *)
  let merged =
    match Reldb.Relation.find_by_key rel (Reldb.Tuple.of_list bound) with
    | Some (_, existing) ->
        List.fold_left (fun acc (a, v) -> Reldb.Tuple.set acc a v) existing bound
    | None -> Reldb.Tuple.of_list bound
  in
  match Reldb.Relation.update rel merged with
  | Reldb.Relation.Replaced i | Reldb.Relation.Upserted i -> (
      match Reldb.Relation.row rel i with
      | Some tuple -> Updated (pred, tuple)
      | None -> No_effect)
  | Reldb.Relation.Unchanged _ -> No_effect

let delete_tuples t pred bound =
  let rel = relation_of t pred in
  let n = Reldb.Relation.delete_where rel (fun tuple -> Reldb.Tuple.matches tuple bound) in
  Deleted (pred, n)

let award_payoffs t env updates =
  let rel = relation_of t "Payoff" in
  let deltas =
    List.map
      (fun (player_var, delta_expr) ->
        let player =
          match Binding.find env player_var with
          | Some v -> v
          | None -> runtime_error "payoff player variable %s is unbound" player_var
        in
        let delta = Eval.eval_expr t.builtins env delta_expr in
        (player, delta))
      updates
  in
  List.iter
    (fun (player, delta) ->
      let current =
        match Reldb.Relation.find_by_key rel (Reldb.Tuple.of_list [ ("player", player) ]) with
        | Some (_, tuple) -> (
            match Reldb.Tuple.get_or_null tuple "score" with
            | Reldb.Value.Null -> Reldb.Value.Int 0
            | v -> v)
        | None -> Reldb.Value.Int 0
      in
      let score =
        try Reldb.Value.add current delta
        with Invalid_argument m -> runtime_error "payoff accumulation: %s" m
      in
      ignore
        (Reldb.Relation.update rel
           (Reldb.Tuple.of_list [ ("player", player); ("score", score) ])))
    deltas;
  Awarded deltas

let create_open t idx (info : stmt_info) env (atom : Ast.atom) worker_expr bound opens =
  let asked =
    match worker_expr with
    | Some e -> Some (Eval.eval_expr t.builtins env e)
    | None -> None
  in
  (* Auto-increment attributes are machine-assigned at insertion time, not
     asked of the worker; an unmentioned auto key also makes the question a
     standing task (each answer yields a distinct tuple). *)
  let auto =
    Reldb.Schema.auto_increment (Reldb.Relation.schema (relation_of t atom.pred))
  in
  let opens, repeatable =
    match auto with
    | Some a when List.mem a opens -> (List.filter (fun x -> x <> a) opens, true)
    | Some _ | None -> (opens, false)
  in
  let id = t.next_open in
  t.next_open <- t.next_open + 1;
  let open_tuple =
    {
      id;
      statement = idx;
      label = info.stmt.Ast.label;
      relation = atom.pred;
      bound = Reldb.Tuple.of_list bound;
      open_attrs = opens;
      asked;
      existence = opens = [];
      repeatable;
      created_at = t.clock;
    }
  in
  Hashtbl.replace t.open_tbl id open_tuple;
  ignore (Reldb.Dynarray.push t.open_ids id);
  Telemetry.Metrics.set_gauge (Telemetry.metrics t.tel) "open.pending"
    (Hashtbl.length t.open_tbl);
  if Telemetry.tracing t.tel then begin
    (* A zero-width "task" span, nested under the creating rule's span;
       later lease/vote/resolve spans parent to it by id. *)
    let h =
      Telemetry.enter t.tel "task"
        ~attrs:[ ("open", string_of_int id); ("relation", atom.pred) ]
        ~clock:t.clock
    in
    Telemetry.exit t.tel h ~clock:t.clock;
    Hashtbl.replace t.task_spans id h
  end;
  Open_created id

let apply_head t idx info env (head : Ast.head) =
  match head.Ast.head with
  | Ast.Head_payoff updates -> award_payoffs t env updates
  | Ast.Head_atom { atom; kind } -> (
      let bound, opens = eval_head_args t env atom in
      match kind with
      | Ast.Assert ->
          if opens <> [] then
            runtime_error "statement %s: head %s has unbound attributes %s (use /open)"
              (Option.value info.stmt.Ast.label ~default:(string_of_int idx))
              atom.pred (String.concat ", " opens)
          else insert_tuple t atom.pred bound
      | Ast.Open worker -> create_open t idx info env atom worker bound opens
      | Ast.Update ->
          if opens <> [] then
            runtime_error "update of %s leaves attributes %s unbound" atom.pred
              (String.concat ", " opens)
          else update_tuple t atom.pred bound
      | Ast.Delete -> delete_tuples t atom.pred bound)

(* --- Budget certificate (Analysis) ----------------------------------------- *)

let analysis_policy t =
  match t.quorum with
  | None -> Analysis.no_policy
  | Some qs ->
      { Analysis.votes = policy_cap qs.qs_policy; scope = qs.qs_relations }

(* The program as the analysis should see it now: the loaded source plus
   every statement added incrementally since (the [Main]-origin infos are
   exactly those, unrewritten; game rules re-desugar from the decls). *)
let analysis_program t =
  let main =
    List.filter_map
      (fun i -> match i.origin with Main -> Some i.stmt | _ -> None)
      (Array.to_list t.infos)
  in
  { t.program with Ast.statements = main }

let compute_certificate ?live_counts t =
  Analysis.analyze ~policy:(analysis_policy t) ?live_counts (analysis_program t)

let certificate t =
  match t.analysis_cache with
  | Some (c, _) -> c
  | None ->
      let c = compute_certificate t in
      t.analysis_cache <- Some (c, Analysis.finite c.Analysis.cert_total_answers);
      c

(* Runtime cross-check: accepted answers must never exceed the certified
   bound. The static certificate cannot see rows the host inserts through
   the API, so an apparent breach first recomputes with the live database
   sizes joined into the seeds ([live_counts]) and only counts a
   violation if the refreshed bound is still exceeded — amortised, since
   the refreshed bound is cached and the recompute (a fresh analysis,
   O(statement atoms + precedence edges)) runs only when the cached bound
   is passed, not per answer. [analysis.*] counters are engine-local,
   deliberately outside [journal_derived_prefixes]: a recount over events
   does not re-run the cross-check. *)
let analysis_check t =
  let c = certificate t in
  match t.analysis_cache with
  | Some (_, Some bound) ->
      let m = Telemetry.metrics t.tel in
      let accepted = t.fold.answers in
      if accepted > bound then begin
        Telemetry.Metrics.incr m "analysis.bound.recomputes";
        let live_counts =
          List.map
            (fun rel -> (Reldb.Relation.name rel, Reldb.Relation.cardinal rel))
            (Reldb.Database.relations t.db)
        in
        let c' = compute_certificate ~live_counts t in
        let bound' = Analysis.finite c'.Analysis.cert_total_answers in
        t.analysis_cache <- Some (c, bound');
        match bound' with
        | Some b when accepted > b ->
            Telemetry.Metrics.incr m "analysis.bound.violations"
        | _ -> ()
      end
  | _ -> ()

(* --- Stepping ------------------------------------------------------------- *)

let record_event t event =
  ignore (Reldb.Dynarray.push t.events event);
  let m = Telemetry.metrics t.tel in
  (* Guarded here (not only inside [incr]) so the disabled path never
     allocates the per-rule / per-worker key strings — the monitor, which
     reads the same fold, shelters behind the same single boolean test.
     Toggling metrics mid-run therefore voids journal-derivability (for
     counters and monitor state alike); recount with [metrics_of_events]
     or [Monitor.of_events] instead. *)
  if Telemetry.Metrics.enabled m then begin
    Fold.apply t.fold m event;
    if event.by_human <> None then analysis_check t
  end

let check_tail t env tail =
  let rec loop env = function
    | [] -> Some env
    | lit :: rest -> (
        match Eval.check_filter t.builtins t.db env lit with
        | `Pass env' -> loop env' rest
        | `Fail -> None)
  in
  loop env tail

let fire t idx (info : stmt_info) (m : Eval.matched) fp =
  Hashtbl.replace t.fired fp ();
  t.clock <- t.clock + 1;
  Log.debug (fun k ->
      k "clock %d: firing statement %s with %s" t.clock
        (Option.value info.stmt.Ast.label ~default:(string_of_int idx))
        (Binding.to_string m.env));
  match check_tail t m.env info.tail with
  | None ->
      let event =
        {
          clock = t.clock;
          statement = idx;
          label = info.stmt.Ast.label;
          valuation = Binding.to_list m.env;
          fired = false;
          effects = [];
          by_human = None;
        }
      in
      record_event t event;
      event
  | Some env ->
      let effects = List.map (apply_head t idx info env) info.stmt.Ast.heads in
      let event =
        {
          clock = t.clock;
          statement = idx;
          label = info.stmt.Ast.label;
          valuation = Binding.to_list env;
          fired = true;
          effects;
          by_human = None;
        }
      in
      record_event t event;
      event

(* Fire under a "rule" span when tracing, with an "atom-match" child
   carrying the scan work spent finding the instance this step. *)
let fire_traced t idx (info : stmt_info) (m : Eval.matched) fp =
  if not (Telemetry.tracing t.tel) then fire t idx info m fp
  else begin
    let h =
      Telemetry.enter t.tel "rule"
        ~attrs:[ ("stmt", Fold.stmt_key info.stmt.Ast.label idx) ]
        ~clock:t.clock
    in
    Telemetry.emit t.tel "atom-match"
      ~attrs:
        [
          ("strategy", (if info.delta = None then "rescan" else "delta"));
          ("rows_scanned", string_of_int !(t.rows_scanned));
        ]
      ~clock:t.clock;
    let event = fire t idx info m fp in
    Telemetry.exit t.tel h
      ~attrs:[ ("fired", string_of_bool event.fired) ]
      ~clock:t.clock;
    event
  end

(* Current value of every watched change counter of [info]'s body. *)
let watch_values t info =
  Array.of_list
    (List.map
       (fun (rel, kind) ->
         match Reldb.Database.find t.db rel with
         | None -> 0
         | Some r -> (
             match kind with
             | Watch_destructions -> Reldb.Relation.destructions r
             | Watch_generation -> Reldb.Relation.generation r))
       info.watch_rels)

(* Advance one statement's delta state to the current database.

   If a watched counter moved — an in-place update or delete of a body
   relation, or any change to a relation negated in the prefix — the
   pending instances may be stale, so they are dropped and the statement
   re-derives from row zero. The re-derivation is scoped: only this
   statement resets; every other statement keeps its frontiers.

   Otherwise only the rows appended above each atom's frontier are
   consumed (seminaive discovery): every prefix valuation involving at
   least one row at or above an atom's frontier is found exactly once — a
   combination with new rows at positions S is discovered at position
   [min S], where earlier atoms are restricted below their frontiers and
   later atoms are unrestricted.

   Discoveries are merged into [pending] by support key, so the head of
   [pending] is always the instance naive left-to-right evaluation would
   fire next. A scan that consumed rows but discovered nothing still
   counts a round (and emits its span): empty deltas are observable, and
   the recount invariants of the registry hold over them. *)
let delta_scan t idx (info : stmt_info) (ds : delta_state) =
  let watch_now = watch_values t info in
  let reset = ds.watch <> [||] && ds.watch <> watch_now in
  if reset then begin
    Array.fill ds.frontiers 0 (Array.length ds.frontiers) 0;
    ds.pending <- []
  end;
  let n_atoms = Array.length ds.frontiers in
  let highs =
    Array.of_list
      (List.map
         (fun pred ->
           match Reldb.Database.find t.db pred with
           | Some rel -> Reldb.Relation.high_water rel
           | None -> 0)
         info.pos_preds)
  in
  let has_new = ref reset in
  for i = 0 to n_atoms - 1 do
    if highs.(i) > ds.frontiers.(i) then has_new := true
  done;
  if !has_new then begin
    let discovered = ref [] and n_discovered = ref 0 in
    let new_rows = Array.make n_atoms 0 in
    let plans = delta_plans t info ~n_atoms in
    (try
       for i = 0 to n_atoms - 1 do
         new_rows.(i) <- highs.(i) - ds.frontiers.(i);
         let reordered =
           if plans.(i).Planner.identity then None
           else Some (plans.(i).Planner.literals, plans.(i).Planner.order)
         in
         for r = ds.frontiers.(i) to highs.(i) - 1 do
           let plan j =
             if j < i then Eval.Below ds.frontiers.(j)
             else if j = i then Eval.Exactly r
             else Eval.All
           in
           Eval.enumerate ~plan ?reordered ~rows_scanned:t.rows_scanned t.builtins
             t.db info.prefix ~init:Binding.empty
             ~f:(fun m ->
               discovered := m :: !discovered;
               incr n_discovered;
               `Continue)
         done
       done
     with Eval.Error msg ->
       runtime_error "statement %s: %s"
         (Option.value info.stmt.Ast.label ~default:(string_of_int idx))
         msg);
    ds.frontiers <- highs;
    ds.watch <- watch_now;
    let batch = List.sort Eval.compare_matched (List.rev !discovered) in
    ds.pending <- Eval.merge_matched ds.pending batch;
    let consumed = Array.fold_left ( + ) 0 new_rows in
    ds.last_new <- new_rows;
    ds.last_discovered <- !n_discovered;
    ds.last_mode <- (if reset then Delta_rederived else Delta_differential);
    let m = Telemetry.metrics t.tel in
    Telemetry.Metrics.incr m "eval.delta.rounds";
    Telemetry.Metrics.incr m ~by:consumed "eval.delta.new_rows";
    Telemetry.Metrics.incr m ~by:!n_discovered "eval.delta.discovered";
    if reset then Telemetry.Metrics.incr m "eval.delta.resets";
    if Telemetry.tracing t.tel then
      Telemetry.emit t.tel "delta-scan"
        ~attrs:
          [
            ("stmt", Fold.stmt_key info.stmt.Ast.label idx);
            ("mode", (if reset then "rederive" else "differential"));
            ("new_rows", string_of_int consumed);
            ("discovered", string_of_int !n_discovered);
          ]
        ~clock:t.clock
  end
  else
    (* Quiet scan: nothing new. [last_*] keeps describing the most recent
       round that did work (Delta_idle only until the first one). *)
    ds.watch <- watch_now

(* Pop the first pending instance that has not fired yet. *)
let rec pop_unfired t idx info (ds : delta_state) =
  match ds.pending with
  | [] -> None
  | m :: rest ->
      let fp = fingerprint idx info m.Eval.support in
      ds.pending <- rest;
      if Hashtbl.mem t.fired fp then pop_unfired t idx info ds else Some (m, fp)

let fire_checked t i info m fp =
  try Some (fire_traced t i info m fp)
  with Eval.Error msg ->
    runtime_error "statement %s: %s"
      (Option.value info.stmt.Ast.label ~default:(string_of_int i))
      msg

(* Examine statement [i]: fire its conflict-resolution winner, or [None]
   when it has no unfired instance. *)
let visit t i =
  let info = t.infos.(i) in
  match info.delta with
  | Some ds -> (
      delta_scan t i info ds;
      match pop_unfired t i info ds with
      | None -> None
      | Some (m, fp) -> fire_checked t i info m fp)
  | None ->
      let gen = body_generation t info in
      if info.exhausted_gen = gen then None
      else begin
        let found = ref None in
        (try
           Eval.enumerate ~rows_scanned:t.rows_scanned t.builtins t.db info.prefix
             ~init:Binding.empty
             ~f:(fun m ->
               let fp = fingerprint i info m.support in
               if Hashtbl.mem t.fired fp then `Continue
               else begin
                 found := Some (m, fp);
                 `Stop
               end)
         with Eval.Error msg ->
           runtime_error "statement %s: %s"
             (Option.value info.stmt.Ast.label ~default:(string_of_int i))
             msg);
        match !found with
        | None ->
            info.exhausted_gen <- gen;
            None
        | Some (m, fp) -> fire_checked t i info m fp
      end

(* Fire the first statement, in priority order, that has an unfired
   instance; also return how many statements were examined. [Reference]
   examines every statement up to that one. [Optimized] examines only
   the statements its schedule holds awake: a skipped statement yielded
   nothing when last examined and no relation in its body has changed
   since, so examining it would yield nothing again. *)
let step_core t =
  let rec walk_all i examined =
    if i >= Array.length t.infos then (None, examined)
    else
      match visit t i with
      | Some _ as fired -> (fired, examined + 1)
      | None -> walk_all (i + 1) (examined + 1)
  in
  let rec walk_awake examined =
    let i = Schedule.first t.schedule in
    if i < 0 then (None, examined)
    else
      match visit t i with
      | Some _ as fired -> (fired, examined + 1)
      | None ->
          Schedule.sleep_first t.schedule;
          walk_awake (examined + 1)
  in
  match t.strategy with
  | Optimized ->
      Schedule.poll t.schedule;
      walk_awake 0
  | Reference -> walk_all 0 0

(* One machine step, metered: step count, statements examined and the
   candidate rows the step's enumerations scanned. *)
let step_internal t =
  let m = Telemetry.metrics t.tel in
  t.rows_scanned := 0;
  let result, examined = step_core t in
  Telemetry.Metrics.incr m "engine.steps";
  Telemetry.Metrics.incr m ~by:!(t.rows_scanned) "eval.rows_scanned";
  Telemetry.Metrics.incr m ~by:examined "eval.statements_examined";
  (match result with
  | None -> Telemetry.Metrics.incr m "engine.steps.empty"
  | Some _ -> ());
  result

let step t =
  journal t J_step;
  step_internal t

let run ?(max_steps = 1_000_000) t =
  journal t (J_run max_steps);
  let rec loop steps =
    if steps >= max_steps then (steps, `Capped)
    else
      match step_internal t with
      | Some _ -> loop (steps + 1)
      | None -> (steps, `Quiescent)
  in
  let ((steps, outcome) as result) = loop 0 in
  (* Emitted even when the fixpoint held immediately (zero steps): an
     empty run is still an observation. Engine-local ("eval." namespace)
     like the delta counters — run boundaries are not journal events, so
     these must stay out of the journal-derived recount contract. *)
  let m = Telemetry.metrics t.tel in
  Telemetry.Metrics.incr m "eval.fixpoint.runs";
  Telemetry.Metrics.incr m ~by:steps "eval.fixpoint.steps";
  if Telemetry.tracing t.tel then
    Telemetry.emit t.tel "fixpoint"
      ~attrs:
        [
          ("steps", string_of_int steps);
          ("outcome", (match outcome with `Capped -> "capped" | `Quiescent -> "quiescent"));
        ]
      ~clock:t.clock;
  result

(* --- Open tuples ------------------------------------------------------------ *)

(* The slot of [t.open_ids] holding the oldest id above [after]. *)
let first_open_after t after =
  let rec search ids after lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Reldb.Dynarray.get ids mid > after then search ids after lo mid
      else search ids after (mid + 1) hi
  in
  search t.open_ids after 0 (Reldb.Dynarray.length t.open_ids)

(* The pending tasks listed in [t.open_ids] from slot [first] on. *)
let pending_from t first =
  let rec collect t first i acc =
    if i < first then acc
    else
      collect t first (i - 1)
        (match Hashtbl.find_opt t.open_tbl (Reldb.Dynarray.get t.open_ids i) with
        | Some o -> o :: acc
        | None -> acc)
  in
  collect t first (Reldb.Dynarray.length t.open_ids - 1) []

let pending t = pending_from t 0
let pending_since t ~after = pending_from t (first_open_after t after)
let pending_count t = Hashtbl.length t.open_tbl

(* Each element is sought afresh from the previous one's id, so the walk
   stays exact when its consumer creates or resolves tasks on the way. *)
let pending_seq t =
  let rec from after () =
    let rec next i =
      if i >= Reldb.Dynarray.length t.open_ids then Seq.Nil
      else
        match Hashtbl.find_opt t.open_tbl (Reldb.Dynarray.get t.open_ids i) with
        | Some o -> Seq.Cons (o, from o.id)
        | None -> next (i + 1)
    in
    next (first_open_after t after)
  in
  from 0

(* Called after a task leaves [t.open_tbl]: once resolved ids outnumber
   pending ones, squeeze them out of the index in place. Each prune costs
   less than twice the removals since the last one, and the index never
   holds more than twice the pending pool. *)
let prune_open_ids t =
  let live = Hashtbl.length t.open_tbl in
  if Reldb.Dynarray.length t.open_ids - live > live then begin
    let kept = ref 0 in
    Reldb.Dynarray.iter
      (fun id ->
        if Hashtbl.mem t.open_tbl id then begin
          Reldb.Dynarray.set t.open_ids !kept id;
          incr kept
        end)
      t.open_ids;
    Reldb.Dynarray.truncate t.open_ids !kept
  end

let task_view t (o : open_tuple) =
  Views.render_open t.views ~relation:o.relation ~bound:o.bound ~open_attrs:o.open_attrs

let find_open t id = Hashtbl.find_opt t.open_tbl id

(* Take a task out of the pending pool, with its banked votes and its
   span record. *)
let remove_pending t id =
  Hashtbl.remove t.open_tbl id;
  prune_open_ids t;
  Hashtbl.remove t.votes id;
  Hashtbl.remove t.task_spans id;
  Telemetry.Metrics.set_gauge (Telemetry.metrics t.tel) "open.pending"
    (Hashtbl.length t.open_tbl)

let resolve t id =
  remove_pending t id;
  match t.leases with Some l -> Lease.forget l ~open_id:id | None -> ()

(* Parent handle for spans about a pending task: its "task" span if one
   was recorded (tracing was on at creation), else the root. *)
let task_parent t id =
  match Hashtbl.find_opt t.task_spans id with
  | Some h -> h
  | None -> Telemetry.none

(* Emit a point span about a pending task, parented to its "task" span.
   [attrs] is a thunk so the untraced path allocates nothing. *)
let emit_task_span t open_id name attrs =
  if Telemetry.tracing t.tel then
    Telemetry.emit t.tel name ~parent:(task_parent t open_id) ~attrs:(attrs ())
      ~clock:t.clock

(* --- Leases, dead letters, quorum ------------------------------------------ *)

let lease_config t = Option.map Lease.config t.leases

let set_lease_config t cfg =
  journal t (J_set_lease cfg);
  t.leases <- Option.map Lease.create cfg

let install_quorum t qs =
  journal t (J_set_quorum qs);
  t.quorum <- qs;
  (* The certificate charges per-task answers from the quorum policy. *)
  t.analysis_cache <- None

let check_policy = function
  | Fixed _ -> ()
  | Adaptive { tau; min_votes; max_votes } ->
      if not (tau > 0.0 && tau <= 1.0) then
        runtime_error "adaptive quorum: tau must be in (0, 1], got %g" tau;
      if min_votes < 1 || max_votes < min_votes then
        runtime_error "adaptive quorum: need 1 <= min_votes <= max_votes, got %d..%d"
          min_votes max_votes

let set_quorum_policy t ?relations policy =
  check_policy policy;
  install_quorum t (Some { qs_policy = policy; qs_relations = relations })

let quorum_policy_of t = Option.map (fun qs -> qs.qs_policy) t.quorum

(* --- Campaign monitor -------------------------------------------------------- *)

(* Default the monitor's spend ceiling from the budget certificate: the
   bound is answers × cost_per_answer, so it only translates to budget
   units when no payoff statement can add spend on top. Filled BEFORE
   journaling, so replay and recovery re-install the already-filled
   config (the fill is a no-op on a non-None field); a config left
   unfilled meets the same program, statements and quorum policy on
   replay and stays unfilled. Either way the replayed monitor state is
   identical. *)
let certify_monitor_config t cfg =
  match cfg with
  | Some c
    when c.Monitor.certified_bound = None && c.Monitor.max_budget = None ->
      let has_payoff =
        Array.exists
          (fun i ->
            List.exists
              (fun (h : Ast.head) ->
                match h.Ast.head with
                | Ast.Head_payoff _ -> true
                | Ast.Head_atom _ -> false)
              i.stmt.Ast.heads)
          t.infos
      in
      if has_payoff then cfg
      else
        Analysis.finite (certificate t).Analysis.cert_total_answers
        |> Option.fold ~none:cfg ~some:(fun b ->
               Some
                 {
                   c with
                   Monitor.certified_bound = Some (b * c.Monitor.cost_per_answer);
                 })
  | _ -> cfg

let set_monitor t cfg =
  let cfg = certify_monitor_config t cfg in
  journal t (J_set_monitor cfg);
  (* Backfill from the whole event log, so the live monitor always equals
     [Monitor.of_events cfg (events t)] no matter when it was installed —
     and so journal replay and restore (which re-run or re-derive this
     entry) land on identical state. The series needs the fold as it was
     at every past sample: a fresh fold of the log (into a scratch
     registry) rebuilds it and then replaces the engine's. *)
  t.monitor <-
    Option.map
      (fun c ->
        let fold = Fold.create () in
        let mon = Monitor.create c fold (Telemetry.Metrics.create ()) (events t) in
        t.fold <- fold;
        mon)
      cfg

let monitor t = t.monitor

let monitor_json t =
  match t.monitor with Some mon -> Monitor.to_json mon | None -> "null"

(* A round-boundary sample: journal-first like every mutation, then run
   the watchdogs and record one event whose [Sampled]/[Alert_fired]
   effects carry the whole verdict — the event log, not the monitor's
   memory, is the source of truth (the recount fold reads the firings
   back). With the metrics kill switch off the sample is journaled but no
   event is recorded — the same "toggling voids derivability" caveat the
   counter recount carries. *)
let monitor_sample t ~round =
  journal t (J_sample round);
  match t.monitor with
  | None -> []
  | Some mon ->
      if not (Telemetry.Metrics.enabled (Telemetry.metrics t.tel)) then []
      else begin
        t.clock <- t.clock + 1;
        let alerts = Monitor.check mon ~round ~clock:t.clock in
        let effects =
          Sampled { round }
          :: List.map (fun alert -> Alert_fired { round; alert }) alerts
        in
        record_event t
          {
            clock = t.clock;
            statement = -1;
            label = Some "monitor";
            valuation = [];
            fired = false;
            effects;
            by_human = None;
          };
        if Telemetry.tracing t.tel then
          Telemetry.emit t.tel "monitor-sample"
            ~attrs:
              [ ("round", string_of_int round);
                ("alerts", string_of_int (List.length alerts)) ]
            ~clock:t.clock;
        List.map
          (fun alert -> { Monitor.at_round = round; at_clock = t.clock; alert })
          alerts
      end

(* Quorum applies to undesignated, non-repeatable tasks: several workers
   answer the same open tuple and an aggregation policy picks the value.
   Designated tasks have exactly one eligible worker and standing tasks
   insert one tuple per answer, so neither can collect k votes. *)
let quorum_for t (o : open_tuple) =
  match t.quorum with
  | None -> None
  | Some qs ->
      if
        policy_cap qs.qs_policy > 1 && o.asked = None && not o.repeatable
        && (match qs.qs_relations with
           | None -> true
           | Some rs -> List.mem o.relation rs)
      then Some qs
      else None

let capacity t o =
  match quorum_for t o with Some qs -> policy_cap qs.qs_policy | None -> 1

let dead_letters t = List.rev t.dead

(* Remove a task from the pending pool into the dead-letter pool, leaving
   an auditable event in the log. *)
let dead_letter t (o : open_tuple) reason =
  let parent = task_parent t o.id in
  remove_pending t o.id;
  (match t.leases with Some l -> Lease.mark_dead l ~open_id:o.id reason | None -> ());
  t.dead <- (o, reason) :: t.dead;
  t.clock <- t.clock + 1;
  record_event t
    {
      clock = t.clock;
      statement = o.statement;
      label = o.label;
      valuation = [];
      fired = false;
      effects = [ Dead_lettered (o.id, reason) ];
      by_human = None;
    };
  if Telemetry.tracing t.tel then
    Telemetry.emit t.tel "dead-letter" ~parent
      ~attrs:[ ("open", string_of_int o.id); ("reason", Fold.reason_key reason) ]
      ~clock:t.clock

let decline t id =
  journal t (J_decline id);
  match find_open t id with
  | None -> ()
  | Some o -> dead_letter t o Lease.Declined

type assign_error =
  [ `Stale | `Dead of Lease.reason | `Backoff of int | `Held of Reldb.Value.t ]

let assign t id ~worker ~now =
  journal t (J_assign (id, worker, now));
  let result =
    match t.leases with
    | None ->
        runtime_error
          "assign: the lease runtime is not configured (call set_lease_config first)"
    | Some l -> (
        match Lease.is_dead l ~open_id:id with
        | Some r -> Error (`Dead r)
        | None -> (
            match find_open t id with
            | None -> Error `Stale
            | Some o ->
                (Lease.assign l ~open_id:id ~worker ~now ~capacity:(capacity t o)
                  :> (Lease.lease, assign_error) result)))
  in
  let m = Telemetry.metrics t.tel in
  (match result with
  | Ok _ ->
      Telemetry.Metrics.incr m "lease.granted";
      emit_task_span t id "lease" (fun () ->
          [ ("open", string_of_int id); ("worker", Reldb.Value.to_display worker) ])
  | Error `Stale -> Telemetry.Metrics.incr m "lease.refused.stale"
  | Error (`Dead _) -> Telemetry.Metrics.incr m "lease.refused.dead"
  | Error (`Backoff _) -> Telemetry.Metrics.incr m "lease.refused.backoff"
  | Error (`Held _) -> Telemetry.Metrics.incr m "lease.refused.held");
  result

let reclaim t ~now =
  journal t (J_reclaim now);
  match t.leases with
  | None -> []
  | Some l ->
      let verdicts = Lease.reclaim l ~now in
      let m = Telemetry.metrics t.tel in
      List.iter
        (fun (id, verdict) ->
          match verdict with
          | `Retry _ -> Telemetry.Metrics.incr m "lease.reclaimed.retry"
          | `Dead reason -> (
              Telemetry.Metrics.incr m "lease.reclaimed.dead";
              match find_open t id with
              | Some o -> dead_letter t o reason
              | None -> ()))
        verdicts;
      verdicts

(* A garbage answer (wrong attributes or types) counts against the task's
   rejection budget; over budget the task is dead-lettered — a task that
   only ever attracts garbage must not pend forever. *)
let note_rejected_answer t (o : open_tuple) =
  match t.leases with
  | None -> ()
  | Some l -> (
      match Lease.note_rejection l ~open_id:o.id with
      | `Counted _ -> ()
      | `Exhausted n -> dead_letter t o (Lease.Rejected_answers n))

let release_lease t (o : open_tuple) worker =
  match t.leases with
  | None -> ()
  | Some l -> Lease.release l ~open_id:o.id ~worker

let human_event t (o : open_tuple) worker effects valuation =
  Log.debug (fun k ->
      k "human %s answers open tuple %d on %s" (Reldb.Value.to_display worker) o.id
        o.relation);
  t.clock <- t.clock + 1;
  let event =
    {
      clock = t.clock;
      statement = o.statement;
      label = o.label;
      valuation;
      fired = true;
      effects;
      by_human = Some worker;
    }
  in
  record_event t event;
  event

(* A worker may answer when they are the designated worker (if any) and no
   other workers hold every lease slot of the task. Without the lease
   runtime only the designation check applies — the seed behaviour. *)
let worker_may_answer t (o : open_tuple) worker =
  match o.asked with
  | Some w when not (Reldb.Value.equal w worker) -> false
  | Some _ | None -> (
      match t.leases with
      | None -> true
      | Some l ->
          Lease.holds l ~open_id:o.id ~worker
          || Lease.blocked_for l ~open_id:o.id ~worker ~capacity:(capacity t o) = None)

let already_voted t (o : open_tuple) worker =
  match Hashtbl.find_opt t.votes o.id with
  | None -> false
  | Some votes -> List.exists (fun (w, _) -> Reldb.Value.equal w worker) votes

let ctor_name = Reldb.Value.type_name

(* Schemas declare no types, so the expected type of an open attribute is
   inferred from the evidence at hand: the first non-null value already
   stored in that column. An empty column validates anything — without
   evidence there is nothing to check against. *)
let column_ctor t relation attr =
  match Reldb.Database.find t.db relation with
  | None -> None
  | Some rel ->
      let found = ref None in
      (try
         Reldb.Relation.iter
           (fun _ tuple ->
             match Reldb.Tuple.get_or_null tuple attr with
             | Reldb.Value.Null -> ()
             | v ->
                 found := Some (ctor_name v);
                 raise Exit)
           rel
       with Exit -> ());
      !found

let type_mismatch t (o : open_tuple) values =
  List.find_map
    (fun (attr, v) ->
      if Reldb.Value.is_null v then None
      else
        match column_ctor t o.relation attr with
        | Some expected when expected <> ctor_name v ->
            Some (Type_mismatch { attr; value = v })
        | Some _ | None -> None)
    values

let record_vote t (o : open_tuple) worker ballot =
  let prev = Option.value (Hashtbl.find_opt t.votes o.id) ~default:[] in
  Hashtbl.replace t.votes o.id ((worker, ballot) :: prev);
  List.length prev + 1

(* The slots a task's ballots bind (see [ballot]). *)
let slots (o : open_tuple) = if o.existence then [ exists_slot ] else o.open_attrs

(* A task's banked ballots with their voters, in arrival order. *)
let ballots t (o : open_tuple) =
  List.rev (Option.value (Hashtbl.find_opt t.votes o.id) ~default:[])

(* How [Fixed] tasks resolve and [Adaptive] tasks escalate: the one
   decision rule that depends on the kind of question. A value question
   takes the plurality of each open attribute's votes in arrival order
   ([Null] when it has none); an existence question takes a strict
   majority of yes votes, so a tie is no. *)
let fallback_decision t (o : open_tuple) =
  let ballots = List.map snd (ballots t o) in
  if o.existence then
    let ayes =
      List.length
        (List.filter
           (fun b -> Reldb.Value.equal (List.assoc exists_slot b) (Reldb.Value.Bool true))
           ballots)
    in
    [ (exists_slot, Reldb.Value.Bool (2 * ayes > List.length ballots)) ]
  else
    List.map
      (fun attr ->
        ( attr,
          Option.value ~default:Reldb.Value.Null
            (Quality.Aggregate.plurality (List.filter_map (List.assoc_opt attr) ballots)) ))
      o.open_attrs

(* --- Worker reputation and the adaptive stopping rule ----------------------- *)

let worker_key = Reldb.Value.to_display

let worker_reliability t w = Quality.Model.reliability t.reputation (worker_key w)

let reliability_table t =
  List.map
    (fun w ->
      ( w,
        Quality.Model.reliability t.reputation w,
        Quality.Model.observations t.reputation w ))
    (Quality.Model.workers t.reputation)

(* Score one worker's agreement with the resolution and refresh their
   reliability gauge. Gauges are operational state, not journal-derived
   (the model itself is serialised in state records), so the disabled path
   skips the key allocation like the other engine-local metrics. *)
let observe_reputation t w ~agreed =
  let key = worker_key w in
  Quality.Model.observe t.reputation key ~agreed;
  let m = Telemetry.metrics t.tel in
  if Telemetry.Metrics.enabled m then
    Telemetry.Metrics.set_gauge m
      ("quality.reliability.worker." ^ key)
      (int_of_float
         ((Quality.Model.reliability t.reputation key *. 1000.) +. 0.5))

(* On resolution, every banked ballot is scored against the decision:
   one agreement event per slot the voter matched (or missed). *)
let note_agreements t (o : open_tuple) decided =
  List.iter
    (fun (w, ballot) ->
      List.iter
        (fun (slot, c) ->
          match List.assoc_opt slot ballot with
          | Some b -> observe_reputation t w ~agreed:(Reldb.Value.equal b c)
          | None -> ())
        decided)
    (ballots t o)

(* Each slot's votes in arrival order, weighted by each voter's current
   reliability — the input shape of {!Quality.Decide}. *)
let weighted_slots t (o : open_tuple) =
  let ballots = ballots t o in
  List.map
    (fun slot ->
      ( slot,
        List.filter_map
          (fun (w, ballot) ->
            Option.map (fun x -> (x, worker_reliability t w)) (List.assoc_opt slot ballot))
          ballots ))
    (slots o)

let pct p = int_of_float ((p *. 100.) +. 0.5)

(* The per-task stopping rule of an [Adaptive] policy, combining the
   per-slot verdicts of {!Quality.Decide.decide} (every ballot binds
   every slot, so all slots hold the same number of votes): resolve only
   when every slot is confident, escalate to the fallback decision once
   any slot hits the cap unconvinced, keep asking otherwise. The reported
   posterior is the weakest slot's. *)
let adaptive_verdict t cfg (o : open_tuple) =
  let verdicts =
    List.map
      (fun (slot, votes) -> (slot, Quality.Decide.decide cfg votes))
      (weighted_slots t o)
  in
  let slot_posterior = function
    | Quality.Decide.Resolve (_, p) | Quality.Decide.Escalate p -> p
    | Quality.Decide.Ask_more -> 0.0
  in
  let min_posterior =
    List.fold_left (fun acc (_, v) -> Float.min acc (slot_posterior v)) 1.0 verdicts
  in
  if
    verdicts <> []
    && List.for_all
         (fun (_, v) ->
           match v with Quality.Decide.Resolve _ -> true | _ -> false)
         verdicts
  then
    `Resolve
      ( List.map
          (fun (slot, v) ->
            match v with
            | Quality.Decide.Resolve (c, _) -> (slot, c)
            | _ -> assert false)
          verdicts,
        pct min_posterior,
        false )
  else if
    List.exists
      (fun (_, v) -> match v with Quality.Decide.Escalate _ -> true | _ -> false)
      verdicts
  then `Escalate (pct min_posterior)
  else `Pending

let task_uncertainty t id =
  match find_open t id with
  | None -> 0.0
  | Some o ->
      List.fold_left
        (fun acc (_, votes) -> Float.max acc (Quality.Decide.uncertainty votes))
        0.0 (weighted_slots t o)

let task_posteriors t id =
  match find_open t id with
  | None -> []
  | Some o ->
      List.map
        (fun (slot, votes) -> (slot, Quality.Decide.posteriors votes))
        (weighted_slots t o)

let votes_banked t id =
  match Hashtbl.find_opt t.votes id with Some vs -> List.length vs | None -> 0

let has_voted t id ~worker =
  match find_open t id with
  | None -> false
  | Some o -> already_voted t o worker

(* Why a value ballot is refused: it must bind exactly the open
   attributes, with values of the types their columns hold. *)
let ballot_error t (o : open_tuple) ballot =
  let expected = List.sort String.compare o.open_attrs in
  let given = List.sort String.compare (List.map fst ballot) in
  if expected <> given then Some (Wrong_attrs { expected; given })
  else type_mismatch t o ballot

(* The effect of a decided ballot: a value answer inserts the bound
   tuple completed with its values; an existence answer inserts the
   bound tuple on yes and nothing on no. *)
let apply_decision t (o : open_tuple) decided =
  if not o.existence then
    insert_tuple t o.relation (Reldb.Tuple.to_list o.bound @ decided)
  else if Reldb.Value.equal (List.assoc exists_slot decided) (Reldb.Value.Bool true) then
    insert_tuple t o.relation (Reldb.Tuple.to_list o.bound)
  else No_effect

(* The one answer path of value and existence questions. Events carry
   the values of a value answer and none of an existence answer. *)
let answer_checked t id ~worker ~existence ballot =
  match find_open t id with
  | None -> Error (Stale id)
  | Some o -> (
      if o.existence <> existence then Error Wrong_question
      else if not (worker_may_answer t o worker) then Error Not_lease_holder
      else if already_voted t o worker then Error Already_voted
      else
        match if existence then None else ballot_error t o ballot with
        | Some r ->
            note_rejected_answer t o;
            Error r
        | None -> (
            let carried values = if existence then [] else values in
            match quorum_for t o with
            | None ->
                let effect = apply_decision t o ballot in
                (* [Resolved] retires the task (see [Fold.retirements]); a
                   standing (repeatable) task stays pending after a value
                   answer. *)
                if o.repeatable && not existence then begin
                  release_lease t o worker;
                  Ok (human_event t o worker [ effect ] ballot)
                end
                else begin
                  resolve t id;
                  Ok (human_event t o worker [ effect; Resolved o.id ] (carried ballot))
                end
            | Some qs -> (
                let n = record_vote t o worker ballot in
                let resolve_with ?adaptive decided =
                  note_agreements t o decided;
                  let effect = apply_decision t o decided in
                  resolve t id;
                  let effects =
                    match adaptive with
                    | Some (posterior_pct, escalated) ->
                        [ Adaptive_resolved { open_id = o.id; posterior_pct; escalated };
                          effect ]
                    | None -> [ effect ]
                  in
                  Ok
                    (human_event t o worker
                       (Vote_recorded (o.id, n) :: effects)
                       (carried decided))
                in
                let pending () =
                  (* The vote is banked; the task stays pending until the
                     quorum (or the confidence threshold) is reached. *)
                  release_lease t o worker;
                  Ok (human_event t o worker [ Vote_recorded (o.id, n) ] (carried ballot))
                in
                match qs.qs_policy with
                | Fixed k ->
                    if n < k then pending () else resolve_with (fallback_decision t o)
                | Adaptive { tau; min_votes; max_votes } -> (
                    match
                      adaptive_verdict t { Quality.Decide.tau; min_votes; max_votes } o
                    with
                    | `Pending -> pending ()
                    | `Resolve (decided, posterior_pct, escalated) ->
                        resolve_with ~adaptive:(posterior_pct, escalated) decided
                    | `Escalate posterior_pct ->
                        resolve_with ~adaptive:(posterior_pct, true)
                          (fallback_decision t o)))))

(* Engine-local outcome counters for human answers. Accepted answers are
   counted by the event fold; rejections leave no event, so they are
   counted here (and are deliberately NOT journal-derived). Guarded so the
   disabled path never allocates the key strings. *)
let note_answer_metrics t ~worker result =
  let m = Telemetry.metrics t.tel in
  if Telemetry.Metrics.enabled m then
    match result with
    | Ok _ -> ()
    | Error r ->
        Telemetry.Metrics.incr m "answers.rejected";
        Telemetry.Metrics.incr m ("answers.rejected.reason." ^ reject_key r);
        Telemetry.Metrics.incr m
          ("answers.rejected.worker." ^ Reldb.Value.to_display worker)

(* The task-lifecycle spans of an answer, parented to the task's "task"
   span: "vote" while a quorum task stays pending, "resolve" when the task
   left the pool, "answer" for accepted answers to standing tasks, and
   "answer-rejected" with the typed reason otherwise. [parent] is sampled
   before the answer runs — resolution drops the task's span record. *)
let trace_answer t id ~worker ~parent result =
  if Telemetry.tracing t.tel then
    match result with
    | Error r ->
        Telemetry.emit t.tel "answer-rejected" ~parent
          ~attrs:
            [
              ("open", string_of_int id);
              ("worker", Reldb.Value.to_display worker);
              ("reason", reject_key r);
            ]
          ~clock:t.clock
    | Ok (ev : event) ->
        let vote = Option.map snd (Fold.vote ev) in
        let resolved = not (Hashtbl.mem t.open_tbl id) in
        let name =
          if resolved then "resolve" else if vote <> None then "vote" else "answer"
        in
        Telemetry.emit t.tel name ~parent
          ~attrs:
            ([
               ("open", string_of_int id);
               ("worker", Reldb.Value.to_display worker);
             ]
            @ match vote with Some n -> [ ("votes", string_of_int n) ] | None -> [])
          ~clock:t.clock

let answer t entry id ~worker ~existence ballot =
  journal t entry;
  let parent = if Telemetry.tracing t.tel then task_parent t id else Telemetry.none in
  let result = answer_checked t id ~worker ~existence ballot in
  note_answer_metrics t ~worker result;
  trace_answer t id ~worker ~parent result;
  result

let supply t id ~worker values =
  answer t (J_supply (id, worker, values)) id ~worker ~existence:false values

let answer_existence t id ~worker yes =
  answer t (J_answer (id, worker, yes)) id ~worker ~existence:true
    [ (exists_slot, Reldb.Value.Bool yes) ]

(* --- EXPLAIN -------------------------------------------------------------------- *)

(* Render the evidence behind the engine's current evaluation choices:
   per rule its path; for a delta rule the join order the planner would
   pick against today's statistics (with the estimated rows that
   justified each pick) and whether the cached compiled plans are still
   valid; then the lease and quorum runtime state the pending tasks live
   under. Planning here calls [Planner.plan] directly — it never touches
   the plan caches or their hit/miss counters, so EXPLAIN is
   observation-only. *)
let pp_explain fmt t =
  Format.fprintf fmt "EXPLAIN  (clock %d, %d statements, strategy %s)@." t.clock
    (Array.length t.infos)
    (match t.strategy with Optimized -> "optimized" | Reference -> "reference");
  (* Static task bounds, paired with each rule's open heads in order per
     relation (the certificate lists bounds in statement order, so the
     queues line up with the traversal below). *)
  let cert = certificate t in
  let bounds_by_rel : (string, Analysis.task_bound Queue.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (tb : Analysis.task_bound) ->
      let q =
        match Hashtbl.find_opt bounds_by_rel tb.Analysis.tb_relation with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add bounds_by_rel tb.Analysis.tb_relation q;
            q
      in
      Queue.push tb q)
    cert.Analysis.cert_tasks;
  let next_bound rel =
    match Hashtbl.find_opt bounds_by_rel rel with
    | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
    | _ -> None
  in
  Array.iteri
    (fun i info ->
      Format.fprintf fmt "@.rule %s  [%s]@."
        (Fold.stmt_key info.stmt.Ast.label i)
        (if info.delta = None then "rescan" else "delta");
      (match (info.pos_preds, info.delta) with
      | [], _ -> Format.fprintf fmt "  join: none (fact or filter-only body)@."
      | _, None ->
          Format.fprintf fmt "  join: %s  (left-to-right)@."
            (String.concat " -> " info.pos_preds)
      | _, Some _ ->
          let key = plan_key t info in
          let plan = Planner.plan t.db info.prefix in
          Format.fprintf fmt "  join: %s%s@."
            (String.concat " -> "
               (List.map
                  (fun (pred, est, card) ->
                    Printf.sprintf "%s(est %d of %d)" pred est card)
                  plan.Planner.steps))
            (if plan.Planner.identity then "  (identity order)" else "");
          let cache =
            if Array.length info.delta_plans = 0 then "not yet compiled"
            else if info.delta_plans_key = key then "fresh"
            else "stale (statistics epoch moved)"
          in
          Format.fprintf fmt "  plan cache: %s  (stats key %s)@." cache
            (String.concat "."
               (List.map string_of_int (Array.to_list key))));
      (* The delta view: per atom its frontier (and the rows it consumed
         as the delta atom last round), what the last productive round
         did, and how many discovered instances are still waiting. *)
      (match info.delta with
      | None -> ()
      | Some ds ->
          let atoms =
            List.mapi
              (fun j pred ->
                let d = if j < Array.length ds.last_new then ds.last_new.(j) else 0 in
                Printf.sprintf "%s@%d%s" pred
                  (if j < Array.length ds.frontiers then ds.frontiers.(j) else 0)
                  (if d > 0 then Printf.sprintf "(+%d)" d else ""))
              info.pos_preds
          in
          let mode =
            match ds.last_mode with
            | Delta_idle -> "idle (no round yet)"
            | Delta_differential -> "differential (new-facts join)"
            | Delta_rederived -> "re-derivation (watched relation changed)"
          in
          let delta_atoms =
            List.filteri
              (fun j _ -> j < Array.length ds.last_new && ds.last_new.(j) > 0)
              info.pos_preds
          in
          Format.fprintf fmt "  delta: frontiers %s@." (String.concat " " atoms);
          Format.fprintf fmt
            "  delta: last round %s — delta atom(s): %s, %d discovered; %d pending@."
            mode
            (match delta_atoms with [] -> "none" | l -> String.concat ", " l)
            ds.last_discovered
            (List.length ds.pending));
      if info.tail <> [] then
        Format.fprintf fmt "  tail: %d filter(s) checked after the join@."
          (List.length info.tail);
      (* Static bound next to the planner's dynamic [est N of M]. *)
      List.iter
        (fun (h : Ast.head) ->
          match h.Ast.head with
          | Ast.Head_atom { atom; kind = Ast.Open _ } -> (
              match next_bound atom.Ast.pred with
              | Some tb ->
                  Format.fprintf fmt
                    "  static: %s instances %s, per-instance %s, answers %s@."
                    tb.Analysis.tb_relation
                    (Analysis.card_to_string tb.Analysis.tb_instances)
                    (Analysis.card_to_string tb.Analysis.tb_multiplier)
                    (Analysis.card_to_string tb.Analysis.tb_answers)
              | None -> ())
          | Ast.Head_atom _ | Ast.Head_payoff _ -> ())
        info.stmt.Ast.heads)
    t.infos;
  (match t.leases with
  | None -> Format.fprintf fmt "@.leases: off@."
  | Some l ->
      let c = Lease.config l in
      Format.fprintf fmt
        "@.leases: ttl %d, max timeouts %d, backoff base %d, max rejections %d  \
         (logical time %d, %d dead-lettered)@."
        c.Lease.ttl c.Lease.max_timeouts c.Lease.backoff_base c.Lease.max_rejections
        (Lease.now l)
        (List.length (Lease.dead_letters l)));
  (match t.quorum with
  | None -> Format.fprintf fmt "quorum: off@."
  | Some qs ->
      let scope =
        match qs.qs_relations with
        | None -> "  (all eligible relations)"
        | Some rs -> "  on " ^ String.concat ", " rs
      in
      (match qs.qs_policy with
      | Fixed k -> Format.fprintf fmt "quorum: k = %d%s@." k scope
      | Adaptive a ->
          Format.fprintf fmt "quorum: adaptive (tau %.2f, votes %d..%d)%s@." a.tau
            a.min_votes a.max_votes scope);
      match qs.qs_policy with
      | Adaptive _ when reliability_table t <> [] ->
          Format.fprintf fmt "worker reliability:@.";
          List.iter
            (fun (w, r, n) ->
              Format.fprintf fmt "  %-10s %.3f  (%d observations)@." w r n)
            (reliability_table t)
      | _ -> ());
  Format.fprintf fmt "budget certificate: total tasks %s, answers %s  (%s)@."
    (Analysis.card_to_string cert.Analysis.cert_total_tasks)
    (Analysis.card_to_string cert.Analysis.cert_total_answers)
    cert.Analysis.cert_policy;
  let pend = pending t in
  Format.fprintf fmt "pending tasks: %d  (dead letters: %d)@." (List.length pend)
    (List.length t.dead);
  List.iter
    (fun (o : open_tuple) ->
      match Hashtbl.find_opt t.votes o.id with
      | Some votes when votes <> [] ->
          Format.fprintf fmt "  #%d %s: %d/%d votes banked@." o.id o.relation
            (List.length votes) (capacity t o)
      | _ -> ())
    pend

let explain t = Format.asprintf "%a" pp_explain t

(* --- Payoffs ------------------------------------------------------------------ *)

let payoffs t =
  match Reldb.Database.find t.db "Payoff" with
  | None -> []
  | Some rel ->
      List.map
        (fun tuple ->
          (Reldb.Tuple.get_or_null tuple "player", Reldb.Tuple.get_or_null tuple "score"))
        (Reldb.Relation.tuples rel)

let payoff_of t player =
  match List.find_opt (fun (p, _) -> Reldb.Value.equal p player) (payoffs t) with
  | Some (_, score) -> score
  | None -> Reldb.Value.Int 0

(* --- Path tables --------------------------------------------------------------- *)

let game_instances t game =
  let rel_name = Ast.path_relation_name game in
  match (Reldb.Database.find t.db rel_name, Hashtbl.find_opt t.path_rels rel_name) with
  | Some rel, Some params ->
      let seen = Hashtbl.create 16 in
      Reldb.Relation.fold
        (fun acc _ tuple ->
          let key = Reldb.Tuple.project tuple params in
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.replace seen key ();
            key :: acc
          end)
        [] rel
      |> List.rev
  | _ -> []

let path_table t game ~params =
  let rel_name = Ast.path_relation_name game in
  match Reldb.Database.find t.db rel_name with
  | None -> []
  | Some rel ->
      let rows = Reldb.Relation.filter (fun tuple -> Reldb.Tuple.matches tuple params) rel in
      List.mapi
        (fun i tuple -> Reldb.Tuple.set tuple "order" (Reldb.Value.Int (i + 1)))
        rows

(* --- State errors and replay ------------------------------------------------ *)

type snapshot_reason =
  | Not_a_snapshot
  | Unsupported_version of int
  | Truncated
  | Checksum_mismatch
  | Corrupt_payload

exception Snapshot_error of snapshot_reason

let snapshot_reason_to_string = function
  | Not_a_snapshot -> "not a CyLog snapshot (bad magic)"
  | Unsupported_version v -> Printf.sprintf "unsupported snapshot format version %d" v
  | Truncated -> "truncated snapshot"
  | Checksum_mismatch -> "snapshot payload fails its checksum"
  | Corrupt_payload -> "corrupt snapshot payload"

let snapshot_error r = raise (Snapshot_error r)

(* The journal alone (chronological), marshalled — unlike a checkpoint it
   carries no engine flags, so two engines driven by identical calls
   produce byte-identical dumps regardless of their evaluation strategy.
   The differential test suite uses this to prove the semi-naive engine
   journals exactly what the naive engine does. No_sharing canonicalises
   the bytes: physical sharing between entries is an accident of how the
   engine was driven (live campaign, replay, restore or recovery), and
   must not show up in a byte comparison. *)
let journal_dump t = Marshal.to_string (List.rev t.journal : jentry list) [ Marshal.No_sharing ]

(* Replay through the public entry points so each entry re-journals itself:
   a recovered engine carries the same journal as the original and can be
   checkpointed again. Answers that were rejected at capture time are
   rejected identically on replay, so results are deliberately ignored. *)
let replay_entry t = function
  | J_run max_steps -> ignore (run ~max_steps t)
  | J_step -> ignore (step t)
  | J_supply (id, worker, values) -> ignore (supply t id ~worker values)
  | J_answer (id, worker, yes) -> ignore (answer_existence t id ~worker yes)
  | J_decline id -> decline t id
  | J_assign (id, worker, now) -> ignore (assign t id ~worker ~now)
  | J_reclaim now -> ignore (reclaim t ~now)
  | J_add_statement s -> add_statement t s
  | J_set_lease cfg -> set_lease_config t cfg
  | J_set_quorum q -> install_quorum t q
  | J_set_monitor cfg -> set_monitor t cfg
  | J_sample round -> ignore (monitor_sample t ~round)

(* --- Restore: a journal's records -> an engine ------------------------------ *)

(* The format version a state payload declares: the byte after the
   magic. Payloads from before the tag were one bare Marshal image of the
   whole state: version 1. *)
let payload_version payload =
  let m = String.length state_magic in
  if String.length payload > m && String.starts_with ~prefix:state_magic payload then
    Char.code payload.[m]
  else 1

(* The Marshal values that follow the tag, as (offset, size), last
   first. *)
let payload_values payload =
  let len = String.length payload in
  let rec go pos acc =
    if pos = len then acc
    else
      let size =
        try Marshal.total_size (Bytes.unsafe_of_string payload) pos
        with Failure _ | Invalid_argument _ -> snapshot_error Corrupt_payload
      in
      if size > len - pos then snapshot_error Corrupt_payload
      else go (pos + size) ((pos, size) :: acc)
  in
  go (String.length state_tag) []

let unmarshal_at payload (pos, _) =
  try Marshal.from_string payload pos
  with Failure _ | Invalid_argument _ -> snapshot_error Corrupt_payload

let value_bytes payload (pos, size) = String.sub payload pos size

(* The inverse of [state_parts]: check the version tag before any
   unmarshalling, decode the program, the history chunks in order and
   the live state last, and rebuild a live engine around them. The engine
   keeps the program's and the chunks' bytes, so its next record copies
   them instead of encoding the old history again. Plans, delta
   frontiers and statement memos start fresh — the fired memo (restored)
   is consulted at fire time, so re-derivation discovers but never
   re-fires old instances and the continued trace is byte-identical.
   Journal-derived metrics are recounted from the restored events;
   engine-local gauges (worker reliability per-mille) reappear at the
   next reputation update. *)
let restore_state payload =
  let version = payload_version payload in
  if version <> state_version then snapshot_error (Unsupported_version version);
  let program_at, chunks_at, live_at =
    match payload_values payload with
    | live_at :: rest -> (
        match List.rev rest with
        | program_at :: chunks_at -> (program_at, chunks_at, live_at)
        | [] -> snapshot_error Corrupt_payload)
    | [] -> snapshot_error Corrupt_payload
  in
  let program : Ast.program = unmarshal_at payload program_at in
  let p : live_state = unmarshal_at payload live_at in
  let events = Reldb.Dynarray.create () in
  let journal = ref [] in
  List.iter
    (fun at ->
      let c : history_chunk = unmarshal_at payload at in
      Array.iter (fun e -> ignore (Reldb.Dynarray.push events e)) c.hc_events;
      journal := List.rev_append c.hc_journal !journal)
    chunks_at;
  let added =
    List.fold_left
      (fun acc e -> match e with J_add_statement s -> (s, Main) :: acc | _ -> acc)
      [] !journal
  in
  let t =
    create program (effective_statements program @ added) (path_rels_of program) p
      ~events ~journal:!journal
      ~encoded:
        (Some
           {
             program_bytes = value_bytes payload program_at;
             chunks = List.rev_map (value_bytes payload) chunks_at;
             events_covered = Reldb.Dynarray.length events;
             journal_cut = !journal;
           })
  in
  (* The journal-derived counters and the monitor are derived state: one
     fold of the restored events rebuilds both, byte-identical to the
     crashed engine's. The last installed monitor config is in the
     journal, like added statements above. *)
  let m = Telemetry.metrics t.tel in
  t.monitor <-
    Option.join (List.find_map (function J_set_monitor c -> Some c | _ -> None) !journal)
    |> Option.map (fun c -> Monitor.create c t.fold m (Reldb.Dynarray.to_list events));
  if Option.is_none t.monitor then Reldb.Dynarray.iter (Fold.apply t.fold m) events;
  t

(* The engine a journal's records describe: the base state record
   decoded, then each entry replayed through the public API. Both a
   checkpoint file (one record) and a recovered WAL come through here.
   Returns the engine and the number of entries replayed. *)
let engine_of_records (records : Journal.record list) =
  match records with
  | { Journal.kind = Journal.Genesis | Journal.Snapshot; payload } :: entries ->
      let t = restore_state payload in
      List.iter
        (fun (record : Journal.record) ->
          match record.Journal.kind with
          | Journal.Entry ->
              let e : jentry =
                try Marshal.from_string record.Journal.payload 0
                with Failure _ | Invalid_argument _ -> snapshot_error Corrupt_payload
              in
              replay_entry t e
          | Journal.Genesis | Journal.Snapshot ->
              (* State records only ever open a run. *)
              snapshot_error Corrupt_payload)
        entries;
      (t, List.length entries)
  | _ -> snapshot_error Corrupt_payload

(* --- Recovery (durable journal) --------------------------------------------- *)

type recovery_stats = {
  base_segment : int;
  segments_scanned : int;
  records_replayed : int;
  truncated_bytes : int;
}

let recover ?config ?storage dir =
  let j, (r : Journal.recovery) = Journal.recover ?config ?storage dir in
  (* Replay before attaching the WAL: these entries are already durable,
     and replaying through the public API would otherwise re-append them. *)
  let t, replayed = engine_of_records r.Journal.records in
  attach_journal t j;
  let m = Telemetry.metrics t.tel in
  Telemetry.Metrics.incr m ~by:replayed "recovery.records_replayed";
  Telemetry.Metrics.incr m ~by:r.Journal.truncated_bytes "recovery.truncated_bytes";
  if Telemetry.tracing t.tel then
    Telemetry.emit t.tel "journal-recover"
      ~attrs:
        [
          ("base_segment", string_of_int r.Journal.base_segment);
          ("records_replayed", string_of_int replayed);
          ("truncated_bytes", string_of_int r.Journal.truncated_bytes);
        ]
      ~clock:t.clock;
  ( t,
    {
      base_segment = r.Journal.base_segment;
      segments_scanned = r.Journal.segments_scanned;
      records_replayed = replayed;
      truncated_bytes = r.Journal.truncated_bytes;
    } )

(* --- Checkpoint files ------------------------------------------------------- *)

(* A checkpoint is the image of a one-segment journal whose only record
   is the state record a compaction writes, so restoring one decodes
   state instead of re-running the campaign. Files in the two retired
   formats are refused by their magic, before anything else is read. *)
let snapshot_string t = Journal.image (state_parts t)

let restore_string s =
  List.iter
    (fun v ->
      if String.starts_with ~prefix:(Printf.sprintf "CYLOG-SNAPSHOT/%d\n" v) s then
        snapshot_error (Unsupported_version v))
    [ 1; 2 ];
  match Journal.of_image s with
  | Ok records -> fst (engine_of_records records)
  | Error e ->
      snapshot_error
        (match e with
        | Journal.Not_an_image -> Not_a_snapshot
        | Journal.Short_image -> Truncated
        | Journal.Checksum_failed -> Checksum_mismatch
        | Journal.Unknown_version v -> Unsupported_version v
        | Journal.Unknown_kind -> Corrupt_payload)

(* --- Journal as a replayable script ----------------------------------------- *)

type journal_entry = jentry

let journal_entries t = List.rev t.journal

let apply_entry = replay_entry
