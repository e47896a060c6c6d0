(* The sharded campaign server (lib/server): deterministic routing, the
   1-shard differential against a bare engine, per-shard journal replay
   equivalence, and killing-and-recovering a subset of shards mid-campaign
   over fault-injecting storage — the fleet must keep serving on the live
   shards and no acknowledged operation may be lost. *)

open Cylog
module Sim = Storage.Sim
module Router = Server.Router
module Fleet_sim = Crowd.Fleet_sim

let engine_trace engine =
  List.map
    (fun (e : Engine.event) ->
      (e.clock, e.statement, e.label, e.valuation, e.fired, e.effects, e.by_human))
    (Engine.events engine)

let human_events engine =
  List.length
    (List.filter (fun (e : Engine.event) -> e.by_human <> None) (Engine.events engine))

let campaign = Fleet_sim.campaign_name 0

let server_engine server i ~campaign =
  match Server.Shard.engine (Server.shard server i) ~campaign with
  | Some e -> e
  | None -> Alcotest.fail (Printf.sprintf "shard %d: no engine for %s" i campaign)

(* --- Router ---------------------------------------------------------------- *)

let test_router_determinism () =
  let vs = [ Reldb.Value.Int 42; Reldb.Value.String "attr" ] in
  Alcotest.(check int) "hash is a pure function" (Router.hash_values vs)
    (Router.hash_values vs);
  Alcotest.(check bool) "hash is non-negative" true (Router.hash_values vs >= 0);
  (* The separator fold keeps concatenation-equal keys apart. *)
  Alcotest.(check bool) "position boundaries matter" true
    (Router.hash_values [ Reldb.Value.String "ab"; Reldb.Value.String "c" ]
    <> Router.hash_values [ Reldb.Value.String "a"; Reldb.Value.String "bc" ]);
  for id = 0 to 99 do
    let s = Router.shard_of_values ~shards:4 [ Reldb.Value.Int id ] in
    Alcotest.(check bool) "shard index in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "one shard means shard 0" 0
      (Router.shard_of_values ~shards:1 [ Reldb.Value.Int id ])
  done;
  (* All four shards get some of a hundred keys — the hash spreads. *)
  let hit = Array.make 4 false in
  for id = 0 to 99 do
    hit.(Router.shard_of_values ~shards:4 [ Reldb.Value.Int id ]) <- true
  done;
  Alcotest.(check bool) "keys spread over every shard" true (Array.for_all Fun.id hit)

let test_router_split () =
  let items = 20 in
  let program = Fleet_sim.campaign_program ~items ~offset:0 in
  (* One shard: the split program is the input program. *)
  (match Router.split_program ~shards:1 Fleet_sim.placements program with
  | [| p |] ->
      Alcotest.(check bool) "1-shard split is the identity" true
        (p.Ast.statements = program.Ast.statements)
  | _ -> Alcotest.fail "1-shard split must yield one program");
  let shards = 4 in
  let split = Router.split_program ~shards Fleet_sim.placements program in
  Alcotest.(check int) "one program per shard" shards (Array.length split);
  (* Partitioned facts land exactly on their hash owner; everything else is
     replicated to all shards. *)
  let keys_of p =
    List.filter_map (Router.fact_key Fleet_sim.placements) p.Ast.statements
  in
  let all_keys = keys_of program in
  Alcotest.(check int) "every item is a partitioned fact" items
    (List.length all_keys);
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i p ->
      List.iter
        (fun key ->
          Alcotest.(check int)
            (Printf.sprintf "fact on its hash owner (shard %d)" i)
            (Router.shard_of_values ~shards key)
            i;
          Alcotest.(check bool) "fact owned by exactly one shard" false
            (Hashtbl.mem seen key);
          Hashtbl.add seen key ())
        (keys_of p);
      let replicated =
        List.length p.Ast.statements - List.length (keys_of p)
      in
      Alcotest.(check int) "non-fact statements replicated everywhere"
        (List.length program.Ast.statements - items)
        replicated)
    split;
  Alcotest.(check int) "no partitioned fact lost" items (Hashtbl.length seen)

(* --- 1-shard differential -------------------------------------------------- *)

(* A 1-shard server driven purely through the task-queue API must be
   observationally a bare engine: its journal is a script of public-API
   calls, so replaying it through [Engine.apply_entry] on a freshly loaded
   bare engine must reproduce the journal bytes and the event trace
   exactly. Any server-private mutation that bypassed the engine's public
   API would break this equality. *)
let test_one_shard_differential () =
  let sim = Sim.create () in
  let config =
    { Fleet_sim.default_config with campaigns = 1; items = 8; workers = 4; seed = 7 }
  in
  let server =
    Server.create ~journal_root:"srv" ~storage:(fun _ -> Sim.storage sim) ~shards:1 ()
  in
  Fleet_sim.open_campaigns server config;
  let outcome = Fleet_sim.run ~config server in
  Alcotest.(check int) "campaign drained" 8 outcome.Fleet_sim.resolved;
  Alcotest.(check int) "quorum of 3 per item" 24 outcome.Fleet_sim.answers;
  let live = server_engine server 0 ~campaign in
  let bare = Engine.load (Fleet_sim.campaign_program ~items:8 ~offset:0) in
  let bare_sim = Sim.create () in
  Engine.journal_start ~storage:(Sim.storage bare_sim) bare "bare";
  List.iter (Engine.apply_entry bare) (Engine.journal_entries live);
  Alcotest.(check string) "journal bytes identical to the bare engine"
    (Engine.journal_dump live) (Engine.journal_dump bare);
  Alcotest.(check bool) "event traces identical" true
    (engine_trace live = engine_trace bare);
  Alcotest.(check int) "same pending pool (empty)" 0
    (List.length (Engine.pending bare))

(* --- N-shard journal replay equivalence ------------------------------------ *)

let test_multi_shard_replay () =
  let shards = 3 in
  let sims = Array.init shards (fun _ -> Sim.create ()) in
  let journal_config =
    { Journal.default_config with compact_every = Some 32 }
  in
  let config =
    { Fleet_sim.default_config with campaigns = 2; items = 12; workers = 6; seed = 11 }
  in
  let server =
    Server.create ~journal_root:"srv" ~journal_config
      ~storage:(fun i -> Sim.storage sims.(i))
      ~shards ()
  in
  Fleet_sim.open_campaigns server config;
  let outcome = Fleet_sim.run ~config server in
  Alcotest.(check int) "both campaigns drained" 24 outcome.Fleet_sim.resolved;
  (* Every shard's journal recovers to its own engine's trace, byte for
     byte — shard by shard, campaign by campaign. *)
  List.iteri
    (fun k name ->
      for i = 0 to shards - 1 do
        let live = server_engine server i ~campaign:name in
        let dump = Engine.journal_dump live in
        let trace = engine_trace live in
        (* Checkpoint campaign 0's slots first so recovery demonstrates the
           O(live state) restore: a snapshot base plus at most the shard's
           compaction-request entry. *)
        if k = 0 then Engine.compact_journal live;
        let stats = Server.recover_shard server i ~campaign:name () in
        let recovered = server_engine server i ~campaign:name in
        Alcotest.(check string)
          (Printf.sprintf "shard %d/%s: journal replays byte-identically" i name)
          dump (Engine.journal_dump recovered);
        Alcotest.(check bool)
          (Printf.sprintf "shard %d/%s: trace replays exactly" i name)
          true
          (trace = engine_trace recovered);
        if k = 0 then
          Alcotest.(check bool)
            (Printf.sprintf "shard %d/%s: post-compaction restore is O(live state)" i name)
            true
            (stats.Engine.records_replayed <= 2)
      done)
    (List.init config.Fleet_sim.campaigns Fleet_sim.campaign_name)

(* --- Kill and recover a subset of shards mid-campaign ---------------------- *)

(* Shards 0 and 2 run on storage that dies at a planned operation count;
   shard 1 never faults. The drive loop keeps leasing and supplying
   through the server API; when a reply says [Shard_down] the loop leaves
   the shard dead for the rest of the round (the live shards must keep
   accepting answers) and repairs it from the crash image at the start of
   the next round. fsync is [Always], so every acknowledged answer must
   survive into the recovered engine. *)
let test_kill_and_recover_subset () =
  let shards = 3 in
  let items = 18 in
  (* Under this item count and hash, shards 0 and 1 own all the work
     (shard 2 draws no items) — so those are the two worth killing. *)
  let plan_for = function
    | 0 -> Some { Sim.default_plan with crash_at_op = Some 20 }
    | 1 -> Some { Sim.default_plan with crash_at_op = Some 36 }
    | _ -> None
  in
  let sims = Array.init shards (fun i -> Sim.create ?plan:(plan_for i) ()) in
  let journal_config = { Journal.default_config with compact_every = Some 8 } in
  let server =
    Server.create ~journal_root:"srv" ~journal_config
      ~storage:(fun i -> Sim.storage sims.(i))
      ~shards ()
  in
  (* No lease runtime and no quorum: one accepted answer retires a task,
     which keeps the op-count coordinate of [crash_at_op] easy to place
     mid-campaign. *)
  Server.open_campaign server ~name:campaign ~partition_by:Fleet_sim.placements
    (Fleet_sim.campaign_program ~items ~offset:0);
  let cursor = Server.poll_cursor server ~campaign in
  let workers = List.init 4 (fun i -> Reldb.Value.String (Printf.sprintf "w%d" (i + 1))) in
  let acked = Array.make shards 0 in
  let down = Array.make shards false in
  let recoveries = ref 0 in
  let served_while_down = ref 0 in
  let resolved = ref 0 in
  let polled = Hashtbl.create items in
  let answer_for (ot : Engine.open_tuple) =
    let id =
      match Reldb.Tuple.get ot.Engine.bound "id" with
      | Some (Reldb.Value.Int i) -> i
      | _ -> 0
    in
    List.map
      (fun attr -> (attr, Reldb.Value.String (Printf.sprintf "label-%d" (id mod 5))))
      ot.Engine.open_attrs
  in
  let recover i =
    (* The byte image a real disk would present after the crash: fsynced
       records intact, the unsynced tail gone. *)
    let image = Sim.after_crash sims.(i) in
    sims.(i) <- image;
    let stats =
      Server.recover_shard server i ~campaign ~storage:(Sim.storage image) ()
    in
    down.(i) <- false;
    incr recoveries;
    (* fsync Always: every answer whose reply the caller saw is in the
       recovered engine. The in-flight (unacknowledged) answer may or may
       not have survived — either is legal. *)
    Alcotest.(check bool)
      (Printf.sprintf "shard %d: no acknowledged answer lost" i)
      true
      (human_events (server_engine server i ~campaign) >= acked.(i));
    Alcotest.(check bool)
      (Printf.sprintf "shard %d: restore replays a bounded tail" i)
      true
      (stats.Engine.records_replayed <= 16)
  in
  let round = ref 0 in
  (* [pending_total] counts only live slots, so a downed shard hides its
     pending work — keep driving while any shard still needs repair. *)
  while
    (Server.pending_total server > 0 || Array.exists Fun.id down) && !round < 200
  do
    incr round;
    Array.iteri (fun i d -> if d then recover i) down;
    List.iter
      (fun worker ->
        match Server.lease server ~campaign ~worker ~now:!round with
        | None -> ()
        | Some (task, ot, _view) -> (
            match Server.supply server ~campaign task ~worker (answer_for ot) with
            | Server.Accepted _ ->
                acked.(task.Server.shard) <- acked.(task.Server.shard) + 1;
                if Array.exists Fun.id down then incr served_while_down
            | Server.Rejected _ -> ()
            | Server.Shard_down i -> down.(i) <- true))
      workers;
    List.iter
      (function
        | Server.Task_resolved { task; _ } ->
            if Hashtbl.mem polled task then
              Alcotest.failf "task %d on shard %d polled twice" task.Server.local
                task.Server.shard;
            Hashtbl.add polled task ();
            incr resolved
        | Server.Task_dead _ -> Alcotest.fail "no task should dead-letter here")
      (Server.resolve_poll server ~campaign cursor)
  done;
  Alcotest.(check int) "both planned crashes hit and were repaired" 2 !recoveries;
  Alcotest.(check bool) "live shards kept serving while a shard was down" true
    (!served_while_down > 0);
  Alcotest.(check int) "campaign drained despite the crashes" 0
    (Server.pending_total server);
  Alcotest.(check int) "every item resolved through the poll" items !resolved

(* --- An engine error fails one slot, not the shard ------------------------ *)

(* One shard holds campaigns [a] and [b]. An answer [v = 0] to [a] makes
   [Q(id, r: 10 / v)] divide by zero inside the slot's run. The shard
   contains it: the reply is [Shard_down], the slot keeps the exception's
   text, [shard.crashes] counts it, and [b] and the fleet view keep
   answering. *)
let divide_source =
  "schema:\n  Item(id);\n  Val(id, v);\n  Q(id, r);\nrules:\n  Item(id:1);\n\
  \  Val(id, v)/open <- Item(id);\n  Q(id, r: 10 / v) <- Val(id, v);\n"

let test_engine_error_fails_one_slot () =
  let server = Server.create ~shards:1 () in
  List.iter
    (fun name -> Server.open_campaign server ~name (Parser.parse_exn divide_source))
    [ "a"; "b" ];
  let worker = Reldb.Value.String "w1" in
  let supply campaign v =
    match Server.lease server ~campaign ~worker ~now:0 with
    | None -> Alcotest.failf "%s: no task to lease" campaign
    | Some (task, _, _) ->
        Server.supply server ~campaign task ~worker [ ("v", Reldb.Value.Int v) ]
  in
  (match supply "a" 0 with
  | Server.Shard_down 0 -> ()
  | _ -> Alcotest.fail "a division by zero answers Shard_down");
  let shard = Server.shard server 0 in
  Alcotest.(check (option string)) "the slot keeps the exception text"
    (Some (Printexc.to_string Division_by_zero))
    (Server.Shard.failure shard ~campaign:"a");
  Alcotest.(check int) "shard.crashes counts it" 1
    (Telemetry.Metrics.counter (Server.Shard.metrics shard) "shard.crashes");
  Alcotest.(check (option string)) "the other slot serves" None
    (Server.Shard.failure shard ~campaign:"b");
  (match supply "b" 2 with
  | Server.Accepted _ -> ()
  | _ -> Alcotest.fail "campaign b accepts after a fails");
  let q = Reldb.Database.find_exn (Engine.database (server_engine server 0 ~campaign:"b")) "Q" in
  Alcotest.(check int) "b ran its rule" 1 (Reldb.Relation.cardinal q);
  Alcotest.(check int) "Server.stats still answers" 1 (Server.stats server).Server.Fleet.shards

(* --- Lease order --------------------------------------------------------- *)

(* [lease] grants the oldest pending task the worker may take: once their
   vote is banked on the oldest task (quorum 2 keeps it pending), the same
   worker is granted the next-oldest, while a fresh worker still gets the
   oldest. A drained campaign grants nothing. *)
let test_lease_order () =
  let server = Server.create ~shards:1 () in
  Server.open_campaign server ~name:campaign ~lease:Lease.default_config
    ~policy:(Engine.Fixed 2)
    (Fleet_sim.campaign_program ~items:3 ~offset:0);
  let ids =
    List.map
      (fun (o : Engine.open_tuple) -> o.id)
      (Engine.pending (server_engine server 0 ~campaign))
  in
  let lease worker =
    Option.map
      (fun ((task : Server.task_ref), (ot : Engine.open_tuple), _) -> (task, ot))
      (Server.lease server ~campaign ~worker:(Reldb.Value.String worker) ~now:0)
  in
  let answer worker ((task : Server.task_ref), (ot : Engine.open_tuple)) =
    match
      Server.supply server ~campaign task ~worker:(Reldb.Value.String worker)
        (List.map (fun attr -> (attr, Reldb.Value.String "same")) ot.open_attrs)
    with
    | Server.Accepted _ -> ()
    | _ -> Alcotest.failf "%s: answer on task %d refused" worker task.Server.local
  in
  let granted what worker expected =
    match lease worker with
    | Some ((task, _) as grant) ->
        Alcotest.(check int) what expected task.Server.local;
        grant
    | None -> Alcotest.failf "%s: no lease granted" what
  in
  Alcotest.(check int) "three tasks pending" 3 (List.length ids);
  answer "w1" (granted "first lease: the oldest task" "w1" (List.nth ids 0));
  answer "w1"
    (granted "after voting on the oldest: the next-oldest" "w1" (List.nth ids 1));
  answer "w2" (granted "another worker: the oldest still" "w2" (List.nth ids 0));
  (* Drain: every pending task takes two agreeing votes. *)
  let rec drain round =
    if Server.pending_total server > 0 && round < 20 then begin
      List.iter
        (fun w -> Option.iter (answer w) (lease w))
        [ "w1"; "w2"; "w3" ];
      drain (round + 1)
    end
  in
  drain 0;
  Alcotest.(check int) "campaign drained" 0 (Server.pending_total server);
  Alcotest.(check bool) "no lease on a drained campaign" true (lease "w1" = None);
  Alcotest.(check bool) "not for a newcomer either" true (lease "w9" = None)

(* --- Fleet certificate ------------------------------------------------------ *)

(* The fleet certificate counts the shards contributing one, not the
   (shard, campaign) slots: two shards holding three campaigns each are
   two shards, while the bounds still sum over every slot. *)
let test_certificate_counts_shards () =
  let server = Server.create ~shards:2 () in
  Fleet_sim.open_campaigns server
    { Fleet_sim.default_config with campaigns = 3; items = 6 };
  match (Server.stats server).Server.Fleet.certificate with
  | None -> Alcotest.fail "no fleet certificate"
  | Some c ->
      Alcotest.(check int) "shards contributing a certificate" 2 c.Server.Fleet.c_shards;
      Alcotest.(check string) "tasks summed over every slot" "<= 18"
        (Analysis.card_to_string c.Server.Fleet.c_total_tasks)

(* --- Resolution polling ------------------------------------------------------ *)

(* [resolve_poll] reports each retired task exactly once and as the right
   kind: quorum resolutions exactly on the [Fixed 2] campaign, plain
   answers on the other, and every declined task as a [Declined] dead
   letter. The kinds it reports add up to the fleet registry's counts. *)
let test_resolve_poll_kinds () =
  let server = Server.create ~shards:2 () in
  let voted = Fleet_sim.campaign_name 0 and single = Fleet_sim.campaign_name 1 in
  let items = 12 in
  Server.open_campaign server ~name:voted ~partition_by:Fleet_sim.placements
    ~policy:(Engine.Fixed 2)
    (Fleet_sim.campaign_program ~items ~offset:0);
  Server.open_campaign server ~name:single ~partition_by:Fleet_sim.placements
    (Fleet_sim.campaign_program ~items ~offset:1000);
  let campaigns = [ voted; single ] in
  let cursors = List.map (fun c -> (c, Server.poll_cursor server ~campaign:c)) campaigns in
  let seen = Hashtbl.create 32 in
  let answered = ref 0 and quorum = ref 0 and dead = ref 0 in
  let retired campaign (task : Server.task_ref) =
    let key = (campaign, task.shard, task.local) in
    if Hashtbl.mem seen key then
      Alcotest.failf "%s: task %d on shard %d polled twice" campaign task.local task.shard;
    Hashtbl.add seen key ()
  in
  let poll () =
    List.iter
      (fun (campaign, cursor) ->
        List.iter
          (function
            | Server.Task_resolved { task; quorum = q } ->
                retired campaign task;
                Alcotest.(check bool)
                  (Printf.sprintf "%s: quorum flag of task %d" campaign task.local)
                  (campaign = voted) q;
                incr (if q then quorum else answered)
            | Server.Task_dead { task; reason } ->
                retired campaign task;
                Alcotest.(check bool) "dead letters are declines" true
                  (reason = Lease.Declined);
                incr dead)
          (Server.resolve_poll server ~campaign cursor))
      cursors
  in
  let round = ref 0 in
  while Server.pending_total server > 0 && !round < 50 do
    incr round;
    List.iter
      (fun campaign ->
        List.iter
          (fun w ->
            let worker = Reldb.Value.String w in
            match Server.lease server ~campaign ~worker ~now:!round with
            | None -> ()
            | Some (task, _, _) when task.Server.local mod 3 = 0 ->
                Server.decline server ~campaign task
            | Some (task, ot, _) -> (
                match
                  Server.supply server ~campaign task ~worker
                    (List.map (fun a -> (a, Reldb.Value.String "same")) ot.open_attrs)
                with
                | Server.Accepted _ -> ()
                | _ -> Alcotest.failf "%s: answer on task %d refused" w task.local))
          [ "w1"; "w2"; "w3" ])
      campaigns;
    poll ()
  done;
  let counter = Telemetry.Metrics.counter (Server.stats server).Server.Fleet.metrics in
  Alcotest.(check int) "campaigns drained" 0 (Server.pending_total server);
  Alcotest.(check int) "every created task polled once" (counter "open.created")
    (Hashtbl.length seen);
  Alcotest.(check bool) "all three kinds occur" true (!answered > 0 && !quorum > 0 && !dead > 0);
  Alcotest.(check int) "answers = open.resolved" (counter "open.resolved") !answered;
  Alcotest.(check int) "quorum resolutions = quorum.resolved" (counter "quorum.resolved")
    !quorum;
  Alcotest.(check int) "dead letters = open.dead_lettered" (counter "open.dead_lettered")
    !dead

(* --- Latency percentiles ------------------------------------------------------ *)

(* [Server.stats] reads p50, p95 and p99 from one sorted copy of the
   request latencies. On a shuffled array they are the values the
   per-quantile interpolation gave: rank q(n - 1), linear between the
   order statistics either side. *)
let test_percentiles_sort_once () =
  let samples =
    [| 42; 7; 19; 3; 88; 61; 25; 14; 97; 50; 33; 5; 76; 68; 11; 29; 90; 2; 57; 39 |]
  in
  let before = Array.copy samples in
  let at = Server.Fleet.percentiles samples in
  Alcotest.(check (float 0.)) "p50" 36. (at 0.50);
  Alcotest.(check (float 0.)) "p95" 90.350000000000009 (at 0.95);
  Alcotest.(check (float 0.)) "p99" 95.669999999999987 (at 0.99);
  Alcotest.(check (array int)) "the input is not mutated" before samples;
  Alcotest.(check (float 0.)) "an empty array reads 0" 0. (Server.Fleet.percentiles [||] 0.5)

(* --- The run policy ------------------------------------------------------ *)

(* Answers that feed rules: [S] reads the answered relation [Label], the
   existence question [E] opens on what [S] derives, and the standing
   task [N] (a fresh auto key per answer) feeds [T]. *)
let policy_source ~items =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "schema:\n  Item(id);\n  Label(id, label);\n  Seen(id, label);\n  Good(id);\n\
    \  Note(nid key auto, id, text);\n  Noted(id, text);\nrules:\n";
  for i = 0 to items - 1 do
    Buffer.add_string buf (Printf.sprintf "  Item(id:%d);\n" i)
  done;
  Buffer.add_string buf
    "  L: Label(id, label)/open <- Item(id);\n\
    \  S: Seen(id, label) <- Label(id, label);\n\
    \  E: Good(id)/open <- Seen(id, label:\"a\");\n\
    \  N: Note(nid, id, text)/open <- Item(id), id < 2;\n\
    \  T: Noted(id, text) <- Note(nid, id, text);\n";
  Buffer.contents buf

(* A one-round TTL, so leases a worker walks away from expire at the
   next round's reclaim, requeue, and dead-letter at the second expiry;
   one answer with the wrong attributes dead-letters its task. *)
let short_lease = { Lease.ttl = 1; max_timeouts = 2; backoff_base = 1; max_rejections = 1 }

let slot_rows e =
  Reldb.Database.relations (Engine.database e)
  |> List.concat_map (fun rel ->
         List.map
           (fun t -> (Reldb.Relation.name rel, Reldb.Tuple.to_string t))
           (Reldb.Relation.tuples rel))
  |> List.sort compare

(* Seeded traffic over the facade. Each round reclaims leases, then each
   worker in turn leases a task and answers it, answers with the wrong
   attribute, declines it or walks away. After every facade call a bare
   engine per shard makes the engine calls the shard's slot journaled
   since the last call, then runs, so it runs after every request. A
   shard that skipped a run its request needed would fire later, or
   never, and the two would part. Returns the slots' engines. *)
let run_policy_case ~shards ~policy ~seed =
  let program = Parser.parse_exn (policy_source ~items:10) in
  let server = Server.create ~shards () in
  Server.open_campaign server ~name:campaign ~partition_by:Fleet_sim.placements
    ~lease:short_lease ~policy program;
  let bare = Array.map Engine.load (Router.split_program ~shards Fleet_sim.placements program) in
  let synced = Array.make shards 0 in
  let label what = Printf.sprintf "%d shards, seed %d: %s" shards seed what in
  let sync () =
    for i = 0 to shards - 1 do
      let slot = server_engine server i ~campaign in
      let entries = Engine.journal_entries slot in
      List.iteri (fun k e -> if k >= synced.(i) then Engine.apply_entry bare.(i) e) entries;
      synced.(i) <- List.length entries;
      ignore (Engine.run bare.(i));
      Alcotest.(check int)
        (label (Printf.sprintf "shard %d: events after each call" i))
        (Engine.event_count bare.(i)) (Engine.event_count slot)
    done
  in
  sync ();
  let rng = Random.State.make [| seed |] in
  let workers = List.init 5 (fun i -> Reldb.Value.String (Printf.sprintf "w%d" i)) in
  let pick () = Reldb.Value.String (List.nth [ "a"; "b"; "c" ] (Random.State.int rng 3)) in
  for round = 1 to 24 do
    ignore (Server.reclaim server ~campaign ~now:round);
    sync ();
    List.iter
      (fun worker ->
        let lease = Server.lease server ~campaign ~worker ~now:round in
        sync ();
        match lease with
        | None -> ()
        | Some (task, (ot : Engine.open_tuple), _) ->
            let roll = Random.State.int rng 20 in
            if roll < 3 then ()
            else begin
              if roll < 5 then Server.decline server ~campaign task
              else if roll < 6 then
                ignore
                  (Server.supply server ~campaign task ~worker
                     [ ("wrong", Reldb.Value.String "x") ])
              else if ot.existence then
                ignore
                  (Server.answer_existence server ~campaign task ~worker
                     (Random.State.bool rng))
              else
                ignore
                  (Server.supply server ~campaign task ~worker
                     (List.map (fun a -> (a, pick ())) ot.open_attrs));
              sync ()
            end)
      (Crowd.Simulator.shuffle rng workers)
  done;
  Array.iteri
    (fun i b ->
      let slot = server_engine server i ~campaign in
      let what = label (Printf.sprintf "shard %d" i) in
      Alcotest.(check string) (what ^ ": events")
        (Marshal.to_string (Engine.events b) [ Marshal.No_sharing ])
        (Marshal.to_string (Engine.events slot) [ Marshal.No_sharing ]);
      Alcotest.(check (list (pair string string))) (what ^ ": rows") (slot_rows b)
        (slot_rows slot);
      let ids = List.map (fun (o : Engine.open_tuple) -> o.id) in
      Alcotest.(check (list int)) (what ^ ": pending ids") (ids (Engine.pending b))
        (ids (Engine.pending slot));
      Alcotest.(check (list int)) (what ^ ": dead letters")
        (ids (List.map fst (Engine.dead_letters b)))
        (ids (List.map fst (Engine.dead_letters slot)));
      Alcotest.(check bool) (what ^ ": dead-letter reasons") true
        (List.map snd (Engine.dead_letters b) = List.map snd (Engine.dead_letters slot)))
    bare;
  List.init shards (fun i -> server_engine server i ~campaign)

let test_run_policy_differential () =
  let policies =
    [ Engine.Fixed 2; Engine.Fixed 3;
      Engine.Adaptive { tau = 0.8; min_votes = 2; max_votes = 4 } ]
  in
  let slots =
    List.concat_map
      (fun shards ->
        List.concat_map
          (fun policy ->
            List.concat_map (fun seed -> run_policy_case ~shards ~policy ~seed) [ 3; 17 ])
          policies)
      [ 1; 2 ]
  in
  (* The traffic reaches every path the run policy decides on. *)
  let count f = List.fold_left (fun acc e -> acc + f e) 0 slots in
  let counter name e = Telemetry.Metrics.counter (Engine.metrics e) name in
  let rows rel e =
    match Reldb.Database.find (Engine.database e) rel with
    | Some r -> Reldb.Relation.cardinal r
    | None -> 0
  in
  let dead p e = List.length (List.filter (fun (_, r) -> p r) (Engine.dead_letters e)) in
  let events p e = List.length (List.filter p (Engine.events e)) in
  let banked (ev : Engine.event) =
    Fold.vote ev <> None && Fold.retirements ev = []
  in
  List.iter
    (fun (what, n) -> Alcotest.(check bool) (what ^ " occurs") true (n > 0))
    [ ("a reclaim that requeues", count (counter "lease.reclaimed.retry"));
      ("a timed-out dead letter", count (dead (( = ) Lease.Timed_out)));
      ("a declined dead letter", count (dead (( = ) Lease.Declined)));
      ( "a dead letter for rejected answers",
        count (dead (function Lease.Rejected_answers _ -> true | _ -> false)) );
      ("a vote that only banks", count (events banked));
      ("a rule reading an answered relation", count (rows "Seen"));
      ( "an answer to an existence question",
        count (events (fun ev -> ev.label = Some "E" && ev.by_human <> None)) );
      ("a standing answer feeding a rule", count (rows "Noted")) ]

let suite =
  [ ( "server.router",
      [ Alcotest.test_case "hash and shard assignment are deterministic" `Quick
          test_router_determinism;
        Alcotest.test_case "split partitions facts, replicates the rest" `Quick
          test_router_split ] );
    ( "server.differential",
      [ Alcotest.test_case "1-shard server is a bare engine, byte for byte" `Quick
          test_one_shard_differential;
        Alcotest.test_case "every shard's journal replays its engine's trace" `Quick
          test_multi_shard_replay;
        Alcotest.test_case "run only after a write = a bare engine run after every request"
          `Quick test_run_policy_differential ] );
    ( "server.recovery",
      [ Alcotest.test_case "kill and recover a subset of shards mid-campaign" `Quick
          test_kill_and_recover_subset;
        Alcotest.test_case "an engine error fails its slot; the shard keeps serving" `Quick
          test_engine_error_fails_one_slot ] );
    ( "server.lease",
      [ Alcotest.test_case "oldest grantable task first, none when drained" `Quick
          test_lease_order ] );
    ( "server.fleet",
      [ Alcotest.test_case "certificate counts shards, not campaign slots" `Quick
          test_certificate_counts_shards;
        Alcotest.test_case "resolve_poll reports each retirement once, by kind" `Quick
          test_resolve_poll_kinds;
        Alcotest.test_case "p50, p95 and p99 from one sorted copy" `Quick
          test_percentiles_sort_once ] ) ]
