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
          test_multi_shard_replay ] );
    ( "server.recovery",
      [ Alcotest.test_case "kill and recover a subset of shards mid-campaign" `Quick
          test_kill_and_recover_subset ] );
    ( "server.lease",
      [ Alcotest.test_case "oldest grantable task first, none when drained" `Quick
          test_lease_order ] );
    ( "server.fleet",
      [ Alcotest.test_case "certificate counts shards, not campaign slots" `Quick
          test_certificate_counts_shards;
        Alcotest.test_case "resolve_poll reports each retirement once, by kind" `Quick
          test_resolve_poll_kinds ] ) ]
