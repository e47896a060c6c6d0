(* The fleet and fleet-durable workloads: a closed-loop client that
   multiplexes simulated crowd workers over [Server]'s task-queue API, one
   synchronous request at a time. Each round it reclaims overdue leases,
   lets every worker (in seeded random order) lease a task and answer it,
   then samples the monitor and polls resolutions for every campaign.
   fleet-durable runs the same traffic with every slot journaling to an
   in-memory store, then cold-recovers every slot from its journal. *)

open Cylog

type shape = {
  shards : int;
  campaigns : int;
  items : int;
  workers : int;
  quorum : int;
}

let full = { shards = 4; campaigns = 8; items = 1000; workers = 32; quorum = 3 }
let tiny = { shards = 2; campaigns = 2; items = 12; workers = 6; quorum = 3 }

let describe s =
  Printf.sprintf "%d shards, %d campaigns x %d items, %d workers, quorum %d"
    s.shards s.campaigns s.items s.workers s.quorum

type inputs = {
  shape : shape;
  durable : bool;
  sources : string array;  (** one labelling program per campaign *)
  seed : int;  (** drives the workers' turn order and answers *)
}

let campaign_name k = Printf.sprintf "campaign-%d" k
let placements = [ { Server.Router.relation = "Item"; key_attrs = [ "id" ] } ]
let accuracy = 0.85
let max_rounds = 100_000

let journal_config =
  { Journal.default_config with fsync = Journal.Every_n 8; compact_every = Some 256 }

(* A labelling campaign: one open label question per Item fact. Item ids,
   and so their placement over shards, are the same for every seed: with
   seeded ids the answer p99.9 varied by up to a fifth between seeds. *)
let source ~ids =
  let buf = Buffer.create (40 * Array.length ids) in
  Buffer.add_string buf "schema:\n  Item(id);\n  LabelOf(id, label);\nrules:\n";
  Array.iteri (fun i id -> Buffer.add_string buf (Printf.sprintf "  F%d: Item(id:%d);\n" i id)) ids;
  Buffer.add_string buf "  Q: LabelOf(id, label)/open <- Item(id);\n";
  Buffer.add_string buf
    "views:\n  view LabelOf {\n    <p>Label item {{id}}: <input name=\"label\"/></p>\n  }\n";
  Buffer.contents buf

let generate shape ~durable ~seed =
  let sources =
    Array.init shape.campaigns (fun k ->
        source ~ids:(Array.init shape.items (fun i -> (k * 10_000_000) + i)))
  in
  { shape; durable; sources; seed }

let shuffle rng arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(* The worker reports the item's true label with probability [accuracy],
   else one of two item-specific wrong labels, so plurality converges. *)
let answer_values rng (ot : Engine.open_tuple) =
  let id =
    match Reldb.Tuple.get ot.bound "id" with Some (Reldb.Value.Int i) -> i | _ -> 0
  in
  let truth = Printf.sprintf "label-%d" (id mod 5) in
  List.map
    (fun attr ->
      if Random.State.float rng 1.0 < accuracy then (attr, Reldb.Value.String truth)
      else
        ( attr,
          Reldb.Value.String (Printf.sprintf "%s#%d" truth (1 + Random.State.int rng 2)) ))
    ot.open_attrs

let timed samples f =
  let t0 = Clock.now_ns () in
  let r = f () in
  Samples.add samples (Clock.now_ns () - t0);
  r

type tally = {
  mutable requests : int;
  mutable failed : int;
  mutable grants : int;
  mutable answers : int;
  mutable resolved : int;
  mutable dead : int;
  lease_ns : Samples.t;
  answer_ns : Samples.t;
  poll_ns : Samples.t;
  slices_ns : Samples.t;  (** one per round, from [pending_total] to the next *)
}

(* The closed loop. Returns whether every task resolved. *)
let drive server inputs cursors tally =
  let last_mark = ref (Clock.now_ns ()) in
  let mark () =
    let now = Clock.now_ns () in
    Samples.add tally.slices_ns (now - !last_mark);
    last_mark := now
  in
  let s = inputs.shape in
  let rng = Random.State.make [| inputs.seed |] in
  let names = Array.init s.campaigns campaign_name in
  let workers =
    Array.init s.workers (fun i -> Reldb.Value.String (Printf.sprintf "w%d" (i + 1)))
  in
  let call name f =
    tally.requests <- tally.requests + 1;
    Trace.span name f
  in
  let round n =
    Array.iter
      (fun c -> ignore (call "server.reclaim" (fun () -> Server.reclaim server ~campaign:c ~now:n)))
      names;
    Array.iteri
      (fun i worker ->
        let campaign = names.((i + n) mod s.campaigns) in
        match
          timed tally.lease_ns (fun () ->
              call "server.lease" (fun () -> Server.lease server ~campaign ~worker ~now:n))
        with
        | None -> ()
        | Some (task, ot, _view) -> (
            tally.grants <- tally.grants + 1;
            let values = answer_values rng ot in
            match
              timed tally.answer_ns (fun () ->
                  call "server.supply" (fun () ->
                      Server.supply server ~campaign task ~worker values))
            with
            | Server.Accepted _ -> tally.answers <- tally.answers + 1
            | Server.Rejected _ | Server.Shard_down _ -> tally.failed <- tally.failed + 1))
      (shuffle rng workers);
    Array.iteri
      (fun k c ->
        ignore (call "server.sample" (fun () -> Server.sample server ~campaign:c ~round:n));
        List.iter
          (function
            | Server.Task_resolved _ -> tally.resolved <- tally.resolved + 1
            | Server.Task_dead _ -> tally.dead <- tally.dead + 1)
          (timed tally.poll_ns (fun () ->
               call "server.resolve_poll" (fun () ->
                   Server.resolve_poll server ~campaign:c cursors.(k)))))
      names
  in
  let rec loop n =
    Trace.round := n;
    if n > 1 then mark ();
    if call "server.pending_total" (fun () -> Server.pending_total server) = 0 then true
    else if n > max_rounds then false
    else begin
      Trace.span "round" (fun () -> round n);
      loop (n + 1)
    end
  in
  let finished = loop 1 in
  mark ();
  Trace.round := -1;
  finished

let slot_engines server inputs =
  List.concat_map
    (fun sh ->
      List.filter_map
        (fun k -> Server.Shard.engine (Server.shard server sh) ~campaign:(campaign_name k))
        (List.init inputs.shape.campaigns Fun.id))
    (List.init inputs.shape.shards Fun.id)

(* The resolved labels of every campaign, sorted — the run's output. *)
let labels_digest engines =
  let rows =
    List.concat_map
      (fun e ->
        match Reldb.Database.find (Engine.database e) "LabelOf" with
        | None -> []
        | Some rel ->
            List.map
              (fun t ->
                Reldb.Value.to_string (Reldb.Tuple.get_or_null t "id")
                ^ "=" ^ Reldb.Value.to_string (Reldb.Tuple.get_or_null t "label"))
              (Reldb.Relation.tuples rel))
      engines
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare rows)))

let sum_counter engines name =
  List.fold_left
    (fun acc e -> acc +. float_of_int (Telemetry.Metrics.counter (Engine.metrics e) name))
    0. engines

let engine_counters engines =
  let hits =
    sum_counter engines "planner.rescan_cache.hits"
    +. sum_counter engines "planner.delta_cache.hits"
  and misses =
    sum_counter engines "planner.rescan_cache.misses"
    +. sum_counter engines "planner.delta_cache.misses"
  in
  let sum f = List.fold_left (fun acc e -> acc +. float_of_int (f e)) 0. engines in
  [
    ("eval.rows_scanned", sum_counter engines "eval.rows_scanned");
    ("eval.fixpoint.steps", sum_counter engines "eval.fixpoint.steps");
    ("planner.cache_hit_ratio", Report.ratio hits (hits +. misses));
    ("engine.events", sum Engine.event_count);
    ("reldb.tuples", sum (fun e -> Reldb.Database.total_tuples (Engine.database e)));
  ]

(* Traced repetitions only: repeat what [open_campaign] does inside, one
   public call per layer, to split setup by layer, and compare the tuples
   resident across shards with a single unsplit engine's. *)
let setup_probes inputs programs resident =
  let n = inputs.shape.shards in
  let unsplit =
    Array.fold_left
      (fun acc program ->
        let splits =
          Trace.span "router.split" (fun () -> Server.Router.split_program ~shards:n placements program)
        in
        Array.iter
          (fun p ->
            ignore (Trace.span "lint.check" (fun () -> Lint.check p));
            ignore (Trace.span "analysis.analyze" (fun () -> Analysis.analyze p));
            ignore (Trace.span "engine.load" (fun () -> Engine.load ~lint:`Off p)))
          splits;
        let e = Engine.load ~lint:`Off program in
        ignore (Engine.run e);
        acc + Reldb.Database.total_tuples (Engine.database e))
      0 programs
  in
  Report.ratio (float_of_int resident) (float_of_int unsplit)

let us samples q = Samples.percentile samples q /. 1e3

let rep inputs ~traced =
  let s = inputs.shape in
  let tally =
    {
      requests = 0;
      failed = 0;
      grants = 0;
      answers = 0;
      resolved = 0;
      dead = 0;
      lease_ns = Samples.create ();
      answer_ns = Samples.create ();
      poll_ns = Samples.create ();
      slices_ns = Samples.create ();
    }
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let store = Counting_storage.create () in
  let sims = Array.init s.shards (fun _ -> Storage.Sim.create ()) in
  let gc0 = Gc.quick_stat () in
  (* set-up: program text to a server with every campaign open *)
  let t0 = Clock.now_ns () in
  let server, programs, cursors =
    Trace.span "setup" (fun () ->
        let server =
          if inputs.durable then
            Server.create ~journal_root:"fleet-journal" ~journal_config
              ~storage:(fun i -> Counting_storage.wrap store (Storage.Sim.storage sims.(i)))
              ~shards:s.shards ()
          else Server.create ~shards:s.shards ()
        in
        let programs =
          Array.mapi
            (fun k src ->
              let program = Trace.span "parser.parse" (fun () -> Parser.parse_exn src) in
              Trace.span "server.open_campaign" (fun () ->
                  Server.open_campaign server ~name:(campaign_name k) ~partition_by:placements
                    ~lease:Lease.default_config ~policy:(Engine.Fixed s.quorum)
                    ~monitor:{ Monitor.default_config with series_capacity = 512 }
                    program);
              program)
            inputs.sources
        in
        let cursors =
          Array.init s.campaigns (fun k -> Server.poll_cursor server ~campaign:(campaign_name k))
        in
        (server, programs, cursors))
  in
  let t1 = Clock.now_ns () in
  let resident =
    if traced then
      List.fold_left
        (fun acc e -> acc + Reldb.Database.total_tuples (Engine.database e))
        0 (slot_engines server inputs)
    else 0
  in
  let store0 = Counting_storage.copy store in
  (* the campaign: first request until every task resolved *)
  let t2 = Clock.now_ns () in
  let finished = Trace.span "campaign" (fun () -> drive server inputs cursors tally) in
  let t3 = Clock.now_ns () in
  let campaign_store = Counting_storage.diff store store0 in
  let tasks = s.campaigns * s.items in
  if not finished then fail "campaign still had pending tasks after %d rounds" max_rounds;
  if tally.resolved <> tasks then fail "resolved %d tasks, expected %d" tally.resolved tasks;
  if tally.dead <> 0 then fail "%d tasks dead-lettered" tally.dead;
  if tally.answers <> tasks * s.quorum then
    fail "accepted %d answers, expected %d" tally.answers (tasks * s.quorum);
  let view = Trace.span "server.stats" (fun () -> Server.stats server) in
  if view.Server.Fleet.pending <> 0 then fail "%d tasks still pending" view.Server.Fleet.pending;
  (match view.Server.Fleet.monitor with
  | Some m when m.Server.Fleet.f_answers = tally.answers -> ()
  | Some m -> fail "fleet monitor counts %d answers, client saw %d" m.Server.Fleet.f_answers tally.answers
  | None -> fail "no fleet monitor");
  let engines = slot_engines server inputs in
  if List.length engines <> s.shards * s.campaigns then fail "missing campaign slots";
  let digest = labels_digest engines in
  let probes = Telemetry.Metrics.counter (Server.metrics server) "server.lease_probes" in
  let per_shard =
    Array.init s.shards (fun i ->
        float_of_int (Array.length (Server.Shard.latencies_ns (Server.shard server i))))
  in
  let mean = Array.fold_left ( +. ) 0. per_shard /. float_of_int s.shards in
  let compactions =
    List.fold_left
      (fun acc e ->
        match Engine.durable_journal e with
        | Some j -> acc + (Journal.stats j).compactions
        | None -> acc)
      0 engines
  in
  let engine_values = engine_counters engines in
  let gc1 = Gc.quick_stat () in
  (* cold recovery of every slot from its journal *)
  let recovery = Counting_storage.create () in
  let recover_ns = ref 0 and replayed = ref 0 in
  if inputs.durable then
    for sh = 0 to s.shards - 1 do
      for k = 0 to s.campaigns - 1 do
        let campaign = campaign_name k in
        let live = Server.Shard.engine (Server.shard server sh) ~campaign in
        let before = Option.map Engine.journal_dump live in
        let r0 = Clock.now_ns () in
        let stats =
          Trace.span "recovery" (fun () ->
              Server.recover_shard server sh ~campaign
                ~storage:(Counting_storage.wrap recovery (Storage.Sim.storage sims.(sh)))
                ())
        in
        recover_ns := !recover_ns + (Clock.now_ns () - r0);
        replayed := !replayed + stats.Engine.records_replayed;
        let after =
          Option.map Engine.journal_dump (Server.Shard.engine (Server.shard server sh) ~campaign)
        in
        if before = None || before <> after then
          fail "shard %d %s: recovered journal differs from the live one" sh campaign
      done
    done;
  let resident_ratio =
    if traced then
      [ ("router.resident_tuples_ratio",
         Trace.span "probe" (fun () -> setup_probes inputs programs resident)) ]
    else []
  in
  let durable_values =
    if not inputs.durable then Report.zeros Report.durable_counters
    else
      let c = campaign_store in
      [
        ("storage.append.calls", float_of_int c.appends);
        ("storage.fsync.calls", float_of_int c.fsyncs);
        ("storage.fsync_dir.calls", float_of_int c.fsync_dirs);
        ("storage.rename.calls", float_of_int c.renames);
        ("storage.read_file.calls", float_of_int c.reads);
        ("storage.append_bytes", float_of_int c.append_bytes);
        ("storage.busy_s", float_of_int c.busy_ns *. 1e-9);
        ("journal.compactions", float_of_int compactions);
        ("journal.snapshot_bytes", float_of_int c.snapshot_bytes);
        ("journal.bytes_per_answer",
         Report.ratio (float_of_int c.append_bytes) (float_of_int tally.answers));
        ("recovery.busy_s", float_of_int !recover_ns *. 1e-9);
        ("recovery.bytes_read", float_of_int recovery.read_bytes);
        ("recovery.records_replayed", float_of_int !replayed);
      ]
  in
  let counters =
    [
      ("server.lease.grant_ratio", Report.ratio (float_of_int tally.grants) (float_of_int probes));
      ("server.lease.p50_us", us tally.lease_ns 0.5);
      ("server.lease.p999_us", us tally.lease_ns 0.999);
      ("server.resolve_poll.p50_us", us tally.poll_ns 0.5);
      ("server.resolve_poll.p999_us", us tally.poll_ns 0.999);
      ("shard.requests_max_over_mean",
       Report.ratio (Array.fold_left Float.max 0. per_shard) mean);
    ]
    @ resident_ratio @ durable_values @ engine_values
    @ [
        ("gc.minor_words", gc1.minor_words -. gc0.minor_words);
        ("gc.promoted_words", gc1.promoted_words -. gc0.promoted_words);
        ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
      ]
    @ Report.zeros Report.tweetpecker_counters
  in
  {
    Report.setup_s = Clock.seconds_between t0 t1;
    campaign_s = Clock.seconds_between t2 t3;
    requests = tally.requests;
    failed = tally.failed;
    answer_ns = tally.answer_ns;
    slices_ns = tally.slices_ns;
    digest;
    errors = List.rev !errors;
    counters;
    spans = [];
  }
