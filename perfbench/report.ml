(* The metric catalogue, the result of one repetition, and the JSON
   output. BENCHMARK.json lists the same names and units; run.py checks
   every result line against it. *)

type rep = {
  setup_s : float;  (** program text to a ready engine or server *)
  campaign_s : float;  (** first request until every task resolved *)
  requests : int;  (** requests attempted *)
  failed : int;  (** rejected answers, shard-down replies, exceptions *)
  answer_ns : Samples.t;  (** client-observed latency of each answer, in order *)
  slices_ns : Samples.t;
      (** the campaign cut into consecutive slices at fixed points of its
          work (a client round, a crowd decision); they sum to [campaign_s] *)
  digest : string;  (** digest of the campaign's resolved output *)
  errors : string list;  (** failed output checks; empty when correct *)
  counters : (string * float) list;
      (** per-layer values the workload reads from the program's own
          counters and from its timed calls *)
  spans : Trace.span list;  (** traced repetitions only *)
}

(* End-to-end metrics: what a user of the system sees. *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("campaign_s", "s", "lower");
    ("requests_per_s", "1/s", "higher");
    ("answer_p50_us", "us", "lower");
    ("top_heap_mb", "MB", "lower");
  ]

(* Layers timed from outside: one span name per public entry point the
   benchmark calls. *)
let layers =
  [
    "parser.parse";
    "lint.check";
    "analysis.analyze";
    "engine.load";
    "router.split";
    "server.open_campaign";
    "server.lease";
    "server.supply";
    "server.reclaim";
    "server.sample";
    "server.resolve_poll";
    "server.pending_total";
    "server.stats";
    "simulator.run";
    "crowd.policy";
  ]

(* Derived from the spans of a traced repetition. *)
let span_derived =
  List.concat_map
    (fun l ->
      [ (l ^ ".calls", "count", "lower"); (l ^ ".busy_s", "s", "lower");
        (l ^ ".alloc_words", "words", "lower") ])
    layers
  @ [
      ("simulator.run.self_s", "s", "lower");
      ("client.self_s", "s", "lower");
      ("setup.timed_share", "ratio", "higher");
      ("campaign.timed_share", "ratio", "higher");
      ("trace.overhead_s", "s", "lower");
    ]

(* Too unsteady between runs to bound, so reported per layer. The p90
   answer slows more than the p50 when other tenants of the host contend
   for its caches: the same code spread 21-25% across ten runs. A
   repetition's p99.9 rests on about twenty samples. *)
let answer_tail = [ ("answer.p90_us", "us", "lower"); ("answer.p999_us", "us", "lower") ]

let fleet_counters =
  [
    ("server.lease.grant_ratio", "ratio", "higher");
    ("server.lease.p50_us", "us", "lower");
    ("server.lease.p999_us", "us", "lower");
    ("server.resolve_poll.p50_us", "us", "lower");
    ("server.resolve_poll.p999_us", "us", "lower");
    ("shard.requests_max_over_mean", "ratio", "lower");
  ]

(* Tuples resident across shards over the tuples of one unsplit engine;
   1 for a single engine. *)
let resident_ratio = ("router.resident_tuples_ratio", "ratio", "lower")

let durable_counters =
  [
    ("storage.append.calls", "count", "lower");
    ("storage.fsync.calls", "count", "lower");
    ("storage.fsync_dir.calls", "count", "lower");
    ("storage.rename.calls", "count", "lower");
    ("storage.read_file.calls", "count", "lower");
    ("storage.append_bytes", "bytes", "lower");
    ("storage.busy_s", "s", "lower");
    ("journal.compactions", "count", "lower");
    ("journal.snapshot_bytes", "bytes", "lower");
    ("journal.bytes_per_answer", "bytes", "lower");
    ("recovery.busy_s", "s", "lower");
    ("recovery.bytes_read", "bytes", "lower");
    ("recovery.records_replayed", "count", "lower");
  ]

let engine_counters =
  [
    ("eval.rows_scanned", "count", "lower");
    ("eval.fixpoint.steps", "count", "lower");
    ("planner.cache_hit_ratio", "ratio", "higher");
    ("engine.events", "count", "lower");
    ("reldb.tuples", "count", "lower");
    ("gc.minor_words", "words", "lower");
    ("gc.promoted_words", "words", "lower");
    ("gc.major_collections", "count", "lower");
  ]

let variant_tags = [ "VE"; "VE-I"; "VRE"; "VRE-I" ]

let tweetpecker_counters =
  List.map (fun t -> ("tweetpecker." ^ t ^ ".campaign_s", "s", "lower")) variant_tags

let counter_names l = List.map (fun (n, _, _) -> n) l

let per_layer =
  span_derived @ answer_tail @ fleet_counters @ [ resident_ratio ] @ durable_counters @ engine_counters
  @ tweetpecker_counters

(* Counters a workload does not exercise read 0 there. *)
let zeros l = List.map (fun n -> (n, 0.)) (counter_names l)

let ratio a b = if b = 0. then 0. else a /. b

let layer_values spans =
  let layer = Trace.layers spans in
  let sum f names = List.fold_left (fun acc n -> acc +. f (layer n)) 0. names in
  let busy (l : Trace.layer) = l.busy_s and self (l : Trace.layer) = l.self_s in
  let share root children =
    ratio (sum busy [ root ] -. sum self (root :: children)) (sum busy [ root ])
  in
  List.concat_map
    (fun l ->
      let v = layer l in
      [ (l ^ ".calls", float_of_int v.calls); (l ^ ".busy_s", v.busy_s);
        (l ^ ".alloc_words", v.alloc_words) ])
    layers
  @ [
      ("simulator.run.self_s", sum self [ "simulator.run" ]);
      ("client.self_s", sum self [ "campaign"; "round" ]);
      ("setup.timed_share", share "setup" []);
      ("campaign.timed_share", share "campaign" [ "round" ]);
    ]

let json_float v = Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let units = List.map (fun (n, u, _) -> (n, u)) (end_to_end @ per_layer) in
  let body =
    List.map
      (fun (n, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v)
          (List.assoc n units))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)
