open Cylog

type config = {
  seed : int;
  workers : int;
  campaigns : int;
  items : int;
  accuracy : float;
  quorum : int;
  lease : Lease.config option;
  monitor : Monitor.config option;
  max_rounds : int;
}

let default_config =
  {
    seed = 42;
    workers = 8;
    campaigns = 2;
    items = 24;
    accuracy = 0.85;
    quorum = 3;
    lease = Some Lease.default_config;
    monitor = Some { Monitor.default_config with series_capacity = 512 };
    max_rounds = 200;
  }

let campaign_name k = Printf.sprintf "campaign-%d" k

(* A generated labeling campaign: N items, one open label question each.
   Ids are globally offset so distinct campaigns hash to distinct shard
   patterns instead of mirroring each other. *)
let campaign_source ~items ~offset =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "schema:\n  Item(id);\n  LabelOf(id, label);\nrules:\n";
  for i = 0 to items - 1 do
    Buffer.add_string buf (Printf.sprintf "  F%d: Item(id:%d);\n" i (offset + i))
  done;
  Buffer.add_string buf "  Q: LabelOf(id, label)/open <- Item(id);\n";
  Buffer.add_string buf
    "views:\n  view LabelOf {\n    <p>Label item {{id}}: <input \
     name=\"label\"/></p>\n  }\n";
  Buffer.contents buf

let campaign_program ~items ~offset =
  Parser.parse_exn (campaign_source ~items ~offset)

let placements = [ { Server.Router.relation = "Item"; key_attrs = [ "id" ] } ]

let open_campaigns server config =
  for k = 0 to config.campaigns - 1 do
    Server.open_campaign server ~name:(campaign_name k) ~partition_by:placements
      ?lease:config.lease
      ?policy:
        (if config.quorum > 1 then Some (Engine.Fixed config.quorum) else None)
      ?monitor:config.monitor
      (campaign_program ~items:config.items ~offset:(k * 1000))
  done

type outcome = {
  rounds : int;
  leases : int;
  answers : int;
  rejections : int;
  resolved : int;
  dead : int;
  stop_reason : [ `Done | `Stalled | `Max_rounds ];
}

(* The ground-truth label of an item; a worker reports it with probability
   [accuracy], else one of two item-specific wrong labels
   ({!Simulator.noisy_answer}), so plurality converges. *)
let true_label id = Printf.sprintf "label-%d" (id mod 5)

let answer_values rng config (ot : Engine.open_tuple) =
  let id =
    match Reldb.Tuple.get ot.bound "id" with
    | Some (Reldb.Value.Int i) -> i
    | _ -> 0
  in
  let truth = Reldb.Value.String (true_label id) in
  List.map
    (fun attr -> (attr, Simulator.noisy_answer rng ~accuracy:config.accuracy truth))
    ot.open_attrs

let run ?(config = default_config) server =
  let rng = Random.State.make [| config.seed |] in
  let workers =
    List.init config.workers (fun i ->
        Reldb.Value.String (Printf.sprintf "w%d" (i + 1)))
  in
  let names = List.init config.campaigns campaign_name in
  let cursors =
    List.map (fun c -> (c, Server.poll_cursor server ~campaign:c)) names
  in
  let leases = ref 0 in
  let answers = ref 0 in
  let rejections = ref 0 in
  let resolved = ref 0 in
  let dead = ref 0 in
  let idle = ref 0 in
  let rounds_done = ref 0 in
  let rec rounds n =
    if Server.pending_total server = 0 then `Done
    else if n > config.max_rounds then `Max_rounds
    else begin
      rounds_done := n;
      if config.lease <> None then
        List.iter
          (fun c -> ignore (Server.reclaim server ~campaign:c ~now:n))
          names;
      let acted = ref false in
      List.iteri
        (fun i worker ->
          (* round-robin the campaigns across workers and rounds so every
             campaign drains even when one finishes first *)
          let campaign = campaign_name ((i + n) mod config.campaigns) in
          match Server.lease server ~campaign ~worker ~now:n with
          | None -> ()
          | Some (task, ot, _view) -> (
              incr leases;
              if ot.existence then (
                match Server.answer_existence server ~campaign task ~worker true with
                | Server.Accepted _ ->
                    acted := true;
                    incr answers
                | _ -> incr rejections)
              else
                match
                  Server.supply server ~campaign task ~worker
                    (answer_values rng config ot)
                with
                | Server.Accepted _ ->
                    acted := true;
                    incr answers
                | _ -> incr rejections))
        (Simulator.shuffle rng workers);
      List.iter
        (fun (c, cursor) ->
          ignore (Server.sample server ~campaign:c ~round:n);
          List.iter
            (function
              | Server.Task_resolved _ -> incr resolved
              | Server.Task_dead _ -> incr dead)
            (Server.resolve_poll server ~campaign:c cursor))
        cursors;
      if !acted then idle := 0 else incr idle;
      if Server.pending_total server = 0 then `Done
      else if !idle >= 5 then `Stalled
      else rounds (n + 1)
    end
  in
  let stop_reason = rounds 1 in
  {
    rounds = !rounds_done;
    leases = !leases;
    answers = !answers;
    rejections = !rejections;
    resolved = !resolved;
    dead = !dead;
    stop_reason;
  }
