module Router = Router
module Shard = Shard
module Fleet = Fleet

open Cylog

type t = {
  pool : Shard.t array;
  journal_root : string option;
  journal_config : Journal.config option;
  storage_for : int -> (module Storage.S) option;
  server_metrics : Telemetry.Metrics.t;
  mutable open_names : string list;  (* reverse opening order *)
}

type task_ref = { shard : int; local : Engine.open_id }

let create ?journal_root ?journal_config ?storage ~shards () =
  let n = max 1 shards in
  {
    pool = Array.init n (fun id -> Shard.create ~id);
    journal_root;
    journal_config;
    storage_for =
      (match storage with
      | None -> fun _ -> None
      | Some f -> fun i -> Some (f i));
    server_metrics = Telemetry.Metrics.create ();
    open_names = [];
  }

let shards t = Array.length t.pool
let metrics t = t.server_metrics
let shard t i = t.pool.(i)
let campaigns t = List.rev t.open_names

let open_campaign t ~name ?(partition_by = []) ?lease ?policy ?monitor program =
  if List.mem name t.open_names then
    failwith (Printf.sprintf "campaign %S already open" name);
  Telemetry.Metrics.incr t.server_metrics "server.campaigns_opened";
  let n = shards t in
  let splits = Router.split_program ~shards:n partition_by program in
  Array.iteri
    (fun i sh ->
      let journal_dir =
        Option.map
          (fun root -> Filename.concat root (Printf.sprintf "shard-%02d/%s" i name))
          t.journal_root
      in
      Shard.open_slot sh ~campaign:name ?journal_dir
        ?journal_config:t.journal_config
        ?storage:(t.storage_for i) ?lease ?policy ?monitor
        splits.(i))
    t.pool;
  t.open_names <- name :: t.open_names

(* The synchronous facade: post one ticket, then round-robin pump every
   shard until it fills. Each iteration executes at most one request per
   shard, so no shard's queue can starve behind the caller's. *)
let await t ticket =
  let rec loop () =
    match Shard.reply ticket with
    | Some r -> r
    | None ->
        let progressed =
          Array.fold_left
            (fun acc sh -> Shard.pump_one sh || acc)
            false t.pool
        in
        if not progressed then
          (* the ticket is queued on some shard, so a full unproductive
             sweep is impossible; guard against it anyway *)
          failwith "server: request lost"
        else loop ()
  in
  loop ()

let request t i ~campaign req =
  Telemetry.Metrics.incr t.server_metrics "server.requests";
  await t (Shard.post t.pool.(i) ~campaign req)

let lease t ~campaign ~worker ~now =
  let n = shards t in
  let start = Router.shard_of_values ~shards:n [ worker ] in
  let rec probe i =
    if i >= n then None
    else begin
      let s = (start + i) mod n in
      Telemetry.Metrics.incr t.server_metrics "server.lease_probes";
      match request t s ~campaign (Shard.Lease { worker; now }) with
      | Shard.Granted (ot, view) -> Some ({ shard = s; local = ot.id }, ot, view)
      | _ -> probe (i + 1)
    end
  in
  probe 0

type answer_result =
  | Accepted of Engine.event
  | Rejected of Engine.reject
  | Shard_down of int

let answer_of_reply s = function
  | Shard.Answered ev -> Accepted ev
  | Shard.Rejected rej -> Rejected rej
  | Shard.Crashed_shard -> Shard_down s
  | _ -> Shard_down s

let supply t ~campaign (task : task_ref) ~worker values =
  answer_of_reply task.shard
    (request t task.shard ~campaign
       (Shard.Supply { task = task.local; worker; values }))

let answer_existence t ~campaign (task : task_ref) ~worker yes =
  answer_of_reply task.shard
    (request t task.shard ~campaign
       (Shard.Answer { task = task.local; worker; yes }))

let decline t ~campaign (task : task_ref) =
  ignore (request t task.shard ~campaign (Shard.Decline { task = task.local }))

let reclaim t ~campaign ~now =
  let total = ref 0 in
  Array.iteri
    (fun i _ ->
      match request t i ~campaign (Shard.Reclaim { now }) with
      | Shard.Reclaimed n -> total := !total + n
      | _ -> ())
    t.pool;
  !total

let sample t ~campaign ~round =
  let firings = ref [] in
  Array.iteri
    (fun i _ ->
      match request t i ~campaign (Shard.Sample { round }) with
      | Shard.Sampled fs ->
          List.iter (fun f -> firings := (i, f) :: !firings) fs
      | _ -> ())
    t.pool;
  List.rev !firings

type cursor = { c_campaign : string; pos : int array }

let poll_cursor t ~campaign =
  {
    c_campaign = campaign;
    pos =
      Array.map
        (fun sh ->
          match Shard.engine sh ~campaign with
          | Some e -> Engine.event_count e
          | None -> 0)
        t.pool;
  }

type resolution =
  | Task_resolved of { task : task_ref; quorum : bool }
  | Task_dead of { task : task_ref; reason : Lease.reason }

(* [Fold.retirements] decides which event retires which task. *)
let resolution shard = function
  | Fold.Answered local -> Task_resolved { task = { shard; local }; quorum = false }
  | Fold.Quorum_resolved local -> Task_resolved { task = { shard; local }; quorum = true }
  | Fold.Dead (local, reason) -> Task_dead { task = { shard; local }; reason }

let resolve_poll t ~campaign cursor =
  if cursor.c_campaign <> campaign then
    invalid_arg "resolve_poll: cursor belongs to another campaign";
  let newest_first = ref [] in
  Array.iteri
    (fun i sh ->
      if Option.is_none (Shard.failure sh ~campaign) then
        match Shard.engine sh ~campaign with
        | None -> ()
        | Some e ->
            let events = Engine.events_since e ~after:cursor.pos.(i) in
            cursor.pos.(i) <- cursor.pos.(i) + List.length events;
            newest_first :=
              List.fold_left
                (fun acc ev ->
                  List.fold_left
                    (fun acc r -> resolution i r :: acc)
                    acc (Fold.retirements ev))
                !newest_first events)
    t.pool;
  List.rev !newest_first

let pending_total t =
  Array.fold_left (fun acc sh -> acc + Shard.pending_total sh) 0 t.pool

let stats t =
  let inputs =
    Array.to_list t.pool
    |> List.filter_map (fun sh ->
           if Shard.failed sh then None
           else
             Some
               {
                 Fleet.s_id = Shard.id sh;
                 s_engines =
                   List.filter_map
                     (fun c -> Shard.engine sh ~campaign:c)
                     (Shard.campaigns sh);
                 s_metrics = Shard.metrics sh;
                 s_latencies_ns = Shard.latencies_ns sh;
               })
  in
  let view = Fleet.gather ~total_shards:(shards t) inputs in
  Telemetry.Metrics.merge ~into:view.Fleet.metrics t.server_metrics;
  view

let recover_shard t i ~campaign ?storage () =
  Telemetry.Metrics.incr t.server_metrics "server.recoveries";
  Shard.recover_slot t.pool.(i) ~campaign ?storage ()
