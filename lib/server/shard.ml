open Cylog

type request =
  | Lease of { worker : Reldb.Value.t; now : int }
  | Supply of {
      task : Engine.open_id;
      worker : Reldb.Value.t;
      values : (string * Reldb.Value.t) list;
    }
  | Answer of { task : Engine.open_id; worker : Reldb.Value.t; yes : bool }
  | Decline of { task : Engine.open_id }
  | Reclaim of { now : int }
  | Sample of { round : int }

type reply =
  | Granted of Engine.open_tuple * string option
  | No_task
  | Answered of Engine.event
  | Rejected of Engine.reject
  | Declined
  | Reclaimed of int
  | Sampled of Monitor.firing list
  | Crashed_shard

type ticket = { mutable filled : reply option }

let reply t = t.filled

type slot = {
  campaign : string;
  mutable engine : Engine.t;
  journal_dir : string option;
  journal_config : Journal.config option;
  mutable storage : (module Storage.S) option;
  mutable failure : string option;  (* the exception that stopped the slot *)
}

type t = {
  sid : int;
  slots : (string, slot) Hashtbl.t;
  mutable order : string list;  (* campaign names, reverse opening order *)
  mailbox : (string * request * ticket) Queue.t;
  shard_metrics : Telemetry.Metrics.t;
  (* request service times in ns; growable, observability-only *)
  mutable lat : int array;
  mutable lat_n : int;
}

let create ~id =
  {
    sid = id;
    slots = Hashtbl.create 7;
    order = [];
    mailbox = Queue.create ();
    shard_metrics = Telemetry.Metrics.create ();
    lat = Array.make 64 0;
    lat_n = 0;
  }

let id t = t.sid
let metrics t = t.shard_metrics

let record_latency t ns =
  if t.lat_n = Array.length t.lat then begin
    let grown = Array.make (2 * t.lat_n) 0 in
    Array.blit t.lat 0 grown 0 t.lat_n;
    t.lat <- grown
  end;
  t.lat.(t.lat_n) <- ns;
  t.lat_n <- t.lat_n + 1

let latencies_ns t = Array.sub t.lat 0 t.lat_n

let open_slot t ~campaign ?journal_dir ?journal_config ?storage ?lease ?policy
    ?monitor program =
  if Hashtbl.mem t.slots campaign then
    failwith (Printf.sprintf "shard %d: campaign %S already open" t.sid campaign);
  let engine = Engine.load program in
  (match journal_dir with
  | Some dir -> Engine.journal_start ?config:journal_config ?storage engine dir
  | None -> ());
  Option.iter (fun cfg -> Engine.set_lease_config engine (Some cfg)) lease;
  Option.iter (Engine.set_quorum_policy engine) policy;
  Option.iter (fun cfg -> Engine.set_monitor engine (Some cfg)) monitor;
  ignore (Engine.run engine);
  Hashtbl.add t.slots campaign
    { campaign; engine; journal_dir; journal_config; storage; failure = None };
  t.order <- campaign :: t.order;
  Telemetry.Metrics.incr t.shard_metrics "shard.campaigns_opened"

let campaigns t = List.rev t.order
let find t campaign = Hashtbl.find_opt t.slots campaign

let engine t ~campaign = Option.map (fun s -> s.engine) (find t campaign)

let failure t ~campaign = Option.bind (find t campaign) (fun s -> s.failure)
let failed t = Hashtbl.fold (fun _ s acc -> acc || Option.is_some s.failure) t.slots false

let post t ~campaign req =
  let ticket = { filled = None } in
  Queue.add (campaign, req, ticket) t.mailbox;
  ticket

(* The lease step: the oldest pending task this worker may take — skipping
   tasks designated for someone else, tasks they already voted on, and
   (under the lease runtime) tasks whose lease slots are all held. The
   engine's own capacity rules decide; this walk just offers candidates in
   age order and stops at the first grant. *)
let grant_lease slot ~worker ~now =
  let e = slot.engine in
  let leases_on = Engine.lease_config e <> None in
  let grant (ot : Engine.open_tuple) =
    let for_worker =
      match ot.asked with None -> true | Some w -> Reldb.Value.equal w worker
    in
    if
      for_worker
      && (not (Engine.has_voted e ot.id ~worker))
      && ((not leases_on) || Result.is_ok (Engine.assign e ot.id ~worker ~now))
    then Some (Granted (ot, Engine.task_view e ot))
    else None
  in
  Option.value (Seq.find_map grant (Engine.pending_seq e)) ~default:No_task

(* An answer re-enters the fixpoint only through the rows it wrote. Every
   request starts from quiescence, so a run after an answer that only
   banked a vote would fire nothing, and journal an entry that replays to
   nothing; the same holds after a reclaim or a decline, which only
   requeue or dead-letter tasks. *)
let answered m slot = function
  | Ok ev ->
      if Fold.writes ev then ignore (Engine.run slot.engine);
      Telemetry.Metrics.incr m "shard.answers_accepted";
      Answered ev
  | Error rej ->
      Telemetry.Metrics.incr m "shard.answers_rejected";
      Rejected rej

let execute t slot req =
  let m = t.shard_metrics in
  match req with
  | Lease { worker; now } -> (
      match grant_lease slot ~worker ~now with
      | Granted _ as r ->
          Telemetry.Metrics.incr m "shard.leases_granted";
          r
      | r ->
          Telemetry.Metrics.incr m "shard.leases_refused";
          r)
  | Supply { task; worker; values } ->
      answered m slot (Engine.supply slot.engine task ~worker values)
  | Answer { task; worker; yes } ->
      answered m slot (Engine.answer_existence slot.engine task ~worker yes)
  | Decline { task } ->
      Engine.decline slot.engine task;
      Declined
  | Reclaim { now } -> Reclaimed (List.length (Engine.reclaim slot.engine ~now))
  | Sample { round } -> Sampled (Engine.monitor_sample slot.engine ~round)

let pump_one t =
  match Queue.take_opt t.mailbox with
  | None -> false
  | Some (campaign, req, ticket) ->
      Telemetry.Metrics.incr t.shard_metrics "shard.requests";
      let answer =
        match find t campaign with
        | None -> Crashed_shard
        | Some { failure = Some _; _ } -> Crashed_shard
        | Some slot -> (
            let t0 = Unix.gettimeofday () in
            try
              let r = execute t slot req in
              record_latency t
                (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
              r
            with exn ->
              (* A storage crash, or anything else the slot raised: it
                 stopped mid-request, so it serves nothing until
                 [recover_slot] rebuilds it, and the rest of the shard
                 keeps serving. *)
              slot.failure <- Some (Printexc.to_string exn);
              Telemetry.Metrics.incr t.shard_metrics "shard.crashes";
              Crashed_shard)
      in
      ticket.filled <- Some answer;
      true

let pump t =
  let n = ref 0 in
  while pump_one t do
    incr n
  done;
  !n

let pending_total t =
  Hashtbl.fold
    (fun _ s acc ->
      if Option.is_some s.failure then acc else acc + Engine.pending_count s.engine)
    t.slots 0

let recover_slot t ~campaign ?storage () =
  match find t campaign with
  | None ->
      failwith (Printf.sprintf "shard %d: unknown campaign %S" t.sid campaign)
  | Some slot -> (
      match slot.journal_dir with
      | None ->
          failwith
            (Printf.sprintf "shard %d: campaign %S has no journal" t.sid
               campaign)
      | Some dir ->
          (match storage with Some _ -> slot.storage <- storage | None -> ());
          (* Keep the slot's journal config across reopen: recovery with a
             different fsync/rotation policy would silently change the
             durability contract of the resumed campaign. *)
          (* No catch-up [run] here: the journal replay already reproduced
             quiescence, and an extra run would journal a fresh entry —
             breaking byte-equality with the pre-crash trace. *)
          let engine, stats =
            Engine.recover ?config:slot.journal_config ?storage:slot.storage dir
          in
          slot.engine <- engine;
          slot.failure <- None;
          Telemetry.Metrics.incr t.shard_metrics "shard.recoveries";
          stats)
