(** One engine shard: a mailbox-driven run-loop over per-campaign engines.

    A shard owns one {!Cylog.Engine} per open campaign (each with its own
    durable journal directory) and a FIFO mailbox of requests. Nothing
    executes at post time: {!post} enqueues a ticketed request and returns
    immediately; {!pump_one} dequeues and executes exactly one request
    against the addressed slot, runs the engine to quiescence after an
    accepted answer that wrote a relation ({!Cylog.Fold.writes}), and
    fills the ticket's reply. Every request starts from quiescence and
    rules read only relations, so no other request runs the engine: a
    vote that leaves its task pending, a reclaim or a decline would fire
    nothing, and its run would journal an entry that replays to nothing.
    The server's
    synchronous facade round-robin-pumps all shards until its ticket
    resolves, so shards make progress independently of each other while
    the whole fleet stays deterministic — no threads, one total order of
    requests per shard, byte-identical traces run to run.

    Any exception a slot raises while pumping — a storage crash
    ({!Cylog.Storage.Crashed} / [No_space]) or an engine error — marks
    the slot failed and keeps the exception's text ({!failure}); the
    request and every later one to that slot answer [Crashed_shard]
    without touching the engine, while the shard's other slots keep
    serving, until {!recover_slot} rebuilds it from its journal
    ({!Cylog.Engine.recover}) — restore work is O(live state) after
    compaction, independent of campaign length. *)

open Cylog

type request =
  | Lease of { worker : Reldb.Value.t; now : int }
      (** grant the worker a pending task (oldest assignable first);
          under the lease runtime this takes an engine lease *)
  | Supply of {
      task : Engine.open_id;
      worker : Reldb.Value.t;
      values : (string * Reldb.Value.t) list;
    }
  | Answer of { task : Engine.open_id; worker : Reldb.Value.t; yes : bool }
  | Decline of { task : Engine.open_id }
  | Reclaim of { now : int }  (** expire overdue leases *)
  | Sample of { round : int }  (** take a monitor sample *)

type reply =
  | Granted of Engine.open_tuple * string option
      (** the task and its rendered view, if the program declares one *)
  | No_task
  | Answered of Engine.event
  | Rejected of Engine.reject
  | Declined
  | Reclaimed of int  (** leases expired by this reclaim *)
  | Sampled of Monitor.firing list
  | Crashed_shard  (** the slot failed (see {!failure}); recover it first *)

type ticket
(** A pending reply slot, filled when the request is pumped. *)

val reply : ticket -> reply option
(** [None] until the request has been executed. *)

type t

val create : id:int -> t
(** An empty shard with no campaigns and an empty mailbox. *)

val id : t -> int

val metrics : t -> Telemetry.Metrics.t
(** The shard's own registry ([shard.*] counters: requests, leases
    granted, answers accepted/rejected, crashes, recoveries) — engine
    metrics live in each slot's engine registry. *)

val open_slot :
  t ->
  campaign:string ->
  ?journal_dir:string ->
  ?journal_config:Journal.config ->
  ?storage:(module Storage.S) ->
  ?lease:Lease.config ->
  ?policy:Engine.quorum_policy ->
  ?monitor:Monitor.config ->
  Ast.program ->
  unit
(** Load this shard's split of a campaign program, attach its journal
    (when [journal_dir] is given), install lease/quorum/monitor config,
    and run to initial quiescence. The quorum [policy] is installed
    without a relation scope ({!Engine.set_quorum_policy} with no
    [relations]), so it covers every eligible task. @raise Failure on a
    duplicate campaign name. *)

val campaigns : t -> string list
(** Open campaign names, in opening order. *)

val engine : t -> campaign:string -> Engine.t option
(** The slot's live engine — the fleet layer's scatter source. [None]
    for unknown campaigns. *)

val failure : t -> campaign:string -> string option
(** Why the slot failed: the text of the exception it raised. [None]
    while it serves, and for unknown campaigns. *)

val failed : t -> bool
(** Some slot is failed and awaiting recovery. *)

val post : t -> campaign:string -> request -> ticket
(** Enqueue; never executes. Unknown campaigns are answered
    [Crashed_shard] at pump time (the router should prevent this). *)

val pump_one : t -> bool
(** Execute the oldest queued request, if any; [false] on an empty
    mailbox. *)

val pump : t -> int
(** Drain the mailbox; the number of requests executed. *)

val pending_total : t -> int
(** Pending open tuples summed over live slots. *)

val latencies_ns : t -> int array
(** Wall-clock service time of every pumped request, nanoseconds, in
    execution order — raw samples for the fleet's exact percentiles.
    Observability only: no behaviour depends on these. *)

val recover_slot :
  t ->
  campaign:string ->
  ?storage:(module Storage.S) ->
  unit ->
  Engine.recovery_stats
(** Rebuild a crashed (or live) slot from its journal directory and swap
    the recovered engine in; lease/quorum/monitor config replays from the
    journal. [storage] replaces the slot's storage (e.g. the post-crash
    image {!Cylog.Storage.Sim.after_crash}). @raise Failure on unknown
    campaigns or slots opened without a journal. *)
