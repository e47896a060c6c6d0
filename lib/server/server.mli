(** The sharded multi-campaign server.

    One process, N engine shards: each shard runs its own engines (one
    per campaign, each with its own durable journal directory under
    [journal_root/shard-<i>/<campaign>]) behind a per-shard mailbox. The
    public calls below are synchronous facades: each posts a ticketed
    request to the owning shard and round-robin-pumps {e all} shards
    until the ticket resolves — so every shard makes progress on its own
    queue regardless of which one the caller is waiting on, and the whole
    fleet stays deterministic (no threads, one total order per shard).

    {b Routing.} A campaign is opened with a partition map
    ({!Router.placement}): base facts of partitioned relations go only to
    the shard owning their key's hash (the game-instance Skolem term);
    rules, games, schemas and the rest are replicated. Worker-facing
    calls route by {!task_ref} (which names the owning shard); {!lease}
    scatters from [hash worker mod N] so workers spread over shards
    deterministically. With one shard the split program is the input
    program and the server is observationally identical to a bare engine
    — the 1-shard differential test's anchor.

    {b Recovery.} A storage crash fails only the affected slot; the rest
    of the fleet keeps serving. {!recover_shard} rebuilds the failed
    slot from its journal (O(live state) after compaction); acknowledged
    operations — those whose reply the caller saw — are never lost.

    See docs/SERVER.md for the architecture and the [server.*]/[shard.*]
    metric catalogue. *)

module Router = Router
module Shard = Shard
module Fleet = Fleet

open Cylog

type t

type task_ref = { shard : int; local : Engine.open_id }
(** A fleet-wide task name: the owning shard plus the engine-local open
    tuple id. Stable for the task's lifetime (shard ownership never
    moves). *)

val create :
  ?journal_root:string ->
  ?journal_config:Journal.config ->
  ?storage:(int -> (module Storage.S)) ->
  shards:int ->
  unit ->
  t
(** A server with [shards] empty shards (at least 1). [journal_root]
    turns on durability: every campaign slot journals under
    [journal_root/shard-<i>/<campaign>]. [storage] supplies a storage
    implementation per shard index (e.g. fault-injecting simulators for
    the crash tests); default POSIX. *)

val shards : t -> int
val metrics : t -> Telemetry.Metrics.t
(** The server's own [server.*] registry (requests, scatter probes,
    campaigns opened, recoveries). *)

val shard : t -> int -> Shard.t
(** Direct shard access — for tests and recovery drivers. *)

val open_campaign :
  t ->
  name:string ->
  ?partition_by:Router.placement list ->
  ?lease:Lease.config ->
  ?policy:Engine.quorum_policy ->
  ?monitor:Monitor.config ->
  Ast.program ->
  unit
(** Split the program over the shards ({!Router.split_program}) and open
    one slot per shard. Without [partition_by] every statement is
    replicated — correct but redundant beyond one shard, so real
    multi-shard campaigns should partition their fact relations. [policy]
    covers every eligible task, in any relation ({!Shard.open_slot}).
    @raise Failure on a duplicate campaign name. *)

val campaigns : t -> string list

(** {1 The task-queue API} *)

val lease :
  t ->
  campaign:string ->
  worker:Reldb.Value.t ->
  now:int ->
  (task_ref * Engine.open_tuple * string option) option
(** Grant the worker a task: shards are probed starting at
    [hash worker mod N] (each worker's home shard — spreading load
    deterministically), first grant wins. [None] when no shard has an
    assignable task for this worker. Crashed shards are skipped. *)

type answer_result =
  | Accepted of Engine.event
  | Rejected of Engine.reject
  | Shard_down of int  (** the owning shard is crashed; recover it *)

val supply :
  t ->
  campaign:string ->
  task_ref ->
  worker:Reldb.Value.t ->
  (string * Reldb.Value.t) list ->
  answer_result
(** Route an answer to the task's owning shard ({!Cylog.Engine.supply});
    on success the shard's engine runs to quiescence before the reply. *)

val answer_existence :
  t ->
  campaign:string ->
  task_ref ->
  worker:Reldb.Value.t ->
  bool ->
  answer_result

val decline : t -> campaign:string -> task_ref -> unit
(** Dead-letter a task without an answer; no-op on crashed shards. *)

val reclaim : t -> campaign:string -> now:int -> int
(** Expire overdue leases on every live shard; total leases reclaimed. *)

val sample : t -> campaign:string -> round:int -> (int * Monitor.firing) list
(** Take a monitor sample on every live shard; the alerts that fired,
    tagged with their shard. *)

(** {1 Resolution polling} *)

type cursor
(** A per-shard position in each engine's event log — lets a client
    ingest resolutions incrementally instead of rescanning. *)

val poll_cursor : t -> campaign:string -> cursor
(** A cursor at the campaign's current log end: the next poll reports
    only resolutions from now on. *)

type resolution =
  | Task_resolved of { task : task_ref; quorum : bool }
      (** retired by answer — [quorum] when a banked vote resolved it *)
  | Task_dead of { task : task_ref; reason : Lease.reason }

val resolve_poll : t -> campaign:string -> cursor -> resolution list
(** Resolutions recorded since the cursor's positions, shard by shard in
    log order; advances the cursor. Crashed shards are skipped (their
    positions stay, so recovery resumes the poll without loss). *)

(** {1 Fleet view and recovery} *)

val pending_total : t -> int
val stats : t -> Fleet.t
(** Scatter-gather over the live shards: merged metrics (fleet totals
    plus ["shard<i>."] views, including this server's own registry),
    merged monitor, merged certificates, exact request-latency
    percentiles. *)

val recover_shard :
  t ->
  int ->
  campaign:string ->
  ?storage:(module Storage.S) ->
  unit ->
  Engine.recovery_stats
(** Rebuild one shard's slot from its journal ({!Shard.recover_slot}) —
    the operator's repair verb after a [Shard_down] reply. *)
