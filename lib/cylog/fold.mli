(** The one fold over the engine's event log: the journal-derived
    counters of the registry, and the campaign totals, pending tasks,
    lifecycle histograms and alert bookkeeping that {!Cylog.Monitor}
    renders. The engine applies it to every event it records; a recount
    ({!Cylog.Engine.metrics_of_events}, {!Cylog.Monitor.of_events}),
    restore and recovery apply it to a fresh state, so live state equals
    a recount by construction while the registry stays enabled. The
    state is derived and never serialised. *)

type firing = { at_round : int; at_clock : int; alert : Event.alert }

(** How a task left the pending pool. *)
type retirement =
  | Answered of Event.open_id  (** a non-quorum answer ([Resolved]) *)
  | Quorum_resolved of Event.open_id
      (** the final vote: a [Vote_recorded] riding with other effects *)
  | Dead of Event.open_id * Lease.reason  (** [Dead_lettered] *)

val retirements : Event.event -> retirement list
(** The tasks an event retires, in effect order. A [Vote_recorded] alone
    only banks a vote. The one decoder of these shapes: the fold and the
    server's [resolve_poll] both read it. *)

val writes : Event.event -> bool
(** The event wrote a relation ([Inserted], [Updated], [Deleted] or
    [Awarded]). Rules read only relations, so from quiescence only such
    an event can give a rule an instance to fire: the server's shard runs
    the engine after an accepted answer only when it wrote. *)

val vote : Event.event -> (Event.open_id * int) option
(** The vote an event records: the task and the votes now banked on it. *)

type voted
(** A pending task's first vote and the value ballots of the votes that
    left it pending. *)

type t = private {
  created : (Event.open_id, int) Hashtbl.t;
      (** the creation clock of every pending task; standing tasks never
          retire *)
  voted : (Event.open_id, voted) Hashtbl.t;  (** pending tasks with a vote *)
  lifecycle : Telemetry.Metrics.t;  (** the [lifecycle.*] histograms *)
  mutable answers : int;
  mutable payoff_spent : int;  (** sum of positive awarded deltas *)
  mutable resolved : int;
  mutable dead : int;
  mutable votes_agree : int;
  mutable votes_total : int;
  mutable posterior_sum : int;
  mutable posterior_n : int;
  mutable samples : int;
  mutable last_progress : int;  (** answers + retirements at the last sample *)
  mutable idle_samples : int;
  mutable firings : firing list;  (** newest first; a fired kind is latched *)
}

val create : unit -> t

val apply : t -> Telemetry.Metrics.t -> Event.event -> unit
(** Fold one event, bumping the registry's journal-derived counters (see
    {!Cylog.Engine.journal_derived}). *)

val stall : t -> int
(** The idle count a sample taken now records: consecutive samples, this
    one included, that saw pending tasks and no answer or retirement. *)

val stmt_key : string option -> int -> string
(** A statement's label, else its index: per-rule counter suffix and span
    attribute. *)

val reason_key : Lease.reason -> string
(** [timed_out], [rejected_answers] or [declined]: the dead-letter reason
    in metric keys and span attributes. *)
