(** The engine's event vocabulary, as a leaf module.

    {!Cylog.Engine} re-exports every type here with a type equation
    ([type effect = Event.effect = ...]), so existing code keeps writing
    [Engine.Inserted] — this module only exists so layers that fold over
    the event log without driving the engine (notably {!Cylog.Monitor})
    can sit below Engine in the dependency order. *)

type open_id = int

(** A watchdog verdict (see {!Cylog.Monitor}). Every constructor carries
    both the observed value and the configured limit, so the journalled
    [Alert_fired] effect is self-contained and the recount fold reads the
    firing from the event instead of re-deciding it. *)
type alert =
  | Budget_exceeded of { spent : int; budget : int }
  | Latency_breached of { p99 : int; limit : int }
      (** [p99] is the end-to-end task-latency p99 (logical clock ticks),
          rounded to the nearest integer *)
  | Agreement_low of { pct : int; floor : int }
  | Dead_letters_high of { pct : int; ceiling : int }
  | Stalled of { samples : int; limit : int }
      (** [samples] consecutive monitor samples saw pending tasks but no
          progress *)

val alert_key : alert -> string
(** Stable, space-free identifier ([budget], [latency], [agreement],
    [dead_letter], [stall]) — metric-key suffixes and alert latching. *)

val alert_numbers : alert -> int * int
(** [(observed, limit)] — the comparison every alert expresses. *)

val alert_to_string : alert -> string
(** Human-readable one-liner. *)

(** Identical to the historical [Engine.effect], plus the monitor
    vocabulary: [Resolved] (see {!Cylog.Fold.retirements}), [Sampled] (a
    monitor round-boundary sample) and [Alert_fired]. *)
type effect =
  | Inserted of string * Reldb.Tuple.t
  | Updated of string * Reldb.Tuple.t
  | Deleted of string * int
  | Awarded of (Reldb.Value.t * Reldb.Value.t) list
  | Open_created of open_id
  | No_effect
  | Vote_recorded of open_id * int
  | Dead_lettered of open_id * Lease.reason
  | Adaptive_resolved of { open_id : open_id; posterior_pct : int; escalated : bool }
  | Resolved of open_id
  | Sampled of { round : int }
  | Alert_fired of { round : int; alert : alert }

type event = {
  clock : int;
  statement : int;
  label : string option;
  valuation : (string * Reldb.Value.t) list;
  fired : bool;
  effects : effect list;
  by_human : Reldb.Value.t option;
}
