(** Engine telemetry: a metrics registry and structured tracing spans.

    The paper's central claim — that logic and incentive concerns can be
    separated and {e independently observed} — is only checkable if the
    runtime can explain itself. This module provides the two observation
    channels the engine, planner, lease runtime, quorum runtime and crowd
    simulator thread their instrumentation through:

    - {b Metrics}: a lightweight registry of named counters, gauges and
      fixed-bucket histograms. Counters under the journal-derived
      namespaces are recomputable from {!Cylog.Engine.events}, which is
      what makes checkpoint/restore reproduce identical registries (the
      invariant the telemetry differential tests pin down).
    - {b Tracing}: hierarchical spans with {e deterministic} identities —
      span ids are sequence counters and timestamps are the engine's
      logical clock, never wall time, so traces are byte-stable under
      [snapshot]/[restore] replay.

    Everything is engineered to cost (almost) nothing when unobserved:
    the default sink is {!Sink.null} (span entry is one pointer compare,
    no allocation) and {!Metrics.set_enabled}[ m false] turns every
    registry update into a single boolean test. *)

(** {1 Metrics} *)

module Metrics : sig
  type t

  val create : unit -> t
  (** Fresh, empty, enabled registry. *)

  val enabled : t -> bool

  val set_enabled : t -> bool -> unit
  (** With [false], every update below is a no-op (one boolean test) —
      the kill switch the null-sink overhead benchmark measures. Reads
      are unaffected. *)

  val incr : t -> ?by:int -> string -> unit
  (** Add [by] (default 1) to a counter, creating it at 0 first. *)

  val set_gauge : t -> string -> int -> unit
  (** Set a gauge to an absolute value. *)

  val observe : t -> string -> int -> unit
  (** Record a sample into a fixed-bucket histogram (bucket upper bounds
      1, 2, 5, 10, 25, 50, 100, 250, 1000, +inf). *)

  val counter : t -> string -> int
  (** Current counter value; 0 when never incremented. *)

  val gauge : t -> string -> int option

  val counters : t -> (string * int) list
  (** All counters, sorted by name. *)

  val gauges : t -> (string * int) list

  type histogram = {
    bounds : int array;  (** bucket upper bounds (inclusive) *)
    counts : int array;  (** [Array.length bounds + 1] cells; last = overflow *)
    sum : int;
    count : int;
  }

  val histograms : t -> (string * histogram) list

  val histogram : t -> string -> histogram option
  (** One histogram by name; [None] when nothing was ever observed
      under it. *)

  val quantile : histogram -> float -> float
  (** [quantile h q] is the interpolated [q]-quantile ([0. <= q <= 1.],
      clamped) of the samples [h] bucketed: the bucket containing rank
      [q * count] is found and the value interpolated linearly within its
      bounds. Samples in the overflow bucket report the last bound — a
      lower bound on the true quantile. [0.] when the histogram is empty.
      The bucket wire format is unchanged; this is a read-side accessor
      (how [:stats] and the campaign monitor print p50/p95/p99). *)

  val equal : t -> t -> bool
  (** Same counters, gauges and histograms (names and values). *)

  val merge : ?prefix:string -> into:t -> t -> unit
  (** Fold one registry into another — the fleet scatter-gather primitive.
      Registries have always been instantiable (one per engine), so N
      engine shards in one process never interleave counters; [merge] is
      how an observer combines them into one view without collisions.
      Counters are summed, gauges are summed, and histograms with equal
      bucket bounds are summed cell by cell (a histogram whose bounds
      disagree with an existing one under the same name is skipped —
      every registry in this codebase uses the default bounds). [prefix]
      namespaces every metric on the way in (e.g. ["shard3."]), so a
      per-shard view and an unprefixed fleet total can coexist in the
      same target. The source is never mutated; merging into a disabled
      registry is a no-op, and the single-registry write path is
      untouched. *)

  val to_json : t -> string
  (** The whole registry as one JSON object:
      [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable dump, sorted by name — the REPL's [:stats]. *)
end

(** {1 Tracing spans} *)

type span = {
  id : int;  (** sequence number, deterministic across replay *)
  parent : int;  (** enclosing span id; 0 at the root *)
  name : string;  (** e.g. [campaign], [round], [rule], [atom-match] *)
  started : int;  (** logical clock when the span was entered *)
  ended : int;  (** logical clock when the span was closed *)
  attrs : (string * string) list;
}

val span_to_json : span -> string
(** One span as a single JSON line (no trailing newline). *)

val json_escape : string -> string
(** The string escaper behind {!Metrics.to_json} and {!span_to_json},
    exported so other JSON surfaces (e.g. the quality report) emit the
    same dialect instead of growing a second printer. *)

module Sink : sig
  type t

  val null : t
  (** Discards everything; the default. Checked by pointer identity on
      the hot path, so instrumentation under [null] never allocates. *)

  val is_null : t -> bool

  val ring : int -> t
  (** In-memory ring buffer keeping the last [capacity] spans. *)

  val contents : t -> span list
  (** Buffered spans, chronological; [[]] for non-ring sinks. *)

  val jsonl : out_channel -> t
  (** Writes each completed span as one JSON line. The caller owns the
      channel (flush/close). *)

  val fn : (span -> unit) -> t
  (** Custom callback per completed span. *)
end

(** {1 The telemetry handle}

    One per engine. Spans form a stack: [enter] pushes, [exit] pops and
    emits to the sink; [emit] records a point span (same start and end
    clock) parented to the innermost open span. *)

type t

type handle
(** An open span. {!none} is the inert handle returned while the sink is
    {!Sink.null}; exiting it is a no-op. *)

val none : handle

val create : unit -> t
(** Fresh telemetry: the {!Sink.null} sink (swap it with {!set_sink}) and
    a fresh, enabled metrics registry. *)

val metrics : t -> Metrics.t
val sink : t -> Sink.t

val set_sink : t -> Sink.t -> unit
(** Swap the sink. Do not swap while spans are open (open spans keep
    stack hygiene but may be emitted inconsistently). *)

val tracing : t -> bool
(** [sink t != Sink.null] — instrumentation sites use this to skip
    attribute construction entirely when nobody is listening. *)

val enter : t -> ?attrs:(string * string) list -> string -> clock:int -> handle
(** Open a span. Under {!Sink.null} returns {!none} without consuming a
    span id. *)

val exit : t -> ?attrs:(string * string) list -> handle -> clock:int -> unit
(** Close a span, appending [attrs] to those given at {!enter}, and emit
    it. *)

val emit : t -> ?parent:handle -> ?attrs:(string * string) list -> string ->
  clock:int -> unit
(** A point span: entered and exited at the same clock. [parent]
    overrides the innermost open span as the parent — how events about a
    long-lived task (leases, votes) attach to its "task" span after the
    creating rule's span closed. *)
