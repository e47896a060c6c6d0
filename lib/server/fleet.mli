(** Scatter-gather: one fleet view over N shards' observability surfaces.

    Each shard's engines carry their own telemetry registry, campaign
    monitor and budget certificate; this module merges them into a single
    fleet dashboard without touching any live state — every input is read
    through the engines' public accessors, so gathering is a pure
    observation the differential tests can take before and after.

    The merge rules:
    - {b metrics}: each shard's registries fold into one target twice —
      under a ["shard<i>."] prefix (the per-shard view) and unprefixed
      (the fleet total) — via {!Cylog.Telemetry.Metrics.merge};
    - {b monitor}: totals are summed, per-round series points are merged
      round by round (sums for counts, maxima for ages and latency
      quantiles — a conservative fleet SLO read), lifecycle histograms
      with equal bounds are summed cell by cell, and alert firings keep
      their shard of origin;
    - {b certificates}: cardinality bounds add with saturation, and any
      [Unbounded]/[Bounded_by_input] summand infects the fleet total —
      the fleet budget is certified only if every shard's is;
    - {b latency}: request service times stay raw nanosecond samples, so
      fleet p50/p95/p99 are exact order statistics, not bucket
      interpolations. *)

open Cylog

val card_add : Analysis.card -> Analysis.card -> Analysis.card
(** Saturating addition on the analysis domain: [Finite] sums cap at
    10^9; [Zero] is neutral; [Bounded_by_input] absorbs finite summands;
    [Unbounded r] absorbs everything (left reason wins). *)

val percentiles : int array -> float -> float
(** [percentiles samples] sorts one copy of raw samples and reads from
    it the exact order statistic (nearest-rank with linear interpolation)
    at each quantile it is given; [0.] on an empty array. The input is
    not mutated. *)

(** The fleet-wide campaign monitor read. *)
type monitor_view = {
  f_spent : int;
  f_answers : int;
  f_pending : int;
  f_retired : int;
  f_samples : int;  (** max over shards — shards sample the same rounds *)
  f_agreement_pct : int;  (** recomputed from summed vote counts; -1 if none *)
  f_dead_letter_pct : int;  (** recomputed from summed retirements *)
  f_histograms : (string * Telemetry.Metrics.histogram) list;
  f_points : Monitor.point list;  (** merged per round, ascending *)
  f_firings : (int * Monitor.firing) list;  (** (shard, firing), by round *)
}

val merge_monitors : (int * Monitor.t) list -> monitor_view option
(** [None] when no shard has a monitor installed. *)

(** The fleet-wide budget certificate read. *)
type cert_view = {
  c_shards : int;  (** shards contributing a certificate *)
  c_total_tasks : Analysis.card;
  c_total_answers : Analysis.card;
}

val merge_certificates : (int * Analysis.certificate) list -> cert_view option
(** Sums the (shard id, slot certificate) pairs' bounds; [None] when
    there are none. *)

(** What one shard contributes to the gather — plain data, so this module
    depends only on the engine layer. *)
type shard_input = {
  s_id : int;
  s_engines : Engine.t list;  (** live slots (crashed slots excluded) *)
  s_metrics : Telemetry.Metrics.t;  (** the shard's [shard.*] registry *)
  s_latencies_ns : int array;
}

type t = {
  shards : int;
  live_shards : int;  (** shards that contributed (not crashed) *)
  requests : int;  (** total pumped requests across the fleet *)
  pending : int;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  metrics : Telemetry.Metrics.t;  (** fleet totals + ["shard<i>."] views *)
  monitor : monitor_view option;
  certificate : cert_view option;
}

val gather : total_shards:int -> shard_input list -> t
(** One fleet view over the given shards' current state. *)

val to_json : t -> string
(** The fleet view as one deterministic JSON object ([shards], [pending],
    [latency_ns], [monitor], [certificate], [metrics]). *)

val pp : Format.formatter -> t -> unit
(** Human-readable fleet dashboard — what [tweetpecker serve] prints. *)
