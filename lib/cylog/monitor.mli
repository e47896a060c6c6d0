(** The campaign monitor: task-lifecycle latency tracing, per-round
    cost/latency/quality time series, and budget/SLO watchdogs.

    The survey frames every crowdsourcing design decision as a trade in
    the cost/latency/quality trilemma; this module is the instrument that
    reads all three axes off a running campaign. It is installed into an
    engine with {!Cylog.Engine.set_monitor} and sampled at round
    boundaries with {!Cylog.Engine.monitor_sample}; the crowd simulator
    does both when given a monitor config.

    {b Derivability.} A monitor is a config and a bounded series over a
    {!Cylog.Fold}: the totals, pending tasks, lifecycle histograms and
    alert latches it reports are the fold's, and the live monitor reads
    the engine's own fold, the one that also feeds the registry's
    journal-derived counters. Its whole state is therefore one fold over
    the engine's event log: {!of_events}[ config (Engine.events t)]
    rebuilds the live monitor exactly (compare with {!view}), before and
    after snapshot/restore and crash recovery. Sampling emits a
    journalled event whose [Sampled]/[Alert_fired] effects carry the
    evidence, so the fold {e reads} firings back instead of re-deciding
    them — the [Adaptive_resolved] precedent. Like the metrics recount,
    the contract assumes the telemetry registry stayed enabled for the
    whole run ({!Cylog.Telemetry.Metrics.set_enabled} mid-run suspends
    sampling and lifecycle recording entirely).

    {b Lifecycle tracing.} Every task is timed over the logical clock
    from [Open_created] to its retiring event, feeding fixed-bucket
    histograms with interpolated quantiles
    ({!Cylog.Telemetry.Metrics.quantile}):
    [lifecycle.first_answer] (created → first accepted answer/vote),
    [lifecycle.decision] (first answer → retired),
    [lifecycle.resolve] / [lifecycle.dead_letter] (created → retired, by
    outcome) and [lifecycle.end_to_end] (created → retired, either way —
    the histogram the p99 SLO watches). Standing ({e repeatable}) tasks
    never retire and contribute answer counts and cost only. *)

type config = {
  series_capacity : int;  (** ring capacity of the series (default 256) *)
  cost_per_answer : int;
      (** budget units charged per accepted answer, on top of positive
          payoff awards (default 1) *)
  max_budget : int option;  (** fire [Budget_exceeded] when spent exceeds *)
  certified_bound : int option;
      (** the static budget certificate's total spend bound
          ({!Cylog.Analysis}, in budget units); filled by
          [Engine.set_monitor] when the certificate is finite and no
          explicit [max_budget] is armed — the budget watchdog falls back
          to it, so an admission-checked campaign is budget-fenced even
          without manual configuration *)
  max_p99_latency : int option;
      (** fire [Latency_breached] when the end-to-end p99 exceeds this
          many clock ticks *)
  min_agreement_pct : int option;
      (** fire [Agreement_low] when the quorum agreement rate drops below *)
  max_dead_letter_pct : int option;
      (** fire [Dead_letters_high] when the dead-lettered share of
          retired tasks exceeds *)
  stall_samples : int option;
      (** fire [Stalled] after this many consecutive samples with pending
          tasks but no progress (no new answer or retirement) *)
}

val default_config : config
(** Capacity 256, one budget unit per answer, no thresholds armed. *)

(** One round-boundary sample of the campaign's three axes. Percent
    fields are [-1] when no sample exists yet (rendered as [null] in
    JSON). *)
type point = {
  p_round : int;
  p_clock : int;
  p_spent : int;  (** answers bought × cost + positive payoff awards *)
  p_answers : int;
  p_pending : int;
  p_oldest_age : int;  (** age of the oldest pending task; 0 when none *)
  p_e2e_p50 : float;
  p_e2e_p95 : float;
  p_e2e_p99 : float;  (** interpolated end-to-end latency quantiles *)
  p_agreement_pct : int;
  p_posterior_pct : int;  (** mean adaptive resolution posterior *)
  p_dead_letter_pct : int;
}

type firing = Fold.firing = { at_round : int; at_clock : int; alert : Event.alert }

type t

val of_events : config -> Event.event list -> t
(** {b The definition} of monitor state: a fresh {!Cylog.Fold} of the
    event log, with a series point pushed at every [Sampled] event. *)

val create : config -> Fold.t -> Telemetry.Metrics.t -> Event.event list -> t
(** [create config fold m events] applies [events] to [fold] and [m] as
    {!of_events} does, and returns the monitor that reads [fold] from then
    on: the engine passes its own fold and registry, so a monitor adds no
    second fold per event. *)

val check : t -> round:int -> clock:int -> Event.alert list
(** Take a round-boundary sample at [clock]: push its series point (the
    sample's own event, recorded next by {!Cylog.Engine.monitor_sample},
    moves nothing a point reads), then evaluate the armed watchdogs. Each
    alert kind fires at most once per monitor lifetime: it is latched
    when the journalled [Alert_fired] flows back through the fold. *)

val spent : t -> int
val answers : t -> int
val samples : t -> int

val histograms : t -> (string * Telemetry.Metrics.histogram) list
(** The lifecycle histograms, sorted by name. *)

val points : t -> point list
(** Retained series points, oldest first (at most
    [config.series_capacity]). *)

val firings : t -> firing list
(** Alert firings, chronological (never evicted). *)

type view = {
  v_samples : int;
  v_spent : int;
  v_answers : int;
  v_resolved : int;
  v_dead : int;
  v_pending : (Event.open_id * int) list;  (** (id, created-at), sorted *)
  v_votes_agree : int;
  v_votes_total : int;
  v_posterior_sum : int;
  v_posterior_n : int;
  v_histograms : (string * Telemetry.Metrics.histogram) list;
  v_points : point list;
  v_dropped_points : int;
  v_firings : firing list;
  v_latched : string list;
}

val view : t -> view
(** The whole state as comparable data — what the recount property tests
    compare with [=] across live/fold/restore/recover. *)

val to_json : t -> string
(** One JSON object: config, totals, lifecycle quantiles, the series and
    the alerts — the payload behind [Engine.monitor_json] and
    [--monitor-out]. *)

val to_jsonl : t -> string
(** One JSON object per line (series points then alerts, each tagged with
    a ["type"] field) — written when [--monitor-out] targets a [.jsonl]
    path. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dashboard — the REPL's [:monitor]. *)
