(** The crowd simulation loop.

    The engine computes machine consequences and suspends on open tuples;
    the simulator plays the crowd: each round, workers take turns (in a
    seeded random order) choosing which pending open tuple to answer and
    with what values — exactly the two decisions the paper leaves to human
    intelligence. Every action is logged with the logical clock and a
    caller-supplied progress measure, which is what the Figure 11/12
    analyses consume. *)

type action_kind =
  | Enter_value  (** typed a value into the form (Figure 2 (b)) *)
  | Select_value  (** accepted a machine-extracted candidate (Figure 2 (c)) *)
  | Reject_value  (** answered no to a candidate *)
  | Enter_rule  (** submitted an extraction rule (Figure 2 bottom) *)

type log_entry = {
  round : int;
  clock : int;  (** engine clock after the action *)
  worker : Reldb.Value.t;
  kind : action_kind;
  relation : string;
  values : (string * Reldb.Value.t) list;
      (** supplied values; for selections, the bound tuple's bindings *)
  progress : float;  (** caller-defined completion measure at action time *)
}

(** What a worker decides to do on their turn. *)
type decision =
  | Answer of Cylog.Engine.open_id * (string * Reldb.Value.t) list * action_kind
  | Answer_existence of Cylog.Engine.open_id * bool
  | Pass  (** nothing to do this turn *)

(** A policy receives the engine (to inspect pending open tuples and the
    database), its own worker identity, a seeded RNG, and the current
    round; it returns one decision. *)
type policy =
  Cylog.Engine.t -> worker:Reldb.Value.t -> rng:Random.State.t -> round:int -> decision

type worker_stat = {
  routed : int;
      (** times the worker reached the answering step (lease granted or
          leases off) — under {!run_routed}, times the router gave them a
          task *)
  answered : int;  (** answers the engine accepted *)
  early_stop_credit : int;
      (** early-stopped adaptive resolutions this worker's banked vote
          contributed to (0 unless an [Adaptive] policy is installed) *)
}

type outcome = {
  log : log_entry list;  (** chronological *)
  rounds : int;  (** rounds actually executed (not the last logged round) *)
  stop_reason :
    [ `Stopped | `Stalled | `Max_rounds | `Alert of Cylog.Monitor.firing ];
      (** [`Stopped]: the stop condition held; [`Stalled]: every worker
          passed on a full round; [`Max_rounds]: safety bound hit;
          [`Alert f]: a campaign-monitor watchdog fired and the [on_alert]
          reaction asked to stop (the firing carries the alert and the
          round it tripped on) *)
  rejections : (Reldb.Value.t * int) list;
      (** rejected [supply]/[answer_existence]/[assign] attempts per
          worker (sorted by worker) — garbage answers, stale ids, lease
          refusals; workers with none are absent *)
  capped_runs : int;
      (** machine runs that hit the step cap instead of quiescing — any
          nonzero value means the campaign's results are truncated *)
  dead_letters : (Cylog.Engine.open_tuple * Cylog.Lease.reason) list;
      (** tasks abandoned by the lease runtime, from
          {!Cylog.Engine.dead_letters} *)
  worker_stats : (Reldb.Value.t * worker_stat) list;
      (** per-worker campaign tallies (sorted by worker); workers who
          never reached the answering step are absent *)
}

val run :
  ?seed:int -> ?max_rounds:int -> ?progress:(Cylog.Engine.t -> float) ->
  ?lease:Cylog.Lease.config -> ?policy:Cylog.Engine.quorum_policy ->
  ?monitor:Cylog.Monitor.config ->
  ?on_alert:(Cylog.Monitor.firing -> [ `Warn | `Pause | `Stop ]) ->
  stop:(Cylog.Engine.t -> bool) ->
  workers:(Reldb.Value.t * policy) list ->
  Cylog.Engine.t -> outcome
(** Drive the engine to quiescence, then let workers act one decision per
    turn, re-running the machine after each action, until [stop] holds,
    all workers pass, or [max_rounds] (default 10_000) elapses. [progress]
    (default: constant 0) is sampled before each action.

    [lease] turns on the engine's lease runtime with the round number as
    logical time: overdue leases are reclaimed at the start of each round
    and a worker's decision only goes through if {!Cylog.Engine.assign}
    grants (or renews) them a lease first — a refusal counts as a
    rejection and the attempt is skipped. [policy] installs redundant
    assignment ({!Cylog.Engine.set_quorum_policy}): under [Fixed k]
    undesignated one-shot tasks resolve by plurality over [k] answers,
    under [Adaptive] by confidence.

    [monitor] installs the campaign monitor ({!Cylog.Engine.set_monitor})
    before the first round; with or without it, whenever a monitor is
    installed on the engine the simulator takes one
    {!Cylog.Engine.monitor_sample} at the end of every round, so the
    series has one point per round and the watchdogs are checked at round
    granularity. Each alert that fires is passed to [on_alert]
    (default: every alert stops the campaign): [`Stop] ends the campaign
    with [`Alert f]; [`Pause] makes the next round a cooldown — lease
    reclaim and the machine still run but no worker takes a turn;
    [`Warn] carries on (the firing is already journaled and counted). *)

val shuffle : Random.State.t -> 'a list -> 'a list
(** A seeded Fisher–Yates shuffle: the turn order of each round, and the
    shuffle {!Fleet_sim} and the TweetPecker policies draw from. *)

val noisy_answer : Random.State.t -> accuracy:float -> Reldb.Value.t -> Reldb.Value.t
(** [noisy_answer rng ~accuracy correct] is a synthetic worker's answer:
    [correct] with probability [accuracy], otherwise one of two
    item-specific wrong labels, ["<correct>#1"] or ["<correct>#2"], so
    sloppy crowds can still pile up on a wrong plurality. Draws one
    float, then one int only for a wrong answer. *)

val run_routed :
  ?seed:int -> ?policy:Cylog.Engine.quorum_policy ->
  truth:(Cylog.Engine.open_tuple -> (string * Reldb.Value.t) list) ->
  workers:(Reldb.Value.t * Worker.profile) list ->
  Cylog.Engine.t -> outcome
(** Quality-aware campaign: {!run} with one routing policy per worker, so
    assignment is driven by {!Quality.Router} (its
    {!Quality.Router.default_config}) instead of by each worker's own
    choice. On their turn a worker asks the router for work; workers
    under the reliability floor get none and pass, the rest get the
    pending value question with the highest
    {!Cylog.Engine.task_uncertainty} that they have not voted on and that
    is not designated for someone else. The worker answers each open
    attribute with {!noisy_answer} at [profile.accuracy] around [truth o]
    — {!Worker.profile} accuracies double as the campaign's ground truth.
    Existence questions are never routed. Stops when no value questions
    remain pending ([`Stopped]), after five consecutive idle rounds
    ([`Stalled] — e.g. every worker is below the floor), or after
    {!run}'s 10,000 rounds. [seed] and [policy] are {!run}'s. *)
