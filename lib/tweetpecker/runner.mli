(** End-to-end execution of one TweetPecker variant: build the CyLog
    program over a corpus, load the engine, attach the crowd, simulate to
    termination, and collect everything the Section 8 analyses need. *)

type outcome = {
  variant : Programs.variant;
  corpus : Tweets.Generator.tweet list;
  workers : Crowd.Worker.profile list;
  agreed : (int * string * string) list;
      (** (tweet id, attribute, value), in agreement order *)
  agreed_events : (int * int * string * string) list;
      (** (engine clock, tweet id, attribute, value), chronological *)
  rules_entered : (int * Tweets.Extraction.rule * string) list;
      (** (rid, rule, worker), in entry order — empty for VE/VE\/I *)
  extracts : (int * string * string * int) list;
      (** (tweet id, attribute, value, rid) machine extractions *)
  payoffs : (string * int) list;  (** accumulated score per worker *)
  sim : Crowd.Simulator.outcome;
  engine : Cylog.Engine.t;  (** final engine state, for further queries *)
  recoveries : Cylog.Engine.recovery_stats list;
      (** one entry per crash the campaign survived (storage faults
          only), in order *)
}

val default_workers : Programs.variant -> Crowd.Worker.profile list
(** The paper's five-person crowd per variant: diligent workers throughout;
    haphazard rule entry under VRE, the rational front-loaded strategy
    under VRE/I. *)

val run :
  ?seed:int -> ?corpus:Tweets.Generator.tweet list ->
  ?workers:Crowd.Worker.profile list -> ?strategy:Cylog.Engine.strategy ->
  ?lease:Cylog.Lease.config -> ?policy:Cylog.Engine.quorum_policy ->
  ?monitor:Cylog.Monitor.config -> ?faults:Crowd.Faults.fault list ->
  ?sink:Cylog.Telemetry.Sink.t -> ?journal:string ->
  ?storage_faults:Crowd.Faults.storage_fault list -> Programs.variant -> outcome
(** Run a variant to termination (all (tweet, attribute) pairs agreed) on
    the standard corpus (463 tweets) with the default crowd. [strategy]
    is passed through to {!Cylog.Engine.load} — [~strategy:Reference]
    selects the rescan evaluation the differential tests hold the
    default [Optimized] to. [lease]
    and [policy] are passed through to {!Crowd.Simulator.run} (lease
    runtime, and [Fixed] or [Adaptive] redundant assignment); [monitor]
    installs the campaign monitor, and any watchdog firing stops the
    campaign with [`Alert] (see {!Crowd.Simulator.run}); [faults] wraps
    every worker with {!Crowd.Faults.inject} under the same [seed]. [sink] installs a tracing sink on the engine
    before the campaign starts (see {!Cylog.Telemetry.Sink}); the
    engine's metrics registry is reachable afterwards through
    [outcome.engine].

    [journal] runs the campaign with a durable WAL in that directory
    ({!Cylog.Engine.journal_start}) under {!Cylog.Journal.default_config},
    before and after any recovery.
    [storage_faults] additionally swaps the journal's storage for the
    fault-injecting in-memory simulator under the given profile (seeded
    by the same [seed] as the crowd; see {!Crowd.Faults.storage_plan}) —
    when the storage crashes or fills mid-campaign, the runner recovers
    from the surviving byte image via {!Cylog.Engine.recover} and
    resumes the same crowd on the recovered engine, recording one
    {!Cylog.Engine.recovery_stats} per crash in [outcome.recoveries].
    Worker faults and storage faults compose in one run. *)

val completion : outcome -> float
(** Fraction of (tweet, attribute) pairs with an agreed value — 1.0 on a
    normally terminated run. *)

val agreed_lookup : outcome -> tweet_id:int -> attr:string -> string option
(** Agreed value accessor, as needed by confidence computations. *)
