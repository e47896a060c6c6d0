(** The CyLog execution engine.

    The engine owns a database and an effective statement list (the
    program's rules followed by the desugared game-aspect rules) and fires
    one statement instance per {!step}, following the paper's conflict
    resolution: statements are prioritised by their position in the code,
    and among the valuations of one statement the instance valued by tuples
    at the earliest rows fires first (a closed-loop hierarchical linear
    strategy).

    Open-headed instances do not insert; they create {e open tuples} that
    suspend until a human supplies values through {!supply} (or answers an
    existence question through {!answer_existence}). Which pending open
    tuple is answered first — and with what values — is exactly the
    human half of the computation; the engine never chooses.

    Every fired or evaluated instance is memoised on the identity (row and
    update-version) of its supporting tuples, so an instance fires at most
    once per arrival of its support, reproducing the trace of Figure 13
    and the dataflow semantics of Section 9.1. *)

type t

type open_id = int

type origin = Main | Game_path of string | Game_payoff of string

type open_tuple = {
  id : open_id;
  statement : int;  (** index into {!statements} *)
  label : string option;
  relation : string;
  bound : Reldb.Tuple.t;  (** attributes already determined by logic *)
  open_attrs : string list;  (** attributes awaiting human values *)
  asked : Reldb.Value.t option;  (** designated worker ([/open[p]]), if any *)
  existence : bool;
      (** all attributes bound: the human is asked whether the tuple should
          exist (footnote 5 of the paper) *)
  repeatable : bool;
      (** the target relation auto-increments an unmentioned key (e.g.
          [Rules.rid]), so every answer creates a distinct tuple: the open
          tuple is a standing task that stays pending after {!supply} —
          how VRE lets workers enter unboundedly many extraction rules *)
  created_at : int;  (** engine clock at creation *)
}

(** The event vocabulary is defined in {!Cylog.Event} (a leaf module, so
    the campaign monitor can fold over the log from below the engine) and
    re-exported here with type equations: [Engine.Inserted] and
    [Event.Inserted] are the same constructor. *)
type effect = Event.effect =
  | Inserted of string * Reldb.Tuple.t
  | Updated of string * Reldb.Tuple.t
  | Deleted of string * int  (** relation, how many tuples *)
  | Awarded of (Reldb.Value.t * Reldb.Value.t) list  (** player, delta *)
  | Open_created of open_id
  | No_effect  (** e.g. duplicate insertion *)
  | Vote_recorded of open_id * int
      (** a quorum task banked its [n]-th answer (see {!set_quorum_policy}) *)
  | Dead_lettered of open_id * Lease.reason
      (** the task left the pending pool unanswered (see {!dead_letters}) *)
  | Adaptive_resolved of { open_id : open_id; posterior_pct : int; escalated : bool }
      (** an [Adaptive] quorum task resolved: early (the weakest answer
          slot's posterior reached tau — [posterior_pct] is that posterior
          in percent) or by escalation ([escalated = true]: the vote cap
          was hit and the fallback aggregate decided). Rides in the same
          event as the final [Vote_recorded] and the insertion, so every
          adaptive metric recounts from the journal (see
          {!metrics_of_events}). *)
  | Resolved of open_id
      (** a non-quorum task left the pending pool by answer;
          {!Cylog.Fold.retirements} reads which events retire which
          tasks *)
  | Sampled of { round : int }
      (** a {!monitor_sample} round-boundary sample *)
  | Alert_fired of { round : int; alert : Event.alert }
      (** a monitor watchdog fired; the alert carries observed value and
          limit, so the recount fold reads it back instead of re-deciding
          (the [Adaptive_resolved] precedent) *)

type event = Event.event = {
  clock : int;
  statement : int;  (** [-1] for monitor sample events *)
  label : string option;
  valuation : (string * Reldb.Value.t) list;
  fired : bool;  (** false: a trailing filter rejected the instance *)
  effects : effect list;
  by_human : Reldb.Value.t option;  (** worker for human-caused events *)
}

exception Runtime_error of string

(** Why {!supply}/{!answer_existence} rejected an answer. Typed so
    simulators and quality layers can react per cause instead of parsing
    message strings. *)
type reject =
  | Stale of open_id  (** no pending open tuple with that id *)
  | Not_lease_holder
      (** the task is designated for, or leased at capacity to, others *)
  | Wrong_question
      (** [supply] on an existence question, or [answer_existence] on a
          value question *)
  | Already_voted  (** this worker already answered this quorum task *)
  | Wrong_attrs of { expected : string list; given : string list }
      (** attribute sets differ (both sorted) *)
  | Type_mismatch of { attr : string; value : Reldb.Value.t }
      (** the value's type contradicts the relation's existing column *)

val reject_to_string : reject -> string

(** How a quorum task decides it has heard enough:

    - [Fixed k] — resolve on exactly [k] answers by plurality per open
      attribute ({!Quality.Aggregate.plurality}, with its tie-breaking;
      an attribute without votes gets [Null]); [k > 1] to take effect.
    - [Adaptive _] — confidence-based stopping: after each answer
      (from [min_votes] on) the banked votes are weighed by each voter's
      estimated reliability ([Quality.Model], learnt online from agreement
      with past resolutions) and the task resolves as soon as every open
      attribute's top value reaches posterior [tau]
      ([Quality.Decide]); a task still unresolved at [max_votes] answers
      {e escalates}: plurality decides values, strict majority
      existence. [max_votes] is also the task's lease capacity. *)
type quorum_policy =
  | Fixed of int
  | Adaptive of { tau : float; min_votes : int; max_votes : int }

(** How the engine finds the next instance to fire. The two strategies
    are trace-identical: they fire the same instances in the same order
    and produce the same events and journal byte for byte.

    - [Optimized] — seminaive (differential) evaluation for every
      statement with at least one positive body atom: the engine keeps a
      ΔR frontier per body atom and drives rule firing by new-facts-only
      joins, each joined in a cost-based order ({!Planner.plan}, one plan
      per pinned atom, cached per statement until the body's statistics
      move), and merges discoveries into a pending set ordered by support
      key. Statements whose body relations are targets of /update or
      /delete stay differential between destructive mutations and
      re-derive — scoped to themselves, not the program — when one
      lands. A step examines a statement only if it fired when last
      examined or a relation in its body changed since (see
      {!Schedule}). Fact and filter-only statements take the rescan path
      below.
    - [Reference] — every step walks every statement in priority order,
      and each one enumerates its whole join left to right up to its
      first unfired instance. Asymptotically slower, it shares none of
      the planner, delta or schedule code, which makes it the baseline of
      the differential tests. *)
type strategy = Reference | Optimized

val load : ?strategy:strategy -> ?lint:[ `Strict | `Warn | `Off ] -> Ast.program -> t
(** Build an engine: declare schemas (inferring schemas of undeclared
    relations from usage), desugar game aspects into path/payoff statements,
    and declare the [Payoff] relation and per-game path tables. The engine
    gets its own {!Builtin.default} registry, so no two engines share a
    regex cache. A durable journal is started separately, with
    {!journal_start}.

    [lint] (default [`Strict]) runs {!Lint.check} over the source program
    first: [`Strict] raises {!Lint.Rejected} when any error-severity
    diagnostic is reported (warnings are logged); [`Warn] only logs every
    diagnostic through [Logs]; [`Off] skips the analysis entirely.
    Statements added later through {!add_statement} are not linted — the
    REPL's incremental path keeps its runtime checks.

    Every engine carries {!Analysis}'s budget certificate: {!certificate}
    exposes it (recomputed under the installed quorum policy, invalidated
    by {!add_statement} and quorum changes), {!set_monitor} defaults the
    monitor's certified budget from it, and every accepted answer
    cross-checks the accepted-answer count against the certified bound,
    counting breaches in the engine-local [analysis.bound.violations]
    counter (which soundness keeps at 0; an apparent breach first
    refreshes the certificate with live database cardinalities, so host
    inserts through the API never false-positive).

    [strategy] (default [Optimized]) picks the evaluation path; state
    records carry it, so a restored or recovered engine keeps it.
    @raise Runtime_error on inconsistent declarations.
    @raise Lint.Rejected in [`Strict] mode on ill-formed programs. *)

val database : t -> Reldb.Database.t
(** The live database (shared, not a copy). Rows inserted, updated or
    deleted through it are seen at the next {!step}: every change bumps
    the relation's {!Reldb.Relation.generation}, which each step polls to
    wake the statements that read it.

    Such writes are not journaled. What persists them is a state record,
    which carries the whole database: a checkpoint ({!snapshot_string})
    taken after them keeps them, and so does every WAL genesis or
    compaction record written after them. A WAL recovery ({!recover})
    loses the rows written after its base record, because replaying the
    entries since cannot reproduce them. *)

val statements : t -> (Ast.statement * origin) list
(** Effective statements in priority order. *)

val add_statement : t -> Ast.statement -> unit
(** Append a statement at the lowest priority — the REPL building block.
    Relations it mentions for the first time are declared by inference;
    using an unknown attribute of an existing relation is an error. A new
    [/update]/[/delete] target needs no change to the statements that
    read its relation: delta-evaluated readers watch the relation's
    change counters and re-derive, scoped to themselves, once a mutation
    lands. Afterwards every statement is awake again — examined at the
    next step unless an earlier one fires — as after {!load} (see
    {!Schedule}).
    Game aspects cannot be added incrementally.
    @raise Runtime_error on schema conflicts. *)

val builtins : t -> Builtin.registry
(** The builtin registry in use. *)

val certificate : t -> Analysis.certificate
(** The program's budget certificate ({!Analysis.analyze} of the loaded
    program plus incrementally added statements, charged under the
    installed quorum policy). Cached; recomputed after {!add_statement} or
    a quorum change. *)

val clock : t -> int
(** Logical clock: one tick per machine step or human answer. *)

val step : t -> event option
(** Fire (or evaluate-and-reject) the single highest-priority new instance;
    [None] when no machine work remains. *)

val run : ?max_steps:int -> t -> int * [ `Quiescent | `Capped ]
(** Step until quiescent; returns the number of steps taken and whether
    evaluation actually quiesced or was cut off at [max_steps] (default
    1_000_000) with machine work still pending — callers that [ignore] the
    distinction cannot tell a finished campaign from a truncated one.
    Every call is journaled, even when the fixpoint already holds. Rules
    read only relations, so a caller that left the engine quiescent and
    has since written no relation (see {!Fold.writes}) can skip the call
    and its entry, as the server's shard does. *)

val pending : t -> open_tuple list
(** Unresolved open tuples, oldest first. O(pending), whatever the number
    of tasks resolved before. *)

val pending_since : t -> after:open_id -> open_tuple list
(** Pending open tuples with id strictly greater than [after], ascending —
    lets a polling client ingest new work incrementally instead of
    rescanning the whole pool. O(log pending + new). *)

val pending_count : t -> int
(** [List.length (pending t)], in O(1). *)

val pending_seq : t -> open_tuple Seq.t
(** {!pending}, read lazily: a consumer that stops at the first task it
    wants pays O(log pending) per task it looks at. Each element is the
    oldest task pending at the time it is read with an id above the
    previous element's, so creating or resolving tasks mid-walk is
    safe. *)

val find_open : t -> open_id -> open_tuple option
(** Look up a pending open tuple. *)

val task_view : t -> open_tuple -> string option
(** Worker-facing presentation of an open tuple, rendered from the
    program's views section (Figure 2's forms); [None] when the relation
    declares no view. *)

val supply : t -> open_id -> worker:Reldb.Value.t ->
  (string * Reldb.Value.t) list -> (event, reject) result
(** [supply t id ~worker values] valuates a pending open tuple: the human
    consequence. [values] must bind exactly the open attributes; the
    designated worker (if any) must match, and when the lease runtime is
    on ({!set_lease_config}) the task must not be leased at capacity to
    other workers. On success the completed tuple is inserted and machine
    evaluation may resume. Auto-increment attributes are filled by the
    machine, never asked. A {!field-repeatable} open tuple stays pending;
    others resolve.

    Under a quorum policy ({!set_quorum_policy}) an eligible task banks
    each answer as a vote ([Vote_recorded] effect) and only the deciding
    answer aggregates and inserts. [Wrong_attrs]/[Type_mismatch]
    rejections count against the task's rejection budget when leases are
    configured. *)

val answer_existence : t -> open_id -> worker:Reldb.Value.t -> bool ->
  (event, reject) result
(** Answer an existence question: [true] inserts the bound tuple, [false]
    just resolves the open tuple. The answer takes {!supply}'s path as a
    ballot with one slot, ["(exists)"], bound to [Bool yes]: quorum tasks
    bank it as a vote, resolve on the [k]-th vote by strict majority of
    yes votes (a tie is no), and score their voters as value tasks do. *)

val decline : t -> open_id -> unit
(** Drop a pending open tuple without an answer (e.g. end of campaign).
    The task moves to the dead-letter pool with reason {!Lease.Declined}
    and leaves a [Dead_lettered] event in the log; declining an unknown id
    is a no-op. *)

(** {1 Leases, dead letters, quorum}

    Off by default — an engine behaves exactly as before until
    {!set_lease_config}/{!set_quorum_policy} are called. Logical time
    ([now]) is caller-supplied and monotone: the crowd simulator uses its
    round number. *)

val set_lease_config : t -> Lease.config option -> unit
(** Turn the lease runtime on (fresh lease table) or off. *)

val lease_config : t -> Lease.config option

val set_quorum_policy : t -> ?relations:string list -> quorum_policy -> unit
(** Install a redundant-assignment policy: eligible tasks (undesignated,
    non-repeatable, in [relations] if given) bank answers as votes until
    the policy resolves them. Journaled and carried by every state
    record, so restore and recovery reinstall it.
    @raise Runtime_error on an ill-formed adaptive config
    (needs [0 < tau <= 1] and [1 <= min_votes <= max_votes]). *)

val quorum_policy_of : t -> quorum_policy option

(** {2 Quality model}

    The engine scores every voter on a resolved quorum task against the
    chosen answer ([Quality.Model]'s Beta-posterior reliability — also
    surfaced as [quality.reliability.worker.*] per-mille gauges). The
    model is part of the live state that checkpoints and WAL state
    records carry; entries replayed after a state record update it
    observation for observation, as the live engine did. *)

val worker_reliability : t -> Reldb.Value.t -> float
(** Estimated accuracy of a worker (the prior mean if never scored). *)

val reliability_table : t -> (string * float * int) list
(** Every scored worker (sorted): display name, reliability, observation
    count. *)

val task_uncertainty : t -> open_id -> float
(** How unsettled a pending task's answer is: the maximum over its answer
    slots of [1 - top posterior] given the banked votes ([1.0] with no
    votes, [0.0] for unknown ids) — the router's uncertainty-sampling
    score. *)

val task_posteriors : t -> open_id -> (string * (Reldb.Value.t * float) list) list
(** Per answer slot — each open attribute, or ["(exists)"] for an
    existence question — the candidate posteriors of the banked votes,
    best first (none for a slot without votes). Empty for unknown
    ids. *)

val votes_banked : t -> open_id -> int
(** Votes banked so far on a pending quorum task (0 otherwise). *)

val has_voted : t -> open_id -> worker:Reldb.Value.t -> bool
(** Whether a worker already has a banked vote on a pending task — the
    router's pre-check for the [Already_voted] rejection. *)

type assign_error =
  [ `Stale  (** no such pending task *)
  | `Dead of Lease.reason  (** the task was dead-lettered *)
  | `Backoff of int  (** reassignable at that round, not before *)
  | `Held of Reldb.Value.t  (** leased at capacity; one current holder *) ]

val assign : t -> open_id -> worker:Reldb.Value.t -> now:int ->
  (Lease.lease, assign_error) result
(** Lease a pending task to [worker] until [now + ttl]. Quorum-eligible
    tasks carry [k] lease slots (redundant assignment); all others are
    exclusive. Re-assigning to a holder renews their deadline.
    @raise Runtime_error when the lease runtime is not configured. *)

val reclaim : t -> now:int -> (open_id * [ `Retry of int | `Dead of Lease.reason ]) list
(** Expire overdue leases ({!Lease.reclaim}); tasks over their retry
    budget are dead-lettered (with a [Dead_lettered] event). Call once per
    round before assigning. Without the lease runtime, returns []. *)

val dead_letters : t -> (open_tuple * Lease.reason) list
(** Tasks dropped from the pending pool without resolution, in
    dead-lettering order — the campaign post-mortem. *)

val payoffs : t -> (Reldb.Value.t * Reldb.Value.t) list
(** Accumulated payoff per player, from the [Payoff] relation. *)

val payoff_of : t -> Reldb.Value.t -> Reldb.Value.t
(** One player's payoff; [Int 0] if they never received any. *)

val events : t -> event list
(** All events, chronological: a fresh O(events) copy of the log. *)

val event_count : t -> int
(** Number of events recorded so far, in O(1) — the cursor coordinate of
    {!events_since}. *)

val events_since : t -> after:int -> event list
(** The events with index [>= after] (0-based, chronological) — an
    incremental read of the log for polling consumers (the campaign
    server's [resolve_poll]); [events_since t ~after:0 = events t].
    O(events returned), whatever the length of the log before [after]. *)

(** {1 Telemetry}

    Every engine carries a {!Cylog.Telemetry.t}: a metrics registry that is
    always on (single boolean test per update when disabled) and a tracing
    sink that defaults to {!Cylog.Telemetry.Sink.null} (spans cost one
    pointer compare until a real sink is installed). See
    [docs/OBSERVABILITY.md] for the span model and the metric names. *)

val telemetry : t -> Telemetry.t

val metrics : t -> Telemetry.Metrics.t
(** Shorthand for [Telemetry.metrics (telemetry t)]. *)

val set_sink : t -> Telemetry.Sink.t -> unit
(** Install a tracing sink (ring buffer, JSON-lines writer, callback).
    Spans carry deterministic sequence ids and logical-clock timestamps,
    so traces are replay-stable. *)

val metrics_of_events : event list -> Telemetry.Metrics.t
(** Recompute the journal-derived metrics from an event list: a fresh
    {!Cylog.Fold} over it. The engine applies the same fold to every
    event it records, so for any engine whose registry stayed enabled
    for the whole run the {!journal_derived} subset of the live registry
    equals [metrics_of_events (events t)] — the invariant the telemetry
    differential tests pin down. {!restore_string} and {!recover} fold
    the restored events once. *)

val journal_derived : string -> bool
(** Whether a metric name is recomputable from {!events} (as opposed to
    engine-local operational counters such as planner cache hits, lease
    refusals or rejected answers, which leave no event). *)

(** {1 Campaign monitor}

    The cost/latency/quality dashboard of a running campaign — see
    {!Cylog.Monitor} for the series and alert catalogue. The monitor
    reads the engine's own {!Cylog.Fold}, the one behind the
    journal-derived counters, and keeps only its config and series. It
    is {e derived} state: installing one refolds the whole event log to
    rebuild the series, state records never serialise it, and
    restore/recovery rebuild it in their one fold of the restored events
    — so [Monitor.view (Option.get (monitor t))] always equals
    [Monitor.view (Monitor.of_events cfg (events t))]. *)

val set_monitor : t -> Monitor.config option -> unit
(** Install (or remove, with [None]) the campaign monitor. Journaled;
    installation mid-campaign still reports full history (the event log
    is folded from the start). *)

val monitor : t -> Monitor.t option

val monitor_json : t -> string
(** {!Cylog.Monitor.to_json} of the installed monitor; ["null"] when none
    is installed. *)

val monitor_sample : t -> round:int -> Monitor.firing list
(** Take a round-boundary sample: run the armed watchdogs, then record
    one journaled event whose [Sampled]/[Alert_fired] effects carry the
    series point and any verdicts — the crowd simulator calls this once
    per round. Returns the alerts that fired {e this} sample (each alert
    kind fires at most once per campaign) so the caller can warn, pause
    or stop. No-op returning [[]] without an installed monitor or with
    the metrics registry disabled. *)

val explain : t -> string
(** Render the engine's current evaluation evidence: the engine's
    {!strategy}, then per rule its path (delta/rescan). A rescan rule
    joins left to right. A delta rule shows the join order the planner
    picks against the live statistics with its row estimates, the
    compiled-plan cache status, and the delta view: each atom's
    frontier, which atoms served as the delta atom in the last productive
    round (with the ΔR sizes consumed), whether that round ran
    differentially or fell back to a scoped re-derivation, and how many
    discovered instances are still pending; then the lease config, quorum
    policy and pending-task vote counts. Observation-only: never touches
    the plan caches or metrics. *)

val pp_explain : Format.formatter -> t -> unit

val game_instances : t -> string -> Reldb.Tuple.t list
(** Distinct Skolem-parameter tuples for which a game instance has a
    non-empty path, in first-play order. *)

val path_table : t -> string -> params:(string * Reldb.Value.t) list -> Reldb.Tuple.t list
(** The path table of one game instance, in play order, with the per-
    instance [order] column renumbered from 1 as in Figure 6. *)

(** {1 Checkpoints}

    A checkpoint is the image of a one-segment {!Journal} whose only
    record is the state record a compaction writes (see the next
    section): the program, the live state and the history chunks.
    [restore_string] parses it with the journal's record parser,
    strictly (a torn or bad record is an error, never truncated), and
    rebuilds the engine with the code {!recover} runs after
    {!Journal.recover}. The state is decoded, not re-run, so a restore
    costs O(checkpoint) however long the campaign was. The restored
    engine has the original's events, journal, database (rows written
    through {!database} included), pending pool and reputation; it
    continues the campaign with the same trace and checkpoints again to
    the same bytes. The builtins are the default registry; the monitor,
    the {!journal_derived} counters and the budget certificate are
    rebuilt from the restored events and program. *)

type snapshot_reason =
  | Not_a_snapshot  (** the bytes do not open a checkpoint image *)
  | Unsupported_version of int
      (** a CyLog checkpoint or WAL state payload, but from an
          incompatible format version: a file in one of the two retired
          checkpoint formats (versions 1 and 2, named by their magic), a
          record of another version, or a state payload with another
          version tag — an untagged one, written before state payloads
          carried a tag, is version 1. Refused before any byte is
          unmarshalled. *)
  | Truncated  (** the image ends inside its header or a record, or holds none *)
  | Checksum_mismatch  (** a record fails its CRC-32 or frames an impossible length *)
  | Corrupt_payload
      (** checksum passed yet the record's kind is unknown or its payload
          fails to unmarshal *)

exception Snapshot_error of snapshot_reason
(** Raised by {!restore_string} and {!recover} instead of reading bytes
    whose format they do not know. *)

val snapshot_reason_to_string : snapshot_reason -> string

val snapshot_string : t -> string
(** The engine's checkpoint image. Like a compaction, it marshals the
    live state and the history since the last state record, and copies
    the rest from the strings the engine kept. *)

val journal_dump : t -> string
(** The journal alone (chronological), marshalled without sharing so the
    bytes are canonical: two engines holding logically equal journals
    produce byte-identical dumps whether they were driven live, restored
    from a checkpoint, or recovered from a WAL. Unlike {!snapshot_string}
    it does not carry the engine's {!strategy} — the comparison surface
    for the differential tests pitting [Optimized] against [Reference],
    and for the crash-point harness's prefix checks. *)

val restore_string : string -> t
(** Rebuild the engine a checkpoint image holds. Never lints: the program
    was admitted when it was loaded.
    @raise Snapshot_error on a corrupt, truncated or version-skewed
    image. *)

(** {1 Durable journal (WAL) and crash recovery}

    With a {!Journal} attached, every journaled mutation is appended to an
    on-disk segmented WAL {e as it is emitted} — the volatile journal
    above and the durable one always agree — and compaction periodically
    folds the resolved state (quorums, leases, dead letters, the database)
    into a materialised snapshot record so recovery replays O(live state)
    entries, not O(journal length).

    A genesis or compaction record's payload is a version tag
    (["CYLOG-STATE/"] and the version byte, 4), the marshalled program,
    the history chunks and, last, the marshalled live state: each chunk
    holds the events and journal entries appended between two records
    and is marshalled once, by the record that cuts it. The engine keeps
    those strings, so a compaction marshals O(live state + new history)
    and copies the rest; since the copied parts lead the record, the
    journal checksums only the new chunk and the live state. See
    docs/DURABILITY.md for the format and the crash-consistency
    guarantees. *)

val journal_start :
  ?config:Journal.config -> ?storage:(module Storage.S) -> t -> string -> unit
(** Start a fresh durable journal for this engine in the given directory
    (its genesis record is the engine's current state) and attach it:
    every journaled mutation is appended as it happens, so a crash loses
    at most the entries after the WAL's last fsync — recover with
    {!recover}. [config] tunes fsync policy, segment rotation and
    compaction (default {!Journal.default_config}); [storage] swaps in a
    non-default {!Storage} (e.g. the fault-injecting simulator). The
    journal's telemetry points at the engine (counters [journal.*], spans
    [journal-append]/[journal-rotate]/[journal-compact] on the engine's
    logical clock).
    @raise Journal.Error ([Journal_exists]) on a non-empty directory. *)

val durable_journal : t -> Journal.t option
(** The attached WAL, for syncing/closing and {!Journal.stats}. *)

val compact_journal : t -> unit
(** Fold the engine's current state into the attached WAL as a fresh base
    snapshot immediately ({!Journal.compact}) — the operator's "checkpoint
    now" verb (e.g. before handing a shard's journal to recovery), on top
    of the automatic [compact_every] policy. No-op without an attached
    journal. *)

type recovery_stats = {
  base_segment : int;  (** segment whose snapshot seeded the state *)
  segments_scanned : int;
  records_replayed : int;  (** WAL entries re-applied after the base *)
  truncated_bytes : int;  (** torn tail discarded by {!Journal.recover} *)
}

val recover :
  ?config:Journal.config -> ?storage:(module Storage.S) -> string ->
  t * recovery_stats
(** Crash-consistent recovery from a journal directory: run
    {!Journal.recover} (checksum scan, torn-tail truncation), check the
    base genesis/snapshot payload's version tag, rebuild the engine from
    its program, live state and history chunks (decoded in order; the
    engine keeps their bytes, so its next compaction does not encode the
    old history again), replay the surviving entries through the public
    API, and re-attach the journal for further durable appends. The
    recovered engine is byte-trace-identical to the crashed one at its
    last durable entry: continuing the same campaign reproduces the
    original events exactly. Counters [recovery.records_replayed] and
    [recovery.truncated_bytes] and a [journal-recover] span (traced runs)
    record what recovery did.
    @raise Journal.Error on an empty, gapped or corrupt journal.
    @raise Snapshot_error [(Unsupported_version v)] when the base payload
    is from another format version — an untagged payload is version 1 —
    and [Corrupt_payload] when a checksum-valid record fails to
    unmarshal. *)

(** {1 The journal as a replayable script}

    The journal is exactly the campaign's externally-triggered inputs, so
    a list of entries is a replayable script: the crash-point harness
    re-drives the tail of a campaign onto a recovered engine and checks
    the traces match. *)

type journal_entry

val journal_entries : t -> journal_entry list
(** The journal so far, chronological. *)

val apply_entry : t -> journal_entry -> unit
(** Re-apply one entry through the public API (re-journaling it, exactly
    as {!recover} replays the entries after its base). *)
