(** Deterministic fault injection for crowd simulations.

    The survey's quality-control chapters start from the premise that real
    crowds time out, abandon tasks, answer garbage and double-submit. This
    module turns any {!Simulator.policy} into an unreliable one by
    composing seeded fault behaviours over it, so robustness tests can
    drive the lease/quorum runtime ({!Cylog.Lease},
    {!Cylog.Engine.set_quorum_policy}) through every failure mode with
    reproducible randomness: the same [seed] replays the same faults. *)

type fault =
  | Drop of float
      (** with this probability, take the task's lease (when the lease
          runtime is on) and never answer — the task blocks until the
          lease expires and is reclaimed *)
  | Delay of int
      (** submit each decision that many rounds late (stashed in order);
          under a short lease TTL the answer arrives after expiry *)
  | Garble of float
      (** with this probability, mangle the answer: a wrong attribute
          name or wrong-typed value (rejected by validation, counting
          against the rejection budget), or a wrong value of the right
          type (only redundancy + aggregation can catch it); existence
          answers are flipped *)
  | Duplicate of float
      (** with this probability, re-submit a past decision verbatim —
          usually a resolved id the engine must reject as [Stale] *)
  | Crash_round of int  (** leave the campaign for good at that round *)

val fault_to_string : fault -> string

val wrap : seed:int -> fault list -> Simulator.policy -> Simulator.policy
(** Compose the faults over a base policy. Each wrapped worker draws from
    its own RNG stream derived from [seed] and the worker identity —
    independent of the simulator's RNG, so fault injection does not
    perturb the base crowd's behaviour sequence. *)

val inject :
  seed:int -> fault list ->
  (Reldb.Value.t * Simulator.policy) list ->
  (Reldb.Value.t * Simulator.policy) list
(** [wrap] every worker of a {!Simulator.run} crowd. *)

(** {1 Storage faults}

    Faults of the {e durable journal}'s storage rather than of workers,
    expressed over {!Cylog.Storage.Sim}'s fault plan so a campaign with a
    WAL attached can compose crowd unreliability and disk unreliability
    in one seeded run (see {!Tweetpecker.Runner.run}'s
    [?storage_faults]). *)

type storage_fault =
  | Storage_crash of int
      (** kill the storage at that operation count (the process "dies";
          the runner recovers from the surviving byte image) *)
  | Torn_write of int
      (** the crash leaves that many unsynced bytes of the in-flight
          file — a torn record for recovery to truncate *)
  | Garbage_tail of int
      (** like [Torn_write], plus stray garbage bytes after the tear *)
  | Delayed_fsync of float  (** probability an fsync is silently dropped *)
  | Disk_full of int
      (** total append-byte budget; the append that exceeds it is a
          short write followed by ENOSPC *)

val storage_fault_to_string : storage_fault -> string

val storage_plan : seed:int -> storage_fault list -> Cylog.Storage.Sim.plan
(** Fold the faults into a simulator fault plan under [seed] (later
    entries win on conflicting knobs). *)

(** {1 Named profiles} — the fault matrix exercised by the test suite. *)

val drop : fault list
val delay : fault list
val garble : fault list
val duplicate : fault list
val crash : fault list
val all : fault list

val profiles : (string * fault list) list
(** All of the above with their names, for table-driven tests. *)

val torn : storage_fault list
val garbage : storage_fault list
val fsync_lag : storage_fault list
val disk_full : storage_fault list

val storage_profiles : (string * storage_fault list) list
(** The storage-fault matrix, for table-driven tests and the
    [tweetpecker --storage-faults] knob. *)
