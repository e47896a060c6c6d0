(** Pluggable byte storage for the durable journal.

    {!Cylog.Journal} never touches the filesystem directly: every byte it
    writes or reads goes through a first-class {!S} module, so the same
    WAL code runs against real POSIX files in production and against an
    in-memory, {e fault-injecting} simulator in tests. The simulator is
    what makes the crash-point harness possible: it can kill the storage
    at any chosen operation, tear the unsynced tail of the file being
    written, substitute garbage bytes, refuse space mid-record, or
    silently drop fsyncs — and then expose the exact byte image a real
    disk would present after the crash.

    All operations are keyed by path (handles are managed internally), so
    an implementation is just a bundle of stateful functions — cheap to
    instantiate per test via {!Sim.storage}. *)

exception Crashed
(** The simulated storage died mid-operation (see {!Sim.plan}). Nothing
    raised after this point ever reaches the disk image; recover from
    {!Sim.after_crash}. *)

exception No_space
(** The device is full. The raising append may have written a {e prefix}
    of its bytes (a short write mid-record) — exactly the torn state
    recovery must cope with. *)

module type S = sig
  val mkdirp : string -> unit
  (** Create the directory (and parents); a no-op when it exists. *)

  val list_dir : string -> string list
  (** Basenames in the directory, sorted; [[]] when it does not exist. *)

  val exists : string -> bool

  val size : string -> int
  (** Byte length of a file. @raise Sys_error when missing. *)

  val read_file : string -> string
  (** Whole contents. @raise Sys_error when missing. *)

  val append : string -> string -> unit
  (** Append bytes, creating the file if needed. Buffered data is not
      durable until {!fsync}. @raise No_space / @raise Crashed under
      fault injection. *)

  val fsync : string -> unit
  (** Flush the file's buffered bytes to stable storage. Covers the
      file's {e data} only — see {!fsync_dir} for the directory entry. *)

  val fsync_dir : string -> unit
  (** Flush the directory itself, making entry metadata — file creation,
      {!rename}, {!delete} — durable. A file {!fsync} does not cover the
      directory entry: on power loss a freshly created or renamed file
      whose directory was never synced can vanish entirely, and an
      unsynced deletion can resurrect. *)

  val truncate : string -> int -> unit
  (** Cut the file to the given length — how recovery drops a torn tail. *)

  val delete : string -> unit
  (** Remove a file; a no-op when it does not exist. *)

  val rename : string -> string -> unit
  (** Atomic replace — the commit point of compaction. *)

  val close : string -> unit
  (** Drop any cached handle for the path (flushing buffered bytes). *)
end

val crc32_sub : string -> pos:int -> len:int -> int32
(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over a slice, without
    copying it — the checksum guarding every journal record.
    @raise Invalid_argument when the slice is not inside the string. *)

module Posix : S
(** Real files via [Unix]: append-mode descriptors cached per path,
    [Unix.fsync] for durability, [Sys.rename] for atomic replace. *)

(** In-memory storage with deterministic fault injection.

    Data and metadata durability are modelled separately, as POSIX
    separates them: {!S.fsync} makes a file's bytes durable, but its
    directory {e entry} is durable only once {!S.fsync_dir} runs. The
    crash image takes the adversarial reading of metadata writeback
    (real disks reorder it): entry {e removals} — deletes, the
    rename-away of a source — count as instantly durable, while entry
    {e additions} — creates, rename targets — survive only if a
    [fsync_dir] covered them. So a crash can persist the unlink of an
    old segment while losing the rename of its replacement, exactly the
    failure a missing directory sync invites; this is what makes such a
    bug detectable by the crash-point harness. *)
module Sim : sig
  (** What survives of the {e unsynced} region of the file being appended
      when the crash fires. Fsynced bytes always survive; unsynced bytes
      of every other file are always dropped (the pessimistic reading of
      POSIX). *)
  type tail =
    | Drop_unsynced  (** lose everything after the last fsync *)
    | Torn of int  (** keep that many unsynced bytes — a torn write *)
    | Garbage of int
        (** keep that many unsynced bytes, then stray garbage bytes (a
            misdirected or bit-rotted sector) *)

  type plan = {
    crash_at_op : int option;
        (** die when the running operation count (appends, fsyncs,
            directory fsyncs, truncates, deletes, renames) reaches this
            value *)
    tail : tail;  (** what the crash leaves of the in-flight file *)
    no_space_after : int option;
        (** total append-byte budget; the append that exceeds it writes
            the prefix that fits and raises {!No_space} *)
    delayed_fsync : float;  (** probability an fsync is silently dropped *)
    seed : int;  (** RNG stream for [delayed_fsync] *)
  }

  val default_plan : plan
  (** No faults: [crash_at_op = None], [tail = Drop_unsynced],
      [no_space_after = None], [delayed_fsync = 0.0], [seed = 0]. *)

  type t

  val create : ?plan:plan -> unit -> t
  (** Fresh empty storage under the given fault plan. *)

  val storage : t -> (module S)
  (** The instance as a pluggable storage module. *)

  val ops : t -> int
  (** Operations performed so far — the coordinate system of
      [crash_at_op], letting a harness first count a fault-free run's
      operations and then sweep every crash point. *)

  val crashed : t -> bool

  val after_crash : t -> t
  (** The byte image a disk would present after the crash: fsynced data
      intact, unsynced data dropped except for the configured {!tail} of
      the in-flight file. Fresh fault-free plan; operation count reset.
      @raise Invalid_argument when the instance has not crashed. *)

  val copy : ?plan:plan -> t -> t
  (** Clone the {e currently visible} contents (buffered writes included,
      all treated as durable) under a new plan — e.g. to reopen a journal
      after {!No_space} without replaying the campaign. *)
end
