(** Durable write-ahead log for the engine's event-sourced journal.

    PR 2 made the journal of externally-triggered mutations the engine's
    source of truth: replaying it through the public API reproduces the
    engine byte-for-byte. This module makes that journal {e durable} — an
    append-only sequence of segment files, each a sorted run of
    length-prefixed, CRC32-checksummed, versioned records — so a crash
    mid-campaign loses at most the records after the last fsync, never a
    paid crowd answer that was already made durable.

    The module is engine-agnostic: payloads are opaque strings (the
    engine marshals its own entries), and all I/O goes through a
    pluggable {!Storage.S}, so the same code runs against POSIX files in
    production and the fault-injecting {!Storage.Sim} in the crash-point
    harness.

    {2 On-disk format (see docs/DURABILITY.md)}

    Segment files are named [wal-%08d.seg] and begin with a 16-byte
    header: the magic ["CYLOG-WAL/1\n"] followed by the segment's own
    index as a little-endian u32 (so a misnamed or cross-wired file is
    rejected). Records follow back to back:

    {v
    u32le length   — byte length of everything after the crc (= 2 + |payload|)
    u32le crc32    — over version ++ kind ++ payload
    u8    version  — format version, currently 1
    u8    kind     — 0 Genesis, 1 Entry, 2 Snapshot
    bytes payload  — opaque (engine-marshalled)
    v}

    Every record reaches storage in one append. A Genesis or Snapshot
    record is written together with the header of the segment it opens.

    Segment 0 of a fresh journal starts with a [Genesis] record and a
    compaction segment starts with a [Snapshot]; rotated segments hold
    only [Entry] records. Recovery's base is therefore the {e greatest}
    segment whose first record is a Genesis/Snapshot; segments before it
    are leftovers from an interrupted compaction and are deleted. *)

(** {1 Configuration} *)

(** When appended records become durable. *)
type fsync_policy =
  | Always  (** fsync after every append — nothing acknowledged is lost *)
  | Every_n of int  (** fsync after every [n] appends (and on rotation) *)
  | Never  (** leave durability to the OS; crash may lose any suffix *)

type config = {
  fsync : fsync_policy;
  segment_bytes : int;
      (** rotate to a fresh segment once the current one exceeds this *)
  compact_every : int option;
      (** request compaction after this many entries since the last
          snapshot ({!wants_compaction}); [None] disables the hint *)
}

val default_config : config
(** [{ fsync = Always; segment_bytes = 1 lsl 20; compact_every = None }] *)

(** {1 Records} *)

type kind = Genesis | Entry | Snapshot

type record = { kind : kind; payload : string }

(** {1 Errors} *)

type error =
  | No_segments of string  (** journal directory empty or missing *)
  | No_valid_base of string
      (** segments exist but none starts with a durable Genesis/Snapshot
          record — the crash predates the journal's first fsync *)
  | Missing_segment of { dir : string; index : int }
      (** a gap in the segment sequence after the recovery base; the
          journal refuses to silently skip it *)
  | Corrupt_record of { segment : string; offset : int; reason : string }
      (** framing or checksum failure anywhere but the tail of the final
          segment (where it would be truncated instead) *)
  | Unsupported_version of { segment : string; offset : int; version : int }
      (** checksum-valid record written by an unknown format version —
          never truncated, always refused *)
  | Journal_exists of string  (** {!create} on a directory with segments *)

exception Error of error

val error_to_string : error -> string

(** {1 Writing} *)

type t

val create :
  ?config:config -> ?storage:(module Storage.S) -> genesis:string list ->
  string -> t
(** [create ~genesis dir] starts a fresh journal in [dir] (created if
    needed): segment 0 is written with a [Genesis] record whose payload
    is the concatenation of the [genesis] parts, and made durable — data fsync plus a directory fsync for
    the entry itself — before the call returns, whatever the fsync
    policy. Default storage is {!Storage.Posix}.
    @raise Error ([Journal_exists]) when [dir] already holds segments —
    recover instead of overwriting a journal. *)

val append : t -> string -> unit
(** Durably log one journal entry (per the fsync policy), rotating to a
    fresh segment first when the current one is over
    [config.segment_bytes]. Rotation always fsyncs the outgoing segment
    — so only the final segment of a journal can ever hold torn bytes —
    and syncs the directory so the successor's entry survives a crash. *)

val compact : t -> string list -> unit
(** [compact t parts] writes a new segment opening with a [Snapshot]
    record whose payload is the concatenation of [parts], then deletes
    all older segments, making restore cost proportional to the record
    rather than to journal length. The parts are copied once, into the
    framed record, which reaches storage in one append. Crash-safe: the snapshot is staged in a [.tmp]
    file, fsynced, atomically renamed, and the rename made durable with a
    directory fsync before any deletion — a crash anywhere leaves either
    the old segments intact or a valid new base. *)

val sync : t -> unit
(** Force an fsync of the current segment regardless of policy. *)

val close : t -> unit
(** Final {!sync} and release of storage handles. *)

val wants_compaction : t -> bool
(** [config.compact_every] entries have accumulated since the last
    snapshot. A hint only — the engine decides {e when} it is safe to
    take the snapshot (never between an entry's append and its
    application). *)

(** {1 Recovery} *)

type recovery = {
  records : record list;
      (** the surviving run, in order: one Genesis/Snapshot base followed
          by entries *)
  base_segment : int;
  segments_scanned : int;
  truncated_bytes : int;
      (** torn/garbage tail bytes (and headerless trailing segments)
          dropped to reach the last valid record boundary *)
}

val recover :
  ?config:config -> ?storage:(module Storage.S) -> string -> t * recovery
(** Crash-consistent open of an existing journal: scan segments, verify
    every checksum, truncate the final segment's torn or garbage tail to
    the last valid record boundary (deleting a trailing segment whose
    header never became durable), delete [.tmp] staging files and
    pre-compaction leftovers, and return the journal positioned for
    appending plus the surviving records. Recovery mutates storage only
    to discard — never to invent — bytes, so [recover] after [recover]
    is a no-op reporting zero truncated bytes.
    Each surviving segment is read once, and each record checksummed
    once: the base probe's bytes and first record are reused by the scan.
    @raise Error on an empty directory, a segment gap, a corrupt
    non-final record, or an unsupported record version. *)

(** {1 Images: a one-segment journal in a string (a checkpoint file)} *)

val image : string list -> string
(** Segment 0's header and one [Snapshot] record whose payload is the
    concatenation of the parts — the record {!compact} writes. *)

type image_error =
  | Not_an_image  (** no segment 0 header *)
  | Short_image  (** ends inside the header or a record, or holds none *)
  | Checksum_failed  (** a record fails its CRC or frames an impossible length *)
  | Unknown_version of int  (** a checksum-valid record of another version *)
  | Unknown_kind  (** a checksum-valid record of no known kind *)

val of_image : string -> (record list, image_error) result
(** The records of an image, parsed as {!recover} parses a segment but
    strictly: a torn or bad record is an error, never truncated. *)

(** {1 Introspection} *)

type stats = {
  appends : int;
  fsyncs : int;
  dir_fsyncs : int;
      (** directory syncs making segment creation/rename/delete durable *)
  rotations : int;
  compactions : int;
  entries_since_snapshot : int;
  segments : int list;  (** live segment indices, ascending *)
  tail_bytes : int;  (** size of the current (append) segment *)
}

val stats : t -> stats
val dir : t -> string
val config : t -> config

val set_telemetry : t -> Telemetry.t -> clock:(unit -> int) -> unit
(** Route instrumentation to an engine's telemetry: counters
    [journal.appends], [journal.fsyncs], [journal.dir_fsyncs],
    [journal.segments.rotated], [journal.compactions] and point spans
    [journal-append] (traced runs only), [journal-rotate],
    [journal-compact], stamped with the engine's logical clock. *)
