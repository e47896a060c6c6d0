type fsync_policy = Always | Every_n of int | Never

type config = {
  fsync : fsync_policy;
  segment_bytes : int;
  compact_every : int option;
}

let default_config = { fsync = Always; segment_bytes = 1 lsl 20; compact_every = None }

type kind = Genesis | Entry | Snapshot

type record = { kind : kind; payload : string }

type error =
  | No_segments of string
  | No_valid_base of string
  | Missing_segment of { dir : string; index : int }
  | Corrupt_record of { segment : string; offset : int; reason : string }
  | Unsupported_version of { segment : string; offset : int; version : int }
  | Journal_exists of string

exception Error of error

let error_to_string = function
  | No_segments dir -> Printf.sprintf "%s: no journal segments" dir
  | No_valid_base dir ->
      Printf.sprintf "%s: no segment holds a durable genesis or snapshot record" dir
  | Missing_segment { dir; index } ->
      Printf.sprintf "%s: segment %d is missing from the sequence" dir index
  | Corrupt_record { segment; offset; reason } ->
      Printf.sprintf "%s: corrupt record at offset %d: %s" segment offset reason
  | Unsupported_version { segment; offset; version } ->
      Printf.sprintf "%s: record at offset %d has unsupported format version %d"
        segment offset version
  | Journal_exists dir ->
      Printf.sprintf "%s: journal already exists (recover it instead of overwriting)" dir

(* --- Framing ---------------------------------------------------------------- *)

let magic = "CYLOG-WAL/1\n"
let header_len = 16
let record_version = 1

let get_u32le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let crc_int c = Int32.to_int c land 0xFFFFFFFF

let put_header b index =
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int32_le b (String.length magic) (Int32.of_int index)

let segment_header index =
  let b = Bytes.create header_len in
  put_header b index;
  Bytes.unsafe_to_string b

let header_valid contents index =
  String.length contents >= header_len
  && String.sub contents 0 (String.length magic) = magic
  && get_u32le contents 12 = index

let kind_byte = function Genesis -> 0 | Entry -> 1 | Snapshot -> 2

(* One record whose payload is the concatenation of [parts], ready for a
   single [St.append]: the parts are copied once, into the buffer that
   carries the frame (behind the header of segment [segment], when the
   record opens one), and checksummed in place. *)
let frame ?segment kind parts =
  let at = match segment with Some _ -> header_len | None -> 0 in
  let plen = List.fold_left (fun n p -> n + String.length p) 0 parts in
  let b = Bytes.create (at + 10 + plen) in
  Option.iter (put_header b) segment;
  Bytes.set_int32_le b at (Int32.of_int (2 + plen));
  Bytes.set b (at + 8) (Char.chr record_version);
  Bytes.set b (at + 9) (Char.chr (kind_byte kind));
  ignore
    (List.fold_left
       (fun pos p ->
         Bytes.blit_string p 0 b pos (String.length p);
         pos + String.length p)
       (at + 10) parts);
  Bytes.set_int32_le b (at + 4)
    (Storage.crc32_sub (Bytes.unsafe_to_string b) ~pos:(at + 8) ~len:(2 + plen));
  Bytes.unsafe_to_string b

(* How a sequential parse of a segment's record run ends. [Torn] means the
   bytes from [offset] on do not frame a checksum-valid record — truncatable
   when they are the tail of the final segment, fatal anywhere else; it is
   [short] when the bytes end inside the record's frame. [Bad_version] and
   [Bad_kind] are checksum-valid and therefore never explainable as a torn
   write; they are fatal everywhere. *)
type parse_end =
  | Clean
  | Torn of { offset : int; reason : string; short : bool }
  | Bad_version of { offset : int; version : int }
  | Bad_kind of { offset : int; byte : int }

(* One record starting at [pos]: the parsed record and the next offset,
   or how the run ends there. Base selection during recovery probes only
   the first record of a candidate segment, and the scan continues from
   the probe's step. *)
type parse_step = Record of record * int | Run_end of parse_end

let parse_record contents pos =
  let len = String.length contents in
  let torn reason short = Run_end (Torn { offset = pos; reason; short }) in
  if pos = len then Run_end Clean
  else if len - pos < 8 then torn "incomplete record frame" true
  else
    let rlen = get_u32le contents pos in
    if rlen < 2 then torn "impossible record length" false
    else if pos + 8 + rlen > len then torn "record extends past end of segment" true
    else
      let stored = get_u32le contents (pos + 4) in
      let actual = crc_int (Storage.crc32_sub contents ~pos:(pos + 8) ~len:rlen) in
      if stored <> actual then torn "checksum mismatch" false
      else
        let version = Char.code contents.[pos + 8] in
        if version <> record_version then
          Run_end (Bad_version { offset = pos; version })
        else
          let kind =
            match Char.code contents.[pos + 9] with
            | 0 -> Some Genesis
            | 1 -> Some Entry
            | 2 -> Some Snapshot
            | _ -> None
          in
          match kind with
          | None ->
              Run_end (Bad_kind { offset = pos; byte = Char.code contents.[pos + 9] })
          | Some kind ->
              let payload = String.sub contents (pos + 10) (rlen - 2) in
              Record ({ kind; payload }, pos + 8 + rlen)

(* The run from [step] (the first record's) to its end. *)
let rec parse_run contents step acc =
  match step with
  | Record (r, next) -> parse_run contents (parse_record contents next) (r :: acc)
  | Run_end ending -> (List.rev acc, ending)

(* --- Handle ----------------------------------------------------------------- *)

type t = {
  jdir : string;
  cfg : config;
  storage : (module Storage.S);
  mutable seg : int;
  mutable seg_bytes : int;
  mutable unsynced : int;  (* appends not yet covered by an fsync *)
  mutable since_snapshot : int;
  mutable live_segments : int list;  (* ascending; last = seg *)
  mutable n_appends : int;
  mutable n_fsyncs : int;
  mutable n_dir_fsyncs : int;
  mutable n_rotations : int;
  mutable n_compactions : int;
  mutable tel : (Telemetry.t * (unit -> int)) option;
}

let seg_name index = Printf.sprintf "wal-%08d.seg" index

let seg_index name =
  if String.length name = 16
     && String.sub name 0 4 = "wal-"
     && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 4 8)
  else None

let seg_path t index = Filename.concat t.jdir (seg_name index)

let dir t = t.jdir
let config t = t.cfg

let set_telemetry t tel ~clock = t.tel <- Some (tel, clock)

let count t name =
  match t.tel with
  | Some (tel, _) -> Telemetry.Metrics.incr (Telemetry.metrics tel) name
  | None -> ()

let span t name attrs =
  match t.tel with
  | Some (tel, clock) when Telemetry.tracing tel ->
      Telemetry.emit tel ~attrs:(attrs ()) name ~clock:(clock ())
  | _ -> ()

let fsync_now t =
  let module St = (val t.storage) in
  St.fsync (seg_path t t.seg);
  t.unsynced <- 0;
  t.n_fsyncs <- t.n_fsyncs + 1;
  count t "journal.fsyncs"

(* File fsyncs cover data only: whenever the journal creates, renames or
   deletes a segment, the directory entry itself must be made durable,
   or a crash can lose a freshly rotated segment — or worse, persist the
   compaction deletes while losing the rename of their replacement. *)
let fsync_dir t =
  let module St = (val t.storage) in
  St.fsync_dir t.jdir;
  t.n_dir_fsyncs <- t.n_dir_fsyncs + 1;
  count t "journal.dir_fsyncs"

let sync t = if t.unsynced > 0 then fsync_now t

let after_append t =
  t.n_appends <- t.n_appends + 1;
  t.unsynced <- t.unsynced + 1;
  count t "journal.appends";
  match t.cfg.fsync with
  | Always -> fsync_now t
  | Every_n n -> if t.unsynced >= n then fsync_now t
  | Never -> ()

let rotate t =
  let module St = (val t.storage) in
  (* The outgoing segment is made fully durable before a successor exists,
     so recovery only ever needs to truncate the final segment. *)
  if t.unsynced > 0 then fsync_now t;
  St.close (seg_path t t.seg);
  t.seg <- t.seg + 1;
  St.append (seg_path t t.seg) (segment_header t.seg);
  (* The successor's directory entry must survive a crash before any
     record is acknowledged into it. *)
  fsync_dir t;
  t.seg_bytes <- header_len;
  t.live_segments <- t.live_segments @ [ t.seg ];
  t.n_rotations <- t.n_rotations + 1;
  count t "journal.segments.rotated";
  span t "journal-rotate" (fun () -> [ ("segment", string_of_int t.seg) ])

let append t payload =
  let module St = (val t.storage) in
  if t.seg_bytes >= t.cfg.segment_bytes then rotate t;
  let framed = frame Entry [ payload ] in
  St.append (seg_path t t.seg) framed;
  t.seg_bytes <- t.seg_bytes + String.length framed;
  t.since_snapshot <- t.since_snapshot + 1;
  span t "journal-append" (fun () ->
      [ ("segment", string_of_int t.seg); ("bytes", string_of_int (String.length framed)) ]);
  after_append t

let compact t parts =
  let module St = (val t.storage) in
  let target = t.seg + 1 in
  let tmp = seg_path t target ^ ".tmp" in
  St.delete tmp;
  St.append tmp (frame ~segment:target Snapshot parts);
  St.fsync tmp;
  t.n_fsyncs <- t.n_fsyncs + 1;
  count t "journal.fsyncs";
  St.close tmp;
  (* Commit point: after this rename *and* the directory fsync that makes
     it durable, the new segment is the recovery base whatever else
     happens; before that, the old segments still are. The directory must
     be synced before any deletion, or a crash could persist the unlinks
     of the old base while losing the rename of its replacement. *)
  St.rename tmp (seg_path t target);
  fsync_dir t;
  let old = t.live_segments in
  t.seg <- target;
  t.seg_bytes <- St.size (seg_path t target);
  t.unsynced <- 0;
  t.since_snapshot <- 0;
  t.live_segments <- [ target ];
  List.iter
    (fun i ->
      St.close (seg_path t i);
      St.delete (seg_path t i))
    old;
  (* Make the unlinks durable too — a crash between them and the next
     directory sync would only resurrect superseded segments (harmless
     for recovery), but bounding that window keeps disk usage honest. *)
  fsync_dir t;
  t.n_compactions <- t.n_compactions + 1;
  count t "journal.compactions";
  span t "journal-compact" (fun () ->
      [ ("segment", string_of_int target);
        ("bytes", string_of_int (List.fold_left (fun n p -> n + String.length p) 0 parts));
        ("folded_segments", string_of_int (List.length old)) ])

let close t =
  let module St = (val t.storage) in
  sync t;
  St.close (seg_path t t.seg)

let wants_compaction t =
  match t.cfg.compact_every with Some n -> t.since_snapshot >= n | None -> false

type stats = {
  appends : int;
  fsyncs : int;
  dir_fsyncs : int;
  rotations : int;
  compactions : int;
  entries_since_snapshot : int;
  segments : int list;
  tail_bytes : int;
}

let stats t =
  {
    appends = t.n_appends;
    fsyncs = t.n_fsyncs;
    dir_fsyncs = t.n_dir_fsyncs;
    rotations = t.n_rotations;
    compactions = t.n_compactions;
    entries_since_snapshot = t.since_snapshot;
    segments = t.live_segments;
    tail_bytes = t.seg_bytes;
  }

(* --- Open ------------------------------------------------------------------- *)

let make ?(config = default_config) ?(storage = (module Storage.Posix : Storage.S)) dir =
  {
    jdir = dir;
    cfg = config;
    storage;
    seg = 0;
    seg_bytes = 0;
    unsynced = 0;
    since_snapshot = 0;
    live_segments = [];
    n_appends = 0;
    n_fsyncs = 0;
    n_dir_fsyncs = 0;
    n_rotations = 0;
    n_compactions = 0;
    tel = None;
  }

let create ?config ?storage ~genesis dir =
  let t = make ?config ?storage dir in
  let module St = (val t.storage) in
  St.mkdirp dir;
  if List.exists (fun f -> seg_index f <> None) (St.list_dir dir) then
    raise (Error (Journal_exists dir));
  let bytes = frame ~segment:0 Genesis genesis in
  St.append (seg_path t 0) bytes;
  (* Genesis durability is unconditional: a journal that exists can be
     recovered, whatever the fsync policy says about later entries. That
     takes both the data fsync and a directory fsync — without the
     latter, segment 0's entry itself can vanish on power loss. *)
  St.fsync (seg_path t 0);
  fsync_dir t;
  t.seg_bytes <- String.length bytes;
  t.live_segments <- [ 0 ];
  t.n_appends <- 1;
  t.n_fsyncs <- 1;
  t

(* --- Recovery --------------------------------------------------------------- *)

type recovery = {
  records : record list;
  base_segment : int;
  segments_scanned : int;
  truncated_bytes : int;
}

let recover ?config ?storage dir =
  let t = make ?config ?storage dir in
  let module St = (val t.storage) in
  let truncated = ref 0 in
  (* Staging files from an interrupted compaction never became part of the
     journal; discard them before anything else. *)
  List.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then St.delete (Filename.concat dir f))
    (St.list_dir dir);
  let segs =
    St.list_dir dir |> List.filter_map seg_index |> List.sort_uniq compare |> ref
  in
  if !segs = [] then raise (Error (No_segments dir));
  (* Each segment is read, and its first record checksummed, at most once:
     the header check, the base probe and the scan share the result —
     [None] for a header that is not the segment's own. *)
  let opened = Hashtbl.create 4 in
  let open_segment index =
    match Hashtbl.find_opt opened index with
    | Some o -> o
    | None ->
        let contents = St.read_file (seg_path t index) in
        let first =
          if header_valid contents index then Some (parse_record contents header_len)
          else None
        in
        Hashtbl.replace opened index (contents, first);
        (contents, first)
  in
  (* Trailing segments whose header never became durable are the remains of
     a crashed rotation: drop them, exposing the previous (fsynced-at-
     rotation) segment as the append tail. *)
  let rec drop_headerless () =
    match List.rev !segs with
    | last :: (_ :: _ as rest_rev) -> (
        match open_segment last with
        | contents, None ->
            truncated := !truncated + String.length contents;
            St.delete (seg_path t last);
            segs := List.rev rest_rev;
            drop_headerless ()
        | _, Some _ -> ())
    | _ -> ()
  in
  drop_headerless ();
  (* The recovery base is the greatest segment opening with a durable
     Genesis/Snapshot record; anything older is superseded and never
     read. *)
  let base =
    match
      List.find_opt
        (fun i -> match open_segment i with
          | _, Some (Record ({ kind = Genesis | Snapshot; _ }, _)) -> true
          | _ -> false)
        (List.rev !segs)
    with
    | Some b -> b
    | None -> raise (Error (No_valid_base dir))
  in
  List.iter (fun i -> if i < base then St.delete (seg_path t i)) !segs;
  let segs = List.filter (fun i -> i >= base) !segs in
  (* Contiguity from the base forward: a gap means records are gone for
     good, and silently skipping it would violate the prefix guarantee. *)
  List.iteri
    (fun k i ->
      if i <> base + k then raise (Error (Missing_segment { dir; index = base + k })))
    segs;
  let last = List.nth segs (List.length segs - 1) in
  (* Per-segment record runs, collected newest-first and concatenated
     once at the end — appending to the accumulated list per segment
     would make recovery quadratic in journal length. *)
  let seg_records = ref [] in
  let tail_bytes = ref 0 in
  List.iter
    (fun index ->
      let path = seg_path t index in
      let contents, first = open_segment index in
      Hashtbl.remove opened index;
      let recs, ending =
        match first with
        | Some step -> parse_run contents step []
        | None ->
            raise
              (Error (Corrupt_record { segment = path; offset = 0; reason = "bad segment header" }))
      in
      (match ending with
      | Clean -> ()
      | Bad_version { offset; version } ->
          raise (Error (Unsupported_version { segment = path; offset; version }))
      | Bad_kind { offset; byte } ->
          raise
            (Error
               (Corrupt_record
                  { segment = path; offset; reason = Printf.sprintf "unknown record kind %d" byte }))
      | Torn { offset; reason; _ } ->
          if index = last then begin
            (* The torn tail of the final segment is the crash frontier:
               cut back to the last valid record boundary. *)
            truncated := !truncated + (String.length contents - offset);
            St.truncate path offset
          end
          else raise (Error (Corrupt_record { segment = path; offset; reason })));
      if index = last then tail_bytes := St.size path;
      seg_records := recs :: !seg_records)
    segs;
  let records = List.concat (List.rev !seg_records) in
  (* Recovery's own mutations — dropped staging files, deleted headerless
     or superseded segments, the truncated tail — become durable here. *)
  fsync_dir t;
  t.seg <- last;
  t.seg_bytes <- !tail_bytes;
  t.live_segments <- segs;
  t.since_snapshot <-
    List.length (List.filter (fun r -> r.kind = Entry) records);
  ( t,
    {
      records;
      base_segment = base;
      segments_scanned = List.length segs;
      truncated_bytes = !truncated;
    } )

(* --- Images ----------------------------------------------------------------- *)

let image parts = frame ~segment:0 Snapshot parts

type image_error =
  | Not_an_image
  | Short_image
  | Checksum_failed
  | Unknown_version of int
  | Unknown_kind

(* Recovery's parse without its repairs: a torn record is an error, never
   a tail to cut. *)
let of_image s =
  if not (header_valid s 0) then
    Result.Error
      (if String.starts_with ~prefix:s (segment_header 0) then Short_image else Not_an_image)
  else
    match parse_run s (parse_record s header_len) [] with
    | [], Clean -> Result.Error Short_image
    | records, Clean -> Ok records
    | _, Torn { short; _ } -> Result.Error (if short then Short_image else Checksum_failed)
    | _, Bad_version { version; _ } -> Result.Error (Unknown_version version)
    | _, Bad_kind _ -> Result.Error Unknown_kind
