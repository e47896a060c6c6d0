(* Crash-consistent durability: the segmented WAL (Cylog.Journal) over
   fault-injecting storage (Cylog.Storage.Sim), checkpoint images, and
   the crash-point harness — a crash at every storage operation of a
   faulted adaptive-quorum campaign must recover to a valid prefix of the
   original journal, and re-driving the lost tail must reproduce the
   original event trace byte for byte. *)

open Cylog
module Sim = Storage.Sim

let engine_trace engine =
  List.map
    (fun (e : Engine.event) ->
      (e.clock, e.statement, e.label, e.valuation, e.fired, e.effects, e.by_human))
    (Engine.events engine)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let rec drop_n n xs =
  if n <= 0 then xs else match xs with [] -> [] | _ :: tl -> drop_n (n - 1) tl

(* --- Raw framing (mirrors journal.ml, for tampering with segments) --------- *)

let crc32 s = Storage.crc32_sub s ~pos:0 ~len:(String.length s)

let put_u32le b n =
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff))

(* One wire-format record: length, crc32 over version++kind++payload, then
   the body. [version]/[kind] default to a valid Entry so tests can skew
   exactly one field at a time. *)
let frame ?(version = 1) ?(kind = 1) payload =
  let body = Printf.sprintf "%c%c%s" (Char.chr version) (Char.chr kind) payload in
  let b = Buffer.create (8 + String.length body) in
  put_u32le b (String.length body);
  put_u32le b (Int32.to_int (crc32 body) land 0xFFFFFFFF);
  Buffer.add_string b body;
  Buffer.contents b

let seg_path dir i = Printf.sprintf "%s/wal-%08d.seg" dir i

let kind_char = function
  | Journal.Genesis -> 'G'
  | Journal.Entry -> 'E'
  | Journal.Snapshot -> 'S'

let shape (r : Journal.recovery) =
  String.init (List.length r.records) (fun i ->
      kind_char (List.nth r.records i).Journal.kind)

let payloads (r : Journal.recovery) =
  List.map (fun (rec_ : Journal.record) -> rec_.Journal.payload) r.records

(* --- Journal unit tests (pure WAL, no engine) ------------------------------ *)

let test_journal_roundtrip () =
  let sim = Sim.create () in
  let st = Sim.storage sim in
  let j = Journal.create ~storage:st ~genesis:[ "G0" ] "j" in
  List.iter (Journal.append j) [ "e1"; "e2"; "e3" ];
  Journal.close j;
  let j2, r = Journal.recover ~storage:st "j" in
  Alcotest.(check string) "record run" "GEEE" (shape r);
  Alcotest.(check (list string)) "payloads survive" [ "G0"; "e1"; "e2"; "e3" ]
    (payloads r);
  Alcotest.(check int) "base is segment 0" 0 r.base_segment;
  Alcotest.(check int) "nothing truncated" 0 r.truncated_bytes;
  (* The recovered handle keeps appending where the old one stopped. *)
  Journal.append j2 "e4";
  Journal.close j2;
  let _, r2 = Journal.recover ~storage:st "j" in
  Alcotest.(check string) "appended after recovery" "GEEEE" (shape r2);
  (* A directory already holding segments refuses a fresh create. *)
  match Journal.create ~storage:st ~genesis:[ "G1" ] "j" with
  | exception Journal.Error (Journal.Journal_exists _) -> ()
  | _ -> Alcotest.fail "create over an existing journal must be refused"

let test_journal_rotation () =
  let sim = Sim.create () in
  let st = Sim.storage sim in
  let config = { Journal.default_config with segment_bytes = 64 } in
  let j = Journal.create ~config ~storage:st ~genesis:[ "G" ] "j" in
  let entries = List.init 20 (Printf.sprintf "entry-%02d") in
  List.iter (Journal.append j) entries;
  let stats = Journal.stats j in
  Alcotest.(check bool) "rotated at least twice" true (stats.Journal.rotations >= 2);
  Journal.close j;
  let _, r = Journal.recover ~config ~storage:st "j" in
  Alcotest.(check bool) "several segments scanned" true (r.segments_scanned >= 3);
  Alcotest.(check (list string)) "all records, in order" ("G" :: entries) (payloads r)

let test_journal_compaction () =
  let sim = Sim.create () in
  let st = Sim.storage sim in
  let j = Journal.create ~storage:st ~genesis:[ "G" ] "j" in
  List.iter (Journal.append j) [ "a"; "b"; "c"; "d" ];
  Journal.compact j [ "SN"; ""; "AP" ];
  List.iter (Journal.append j) [ "e"; "f" ];
  Journal.close j;
  let j2, r = Journal.recover ~storage:st "j" in
  Alcotest.(check string) "restore is O(live state): snapshot + tail" "SEE" (shape r);
  Alcotest.(check (list string)) "post-snapshot tail" [ "SNAP"; "e"; "f" ] (payloads r);
  Alcotest.(check bool) "base moved past segment 0" true (r.base_segment > 0);
  (* Pre-compaction segments are really gone from storage. *)
  let stats = Journal.stats j2 in
  Alcotest.(check bool) "no live segment below the base" true
    (List.for_all (fun i -> i >= r.base_segment) stats.Journal.segments)

let test_torn_tail_truncated_then_idempotent () =
  let sim = Sim.create () in
  let st = Sim.storage sim in
  let j = Journal.create ~storage:st ~genesis:[ "G" ] "j" in
  List.iter (Journal.append j) [ "a"; "b" ];
  Journal.close j;
  (* A torn write: the first 6 bytes of a valid record, then silence. *)
  let module St = (val st) in
  St.append (seg_path "j" 0) (String.sub (frame "torn-away") 0 6);
  let _, r = Journal.recover ~storage:st "j" in
  Alcotest.(check int) "torn tail dropped" 6 r.truncated_bytes;
  Alcotest.(check (list string)) "valid prefix survives" [ "G"; "a"; "b" ] (payloads r);
  (* Recovery only discards bytes, so running it again is a no-op. *)
  let _, r2 = Journal.recover ~storage:st "j" in
  Alcotest.(check int) "second recovery truncates nothing" 0 r2.truncated_bytes;
  Alcotest.(check (list string)) "and sees the same records" [ "G"; "a"; "b" ]
    (payloads r2)

let test_garbage_tail_truncated () =
  let sim = Sim.create () in
  let st = Sim.storage sim in
  let j = Journal.create ~storage:st ~genesis:[ "G" ] "j" in
  Journal.append j "a";
  Journal.close j;
  let module St = (val st) in
  (* Framing nonsense: a length field no record could have. *)
  St.append (seg_path "j" 0) "\x00\x00\x00\x00garbage!";
  let _, r = Journal.recover ~storage:st "j" in
  Alcotest.(check int) "garbage dropped" 12 r.truncated_bytes;
  Alcotest.(check (list string)) "records intact" [ "G"; "a" ] (payloads r)

let test_recover_edge_cases () =
  (* Empty storage: nothing to recover. *)
  let sim = Sim.create () in
  (match Journal.recover ~storage:(Sim.storage sim) "j" with
  | exception Journal.Error (Journal.No_segments _) -> ()
  | _ -> Alcotest.fail "empty dir must raise No_segments");
  (* Directory exists but holds no segments: same answer. *)
  let module St0 = (val Sim.storage sim) in
  St0.mkdirp "j";
  (match Journal.recover ~storage:(Sim.storage sim) "j" with
  | exception Journal.Error (Journal.No_segments _) -> ()
  | _ -> Alcotest.fail "segment-less dir must raise No_segments");
  (* A checksum-valid record from a future format version is never
     truncated — even at the tail — and always refused. *)
  let sim = Sim.create () in
  let st = Sim.storage sim in
  let j = Journal.create ~storage:st ~genesis:[ "G" ] "j" in
  Journal.append j "a";
  Journal.close j;
  let module St = (val st) in
  St.append (seg_path "j" 0) (frame ~version:2 "from-the-future");
  (match Journal.recover ~storage:st "j" with
  | exception Journal.Error (Journal.Unsupported_version { version = 2; _ }) -> ()
  | _ -> Alcotest.fail "version-skewed record must raise Unsupported_version");
  (* A checksum-valid record of unknown kind is corruption, not a tear. *)
  let sim = Sim.create () in
  let st = Sim.storage sim in
  let j = Journal.create ~storage:st ~genesis:[ "G" ] "j" in
  Journal.close j;
  let module St = (val st) in
  St.append (seg_path "j" 0) (frame ~kind:7 "what-am-i");
  (match Journal.recover ~storage:st "j" with
  | exception Journal.Error (Journal.Corrupt_record _) -> ()
  | _ -> Alcotest.fail "unknown record kind must raise Corrupt_record");
  (* A gap in the segment sequence after the base is refused, not skipped. *)
  let sim = Sim.create () in
  let st = Sim.storage sim in
  let config = { Journal.default_config with segment_bytes = 64 } in
  let j = Journal.create ~config ~storage:st ~genesis:[ "G" ] "j" in
  List.iter (Journal.append j) (List.init 20 (Printf.sprintf "entry-%02d"));
  let live = (Journal.stats j).Journal.segments in
  Alcotest.(check bool) "enough segments to punch a hole" true
    (List.length live >= 3);
  Journal.close j;
  let module St = (val st) in
  St.delete (seg_path "j" (List.nth live 1));
  match Journal.recover ~config ~storage:st "j" with
  | exception Journal.Error (Journal.Missing_segment { index; _ }) ->
      Alcotest.(check int) "the hole is named" (List.nth live 1) index
  | _ -> Alcotest.fail "a segment gap must raise Missing_segment"

(* --- Checkpoint images -------------------------------------------------------- *)

let mini_engine () =
  match Parser.parse "schema:\n  R(x key, y);\nrules:\n  R(x:1, y:2);\n" with
  | Ok p -> Engine.load p
  | Error e -> Alcotest.failf "mini program: %s" e.Parser.message

let test_snapshot_header_errors () =
  let snap = Engine.snapshot_string (mini_engine ()) in
  (* Round-trip sanity first: the untouched checkpoint restores. *)
  ignore (Engine.restore_string snap);
  let refused what input check =
    match Engine.restore_string input with
    | exception Engine.Snapshot_error r ->
        if not (check r) then
          Alcotest.failf "%s: unexpected reason %s" what (Engine.snapshot_reason_to_string r)
    | exception e -> Alcotest.failf "%s: expected Snapshot_error, got %s" what (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: restored" what
  in
  (* Any proper prefix — mid-header, mid-frame or mid-payload — is
     Truncated. *)
  for cut = 0 to String.length snap - 1 do
    refused (Printf.sprintf "cut %d" cut) (String.sub snap 0 cut) (( = ) Engine.Truncated)
  done;
  (* The decode is strict: bytes after the record are a torn record to
     refuse, not a tail to cut off. *)
  refused "trailing byte" (snap ^ "\x00") (( = ) Engine.Truncated);
  (* Every single-byte flip is refused with the reason its field gives:
     the 16-byte segment header is no checkpoint's; a record length may
     now reach past the end or cut the checksummed bytes short; anything
     after it (CRC, version, kind, payload) fails the checksum, never the
     unmarshaller. *)
  String.iteri
    (fun i c ->
      let b = Bytes.of_string snap in
      Bytes.set b i (Char.chr (Char.code c lxor 0xFF));
      refused (Printf.sprintf "flip %d" i) (Bytes.to_string b) (fun r ->
          if i < 16 then r = Engine.Not_a_snapshot
          else if i < 20 then r = Engine.Truncated || r = Engine.Checksum_mismatch
          else r = Engine.Checksum_mismatch))
    snap

(* --- The crash-point harness ------------------------------------------------ *)

(* A faulted adaptive-quorum campaign, small enough to sweep exhaustively
   but exercising every journaled entry kind (answers, declines, assigns,
   reclaims, lease and quorum installs). Shared across the tests below. *)
let variant = Tweetpecker.Programs.VEI
let corpus = lazy (Tweets.Generator.generate ~seed:5 4)

let reference =
  lazy
    (Tweetpecker.Runner.run ~seed:13 ~corpus:(Lazy.force corpus)
       ~faults:Crowd.Faults.garble ~lease:Lease.default_config
       ~policy:(Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 5 })
       variant)

let campaign_program () =
  Tweetpecker.Programs.program variant ~corpus:(Lazy.force corpus)
    ~workers:
      (List.map
         (fun (w : Crowd.Worker.profile) -> w.name)
         (Tweetpecker.Runner.default_workers variant))

(* Small segments and frequent compaction so the op sweep crosses many
   rotation and compaction boundaries, not just plain appends. *)
let jcfg = { Journal.fsync = Journal.Always; segment_bytes = 512; compact_every = Some 10 }

let replay ~config ~storage program entries =
  let engine = Engine.load program in
  Engine.journal_start ~config ~storage engine "j";
  List.iter (Engine.apply_entry engine) entries;
  engine

let test_baseline_replay_and_clean_recover () =
  let o = Lazy.force reference in
  let entries = Engine.journal_entries o.engine in
  let program = campaign_program () in
  let sim = Sim.create () in
  let engine = replay ~config:jcfg ~storage:(Sim.storage sim) program entries in
  Alcotest.(check bool) "journal replay reproduces the campaign" true
    (engine_trace engine = engine_trace o.engine);
  let j = Option.get (Engine.durable_journal engine) in
  let stats = Journal.stats j in
  Alcotest.(check bool) "sweep will cross rotations" true (stats.Journal.rotations > 0);
  Alcotest.(check bool) "sweep will cross compactions" true
    (stats.Journal.compactions > 0);
  Journal.close j;
  (* Clean recovery: byte-identical state, nothing truncated. *)
  let recovered, rs =
    Engine.recover ~config:jcfg ~storage:(Sim.storage sim) "j"
  in
  Alcotest.(check int) "clean recovery truncates nothing" 0 rs.Engine.truncated_bytes;
  Alcotest.(check bool) "recovered trace identical" true
    (engine_trace recovered = engine_trace o.engine);
  Alcotest.(check bool) "recovered journal byte-identical" true
    (Engine.journal_dump recovered = Engine.journal_dump o.engine);
  (* Recover-after-recover is a no-op. *)
  let again, rs2 = Engine.recover ~config:jcfg ~storage:(Sim.storage sim) "j" in
  Alcotest.(check int) "double recovery truncates nothing" 0 rs2.Engine.truncated_bytes;
  Alcotest.(check bool) "double recovery identical" true
    (engine_trace again = engine_trace o.engine)

(* Crash at storage operation [k] while re-driving [entries], then recover
   from the byte image and check the crash-consistency contract. *)
let crash_once ~label ~plan ~config program entries ref_trace ref_dump =
  let sim = Sim.create ~plan () in
  let engine = Engine.load program in
  let applied = ref 0 in
  (try
     Engine.journal_start ~config ~storage:(Sim.storage sim) engine "j";
     List.iter
       (fun e ->
         Engine.apply_entry engine e;
         incr applied)
       entries
   with Storage.Crashed -> ());
  if not (Sim.crashed sim) then
    Alcotest.failf "%s: schedule ended before the planned crash" label;
  let image = Sim.after_crash sim in
  match Engine.recover ~config ~storage:(Sim.storage image) "j" with
  | exception Journal.Error (Journal.No_segments _ | Journal.No_valid_base _) ->
      (* Legitimate only when the crash predates the genesis fsync — i.e.
         before any entry was acknowledged. *)
      Alcotest.(check int) (label ^ ": lost journals predate any append") 0 !applied
  | recovered, _ ->
      Alcotest.(check bool)
        (label ^ ": recovered trace is a prefix of the original")
        true
        (is_prefix (engine_trace recovered) ref_trace);
      let have = List.length (Engine.journal_entries recovered) in
      (* fsync Always: every entry whose append returned is durable. *)
      if config.Journal.fsync = Journal.Always then
        Alcotest.(check bool) (label ^ ": no acknowledged entry lost") true
          (have >= !applied);
      (* Re-drive the lost tail: the resumed engine must be byte-identical
         to the campaign that never crashed. *)
      List.iter (Engine.apply_entry recovered) (drop_n have entries);
      Alcotest.(check bool) (label ^ ": re-driven trace identical") true
        (engine_trace recovered = ref_trace);
      Alcotest.(check bool) (label ^ ": re-driven journal byte-identical") true
        (Engine.journal_dump recovered = ref_dump)

let test_crash_point_sweep () =
  let o = Lazy.force reference in
  let entries = Engine.journal_entries o.engine in
  let ref_trace = engine_trace o.engine in
  let ref_dump = Engine.journal_dump o.engine in
  let program = campaign_program () in
  (* Count the fault-free schedule's storage operations; every one of them
     is a crash point. *)
  let sim0 = Sim.create () in
  let engine0 = replay ~config:jcfg ~storage:(Sim.storage sim0) program entries in
  Journal.close (Option.get (Engine.durable_journal engine0));
  let total = Sim.ops sim0 in
  Alcotest.(check bool) "a schedule worth sweeping" true (total > 50);
  (* What the crash leaves of the in-flight file rotates through the tail
     modes, so torn and garbage tails are exercised at many offsets. *)
  let tails = [| Sim.Drop_unsynced; Sim.Torn 3; Sim.Garbage 4 |] in
  let tail_name = function
    | Sim.Drop_unsynced -> "drop"
    | Sim.Torn n -> Printf.sprintf "torn%d" n
    | Sim.Garbage n -> Printf.sprintf "garbage%d" n
  in
  for k = 1 to total do
    let tail = tails.(k mod Array.length tails) in
    crash_once
      ~label:(Printf.sprintf "%s@op%d/%d" (tail_name tail) k total)
      ~plan:{ Sim.default_plan with crash_at_op = Some k; tail }
      ~config:jcfg program entries ref_trace ref_dump
  done

let test_fsync_policy_matrix () =
  let o = Lazy.force reference in
  let entries = Engine.journal_entries o.engine in
  let ref_trace = engine_trace o.engine in
  let program = campaign_program () in
  List.iter
    (fun fsync ->
      let config = { jcfg with Journal.fsync } in
      (* Clean close: every policy recovers the full campaign. *)
      let sim = Sim.create () in
      let engine = replay ~config ~storage:(Sim.storage sim) program entries in
      Journal.close (Option.get (Engine.durable_journal engine));
      let total = Sim.ops sim in
      let recovered, _ =
        Engine.recover ~config ~storage:(Sim.storage sim) "j"
      in
      Alcotest.(check bool) "clean close recovers fully under any policy" true
        (engine_trace recovered = ref_trace);
      (* A mid-campaign crash: lazier policies may lose a longer suffix,
         but what survives is always a valid prefix that re-drives to the
         identical end state. *)
      crash_once
        ~label:
          (Printf.sprintf "policy %s + crash"
             (match fsync with
             | Journal.Always -> "always"
             | Journal.Every_n n -> Printf.sprintf "every-%d" n
             | Journal.Never -> "never"))
        ~plan:{ Sim.default_plan with crash_at_op = Some (2 * total / 3) }
        ~config program entries ref_trace
        (Engine.journal_dump o.engine))
    [ Journal.Always; Journal.Every_n 3; Journal.Never ]

let test_enospc_mid_record () =
  let o = Lazy.force reference in
  let entries = Engine.journal_entries o.engine in
  let ref_trace = engine_trace o.engine in
  let ref_dump = Engine.journal_dump o.engine in
  let program = campaign_program () in
  List.iter
    (fun budget ->
      let label = Printf.sprintf "enospc@%dB" budget in
      let plan = { Sim.default_plan with no_space_after = Some budget } in
      let sim = Sim.create ~plan () in
      let engine = Engine.load program in
      let applied = ref 0 in
      let tripped =
        try
          Engine.journal_start ~config:jcfg ~storage:(Sim.storage sim) engine "j";
          List.iter
            (fun e ->
              Engine.apply_entry engine e;
              incr applied)
            entries;
          false
        with Storage.No_space -> true
      in
      Alcotest.(check bool) (label ^ ": budget trips mid-campaign") true tripped;
      (* The process survives ENOSPC; once space is back (the copy lifts
         the budget) recovery truncates the short write and resumes. *)
      let image = Sim.copy sim in
      match Engine.recover ~config:jcfg ~storage:(Sim.storage image) "j" with
      | exception Journal.Error (Journal.No_segments _ | Journal.No_valid_base _) ->
          Alcotest.(check int) (label ^ ": lost journals predate any append") 0 !applied
      | recovered, _ ->
          Alcotest.(check bool) (label ^ ": prefix survives") true
            (is_prefix (engine_trace recovered) ref_trace);
          let have = List.length (Engine.journal_entries recovered) in
          List.iter (Engine.apply_entry recovered) (drop_n have entries);
          Alcotest.(check bool) (label ^ ": re-driven trace identical") true
            (engine_trace recovered = ref_trace);
          Alcotest.(check bool) (label ^ ": re-driven journal byte-identical") true
            (Engine.journal_dump recovered = ref_dump))
    [ 700; 2500; 9000 ]

(* --- End to end: campaigns over faulty storage ------------------------------ *)

let test_runner_storage_fault_profiles () =
  List.iter
    (fun (name, profile) ->
      let o =
        Tweetpecker.Runner.run ~seed:13 ~corpus:(Lazy.force corpus)
          ~storage_faults:profile ~policy:(Engine.Fixed 2) variant
      in
      Alcotest.(check (float 0.0001))
        (name ^ ": campaign completes despite the storage") 1.0
        (Tweetpecker.Runner.completion o);
      if List.exists (function Crowd.Faults.Storage_crash _ -> true | _ -> false) profile
      then
        Alcotest.(check bool) (name ^ ": the crash was survived, not avoided") true
          (o.recoveries <> []))
    Crowd.Faults.storage_profiles

let test_runner_composes_worker_and_storage_faults () =
  (* The ISSUE's headline composition: unreliable workers and unreliable
     storage in one seeded run. *)
  let o =
    Tweetpecker.Runner.run ~seed:13 ~corpus:(Lazy.force corpus)
      ~faults:Crowd.Faults.garble ~lease:Lease.default_config ~policy:(Engine.Fixed 2)
      ~storage_faults:Crowd.Faults.torn variant
  in
  (* Garbled answers may dead-letter a task via the rejection budget, so
     (as in the robustness fault matrix) demand termination, not 100%. *)
  Alcotest.(check bool) "terminates" true
    (o.sim.stop_reason = `Stopped || o.sim.stop_reason = `Stalled);
  Alcotest.(check bool) "most of the campaign completed" true
    (Tweetpecker.Runner.completion o >= 0.75);
  Alcotest.(check bool) "recovered at least once" true (o.recoveries <> []);
  List.iter
    (fun (r : Engine.recovery_stats) ->
      Alcotest.(check bool) "replayed a durable prefix" true (r.records_replayed >= 0))
    o.recoveries

(* --- Checksums and the state payload ----------------------------------------- *)

(* The bytewise CRC-32 loop over boxed [Int32]s that slicing-by-8
   replaced, kept as the reference. *)
let crc32_bytewise s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* Random slices: any offset, any length, so every 0-7-byte tail after
   the 8-byte steps comes up. *)
let prop_crc32_matches_bytewise =
  QCheck.Test.make ~name:"CRC-32 slicing-by-8 = bytewise reference" ~count:1000
    QCheck.(triple (string_of_size Gen.(0 -- 200)) small_nat small_nat)
    (fun (s, a, b) ->
      let pos = a mod (String.length s + 1) in
      let len = b mod (String.length s - pos + 1) in
      Storage.crc32_sub s ~pos ~len = crc32_bytewise s ~pos ~len)

let test_crc32 () =
  Alcotest.(check int32) "check value CRC32(\"123456789\")" 0xCBF43926l
    (crc32 "123456789");
  Alcotest.(check int32) "empty string" 0l (crc32 "");
  QCheck.Test.check_exn prop_crc32_matches_bytewise

(* A genesis payload written before state payloads carried a version tag
   was one bare Marshal image of the whole engine state. Recovery refuses
   it with a typed error before unmarshalling anything, and a tag naming
   another version the same way. *)
let test_untagged_state_payload_refused () =
  let refused label genesis =
    let sim = Sim.create () in
    let st = Sim.storage sim in
    Journal.close (Journal.create ~storage:st ~genesis "j");
    match Engine.recover ~storage:st "j" with
    | exception Engine.Snapshot_error (Engine.Unsupported_version v) -> v
    | exception e ->
        Alcotest.failf "%s: expected Unsupported_version, got %s" label (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: the payload was restored" label
  in
  (* The leading fields of the untagged payload record: the two strategy
     flags, then the program. *)
  let untagged = Marshal.to_string (true, true, Parser.parse_exn "rules:\n  R(x:1);\n") [] in
  Alcotest.(check int) "untagged Marshal image" 1 (refused "untagged" [ untagged ]);
  Alcotest.(check int) "a later tag" 3 (refused "later" [ "CYLOG-STATE/\003"; untagged ])

(* Recovery seeds the engine's encoded history from the base record, so
   a recovered engine's compactions copy those chunks instead of encoding
   the old history again. Recover mid-campaign, keep answering across
   further compactions, recover a second time and finish: every engine
   must end as the uninterrupted run does, under delta and rescan
   evaluation alike. *)
let monitored_reference =
  lazy
    (Tweetpecker.Runner.run ~seed:13 ~corpus:(Lazy.force corpus)
       ~faults:Crowd.Faults.garble ~lease:Lease.default_config
       ~policy:(Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 5 })
       ~monitor:Monitor.default_config variant)

let derived_view m =
  ( List.filter (fun (k, _) -> Engine.journal_derived k) (Telemetry.Metrics.counters m),
    Telemetry.Metrics.histograms m )

let test_recover_continue_recover () =
  let entries = Engine.journal_entries (Lazy.force monitored_reference).engine in
  let n = List.length entries in
  let between a b = List.filteri (fun i _ -> i >= a && i < b) entries in
  let config = { Journal.fsync = Journal.Always; segment_bytes = 2048; compact_every = Some 4 } in
  let program = campaign_program () in
  List.iter
    (fun use_delta ->
      let mode = if use_delta then "delta" else "rescan" in
      let check what ok = Alcotest.(check bool) (mode ^ ": " ^ what) true ok in
      let uninterrupted = Engine.load ~use_delta program in
      List.iter (Engine.apply_entry uninterrupted) entries;
      check "the reference campaign has a monitor" (Engine.monitor uninterrupted <> None);
      let sim = Sim.create () in
      let live = Engine.load ~use_delta program in
      Engine.journal_start ~config ~storage:(Sim.storage sim) live "j";
      List.iter (Engine.apply_entry live) (between 0 (n / 3));
      let once, s1 = Engine.recover ~config ~storage:(Sim.storage sim) "j" in
      check "the first recovery starts from a compaction" (s1.Engine.base_segment > 0);
      List.iter (Engine.apply_entry once) (between (n / 3) (2 * n / 3));
      check "the recovered engine compacts again"
        ((Journal.stats (Option.get (Engine.durable_journal once))).Journal.compactions > 0);
      let twice, s2 = Engine.recover ~config ~storage:(Sim.storage sim) "j" in
      check "the second recovery starts from the recovered engine's compaction"
        (s2.Engine.base_segment > s1.Engine.base_segment);
      List.iter (Engine.apply_entry twice) (between (2 * n / 3) n);
      check "same events" (engine_trace twice = engine_trace uninterrupted);
      check "same journal" (Engine.journal_dump twice = Engine.journal_dump uninterrupted);
      check "live registry = recount of the uninterrupted run"
        (derived_view (Engine.metrics twice)
        = derived_view (Engine.metrics_of_events (Engine.events uninterrupted)));
      check "same monitor view"
        (Option.map Monitor.view (Engine.monitor twice)
        = Option.map Monitor.view (Engine.monitor uninterrupted)))
    [ true; false ]

(* Recovery reads each surviving segment once: the base probe's bytes
   are the scan's. Compact a campaign's journal, let it rotate past the
   compaction, and count [read_file] calls under [Engine.recover]. *)
let test_recover_reads_each_segment_once () =
  let entries = Engine.journal_entries (Lazy.force reference).engine in
  let config = { Journal.fsync = Journal.Always; segment_bytes = 4096; compact_every = None } in
  let sim = Sim.create () in
  let live = Engine.load (campaign_program ()) in
  Engine.journal_start ~config ~storage:(Sim.storage sim) live "j";
  let n = List.length entries in
  List.iteri (fun i e -> if i < n / 2 then Engine.apply_entry live e) entries;
  Engine.compact_journal live;
  List.iteri (fun i e -> if i >= n / 2 then Engine.apply_entry live e) entries;
  let j = Option.get (Engine.durable_journal live) in
  let segments = (Journal.stats j).Journal.segments in
  Journal.close j;
  Alcotest.(check bool) "the compaction's segment rotated" true (List.length segments >= 2);
  let reads = ref 0 in
  let counting =
    let module B = (val Sim.storage sim) in
    (module struct
      include B

      let read_file p =
        incr reads;
        B.read_file p
    end : Storage.S)
  in
  let recovered, stats = Engine.recover ~config ~storage:counting "j" in
  Alcotest.(check int) "recovery starts from the compaction" (List.hd segments)
    stats.Engine.base_segment;
  Alcotest.(check int) "one read per surviving segment" (List.length segments) !reads;
  Alcotest.(check bool) "same journal" true
    (Engine.journal_dump recovered = Engine.journal_dump live)

let suite =
  [ ( "durability.journal",
      [ Alcotest.test_case "create/append/recover round-trip" `Quick
          test_journal_roundtrip;
        Alcotest.test_case "segment rotation" `Quick test_journal_rotation;
        Alcotest.test_case "compaction folds state into a snapshot" `Quick
          test_journal_compaction;
        Alcotest.test_case "torn tail truncated; recovery idempotent" `Quick
          test_torn_tail_truncated_then_idempotent;
        Alcotest.test_case "garbage tail truncated" `Quick test_garbage_tail_truncated;
        Alcotest.test_case "edge cases: empty, version skew, bad kind, gap" `Quick
          test_recover_edge_cases ] );
    ( "durability.snapshot",
      [ Alcotest.test_case "v2 header: truncation and checksum errors are typed"
          `Quick test_snapshot_header_errors ] );
    ( "durability.crash-points",
      [ Alcotest.test_case "journal replay + clean recovery baseline" `Quick
          test_baseline_replay_and_clean_recover;
        Alcotest.test_case "crash at every storage op recovers a prefix" `Slow
          test_crash_point_sweep;
        Alcotest.test_case "fsync policy matrix" `Slow test_fsync_policy_matrix;
        Alcotest.test_case "ENOSPC mid-record" `Quick test_enospc_mid_record ] );
    ( "durability.campaigns",
      [ Alcotest.test_case "storage fault profiles survive end to end" `Slow
          test_runner_storage_fault_profiles;
        Alcotest.test_case "worker and storage faults compose" `Quick
          test_runner_composes_worker_and_storage_faults ] );
    ( "durability.state",
      [ Alcotest.test_case "CRC-32: check value and bytewise reference" `Quick test_crc32;
        Alcotest.test_case "untagged state payload refused with a typed error" `Quick
          test_untagged_state_payload_refused;
        Alcotest.test_case "recover, continue, recover again across compactions" `Quick
          test_recover_continue_recover;
        Alcotest.test_case "recovery reads each surviving segment once" `Quick
          test_recover_reads_each_segment_once ] ) ]
