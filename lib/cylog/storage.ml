exception Crashed
exception No_space

module type S = sig
  val mkdirp : string -> unit
  val list_dir : string -> string list
  val exists : string -> bool
  val size : string -> int
  val read_file : string -> string
  val append : string -> string -> unit
  val fsync : string -> unit
  val fsync_dir : string -> unit
  val truncate : string -> int -> unit
  val delete : string -> unit
  val rename : string -> string -> unit
  val close : string -> unit
end

(* --- CRC-32 (IEEE 802.3) ---------------------------------------------------- *)

(* Slicing-by-8 over native ints: table k (entries [256k .. 256k+255])
   advances a byte's contribution through k further zero bytes, so one
   step folds eight input bytes with eight lookups. Built on first use:
   a process that never checksums never allocates the 16 KB. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let crc_start = 0xFFFFFFFF

(* At the top level, not local to [crc_update]: a local function over [s]
   would allocate a closure on every call. *)
let byte s i = Char.code (String.unsafe_get s i)

let crc_update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Storage.crc_update";
  let t = Lazy.force crc_tables in
  let c = ref crc in
  let i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let p = !i in
    let lo = !c lxor (byte s p lor (byte s (p + 1) lsl 8) lor (byte s (p + 2) lsl 16) lor (byte s (p + 3) lsl 24)) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + byte s (p + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte s (p + 5))
      lxor Array.unsafe_get t (256 + byte s (p + 6))
      lxor Array.unsafe_get t (byte s (p + 7));
    i := p + 8
  done;
  for p = words_end to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor byte s p) land 0xff) lxor (!c lsr 8)
  done;
  !c

let crc_final crc = Int32.of_int (crc lxor 0xFFFFFFFF)

let crc32_sub s ~pos ~len = crc_final (crc_update crc_start s ~pos ~len)

(* --- POSIX files ------------------------------------------------------------ *)

module Posix : S = struct
  (* Append-mode descriptors cached per path; all other operations go
     through the path directly. One global table is fine: paths are
     absolute enough per journal directory, and the journal closes its
     files on rotation/compaction. *)
  let handles : (string, Unix.file_descr) Hashtbl.t = Hashtbl.create 8

  let rec mkdirp path =
    if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path) then begin
      mkdirp (Filename.dirname path);
      try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let list_dir dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      List.sort compare (Array.to_list (Sys.readdir dir))
    else []

  let exists = Sys.file_exists

  let size path = (Unix.stat path).Unix.st_size

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  let fd path =
    match Hashtbl.find_opt handles path with
    | Some fd -> fd
    | None ->
        let fd =
          Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
        in
        Hashtbl.replace handles path fd;
        fd

  let append path s =
    let fd = fd path in
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let written = ref 0 in
    while !written < n do
      match Unix.write fd b !written (n - !written) with
      | w -> written := !written + w
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> raise No_space
    done

  let fsync path = Unix.fsync (fd path)

  (* fsync on a file covers its data, not its directory entry: segment
     creation, the compaction rename and segment deletion are durable
     only once the directory itself is synced. Some filesystems refuse
     fsync on a directory descriptor (EINVAL); there the entry metadata
     is as durable as that filesystem can make it. *)
  let fsync_dir dir =
    let fd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try Unix.fsync fd
        with Unix.Unix_error ((Unix.EINVAL | Unix.EBADF), _, _) -> ())

  let close path =
    match Hashtbl.find_opt handles path with
    | Some fd ->
        Hashtbl.remove handles path;
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ()

  let truncate path len =
    close path;
    Unix.truncate path len

  let delete path =
    close path;
    if Sys.file_exists path then Sys.remove path

  let rename src dst =
    close src;
    close dst;
    Sys.rename src dst
end

(* --- In-memory simulator with fault injection -------------------------------- *)

module Sim = struct
  type tail = Drop_unsynced | Torn of int | Garbage of int

  type plan = {
    crash_at_op : int option;
    tail : tail;
    no_space_after : int option;
    delayed_fsync : float;
    seed : int;
  }

  let default_plan =
    { crash_at_op = None; tail = Drop_unsynced; no_space_after = None;
      delayed_fsync = 0.0; seed = 0 }

  (* [entry_durable]: the directory entry naming this file survived an
     fsync_dir. Data durability ([synced]) is tracked separately, as
     POSIX separates them. *)
  type file = { mutable data : Buffer.t; mutable synced : int; mutable entry_durable : bool }

  type t = {
    files : (string, file) Hashtbl.t;
    dirs : (string, unit) Hashtbl.t;
    mutable ops : int;
    mutable bytes_left : int option;
    plan : plan;
    rng : Random.State.t;
    mutable crashed : bool;
    mutable crash_image : (string * string) list;  (* path -> surviving bytes *)
  }

  let create ?(plan = default_plan) () =
    {
      files = Hashtbl.create 8;
      dirs = Hashtbl.create 4;
      ops = 0;
      bytes_left = plan.no_space_after;
      plan;
      rng = Random.State.make [| plan.seed; 0x517A |];
      crashed = false;
      crash_image = [];
    }

  let ops t = t.ops
  let crashed t = t.crashed

  let garbage_bytes = "\xff\xde\xad\xbe\xef\xff\x00\x7f"

  (* The byte image a disk presents after the crash, under adversarial
     metadata writeback: entry *removals* (delete, rename-away) are
     treated as already durable, while entry *additions* are durable
     only once fsync_dir runs — so a file created or renamed into place
     since the last directory sync vanishes entirely, whatever its data
     fsyncs say. Every surviving file keeps its fsynced prefix; only the
     in-flight file (the append racing the crash, if any) keeps part of
     its unsynced region, per the plan's [tail] mode. *)
  let build_crash_image t ~in_flight =
    Hashtbl.fold
      (fun path f acc ->
        if not f.entry_durable then acc
        else
          let all = Buffer.contents f.data in
          let synced = String.sub all 0 (min f.synced (String.length all)) in
          let surviving =
            match in_flight with
            | Some (p, extra) when String.equal p path ->
                let unsynced =
                  String.sub all f.synced (String.length all - f.synced) ^ extra
                in
                let keep n = String.sub unsynced 0 (min n (String.length unsynced)) in
                (match t.plan.tail with
                | Drop_unsynced -> synced
                | Torn n -> synced ^ keep n
                | Garbage n -> synced ^ keep n ^ garbage_bytes)
            | _ -> synced
          in
          (path, surviving) :: acc)
      t.files []

  (* Count one operation; fire the crash when the countdown hits.
     [in_flight] names the file (and extra bytes) being appended when the
     crash interrupts an append. *)
  let op ?in_flight t =
    if t.crashed then raise Crashed;
    t.ops <- t.ops + 1;
    match t.plan.crash_at_op with
    | Some c when t.ops >= c ->
        t.crash_image <- build_crash_image t ~in_flight;
        t.crashed <- true;
        raise Crashed
    | _ -> ()

  let find t path =
    match Hashtbl.find_opt t.files path with
    | Some f -> f
    | None -> raise (Sys_error (path ^ ": no such file (sim)"))

  let after_crash t =
    if not t.crashed then invalid_arg "Storage.Sim.after_crash: not crashed";
    let fresh = create () in
    List.iter
      (fun (path, contents) ->
        let data = Buffer.create (String.length contents + 64) in
        Buffer.add_string data contents;
        Hashtbl.replace fresh.files path
          { data; synced = String.length contents; entry_durable = true })
      t.crash_image;
    Hashtbl.iter (fun d () -> Hashtbl.replace fresh.dirs d ()) t.dirs;
    fresh

  let copy ?plan t =
    let fresh = create ?plan () in
    Hashtbl.iter
      (fun path f ->
        let contents = Buffer.contents f.data in
        let data = Buffer.create (String.length contents + 64) in
        Buffer.add_string data contents;
        Hashtbl.replace fresh.files path
          { data; synced = String.length contents; entry_durable = true })
      t.files;
    Hashtbl.iter (fun d () -> Hashtbl.replace fresh.dirs d ()) t.dirs;
    fresh

  let storage t : (module S) =
    (module struct
      let mkdirp dir = Hashtbl.replace t.dirs dir ()

      let list_dir dir =
        let prefix = if dir = "" || dir.[String.length dir - 1] = '/' then dir else dir ^ "/" in
        Hashtbl.fold
          (fun path _ acc ->
            let n = String.length prefix in
            if String.length path > n && String.sub path 0 n = prefix
               && not (String.contains (String.sub path n (String.length path - n)) '/')
            then String.sub path n (String.length path - n) :: acc
            else acc)
          t.files []
        |> List.sort compare

      let exists path = Hashtbl.mem t.files path || Hashtbl.mem t.dirs path
      let size path = Buffer.length (find t path).data
      let read_file path = Buffer.contents (find t path).data

      let append path s =
        (* Short-write accounting happens before the crash check so an
           ENOSPC append is itself a crashable operation. *)
        let s, enospc =
          match t.bytes_left with
          | Some left when String.length s > left ->
              t.bytes_left <- Some 0;
              (String.sub s 0 left, true)
          | Some left ->
              t.bytes_left <- Some (left - String.length s);
              (s, false)
          | None -> (s, false)
        in
        op t ~in_flight:(path, s);
        let f =
          match Hashtbl.find_opt t.files path with
          | Some f -> f
          | None ->
              let f = { data = Buffer.create 256; synced = 0; entry_durable = false } in
              Hashtbl.replace t.files path f;
              f
        in
        Buffer.add_string f.data s;
        if enospc then raise No_space

      let fsync path =
        op t;
        let f = find t path in
        if not (t.plan.delayed_fsync > 0.0
                && Random.State.float t.rng 1.0 < t.plan.delayed_fsync)
        then f.synced <- Buffer.length f.data

      (* Commit the directory's current entry set: pending entry
         additions (creates and rename targets) become durable. *)
      let fsync_dir dirpath =
        op t;
        Hashtbl.iter
          (fun p f ->
            if String.equal (Filename.dirname p) dirpath then f.entry_durable <- true)
          t.files

      let truncate path len =
        op t;
        let f = find t path in
        let kept = String.sub (Buffer.contents f.data) 0 (min len (Buffer.length f.data)) in
        let data = Buffer.create (String.length kept + 64) in
        Buffer.add_string data kept;
        f.data <- data;
        f.synced <- min f.synced len

      let delete path =
        op t;
        Hashtbl.remove t.files path

      let rename src dst =
        op t;
        let f = find t src in
        Hashtbl.remove t.files src;
        (* The bytes travel with the inode, but the [dst] entry is new
           metadata — durable only after fsync_dir. Adversarial
           writeback: a crash before that sync loses the file outright
           (the removal of [src] counts as durable, the addition of
           [dst] does not). *)
        f.entry_durable <- false;
        Hashtbl.replace t.files dst f

      let close _ = ()
    end)
end
