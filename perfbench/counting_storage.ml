(* A counting, timing decorator over any [Cylog.Storage.S]. It sits
   between the journal and the in-memory store of the fleet-durable
   workload, so the storage figures come from outside the library. *)

type counts = {
  mutable appends : int;
  mutable append_bytes : int;
  mutable snapshot_bytes : int;  (** appended to compaction [.tmp] files *)
  mutable fsyncs : int;
  mutable fsync_dirs : int;
  mutable renames : int;
  mutable reads : int;
  mutable read_bytes : int;
  mutable busy_ns : int;
}

let create () =
  {
    appends = 0;
    append_bytes = 0;
    snapshot_bytes = 0;
    fsyncs = 0;
    fsync_dirs = 0;
    renames = 0;
    reads = 0;
    read_bytes = 0;
    busy_ns = 0;
  }

let copy c = { c with appends = c.appends }

let diff a b =
  {
    appends = a.appends - b.appends;
    append_bytes = a.append_bytes - b.append_bytes;
    snapshot_bytes = a.snapshot_bytes - b.snapshot_bytes;
    fsyncs = a.fsyncs - b.fsyncs;
    fsync_dirs = a.fsync_dirs - b.fsync_dirs;
    renames = a.renames - b.renames;
    reads = a.reads - b.reads;
    read_bytes = a.read_bytes - b.read_bytes;
    busy_ns = a.busy_ns - b.busy_ns;
  }

let wrap c (module B : Cylog.Storage.S) : (module Cylog.Storage.S) =
  let timed f =
    let t0 = Clock.now_ns () in
    Fun.protect f ~finally:(fun () -> c.busy_ns <- c.busy_ns + (Clock.now_ns () - t0))
  in
  (module struct
    let mkdirp p = timed (fun () -> B.mkdirp p)
    let list_dir p = timed (fun () -> B.list_dir p)
    let exists p = timed (fun () -> B.exists p)
    let size p = timed (fun () -> B.size p)

    let read_file p =
      let s = timed (fun () -> B.read_file p) in
      c.reads <- c.reads + 1;
      c.read_bytes <- c.read_bytes + String.length s;
      s

    let append p s =
      c.appends <- c.appends + 1;
      c.append_bytes <- c.append_bytes + String.length s;
      if Filename.check_suffix p ".tmp" then
        c.snapshot_bytes <- c.snapshot_bytes + String.length s;
      timed (fun () -> B.append p s)

    let fsync p =
      c.fsyncs <- c.fsyncs + 1;
      timed (fun () -> B.fsync p)

    let fsync_dir p =
      c.fsync_dirs <- c.fsync_dirs + 1;
      timed (fun () -> B.fsync_dir p)

    let truncate p n = timed (fun () -> B.truncate p n)
    let delete p = timed (fun () -> B.delete p)

    let rename a b =
      c.renames <- c.renames + 1;
      timed (fun () -> B.rename a b)

    let close p = timed (fun () -> B.close p)
  end)
