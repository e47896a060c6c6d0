(* Spans around the benchmark's own calls into each layer of the program.

   Tracing is off unless a traced repetition turns it on; off, [span] is
   one branch and a direct call. On, every span records its name, start
   and end on the monotonic clock, the enclosing span, the current
   campaign round and the minor-heap words allocated inside it. Spans stay
   in memory until the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  round : int;  (** -1 outside a campaign round *)
  start_ns : int;
  end_ns : int;
  alloc_words : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let round = ref (-1)

let start () =
  recorded := [];
  next_id := 0;
  stack := [];
  round := -1;
  enabled := true

(* Stop recording and hand back this repetition's spans in start order. *)
let stop () =
  enabled := false;
  let spans = List.sort (fun a b -> compare a.id b.id) !recorded in
  recorded := [];
  spans

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let finish () =
      let t1 = Clock.now_ns () in
      let alloc_words = Gc.minor_words () -. w0 in
      stack := List.tl !stack;
      recorded :=
        { id; name; parent; round = !round; start_ns = t0; end_ns = t1; alloc_words }
        :: !recorded
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

type layer = { calls : int; busy_s : float; self_s : float; alloc_words : float }

let no_layer = { calls = 0; busy_s = 0.; self_s = 0.; alloc_words = 0. }

(* Per span name: call count, busy time, self time (busy time minus the
   part covered by direct child spans) and allocated words. *)
let layers spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (s.end_ns - s.start_ns
          + Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0))
    spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.end_ns - s.start_ns in
      let self = d - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0 in
      let l = Option.value (Hashtbl.find_opt tbl s.name) ~default:no_layer in
      Hashtbl.replace tbl s.name
        {
          calls = l.calls + 1;
          busy_s = l.busy_s +. (float_of_int d *. 1e-9);
          self_s = l.self_s +. (float_of_int self *. 1e-9);
          alloc_words = l.alloc_words +. s.alloc_words;
        })
    spans;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:no_layer

(* One JSON object per line, times relative to the first span's start. *)
let write_jsonl path spans =
  let t0 = match spans with s :: _ -> s.start_ns | [] -> 0 in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"round\":%d,\"start_ns\":%d,\"end_ns\":%d,\"alloc_words\":%.0f}\n"
        s.id s.name s.parent s.round (s.start_ns - t0) (s.end_ns - t0) s.alloc_words)
    spans;
  close_out oc
