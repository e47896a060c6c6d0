(* Engine telemetry: metrics registry + deterministic tracing spans.
   See telemetry.mli for the contract. Everything here is stdlib-only and
   wall-clock-free: timestamps are the engine's logical clock and span ids
   are sequence counters, so traces and registries are stable under
   journal replay. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

module Metrics = struct
  type histogram = {
    bounds : int array;
    counts : int array;
    sum : int;
    count : int;
  }

  (* Mutable internals; [histogram] above is the frozen read-side view. *)
  type hist_cell = {
    h_bounds : int array;
    h_counts : int array;
    mutable h_sum : int;
    mutable h_count : int;
  }

  type t = {
    mutable on : bool;
    cs : (string, int ref) Hashtbl.t;
    gs : (string, int ref) Hashtbl.t;
    hs : (string, hist_cell) Hashtbl.t;
  }

  let default_bounds = [| 1; 2; 5; 10; 25; 50; 100; 250; 1000 |]

  let create () =
    { on = true; cs = Hashtbl.create 32; gs = Hashtbl.create 8; hs = Hashtbl.create 8 }

  let enabled t = t.on
  let set_enabled t b = t.on <- b

  let incr t ?(by = 1) name =
    if t.on then
      match Hashtbl.find_opt t.cs name with
      | Some r -> r := !r + by
      | None -> Hashtbl.add t.cs name (ref by)

  let set_gauge t name v =
    if t.on then
      match Hashtbl.find_opt t.gs name with
      | Some r -> r := v
      | None -> Hashtbl.add t.gs name (ref v)

  let observe t name v =
    if t.on then begin
      let cell =
        match Hashtbl.find_opt t.hs name with
        | Some c -> c
        | None ->
            let c =
              {
                h_bounds = default_bounds;
                h_counts = Array.make (Array.length default_bounds + 1) 0;
                h_sum = 0;
                h_count = 0;
              }
            in
            Hashtbl.add t.hs name c;
            c
      in
      let n = Array.length cell.h_bounds in
      let i = ref 0 in
      while !i < n && v > cell.h_bounds.(!i) do
        Stdlib.incr i
      done;
      cell.h_counts.(!i) <- cell.h_counts.(!i) + 1;
      cell.h_sum <- cell.h_sum + v;
      cell.h_count <- cell.h_count + 1
    end

  let counter t name =
    match Hashtbl.find_opt t.cs name with Some r -> !r | None -> 0

  let gauge t name =
    match Hashtbl.find_opt t.gs name with Some r -> Some !r | None -> None

  let sorted_of_tbl tbl read =
    Hashtbl.fold (fun k v acc -> (k, read v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let counters t = sorted_of_tbl t.cs (fun r -> !r)
  let gauges t = sorted_of_tbl t.gs (fun r -> !r)

  let freeze c =
    {
      bounds = Array.copy c.h_bounds;
      counts = Array.copy c.h_counts;
      sum = c.h_sum;
      count = c.h_count;
    }

  let histograms t = sorted_of_tbl t.hs freeze
  let histogram t name = Option.map freeze (Hashtbl.find_opt t.hs name)

  (* Interpolated quantile over the fixed buckets: find the bucket holding
     rank [q * count] and interpolate linearly inside it. The overflow
     bucket has no upper bound, so a quantile landing there reports the
     last bound — a lower bound on the true value. *)
  let quantile (h : histogram) q =
    if h.count = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = q *. float_of_int h.count in
      let n = Array.length h.bounds in
      let rec go i cum =
        if i > n then float_of_int h.bounds.(n - 1)
        else
          let c = h.counts.(i) in
          let cum' = cum +. float_of_int c in
          if c > 0 && target <= cum' then
            if i = n then float_of_int h.bounds.(n - 1)
            else
              let lo = if i = 0 then 0.0 else float_of_int h.bounds.(i - 1) in
              let hi = float_of_int h.bounds.(i) in
              let frac = Float.max 0.0 (Float.min 1.0 ((target -. cum) /. float_of_int c)) in
              lo +. ((hi -. lo) *. frac)
          else go (i + 1) cum'
      in
      go 0 0.0
    end

  let equal a b =
    counters a = counters b && gauges a = gauges b && histograms a = histograms b

  (* Fold [src] into [into] under an optional name prefix. Counters and
     gauges add; histogram cells add when the bucket bounds agree (they
     always do in practice — everything uses [default_bounds]). Goes
     through the public writers so a disabled target stays untouched. *)
  let merge ?(prefix = "") ~into src =
    let key k = if prefix = "" then k else prefix ^ k in
    List.iter (fun (k, v) -> incr into ~by:v (key k)) (counters src);
    List.iter
      (fun (k, v) ->
        let k = key k in
        let base = match gauge into k with Some g -> g | None -> 0 in
        set_gauge into k (base + v))
      (gauges src);
    if into.on then
      List.iter
        (fun (k, (h : histogram)) ->
          let k = key k in
          match Hashtbl.find_opt into.hs k with
          | None ->
              Hashtbl.add into.hs k
                {
                  h_bounds = Array.copy h.bounds;
                  h_counts = Array.copy h.counts;
                  h_sum = h.sum;
                  h_count = h.count;
                }
          | Some cell when cell.h_bounds = h.bounds ->
              Array.iteri
                (fun i c -> cell.h_counts.(i) <- cell.h_counts.(i) + c)
                h.counts;
              cell.h_sum <- cell.h_sum + h.sum;
              cell.h_count <- cell.h_count + h.count
          | Some _ -> ())
        (histograms src)

  let to_json t =
    let buf = Buffer.create 512 in
    let obj_of pairs emit =
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\":" (json_escape k));
          emit v)
        pairs;
      Buffer.add_char buf '}'
    in
    Buffer.add_string buf "{\"counters\":";
    obj_of (counters t) (fun v -> Buffer.add_string buf (string_of_int v));
    Buffer.add_string buf ",\"gauges\":";
    obj_of (gauges t) (fun v -> Buffer.add_string buf (string_of_int v));
    Buffer.add_string buf ",\"histograms\":";
    obj_of (histograms t) (fun h ->
        let ints a =
          a |> Array.to_list |> List.map string_of_int |> String.concat ","
        in
        Buffer.add_string buf
          (Printf.sprintf "{\"bounds\":[%s],\"counts\":[%s],\"sum\":%d,\"count\":%d}"
             (ints h.bounds) (ints h.counts) h.sum h.count));
    Buffer.add_char buf '}';
    Buffer.contents buf

  let pp fmt t =
    let section title pairs emit =
      if pairs <> [] then begin
        Format.fprintf fmt "%s:@." title;
        List.iter (fun (k, v) -> Format.fprintf fmt "  %-44s %s@." k (emit v)) pairs
      end
    in
    section "counters" (counters t) string_of_int;
    section "gauges" (gauges t) string_of_int;
    section "histograms" (histograms t) (fun h ->
        if h.count = 0 then "count=0"
        else
          Printf.sprintf "count=%d sum=%d avg=%.1f p50=%.1f p95=%.1f p99=%.1f"
            h.count h.sum
            (float_of_int h.sum /. float_of_int h.count)
            (quantile h 0.50) (quantile h 0.95) (quantile h 0.99))
end

type span = {
  id : int;
  parent : int;
  name : string;
  started : int;
  ended : int;
  attrs : (string * string) list;
}

let span_to_json s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"started\":%d,\"ended\":%d"
       s.id s.parent (json_escape s.name) s.started s.ended);
  if s.attrs <> [] then begin
    Buffer.add_string buf ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      s.attrs;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

module Sink = struct
  type kind =
    | Null
    | Ring of { cap : int; buf : span array option ref; mutable next : int; mutable len : int }
    | Fn of (span -> unit)

  type t = kind ref

  let null : t = ref Null
  let is_null t = t == null

  let ring cap =
    let cap = max 1 cap in
    ref (Ring { cap; buf = ref None; next = 0; len = 0 })

  let fn f : t = ref (Fn f)
  let jsonl oc = fn (fun s -> output_string oc (span_to_json s); output_char oc '\n')

  let dummy_span = { id = 0; parent = 0; name = ""; started = 0; ended = 0; attrs = [] }

  let push t s =
    match !t with
    | Null -> ()
    | Fn f -> f s
    | Ring r ->
        let arr =
          match !(r.buf) with
          | Some a -> a
          | None ->
              let a = Array.make r.cap dummy_span in
              r.buf := Some a;
              a
        in
        arr.(r.next) <- s;
        r.next <- (r.next + 1) mod r.cap;
        if r.len < r.cap then r.len <- r.len + 1

  let contents t =
    match !t with
    | Null | Fn _ -> []
    | Ring r -> (
        match !(r.buf) with
        | None -> []
        | Some arr ->
            let start = (r.next - r.len + r.cap) mod r.cap in
            List.init r.len (fun i -> arr.((start + i) mod r.cap)))
end

type open_span = {
  o_id : int;
  o_parent : int;
  o_name : string;
  o_started : int;
  o_attrs : (string * string) list;
}

type t = {
  mutable snk : Sink.t;
  mets : Metrics.t;
  mutable seq : int;
  mutable stack : open_span list;
}

type handle = int

let none : handle = 0

let create () = { snk = Sink.null; mets = Metrics.create (); seq = 0; stack = [] }

let metrics t = t.mets
let sink t = t.snk
let set_sink t s = t.snk <- s
let tracing t = not (Sink.is_null t.snk)

let enter t ?(attrs = []) name ~clock =
  if Sink.is_null t.snk then none
  else begin
    t.seq <- t.seq + 1;
    let parent = match t.stack with [] -> 0 | o :: _ -> o.o_id in
    t.stack <-
      { o_id = t.seq; o_parent = parent; o_name = name; o_started = clock; o_attrs = attrs }
      :: t.stack;
    t.seq
  end

let exit t ?(attrs = []) h ~clock =
  if h <> none then begin
    (* Pop through to [h]; anything above it was left open by mistake and
       is closed (emitted) at the same clock to keep the stack coherent. *)
    let rec pop () =
      match t.stack with
      | [] -> ()
      | o :: rest ->
          t.stack <- rest;
          let here = o.o_id = h in
          let extra = if here then attrs else [] in
          Sink.push t.snk
            {
              id = o.o_id;
              parent = o.o_parent;
              name = o.o_name;
              started = o.o_started;
              ended = clock;
              attrs = o.o_attrs @ extra;
            };
          if not here then pop ()
    in
    pop ()
  end

let emit t ?parent ?(attrs = []) name ~clock =
  if not (Sink.is_null t.snk) then begin
    t.seq <- t.seq + 1;
    let parent =
      match parent with
      | Some p when p <> none -> p
      | Some _ | None -> ( match t.stack with [] -> 0 | o :: _ -> o.o_id)
    in
    Sink.push t.snk
      { id = t.seq; parent; name; started = clock; ended = clock; attrs }
  end
