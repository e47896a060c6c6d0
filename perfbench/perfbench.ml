(* The repository benchmark. One process runs one workload for a fixed
   time, repeating set-up and campaign as often as the time allows, and
   prints each metric's fast end or median over the repetitions. See
   README.md.

     perfbench.exe --workload fleet|fleet-durable|tweetpecker --seed N
                   --seconds S --trace 0|1 [--spans-dir DIR] [--commit ID]
     perfbench.exe --selftest
     perfbench.exe --list-metrics

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. With [--trace 0] the
   metrics are the end-to-end ones, measured untraced; with [--trace 1]
   repetitions alternate untraced and traced, and the metrics are the
   per-layer ones. *)

type workload = { name : string; shape : string; rep : traced:bool -> Report.rep }

let workloads = [ "fleet"; "fleet-durable"; "tweetpecker" ]

let prepare name ~tiny ~seed =
  match name with
  | "fleet" | "fleet-durable" ->
      let shape = if tiny then Wl_fleet.tiny else Wl_fleet.full in
      let inputs = Wl_fleet.generate shape ~durable:(name = "fleet-durable") ~seed in
      { name; shape = Wl_fleet.describe shape; rep = Wl_fleet.rep inputs }
  | "tweetpecker" ->
      let tweets = if tiny then Wl_tweetpecker.tiny_corpus else Wl_tweetpecker.full_corpus in
      let inputs = Wl_tweetpecker.generate ~tweets ~seed in
      { name; shape = Wl_tweetpecker.describe inputs; rep = Wl_tweetpecker.rep inputs }
  | other -> invalid_arg ("unknown workload " ^ other)

type outcome = {
  errors : string list;
  attempted : int;
  failed : int;
  reps : int;
  digest : string;
  campaign_times : float list;  (** untraced repetitions, in order *)
  same_work : bool;  (** every untraced repetition recorded the same operations *)
  metrics : (string * float) list;
  last_spans : Trace.span list;
}

let median_of f reps = Samples.median (List.map f reps)

(* Interference from other tenants of the host only ever adds time, and
   it comes in phases, from a fraction of a second to minutes, so the
   median of a run moves with the share of the run that fell in a noisy
   phase. The fast end (the 10th percentile) moves far less between runs
   and still moves with the program's own cost.

   Every repetition of a run does the same work: same inputs and seed,
   a collected heap at the start. So the i-th answer, or the i-th slice
   of the campaign, is the same operation in each repetition, and its
   fast end across repetitions keeps the quiet moments of every
   repetition, not only of the quietest ones. Latency percentiles are
   taken over the operations' fast ends, and the campaign time is the
   sum of its slices' fast ends. Over five runs this halved the spread
   of the answer latency against whole repetitions' fast ends. *)
let fast_end_q = 0.1
let fast_end f reps = Samples.quantile (List.map f reps) fast_end_q
let us_at q (r : Report.rep) = Samples.percentile r.answer_ns q /. 1e3

(* Each operation's fast end across repetitions, sorted; [None] when the
   repetitions recorded different numbers of operations. *)
let fast_end_per_op (get : Report.rep -> Samples.t) reps =
  match List.map get reps with
  | [] -> None
  | first :: _ as all ->
      let n = first.Samples.len in
      if List.exists (fun (s : Samples.t) -> s.Samples.len <> n) all then None
      else
        let ops =
          Array.init n (fun j ->
              Samples.quantile
                (List.map (fun (s : Samples.t) -> float_of_int s.Samples.data.(j)) all)
                fast_end_q)
        in
        Array.sort compare ops;
        Some ops

(* Whole repetitions' fast ends stand in when the operations differ. *)
let campaign_s reps =
  match fast_end_per_op (fun (r : Report.rep) -> r.slices_ns) reps with
  | Some slices -> Array.fold_left ( +. ) 0. slices *. 1e-9
  | None -> fast_end (fun (r : Report.rep) -> r.campaign_s) reps

let answer_us q reps =
  match fast_end_per_op (fun (r : Report.rep) -> r.answer_ns) reps with
  | Some ops -> Samples.quantile_sorted ops q /. 1e3
  | None -> fast_end (us_at q) reps

let same_work reps =
  fast_end_per_op (fun (r : Report.rep) -> r.slices_ns) reps <> None
  && fast_end_per_op (fun (r : Report.rep) -> r.answer_ns) reps <> None

let end_to_end_values reps ~top_heap_words =
  let campaign = campaign_s reps in
  [
    ("setup_s", fast_end (fun (r : Report.rep) -> r.setup_s) reps);
    ("campaign_s", campaign);
    ("requests_per_s", median_of (fun (r : Report.rep) -> float_of_int r.requests) reps /. campaign);
    ("answer_p50_us", answer_us 0.5 reps);
    ("top_heap_mb", float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

(* Counters come from the untraced repetitions when those report them
   (tracing perturbs latencies and allocation); span-derived values and
   probe counters come from the traced ones. *)
let per_layer_values ~untraced ~traced =
  let tail = median_of (us_at 0.999) untraced in
  let from_counters name =
    let having reps =
      List.filter_map (fun (r : Report.rep) -> List.assoc_opt name r.counters) reps
    in
    match having untraced with
    | [] -> ( match having traced with [] -> None | vs -> Some (Samples.median vs))
    | vs -> Some (Samples.median vs)
  in
  let layer_sets = List.map (fun (r : Report.rep) -> Report.layer_values r.spans) traced in
  let from_spans name =
    match List.filter_map (List.assoc_opt name) layer_sets with
    | [] -> None
    | vs -> Some (Samples.median vs)
  in
  let overhead =
    median_of (fun (r : Report.rep) -> r.campaign_s) traced
    -. median_of (fun (r : Report.rep) -> r.campaign_s) untraced
  in
  List.filter_map
    (fun (name, _, _) ->
      if name = "trace.overhead_s" then Some (name, overhead)
      else if name = "answer.p90_us" then Some (name, answer_us 0.9 untraced)
      else if name = "answer.p999_us" then Some (name, tail)
      else
        match from_spans name with
        | Some v -> Some (name, v)
        | None -> Option.map (fun v -> (name, v)) (from_counters name))
    Report.per_layer

(* Repetition 0 warms up and is not timed; the peak heap is read right
   after it, so it is the peak of one campaign in a fresh process. Later
   repetitions alternate untraced and traced under [trace]. *)
let measure w ~seed ~seconds ~trace ~min_reps =
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let top_heap_words = ref 0 in
  let untraced = ref [] and traced = ref [] in
  let errors = ref [] and attempted = ref 0 and failed = ref 0 in
  let last_spans = ref [] in
  let digest = ref None in
  let i = ref 0 in
  while !errors = [] && (!i <= min_reps || Clock.now_ns () < deadline) do
    let is_traced = trace && !i mod 2 = 0 && !i > 0 in
    (* every repetition starts from a collected heap *)
    Gc.full_major ();
    if is_traced then Trace.start ();
    (match w.rep ~traced:is_traced with
    | r ->
        let spans = if is_traced then Trace.stop () else [] in
        attempted := !attempted + r.requests;
        failed := !failed + r.failed;
        errors := r.errors;
        (match !digest with
        | None -> digest := Some r.digest
        | Some d when d = r.digest -> ()
        | Some d -> errors := Printf.sprintf "output digest %s differs from %s" r.digest d :: !errors);
        (match Expected.digest ~workload:w.name ~shape:w.shape ~seed with
        | Some d when d <> r.digest ->
            errors :=
              Printf.sprintf "output digest %s, recorded for seed %d: %s" r.digest seed d
              :: !errors
        | _ -> ());
        if !i = 0 then top_heap_words := (Gc.quick_stat ()).top_heap_words
        else if is_traced then begin
          traced := { r with spans } :: !traced;
          last_spans := spans
        end
        else untraced := r :: !untraced
    | exception e ->
        if is_traced then ignore (Trace.stop ());
        incr attempted;
        incr failed;
        errors := [ "exception: " ^ Printexc.to_string e ]);
    incr i
  done;
  let metrics =
    if !errors <> [] then []
    else if trace then per_layer_values ~untraced:!untraced ~traced:!traced
    else end_to_end_values !untraced ~top_heap_words:!top_heap_words
  in
  let expected = List.map (fun (n, _, _) -> n) (if trace then Report.per_layer else Report.end_to_end) in
  let errors =
    if !errors <> [] then !errors
    else
      List.filter_map
        (fun n ->
          match List.assoc_opt n metrics with
          | None -> Some ("metric not measured: " ^ n)
          | Some v when not (Float.is_finite v) -> Some ("metric not finite: " ^ n)
          | Some _ -> None)
        expected
  in
  {
    errors;
    attempted = !attempted;
    failed = !failed;
    reps = !i - 1;
    digest = Option.value !digest ~default:"none";
    campaign_times = List.rev_map (fun (r : Report.rep) -> r.campaign_s) !untraced;
    same_work = same_work !untraced;
    metrics = (if errors = [] then metrics else []);
    last_spans = !last_spans;
  }

let stamp w ~seed ~seconds ~trace ~commit (o : outcome) =
  Printf.sprintf
    "{\"stamp\": {\"workload\": %S, \"shape\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \"repetitions\": %d, \"load\": \"closed loop, one synchronous client\", \"campaign_s_by_repetition\": [%s], \"same_work_every_repetition\": %b, \"output_digest\": %S, \"commit\": %S, \"ocaml\": %S, \"nproc\": %d}}"
    w.name w.shape seed seconds (if trace then 1 else 0) o.reps
    (String.concat ", " (List.map (Printf.sprintf "%.4f") o.campaign_times))
    o.same_work o.digest commit Sys.ocaml_version (Domain.recommended_domain_count ())

let run name ~seed ~seconds ~trace ~commit ~spans_dir =
  let w = prepare name ~tiny:false ~seed in
  let o = measure w ~seed ~seconds ~trace ~min_reps:(if trace then 2 else 3) in
  (match (spans_dir, o.last_spans) with
  | Some dir, (_ :: _ as spans) ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Trace.write_jsonl (Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" name seed)) spans
  | _ -> ());
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) o.errors;
  print_endline (stamp w ~seed ~seconds ~trace ~commit o);
  print_endline
    (Report.result_line ~correct:(o.errors = []) ~attempted:o.attempted ~failed:o.failed
       o.metrics);
  if o.errors <> [] then exit 1

(* Every workload at tiny scale, untraced and traced: every check passes
   and every catalogued metric is emitted. *)
let selftest () =
  let ok = ref true in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let w = prepare name ~tiny:true ~seed:1 in
          let o = measure w ~seed:1 ~seconds:0. ~trace ~min_reps:(if trace then 3 else 2) in
          let label = Printf.sprintf "%s --trace %d" name (if trace then 1 else 0) in
          if o.errors = [] && o.failed = 0 && o.same_work then
            Printf.printf "ok: %s (%d metrics, %d requests)\n" label (List.length o.metrics)
              o.attempted
          else begin
            ok := false;
            List.iter (fun e -> Printf.printf "FAIL: %s: %s\n" label e) o.errors;
            if o.failed > 0 then Printf.printf "FAIL: %s: %d failed requests\n" label o.failed;
            if not o.same_work then Printf.printf "FAIL: %s: repetitions did different work\n" label
          end)
        [ false; true ])
    workloads;
  if not !ok then exit 1

let list_metrics () =
  let line (n, u, b) = Printf.sprintf "{\"name\": %S, \"unit\": %S, \"better\": %S}" n u b in
  Printf.printf "{\"end_to_end\": [%s],\n \"per_layer\": [%s]}\n"
    (String.concat ",\n  " (List.map line Report.end_to_end))
    (String.concat ",\n  " (List.map line Report.per_layer))

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload fleet|fleet-durable|tweetpecker --seed N --seconds S \
     --trace 0|1 [--spans-dir DIR] [--commit ID]\n\
    \       perfbench.exe --selftest | --list-metrics";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | ("--selftest" | "--list-metrics") as flag :: rest -> parse ((flag, "") :: acc) rest
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((key, value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = List.assoc_opt key opts in
  let int_arg key = match Option.bind (get key) int_of_string_opt with Some v -> v | None -> usage () in
  if get "--selftest" <> None then selftest ()
  else if get "--list-metrics" <> None then list_metrics ()
  else
    let name = match get "--workload" with Some n when List.mem n workloads -> n | _ -> usage () in
    let trace = match int_arg "--trace" with 0 -> false | 1 -> true | _ -> usage () in
    run name ~seed:(int_arg "--seed")
      ~seconds:(float_of_int (int_arg "--seconds"))
      ~trace
      ~commit:(Option.value (get "--commit") ~default:"unknown")
      ~spans_dir:(get "--spans-dir")
