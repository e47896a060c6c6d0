open Cylog

(* Saturation cap for summed finite bounds — far above any real campaign,
   small enough that repeated sums never overflow native ints. *)
let cap = 1_000_000_000

let card_add (a : Analysis.card) (b : Analysis.card) : Analysis.card =
  match (a, b) with
  | Unbounded r, _ -> Unbounded r
  | _, Unbounded r -> Unbounded r
  | Bounded_by_input, _ | _, Bounded_by_input -> Bounded_by_input
  | Zero, c | c, Zero -> c
  | Finite m, Finite n -> Finite (min cap (m + n))

let percentiles samples =
  let sorted = Array.copy samples in
  Array.sort Int.compare sorted;
  let n = Array.length sorted in
  fun q ->
    if n = 0 then 0.
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let rank = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      ((1. -. frac) *. float_of_int sorted.(lo))
      +. (frac *. float_of_int sorted.(hi))
    end

type monitor_view = {
  f_spent : int;
  f_answers : int;
  f_pending : int;
  f_retired : int;
  f_samples : int;
  f_agreement_pct : int;
  f_dead_letter_pct : int;
  f_histograms : (string * Telemetry.Metrics.histogram) list;
  f_points : Monitor.point list;
  f_firings : (int * Monitor.firing) list;
}

let merge_histogram (a : Telemetry.Metrics.histogram)
    (b : Telemetry.Metrics.histogram) =
  if a.bounds <> b.bounds then a
  else
    {
      a with
      counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
      sum = a.sum + b.sum;
      count = a.count + b.count;
    }

let merge_histogram_lists lists =
  let merged = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (List.iter (fun (name, h) ->
         match Hashtbl.find_opt merged name with
         | None ->
             Hashtbl.add merged name h;
             order := name :: !order
         | Some prev -> Hashtbl.replace merged name (merge_histogram prev h)))
    lists;
  List.sort compare
    (List.map (fun name -> (name, Hashtbl.find merged name)) !order)

(* Per-round point merge: counts sum, ages and latency quantiles take the
   fleet maximum (the conservative SLO read), percent fields take the
   maximum of the shards that have one (-1 marks absence). *)
let merge_points (a : Monitor.point) (b : Monitor.point) : Monitor.point =
  {
    p_round = a.p_round;
    p_clock = max a.p_clock b.p_clock;
    p_spent = a.p_spent + b.p_spent;
    p_answers = a.p_answers + b.p_answers;
    p_pending = a.p_pending + b.p_pending;
    p_oldest_age = max a.p_oldest_age b.p_oldest_age;
    p_e2e_p50 = Float.max a.p_e2e_p50 b.p_e2e_p50;
    p_e2e_p95 = Float.max a.p_e2e_p95 b.p_e2e_p95;
    p_e2e_p99 = Float.max a.p_e2e_p99 b.p_e2e_p99;
    p_agreement_pct = max a.p_agreement_pct b.p_agreement_pct;
    p_posterior_pct = max a.p_posterior_pct b.p_posterior_pct;
    p_dead_letter_pct = max a.p_dead_letter_pct b.p_dead_letter_pct;
  }

let merge_monitors inputs =
  match inputs with
  | [] -> None
  | _ ->
      let views = List.map (fun (sid, m) -> (sid, Monitor.view m)) inputs in
      let sum f = List.fold_left (fun acc (_, v) -> acc + f v) 0 views in
      let maxi f = List.fold_left (fun acc (_, v) -> max acc (f v)) 0 views in
      let votes_total = sum (fun v -> v.Monitor.v_votes_total) in
      let votes_agree = sum (fun v -> v.Monitor.v_votes_agree) in
      let resolved = sum (fun v -> v.Monitor.v_resolved) in
      let dead = sum (fun v -> v.Monitor.v_dead) in
      let retired = resolved + dead in
      let by_round = Hashtbl.create 64 in
      List.iter
        (fun (_, v) ->
          List.iter
            (fun (p : Monitor.point) ->
              match Hashtbl.find_opt by_round p.p_round with
              | None -> Hashtbl.add by_round p.p_round p
              | Some prev ->
                  Hashtbl.replace by_round p.p_round (merge_points prev p))
            v.Monitor.v_points)
        views;
      let points =
        Hashtbl.fold (fun _ p acc -> p :: acc) by_round []
        |> List.sort (fun (a : Monitor.point) b ->
               compare a.p_round b.p_round)
      in
      let firings =
        List.concat_map
          (fun (sid, v) ->
            List.map (fun f -> (sid, f)) v.Monitor.v_firings)
          views
        |> List.sort (fun (s1, (f1 : Monitor.firing)) (s2, f2) ->
               compare (f1.at_round, s1) (f2.at_round, s2))
      in
      Some
        {
          f_spent = sum (fun v -> v.Monitor.v_spent);
          f_answers = sum (fun v -> v.Monitor.v_answers);
          f_pending = sum (fun v -> List.length v.Monitor.v_pending);
          f_retired = retired;
          f_samples = maxi (fun v -> v.Monitor.v_samples);
          f_agreement_pct =
            (if votes_total = 0 then -1 else 100 * votes_agree / votes_total);
          f_dead_letter_pct =
            (if retired = 0 then 0 else 100 * dead / retired);
          f_histograms =
            merge_histogram_lists
              (List.map (fun (_, v) -> v.Monitor.v_histograms) views);
          f_points = points;
          f_firings = firings;
        }

type cert_view = {
  c_shards : int;
  c_total_tasks : Analysis.card;
  c_total_answers : Analysis.card;
}

let merge_certificates inputs =
  match inputs with
  | [] -> None
  | _ ->
      Some
        {
          c_shards = List.length (List.sort_uniq Int.compare (List.map fst inputs));
          c_total_tasks =
            List.fold_left
              (fun acc (_, (c : Analysis.certificate)) ->
                card_add acc c.cert_total_tasks)
              Analysis.Zero inputs;
          c_total_answers =
            List.fold_left
              (fun acc (_, (c : Analysis.certificate)) ->
                card_add acc c.cert_total_answers)
              Analysis.Zero inputs;
        }

type shard_input = {
  s_id : int;
  s_engines : Engine.t list;
  s_metrics : Telemetry.Metrics.t;
  s_latencies_ns : int array;
}

type t = {
  shards : int;
  live_shards : int;
  requests : int;
  pending : int;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  metrics : Telemetry.Metrics.t;
  monitor : monitor_view option;
  certificate : cert_view option;
}

let gather ~total_shards inputs =
  let metrics = Telemetry.Metrics.create () in
  List.iter
    (fun s ->
      let prefix = Printf.sprintf "shard%d." s.s_id in
      Telemetry.Metrics.merge ~prefix ~into:metrics s.s_metrics;
      Telemetry.Metrics.merge ~into:metrics s.s_metrics;
      List.iter
        (fun e ->
          Telemetry.Metrics.merge ~prefix ~into:metrics (Engine.metrics e);
          Telemetry.Metrics.merge ~into:metrics (Engine.metrics e))
        s.s_engines)
    inputs;
  let engines = List.concat_map (fun s -> s.s_engines) inputs in
  let latency_at = percentiles (Array.concat (List.map (fun s -> s.s_latencies_ns) inputs)) in
  let monitors =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun e -> Option.map (fun m -> (s.s_id, m)) (Engine.monitor e))
          s.s_engines)
      inputs
  in
  {
    shards = total_shards;
    live_shards = List.length inputs;
    requests =
      List.fold_left
        (fun acc s ->
          acc + Telemetry.Metrics.counter s.s_metrics "shard.requests")
        0 inputs;
    pending =
      List.fold_left (fun acc e -> acc + Engine.pending_count e) 0 engines;
    p50_ns = latency_at 0.50;
    p95_ns = latency_at 0.95;
    p99_ns = latency_at 0.99;
    metrics;
    monitor = merge_monitors monitors;
    certificate =
      merge_certificates
        (List.concat_map
           (fun s -> List.map (fun e -> (s.s_id, Engine.certificate e)) s.s_engines)
           inputs);
  }

let card_json (c : Analysis.card) =
  match c with
  | Zero -> {|{"kind":"zero"}|}
  | Finite n -> Printf.sprintf {|{"kind":"finite","n":%d}|} n
  | Bounded_by_input -> {|{"kind":"bounded-by-input"}|}
  | Unbounded _ ->
      Printf.sprintf {|{"kind":"unbounded","reason":"%s"}|}
        (Telemetry.json_escape (Analysis.card_to_string c))

let monitor_json (v : monitor_view) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"spent":%d,"answers":%d,"pending":%d,"retired":%d,"samples":%d,"agreement_pct":%d,"dead_letter_pct":%d,"points":[|}
       v.f_spent v.f_answers v.f_pending v.f_retired v.f_samples
       v.f_agreement_pct v.f_dead_letter_pct);
  List.iteri
    (fun i (p : Monitor.point) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           {|{"round":%d,"spent":%d,"answers":%d,"pending":%d,"e2e_p99":%.1f}|}
           p.p_round p.p_spent p.p_answers p.p_pending p.p_e2e_p99))
    v.f_points;
  Buffer.add_string buf {|],"firings":[|};
  List.iteri
    (fun i (sid, (f : Monitor.firing)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf {|{"shard":%d,"round":%d,"alert":"%s"}|} sid f.at_round
           (Telemetry.json_escape (Event.alert_to_string f.alert))))
    v.f_firings;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"shards":%d,"live_shards":%d,"requests":%d,"pending":%d,"latency_ns":{"p50":%.0f,"p95":%.0f,"p99":%.0f},"monitor":|}
       t.shards t.live_shards t.requests t.pending t.p50_ns t.p95_ns t.p99_ns);
  (match t.monitor with
  | None -> Buffer.add_string buf "null"
  | Some v -> Buffer.add_string buf (monitor_json v));
  Buffer.add_string buf {|,"certificate":|};
  (match t.certificate with
  | None -> Buffer.add_string buf "null"
  | Some c ->
      Buffer.add_string buf
        (Printf.sprintf {|{"shards":%d,"total_tasks":%s,"total_answers":%s}|}
           c.c_shards (card_json c.c_total_tasks)
           (card_json c.c_total_answers)));
  Buffer.add_string buf {|,"metrics":|};
  Buffer.add_string buf (Telemetry.Metrics.to_json t.metrics);
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "fleet: %d/%d shards live, %d requests, %d pending@."
    t.live_shards t.shards t.requests t.pending;
  Format.fprintf fmt "request latency: p50 %.0fns p95 %.0fns p99 %.0fns@."
    t.p50_ns t.p95_ns t.p99_ns;
  (match t.monitor with
  | None -> ()
  | Some v ->
      Format.fprintf fmt
        "monitor: spent %d, answers %d, pending %d, retired %d, agreement \
         %d%%, dead-letter %d%%@."
        v.f_spent v.f_answers v.f_pending v.f_retired v.f_agreement_pct
        v.f_dead_letter_pct;
      List.iter
        (fun (sid, (f : Monitor.firing)) ->
          Format.fprintf fmt "alert (shard %d, round %d): %s@." sid f.at_round
            (Event.alert_to_string f.alert))
        v.f_firings);
  match t.certificate with
  | None -> ()
  | Some c ->
      Format.fprintf fmt "certificate (%d shards): tasks %s, answers %s@."
        c.c_shards
        (Analysis.card_to_string c.c_total_tasks)
        (Analysis.card_to_string c.c_total_answers)
