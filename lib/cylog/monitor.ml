(* The campaign monitor: task-lifecycle latency tracing, per-round
   cost/latency/quality time series, and budget/SLO watchdogs.

   A monitor is a config and a series ring over a [Fold.t], which holds
   everything else; the live monitor reads the engine's own fold.
   [of_events config events] is the definition of the monitor's state: a
   fresh fold of the log with a series point pushed at every [Sampled]
   event. The watchdogs run only on the live path ([check], called by
   [Engine.monitor_sample]); their verdicts are journalled as
   [Alert_fired] effects carrying the full evidence, so the fold never
   re-decides an alert — it reads it back, exactly like
   [Adaptive_resolved]. *)

type config = {
  series_capacity : int;
  cost_per_answer : int;
  max_budget : int option;
  certified_bound : int option;
      (* the static budget certificate's total-answer bound in budget
         units; [Engine.set_monitor] fills it from [Analysis] when no
         explicit [max_budget] is given, and the budget watchdog falls
         back to it *)
  max_p99_latency : int option;
  min_agreement_pct : int option;
  max_dead_letter_pct : int option;
  stall_samples : int option;
}

let default_config =
  {
    series_capacity = 256;
    cost_per_answer = 1;
    max_budget = None;
    certified_bound = None;
    max_p99_latency = None;
    min_agreement_pct = None;
    max_dead_letter_pct = None;
    stall_samples = None;
  }

type point = {
  p_round : int;
  p_clock : int;
  p_spent : int;
  p_answers : int;
  p_pending : int;
  p_oldest_age : int;  (* 0 when nothing is pending *)
  p_e2e_p50 : float;
  p_e2e_p95 : float;
  p_e2e_p99 : float;
  p_agreement_pct : int;  (* -1: no agreement sample yet *)
  p_posterior_pct : int;  (* -1: no adaptive resolution yet *)
  p_dead_letter_pct : int;  (* of retired tasks; 0 when none retired *)
}

type firing = Fold.firing = { at_round : int; at_clock : int; alert : Event.alert }

(* Fixed-capacity ring over series points; the array is allocated on the
   first push so an installed-but-never-sampled monitor stays cheap. *)
type ring = {
  r_cap : int;
  mutable r_arr : point array option;
  mutable r_next : int;
  mutable r_len : int;
  mutable r_dropped : int;
}

(* [oldest] is a cursor into the pending pool: no id below it is pending.
   It is derived like the rest, starts fresh in [create] and is never
   serialised. *)
type t = { config : config; fold : Fold.t; series : ring; mutable oldest : Event.open_id }

(* --- Derived readings -------------------------------------------------------- *)

let spent t = t.fold.payoff_spent + (t.fold.answers * t.config.cost_per_answer)
let answers t = t.fold.answers
let samples t = t.fold.samples
let pending t = Hashtbl.length t.fold.created
let retired t = t.fold.resolved + t.fold.dead

let agreement_pct { fold = f; _ } =
  if f.votes_total = 0 then -1 else 100 * f.votes_agree / f.votes_total

let posterior_pct { fold = f; _ } =
  if f.posterior_n = 0 then -1 else f.posterior_sum / f.posterior_n

let dead_letter_pct t =
  let r = retired t in
  if r = 0 then 0 else 100 * t.fold.dead / r

(* The engine hands out each open id once, in creation order, and the
   fold records each with its event's clock, so the smallest pending id
   is the oldest task. An id below the cursor never turns pending again,
   so each is skipped at most once over the monitor's life. *)
let oldest_age t ~clock =
  let created = t.fold.created in
  if Hashtbl.length created = 0 then 0
  else begin
    while not (Hashtbl.mem created t.oldest) do
      t.oldest <- t.oldest + 1
    done;
    clock - Hashtbl.find created t.oldest
  end

let e2e t = Telemetry.Metrics.histogram t.fold.lifecycle "lifecycle.end_to_end"

let quantile_of e2e q =
  match e2e with Some h -> Telemetry.Metrics.quantile h q | None -> 0.0

let histograms t = Telemetry.Metrics.histograms t.fold.lifecycle

let points t =
  let r = t.series in
  match r.r_arr with
  | None -> []
  | Some arr ->
      let start = (r.r_next - r.r_len + r.r_cap) mod r.r_cap in
      List.init r.r_len (fun i -> arr.((start + i) mod r.r_cap))

let firings t = List.rev t.fold.firings

(* --- The series -------------------------------------------------------------- *)

let push_point t p =
  let r = t.series in
  let arr =
    match r.r_arr with
    | Some a -> a
    | None ->
        let a = Array.make r.r_cap p in
        r.r_arr <- Some a;
        a
  in
  arr.(r.r_next) <- p;
  r.r_next <- (r.r_next + 1) mod r.r_cap;
  if r.r_len < r.r_cap then r.r_len <- r.r_len + 1 else r.r_dropped <- r.r_dropped + 1

(* [e2e] is the end-to-end histogram, read once per sample. *)
let sample_point t e2e ~round ~clock =
  {
    p_round = round;
    p_clock = clock;
    p_spent = spent t;
    p_answers = answers t;
    p_pending = pending t;
    p_oldest_age = oldest_age t ~clock;
    p_e2e_p50 = quantile_of e2e 0.50;
    p_e2e_p95 = quantile_of e2e 0.95;
    p_e2e_p99 = quantile_of e2e 0.99;
    p_agreement_pct = agreement_pct t;
    p_posterior_pct = posterior_pct t;
    p_dead_letter_pct = dead_letter_pct t;
  }

(* A sample's own event moves nothing a point reads, so the point taken
   before it is recorded ([check]) equals the one a recount takes at its
   [Sampled] effect. *)
let create config fold m events =
  let t =
    {
      config;
      fold;
      series =
        { r_cap = max 1 config.series_capacity;
          r_arr = None;
          r_next = 0;
          r_len = 0;
          r_dropped = 0 };
      oldest = 0;
    }
  in
  List.iter
    (fun (ev : Event.event) ->
      Fold.apply fold m ev;
      List.iter
        (function
          | Event.Sampled { round } ->
              push_point t (sample_point t (e2e t) ~round ~clock:ev.clock)
          | _ -> ())
        ev.effects)
    events;
  t

let of_events config events =
  create config (Fold.create ()) (Telemetry.Metrics.create ()) events

(* --- The watchdogs (live path only) ------------------------------------------ *)

let latched t =
  List.sort_uniq compare (List.map (fun f -> Event.alert_key f.alert) t.fold.firings)

(* Each alert kind fires at most once per monitor lifetime: [check]
   consults the fold's firings, which the journalled [Alert_fired] joins
   when it flows back through [Fold.apply] — so a recount latches in
   exactly the same place. *)
let check t ~round ~clock =
  let e2e = e2e t in
  let p = sample_point t e2e ~round ~clock in
  push_point t p;
  let out = ref [] and latched = latched t in
  let fire key alert = if not (List.mem key latched) then out := alert :: !out in
  (* An explicit budget wins; without one, the statically certified bound
     is the spend ceiling — crossing it means either the analysis is
     unsound or the host is spending outside the program. *)
  let budget_limit =
    match t.config.max_budget with
    | Some _ as b -> b
    | None -> t.config.certified_bound
  in
  (match budget_limit with
  | Some budget when spent t > budget ->
      fire "budget" (Event.Budget_exceeded { spent = spent t; budget })
  | _ -> ());
  (match (t.config.max_p99_latency, e2e) with
  | Some limit, Some h when h.count > 0 && p.p_e2e_p99 > float_of_int limit ->
      fire "latency"
        (Event.Latency_breached { p99 = int_of_float (Float.round p.p_e2e_p99); limit })
  | _ -> ());
  (match t.config.min_agreement_pct with
  | Some floor when t.fold.votes_total > 0 && agreement_pct t < floor ->
      fire "agreement" (Event.Agreement_low { pct = agreement_pct t; floor })
  | _ -> ());
  (match t.config.max_dead_letter_pct with
  | Some ceiling when retired t > 0 && dead_letter_pct t > ceiling ->
      fire "dead_letter" (Event.Dead_letters_high { pct = dead_letter_pct t; ceiling })
  | _ -> ());
  (match t.config.stall_samples with
  | Some limit ->
      let idle = Fold.stall t.fold in
      if idle >= limit then fire "stall" (Event.Stalled { samples = idle; limit })
  | None -> ());
  List.rev !out

(* --- The comparable view ------------------------------------------------------ *)

type view = {
  v_samples : int;
  v_spent : int;
  v_answers : int;
  v_resolved : int;
  v_dead : int;
  v_pending : (Event.open_id * int) list;
  v_votes_agree : int;
  v_votes_total : int;
  v_posterior_sum : int;
  v_posterior_n : int;
  v_histograms : (string * Telemetry.Metrics.histogram) list;
  v_points : point list;
  v_dropped_points : int;
  v_firings : firing list;
  v_latched : string list;
}

let view t =
  let f = t.fold in
  {
    v_samples = f.samples;
    v_spent = spent t;
    v_answers = f.answers;
    v_resolved = f.resolved;
    v_dead = f.dead;
    v_pending =
      Hashtbl.fold (fun id created acc -> (id, created) :: acc) f.created []
      |> List.sort compare;
    v_votes_agree = f.votes_agree;
    v_votes_total = f.votes_total;
    v_posterior_sum = f.posterior_sum;
    v_posterior_n = f.posterior_n;
    v_histograms = histograms t;
    v_points = points t;
    v_dropped_points = t.series.r_dropped;
    v_firings = firings t;
    v_latched = latched t;
  }

(* --- Rendering ---------------------------------------------------------------- *)

let opt_int = function None -> "null" | Some v -> string_of_int v
let pct_json v = if v < 0 then "null" else string_of_int v

let config_json c =
  Printf.sprintf
    "{\"series_capacity\":%d,\"cost_per_answer\":%d,\"max_budget\":%s,\
     \"certified_bound\":%s,\"max_p99_latency\":%s,\"min_agreement_pct\":%s,\
     \"max_dead_letter_pct\":%s,\"stall_samples\":%s}"
    c.series_capacity c.cost_per_answer (opt_int c.max_budget)
    (opt_int c.certified_bound) (opt_int c.max_p99_latency)
    (opt_int c.min_agreement_pct) (opt_int c.max_dead_letter_pct)
    (opt_int c.stall_samples)

let point_json p =
  Printf.sprintf
    "{\"round\":%d,\"clock\":%d,\"spent\":%d,\"answers\":%d,\"pending\":%d,\
     \"oldest_age\":%d,\"e2e_p50\":%.2f,\"e2e_p95\":%.2f,\"e2e_p99\":%.2f,\
     \"agreement_pct\":%s,\"posterior_pct\":%s,\"dead_letter_pct\":%d}"
    p.p_round p.p_clock p.p_spent p.p_answers p.p_pending p.p_oldest_age p.p_e2e_p50
    p.p_e2e_p95 p.p_e2e_p99 (pct_json p.p_agreement_pct) (pct_json p.p_posterior_pct)
    p.p_dead_letter_pct

let firing_json f =
  let observed, limit = Event.alert_numbers f.alert in
  Printf.sprintf
    "{\"round\":%d,\"clock\":%d,\"kind\":\"%s\",\"observed\":%d,\"limit\":%d,\
     \"message\":\"%s\"}"
    f.at_round f.at_clock
    (Telemetry.json_escape (Event.alert_key f.alert))
    observed limit
    (Telemetry.json_escape (Event.alert_to_string f.alert))

let hist_json h =
  Printf.sprintf
    "{\"count\":%d,\"sum\":%d,\"p50\":%.2f,\"p95\":%.2f,\"p99\":%.2f}"
    h.Telemetry.Metrics.count h.Telemetry.Metrics.sum
    (Telemetry.Metrics.quantile h 0.50)
    (Telemetry.Metrics.quantile h 0.95)
    (Telemetry.Metrics.quantile h 0.99)

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"config\":";
  Buffer.add_string buf (config_json t.config);
  Buffer.add_string buf
    (Printf.sprintf
       ",\"totals\":{\"samples\":%d,\"spent\":%d,\"answers\":%d,\"resolved\":%d,\
        \"dead_lettered\":%d,\"pending\":%d,\"agreement_pct\":%s,\
        \"posterior_pct\":%s,\"dead_letter_pct\":%d}"
       (samples t) (spent t) (answers t) t.fold.resolved t.fold.dead (pending t)
       (pct_json (agreement_pct t))
       (pct_json (posterior_pct t))
       (dead_letter_pct t));
  Buffer.add_string buf ",\"lifecycle\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%s" (Telemetry.json_escape name) (hist_json h)))
    (histograms t);
  Buffer.add_string buf "},\"series\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (point_json p))
    (points t);
  Buffer.add_string buf
    (Printf.sprintf "],\"dropped_points\":%d,\"alerts\":[" t.series.r_dropped);
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (firing_json f))
    (firings t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* One JSON object per line: every series point, then every alert, each
   tagged with a ["type"] discriminator — the streaming-friendly dump
   behind [--monitor-out file.jsonl]. *)
let to_jsonl t =
  let buf = Buffer.create 1024 in
  let tagged tag json =
    Buffer.add_string buf "{\"type\":\"";
    Buffer.add_string buf tag;
    Buffer.add_string buf "\",";
    Buffer.add_string buf (String.sub json 1 (String.length json - 1));
    Buffer.add_char buf '\n'
  in
  List.iter (fun p -> tagged "point" (point_json p)) (points t);
  List.iter (fun f -> tagged "alert" (firing_json f)) (firings t);
  Buffer.contents buf

let pp fmt t =
  let pct v = if v < 0 then "-" else string_of_int v ^ "%" in
  (match t.config.certified_bound with
  | Some b ->
      Format.fprintf fmt "monitor: %d samples, %d answers, spent %d / certified %d@."
        (samples t) (answers t) (spent t) b
  | None ->
      Format.fprintf fmt "monitor: %d samples, %d answers, spent %d@." (samples t)
        (answers t) (spent t));
  Format.fprintf fmt "  tasks: %d resolved, %d dead-lettered, %d pending@."
    t.fold.resolved t.fold.dead (pending t);
  Format.fprintf fmt "  quality: agreement %s, posterior %s, dead-letter %d%%@."
    (pct (agreement_pct t))
    (pct (posterior_pct t))
    (dead_letter_pct t);
  List.iter
    (fun (name, h) ->
      if h.Telemetry.Metrics.count > 0 then
        Format.fprintf fmt "  %-24s count=%d p50=%.1f p95=%.1f p99=%.1f@." name
          h.Telemetry.Metrics.count
          (Telemetry.Metrics.quantile h 0.50)
          (Telemetry.Metrics.quantile h 0.95)
          (Telemetry.Metrics.quantile h 0.99))
    (histograms t);
  let ps = points t in
  let n = List.length ps in
  let tail = if n > 5 then List.filteri (fun i _ -> i >= n - 5) ps else ps in
  if tail <> [] then begin
    Format.fprintf fmt "  series (last %d of %d):@." (List.length tail) n;
    List.iter
      (fun p ->
        Format.fprintf fmt
          "    round %-4d spent=%-5d answers=%-4d pending=%-3d p99=%.1f dead=%d%%@."
          p.p_round p.p_spent p.p_answers p.p_pending p.p_e2e_p99 p.p_dead_letter_pct)
      tail
  end;
  if t.fold.firings = [] then Format.fprintf fmt "  alerts: none@."
  else
    List.iter
      (fun f ->
        Format.fprintf fmt "  ALERT [round %d] %s@." f.at_round
          (Event.alert_to_string f.alert))
      (firings t)
