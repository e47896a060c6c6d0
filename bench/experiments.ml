(* The engineering experiments behind the engine, runtime and server
   docs: full-scale runs write counts-only BENCH_*.json artifacts, and the
   *-smoke gates [dune runtest] runs reuse their runners at small scale.
   Only the gates whose subject is time read the wall clock:
   serve-smoke's history gate and setup-smoke. *)

open Emit

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Insert a row of integer columns straight into the engine's database,
   the way a host loads bulk data. *)
let insert engine name fields =
  ignore
    (Reldb.Relation.insert
       (Reldb.Database.find_exn (Cylog.Engine.database engine) name)
       (Reldb.Tuple.of_list (List.map (fun (a, v) -> (a, Reldb.Value.Int v)) fields)))

(* ------------------------------------------------------------------ *)
(* Joins: cost-based planning + compound-key indexes, scaling study    *)
(* ------------------------------------------------------------------ *)

(* A chain join written in the worst order for left-to-right evaluation:
   the selective atom comes last. The optimised strategy's planner flips
   it around and its delta scans join only the new rows; the reference
   strategy pays for the original order, re-enumerating the join left to
   right from the first [Edge1] row on every step. Data at scale [s]:
   Edge1/Edge2 are chains of [40*s] rows joined on [y]; Target selects
   [2*s] of the [40*s] chain endpoints. Rows arrive one link per engine
   round — the incremental regime every crowd-driven program runs in —
   so naive evaluation is quadratic in the chain length while planned
   evaluation stays linear. *)
let joins_src =
  {|schema:
  Edge1(x, y);
  Edge2(y, z);
  Target(z);
  Out(x, z);

rules:
  J: Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z);
|}

type joins_run = {
  j_rows_scanned : int;
  j_steps : int;
  j_cache_hits : int;
  j_cache_misses : int;
  j_telemetry : json;
  j_out : Reldb.Tuple.t list;
  j_trace : (int * string option * (string * Reldb.Value.t) list * bool) list;
}

let joins_run ~scale ~strategy () =
  let n = 40 * scale and t = 2 * scale in
  let engine = Cylog.Engine.load ~strategy (Cylog.Parser.parse_exn joins_src) in
  let db = Cylog.Engine.database engine in
  for i = 0 to t - 1 do
    insert engine "Target" [ ("z", (20 * i) + 3) ]
  done;
  let steps = ref (fst (Cylog.Engine.run engine)) in
  for i = 0 to n - 1 do
    insert engine "Edge1" [ ("x", i); ("y", i) ];
    insert engine "Edge2" [ ("y", i); ("z", i) ];
    steps := !steps + fst (Cylog.Engine.run engine)
  done;
  let counter = Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) in
  let j_rows_scanned = counter "eval.rows_scanned" in
  let j_cache_hits = counter "planner.delta_cache.hits" in
  let j_cache_misses = counter "planner.delta_cache.misses" in
  let j_out =
    List.sort compare (Reldb.Relation.tuples (Reldb.Database.find_exn db "Out"))
  in
  let j_trace =
    List.map
      (fun (e : Cylog.Engine.event) -> (e.statement, e.label, e.valuation, e.fired))
      (Cylog.Engine.events engine)
  in
  { j_rows_scanned; j_steps = !steps; j_cache_hits; j_cache_misses;
    j_telemetry = telemetry (Cylog.Engine.metrics engine); j_out; j_trace }

type joins_row = { scale : int; naive : joins_run; planned : joins_run }

let joins_row scale =
  { scale;
    naive = joins_run ~scale ~strategy:Cylog.Engine.Reference ();
    planned = joins_run ~scale ~strategy:Cylog.Engine.Optimized () }

let joins_identical r =
  r.naive.j_out = r.planned.j_out && r.naive.j_trace = r.planned.j_trace

let joins_rows_ratio r =
  float_of_int r.naive.j_rows_scanned /. Float.max 1.0 (float_of_int r.planned.j_rows_scanned)

let pp_joins_row r =
  Format.printf
    "  %4dx  naive: %10d rows   planned: %10d rows   %8.1fx fewer rows  identical: %b@."
    r.scale r.naive.j_rows_scanned r.planned.j_rows_scanned (joins_rows_ratio r)
    (joins_identical r);
  Format.printf "         plan cache  planned: %d hits / %d misses@."
    r.planned.j_cache_hits r.planned.j_cache_misses

(* Both strategies at every scale load the same program, so one
   certificate covers every row. The reference strategy never plans, so
   only the planned side reports the plan cache. *)
let joins_json rows =
  let run (m : joins_run) plan_cache =
    Obj
      ([ ("rows_scanned", Int m.j_rows_scanned); ("steps", Int m.j_steps) ]
      @ plan_cache
      @ [ ("telemetry", m.j_telemetry) ])
  in
  let scale r =
    Obj
      [ ("scale", Int r.scale); ("edge_rows", Int (40 * r.scale));
        ("target_rows", Int (2 * r.scale)); ("naive", run r.naive []);
        ( "planned",
          run r.planned
            [ ("plan_cache_hits", Int r.planned.j_cache_hits);
              ("plan_cache_misses", Int r.planned.j_cache_misses) ] );
        ("speedup_rows_scanned", Float (joins_rows_ratio r));
        ("identical_results", Bool (joins_identical r)) ]
  in
  Obj
    [ ("benchmark", String "joins");
      ("body", String "Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z)");
      ("certificate", certificate (Cylog.Engine.load (Cylog.Parser.parse_exn joins_src)));
      ("scales", list scale rows) ]

let run_joins () =
  section "Joins: cost-based planning vs left-to-right evaluation";
  Format.printf "  body: Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z)@.";
  let rows = List.map joins_row [ 10; 100 ] in
  List.iter pp_joins_row rows;
  write_artifact "BENCH_joins.json" (joins_json rows)

(* The rows the optimised strategy scans at 1x. Rescanning the whole join
   every step costs far more, so "no more rows than the reference" alone
   would let most of a planner regression through. *)
let joins_smoke_max_rows = 124

let run_joins_smoke () =
  (* Tiny-scale planner regression gate, wired into [dune runtest] via the
     [bench-smoke] alias: identical results, no more scanned rows than
     the reference strategy and no more than [joins_smoke_max_rows],
     judged on the deterministic row counter. *)
  section "Joins smoke: planner differential at tiny scale";
  let r = joins_row 1 in
  pp_joins_row r;
  verdict
    ~ok:(Printf.sprintf "identical results, %d <= %d rows scanned (bound %d)"
           r.planned.j_rows_scanned r.naive.j_rows_scanned joins_smoke_max_rows)
    (failed
       [ ("planned evaluation diverged from naive order", joins_identical r);
         ( "planned evaluation scanned more rows than naive",
           r.planned.j_rows_scanned <= r.naive.j_rows_scanned );
         ( Printf.sprintf "planned evaluation scanned more than %d rows"
             joins_smoke_max_rows,
           r.planned.j_rows_scanned <= joins_smoke_max_rows ) ]
    @ parse_check "BENCH_joins" (joins_json [ r ]))

(* ------------------------------------------------------------------ *)
(* Incremental: per-supply latency under semi-naive vs naive           *)
(* ------------------------------------------------------------------ *)

(* The headline claim of differential evaluation: after preloading a
   large static relation, the cost of absorbing ONE new fact should
   depend on the fact's consequences, not on the database size. The
   campaign preloads [Log] with N rows, opens S labelling tasks, then
   supplies the answers one at a time, measuring each supply+fixpoint
   individually on the deterministic rows-scanned counter.

   Under semi-naive evaluation the new [Label] row is the pinned delta
   atom and the planner turns [Log] into an index probe: per-supply work
   is O(1) in N. The naive reference (rescan, left-to-right) re-reads
   [Log] end to end on every step: per-supply work is O(N), so doubling
   the preload doubles the latency.

   With [~facts:true] the preload is written as [Log] fact statements
   ahead of the rules, the way TweetPecker and the fleet carry their base
   data, instead of rows inserted through the database. Each supply then
   also meets the question of which statements a step examines: the
   rescan reference walks every fact statement on every step, the
   optimised strategy only the statements whose body relations changed. *)
let incremental_src ~log_facts =
  let buf = Buffer.create (64 + (log_facts * 24)) in
  Buffer.add_string buf "schema:\n  Log(id, msg);\n  Task(id);\n\nrules:\n";
  for i = 0 to log_facts - 1 do
    Buffer.add_string buf (Printf.sprintf "  Log(id:%d, msg:%d);\n" i i)
  done;
  Buffer.add_string buf
    "  Q: Label(id, v)/open <- Task(id);\n\
    \  J: Out(id, msg, v) <- Log(id, msg), Label(id, v);\n";
  Buffer.contents buf

type inc_run = {
  i_supplies : int;
  i_supply_rows : int;  (** total rows scanned across all supplies *)
  i_supply_examined : int;  (** total statements examined across all supplies *)
  i_rows_first : int;
  i_rows_last : int;
  i_out : int;
  i_telemetry : json;
}

let incremental_run ?(facts = false) ~preload ~supplies ~strategy () =
  let program =
    Cylog.Parser.parse_exn (incremental_src ~log_facts:(if facts then preload else 0))
  in
  let engine = Cylog.Engine.load ~strategy program in
  let db = Cylog.Engine.database engine in
  if not facts then
    for i = 0 to preload - 1 do
      insert engine "Log" [ ("id", i); ("msg", i) ]
    done;
  for i = 0 to supplies - 1 do
    insert engine "Task" [ ("id", i) ]
  done;
  ignore (Cylog.Engine.run engine);
  let pending = Cylog.Engine.pending engine in
  let total_rows = ref 0 and total_examined = ref 0 in
  let rows_first = ref 0 and rows_last = ref 0 in
  let counter = Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) in
  let examined () = counter "eval.statements_examined" in
  List.iteri
    (fun i (o : Cylog.Engine.open_tuple) ->
      let rows0 = counter "eval.rows_scanned" in
      let examined0 = examined () in
      (match
         Cylog.Engine.supply engine o.id ~worker:(Reldb.Value.String "w")
           [ ("v", Reldb.Value.Int i) ]
       with
      | Ok _ -> ()
      | Error e -> failwith (Cylog.Engine.reject_to_string e));
      ignore (Cylog.Engine.run engine);
      let rows = counter "eval.rows_scanned" - rows0 in
      total_rows := !total_rows + rows;
      total_examined := !total_examined + (examined () - examined0);
      if i = 0 then rows_first := rows;
      rows_last := rows)
    pending;
  {
    i_supplies = List.length pending;
    i_supply_rows = !total_rows;
    i_supply_examined = !total_examined;
    i_rows_first = !rows_first;
    i_rows_last = !rows_last;
    i_out =
      (match Reldb.Database.find db "Out" with
      | Some rel -> Reldb.Relation.cardinal rel
      | None -> 0);
    i_telemetry = telemetry (Cylog.Engine.metrics engine);
  }

let inc_mean_rows r = float_of_int r.i_supply_rows /. float_of_int (max 1 r.i_supplies)
let inc_mean_examined r = float_of_int r.i_supply_examined /. float_of_int (max 1 r.i_supplies)

type inc_row = { i_scale : int; i_facts : bool; i_semi : inc_run; i_naive : inc_run }

let inc_row ?(facts = false) ~supplies preload =
  { i_scale = preload;
    i_facts = facts;
    i_semi = incremental_run ~facts ~preload ~supplies ~strategy:Cylog.Engine.Optimized ();
    i_naive = incremental_run ~facts ~preload ~supplies ~strategy:Cylog.Engine.Reference () }

let inc_advantage r = inc_mean_rows r.i_naive /. Float.max 1.0 (inc_mean_rows r.i_semi)

let pp_inc_row r =
  Format.printf
    "  %s %7d   semi: %8.1f rows/supply %6.1f stmts/supply   naive: %10.1f rows/supply \
     %8.1f stmts/supply   advantage %8.1fx   same Out: %b@."
    (if r.i_facts then "facts  " else "preload") r.i_scale (inc_mean_rows r.i_semi)
    (inc_mean_examined r.i_semi) (inc_mean_rows r.i_naive) (inc_mean_examined r.i_naive)
    (inc_advantage r)
    (r.i_semi.i_out = r.i_naive.i_out)

(* Growth of a per-supply mean (rows scanned unless [per_supply] says
   otherwise) as the preload scales from the first row to the last: the
   flat-latency verdict. *)
let inc_ratio ?(per_supply = inc_mean_rows) pick rows =
  match (rows, List.rev rows) with
  | small :: _, big :: _ -> per_supply (pick big) /. Float.max 1.0 (per_supply (pick small))
  | _ -> nan

(* The rows preload through the database, so every row and both
   strategies load the same program and one certificate covers them. *)
let incremental_json ~supplies rows =
  let run m =
    Obj
      [ ("supply_rows_total", Int m.i_supply_rows);
        ("rows_per_supply_mean", Float (inc_mean_rows m));
        ("statements_per_supply_mean", Float (inc_mean_examined m));
        ("rows_first_supply", Int m.i_rows_first); ("rows_last_supply", Int m.i_rows_last);
        ("out_rows", Int m.i_out); ("telemetry", m.i_telemetry) ]
  in
  let semi_growth = inc_ratio (fun r -> r.i_semi) rows in
  Obj
    [ ("benchmark", String "incremental");
      ("body", String "Out(id, msg, v) <- Log(id, msg), Label(id, v)");
      ("supplies", Int supplies);
      ( "certificate",
        certificate (Cylog.Engine.load (Cylog.Parser.parse_exn (incremental_src ~log_facts:0)))
      );
      ( "preloads",
        list
          (fun r ->
            Obj
              [ ("preload", Int r.i_scale); ("semi_naive", run r.i_semi); ("naive", run r.i_naive);
                ("naive_vs_semi_rows", Float (inc_advantage r));
                ("identical_results", Bool (r.i_semi.i_out = r.i_naive.i_out)) ])
          rows );
      ("semi_naive_growth_across_preloads", Float semi_growth);
      ("naive_growth_across_preloads", Float (inc_ratio (fun r -> r.i_naive) rows));
      ( "flat_gate",
        Obj [ ("semi_naive_max_growth", Float 1.5); ("passed", Bool (semi_growth <= 1.5)) ] ) ]

(* Identical results, and the flat-latency verdict on each per-supply
   mean in [means]: flat under semi-naive, at least doubling under the
   reference. *)
let inc_check ?(means = [ ("rows scanned", inc_mean_rows) ]) rows =
  failed
    (List.map
       (fun r ->
         ( Printf.sprintf "results diverge at preload %d" r.i_scale,
           r.i_semi.i_out = r.i_naive.i_out && r.i_semi.i_out > 0 ))
       rows
    @ List.concat_map
        (fun (what, per_supply) ->
          [ ( Printf.sprintf "semi-naive %s per supply grew with the preload (not flat)" what,
              inc_ratio ~per_supply (fun r -> r.i_semi) rows <= 1.5 );
            ( Printf.sprintf "naive %s per supply stayed flat too (no contrast)" what,
              inc_ratio ~per_supply (fun r -> r.i_naive) rows >= 2.0 ) ])
        means)

let run_incremental () =
  section "Incremental: per-supply cost after a bulk preload (semi-naive vs naive)";
  Format.printf "  body: Out(id, msg, v) <- Log(id, msg), Label(id, v)@.";
  let supplies = 1_000 in
  let rows = List.map (inc_row ~supplies) [ 10_000; 100_000 ] in
  List.iter pp_inc_row rows;
  Format.printf
    "  growth of rows/supply across preloads: semi-naive %.2fx, naive %.2fx@."
    (inc_ratio (fun r -> r.i_semi) rows)
    (inc_ratio (fun r -> r.i_naive) rows);
  write_artifact "BENCH_incremental.json" (incremental_json ~supplies rows);
  notes (inc_check rows)

let run_incremental_smoke () =
  (* Scaled-down flat-latency gate, wired into [dune runtest] via the
     [incremental-smoke] alias and judged on deterministic counters:
     per-supply work must stay flat (<= 1.5x) for semi-naive while the
     naive reference at least doubles across a 5x preload. The preload
     runs twice: as rows inserted through the database, judged on rows
     scanned, and as fact statements in the program text, judged on rows
     scanned and on statements examined. *)
  section "Incremental smoke: flat per-supply latency at small scale";
  let supplies = 50 in
  let rows = List.map (inc_row ~supplies) [ 1_000; 5_000 ] in
  let fact_rows = List.map (inc_row ~facts:true ~supplies) [ 1_000; 5_000 ] in
  List.iter pp_inc_row (rows @ fact_rows);
  verdict
    ~ok:
      (Printf.sprintf
         "semi-naive flat (%.2fx growth), naive degrades (%.2fx growth); with a fact \
          preload semi-naive examines a flat number of statements (%.2fx growth), rescan \
          degrades (%.2fx growth)"
         (inc_ratio (fun r -> r.i_semi) rows)
         (inc_ratio (fun r -> r.i_naive) rows)
         (inc_ratio ~per_supply:inc_mean_examined (fun r -> r.i_semi) fact_rows)
         (inc_ratio ~per_supply:inc_mean_examined (fun r -> r.i_naive) fact_rows))
    (inc_check rows
    @ inc_check
        ~means:[ ("rows scanned", inc_mean_rows); ("statements examined", inc_mean_examined) ]
        fact_rows
    @ parse_check "BENCH_incremental" (incremental_json ~supplies rows))

(* ------------------------------------------------------------------ *)
(* Quality: adaptive quorum vs fixed redundancy                        *)
(* ------------------------------------------------------------------ *)

(* A labelling campaign with planted ground truth and undesignated opens
   (so the quorum runtime applies): N items, each awaiting one label from
   a crowd of four diligent and one sloppy worker driven by the quality
   router. The same seeded campaign runs under Fixed k=2, Fixed k=3 and
   the Adaptive policy; the claim under test is that Adaptive matches or
   beats Fixed k=3 on accuracy while consuming fewer answers, because it
   stops early once the reliability-weighted posterior clears tau and
   only escalates on genuinely contested items. *)

let quality_labels = [| "cat"; "dog"; "bird" |]
let quality_truth_of id = quality_labels.(id mod Array.length quality_labels)

let quality_src n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "rules:\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  Item(id:%d);\n" i)
  done;
  Buffer.add_string buf "  Q: LabelOf(id, label)/open <- Item(id);\n";
  Buffer.contents buf

type quality_run = {
  q_label : string;
  q_items : int;
  q_resolved : int;
  q_correct : int;
  q_answers : int;  (** accepted answers — the campaign's paid question count *)
  q_early_stopped : int;
  q_escalated : int;
  q_rounds : int;
  q_reliability : (string * float * int) list;
  q_telemetry : json;
  q_certificate : json;
}

let quality_campaign ~label ~seed ~items ~policy =
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn (quality_src items)) in
  let workers =
    Crowd.Worker.crowd Crowd.Worker.diligent 4 @ [ Crowd.Worker.sloppy "s1" ]
  in
  let sim_workers =
    List.map
      (fun (w : Crowd.Worker.profile) -> (Reldb.Value.String w.name, w))
      workers
  in
  let truth (o : Cylog.Engine.open_tuple) =
    let id =
      match Reldb.Tuple.get_or_null o.bound "id" with
      | Reldb.Value.Int i -> i
      | _ -> 0
    in
    [ ("label", Reldb.Value.String (quality_truth_of id)) ]
  in
  let outcome =
    Crowd.Simulator.run_routed ~seed ~policy ~truth ~workers:sim_workers engine
  in
  let labelled =
    match Reldb.Database.find (Cylog.Engine.database engine) "LabelOf" with
    | None -> []
    | Some rel -> Reldb.Relation.tuples rel
  in
  let resolved, correct =
    List.fold_left
      (fun (r, c) t ->
        match
          (Reldb.Tuple.get_or_null t "id", Reldb.Tuple.get_or_null t "label")
        with
        | Reldb.Value.Int id, Reldb.Value.String l ->
            (r + 1, if String.equal l (quality_truth_of id) then c + 1 else c)
        | _ -> (r, c))
      (0, 0) labelled
  in
  let counter = Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) in
  {
    q_label = label;
    q_items = items;
    q_resolved = resolved;
    q_correct = correct;
    q_answers = counter "answers.accepted";
    q_early_stopped = counter "quorum.early_stopped";
    q_escalated = counter "quorum.escalated";
    q_rounds = outcome.rounds;
    q_reliability = Cylog.Engine.reliability_table engine;
    q_telemetry = telemetry (Cylog.Engine.metrics engine);
    q_certificate = certificate engine;
  }

let quality_policy =
  Cylog.Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 5 }

let quality_accuracy r =
  float_of_int r.q_correct /. float_of_int (max 1 r.q_items)

let pp_quality_run r =
  Format.printf
    "  %-10s resolved %d/%d   accuracy %5.1f%%   answers %4d   early-stop %d   \
     escalated %d   rounds %d@."
    r.q_label r.q_resolved r.q_items
    (100.0 *. quality_accuracy r)
    r.q_answers r.q_early_stopped r.q_escalated r.q_rounds

let quality_runs ~seed ~items =
  [ quality_campaign ~label:"fixed-k2" ~seed ~items ~policy:(Cylog.Engine.Fixed 2);
    quality_campaign ~label:"fixed-k3" ~seed ~items ~policy:(Cylog.Engine.Fixed 3);
    quality_campaign ~label:"adaptive" ~seed ~items ~policy:quality_policy ]

(* Each run installs its own quorum policy, which the certificate
   charges, so each carries its own certificate. *)
let quality_json ~seed runs =
  let run r =
    Obj
      [ ("policy", String r.q_label); ("items", Int r.q_items);
        ("resolved", Int r.q_resolved); ("correct", Int r.q_correct);
        ("accuracy", Float (quality_accuracy r)); ("answers", Int r.q_answers);
        ("early_stopped", Int r.q_early_stopped); ("escalated", Int r.q_escalated);
        ("rounds", Int r.q_rounds);
        ( "reliability",
          Obj
            (List.map
               (fun (w, mean, n) ->
                 (w, Obj [ ("mean", Float mean); ("observations", Int n) ]))
               r.q_reliability) );
        ("telemetry", r.q_telemetry); ("certificate", r.q_certificate) ]
  in
  Obj
    [ ("benchmark", String "quality");
      ("crowd", String "4 diligent + 1 sloppy, router-driven assignment");
      ("seed", Int seed);
      ("adaptive", Obj [ ("tau", Float 0.9); ("min_votes", Int 2); ("max_votes", Int 5) ]);
      ("runs", list run runs) ]

let quality_check runs =
  let find l = List.find (fun r -> r.q_label = l) runs in
  let fixed3 = find "fixed-k3" and adaptive = find "adaptive" in
  failed
    [ ("adaptive left tasks unresolved", adaptive.q_resolved = adaptive.q_items);
      ( "adaptive accuracy below fixed k=3",
        quality_accuracy adaptive >= quality_accuracy fixed3 );
      ( "adaptive consumed no fewer answers than fixed k=3",
        adaptive.q_answers < fixed3.q_answers );
      ("adaptive never early-stopped", adaptive.q_early_stopped > 0) ]

let run_quality () =
  section "Quality: adaptive early stopping vs fixed redundancy";
  let seed = 7 and items = 60 in
  let runs = quality_runs ~seed ~items in
  List.iter pp_quality_run runs;
  write_artifact "BENCH_quality.json" (quality_json ~seed runs);
  notes (quality_check runs)

let run_quality_smoke () =
  (* The adaptive-beats-fixed gate, wired into [dune runtest] via the
     [quality-smoke] alias: the same seeded campaign as [run_quality],
     judged on deterministic counters. *)
  section "Quality smoke: adaptive vs fixed k=3 on the seeded campaign";
  let runs = quality_runs ~seed:7 ~items:60 in
  List.iter pp_quality_run runs;
  verdict ~ok:"all tasks resolved, accuracy >= fixed k=3, fewer answers"
    (quality_check runs @ parse_check "BENCH_quality" (quality_json ~seed:7 runs))

(* ------------------------------------------------------------------ *)
(* Durability: fsyncs per policy and O(live-state) recovery            *)
(* ------------------------------------------------------------------ *)

(* Two measurements back docs/DURABILITY.md's claims: (a) what each fsync
   policy costs, counted in fsyncs per append; (b) recovery cost against
   journal length with and without compaction — compaction folds the
   resolved state into a snapshot segment, so the records replayed at
   recovery (the deterministic proxy for restore cost) stay bounded by
   [compact_every] instead of growing with the campaign. Both count, so
   the journal writes to in-memory storage: the counts are those of real
   files, and the experiment leaves nothing on disk. *)

let dur_dir = "journal"

let dur_policy_name = function
  | Cylog.Journal.Always -> "always"
  | Cylog.Journal.Every_n n -> Printf.sprintf "every-%d" n
  | Cylog.Journal.Never -> "never"

type dur_policy_run = {
  d_policy : string;
  d_appends : int;
  d_fsyncs : int;
  d_rotations : int;
}

let dur_throughput ~count fsync =
  let storage = Cylog.Storage.Sim.(storage (create ())) in
  let config =
    { Cylog.Journal.default_config with fsync; segment_bytes = 1 lsl 16 }
  in
  let payload = String.make 128 'x' in
  let j = Cylog.Journal.create ~config ~storage ~genesis:[ "bench" ] dur_dir in
  for _ = 1 to count do
    Cylog.Journal.append j payload
  done;
  Cylog.Journal.close j;
  let st = Cylog.Journal.stats j in
  {
    d_policy = dur_policy_name fsync;
    d_appends = st.Cylog.Journal.appends;
    d_fsyncs = st.Cylog.Journal.fsyncs;
    d_rotations = st.Cylog.Journal.rotations;
  }

type dur_recovery_run = {
  r_tasks : int;
  r_compacted : bool;
  r_records_replayed : int;
  r_base_segment : int;
  r_segments_scanned : int;
  r_identical : bool;
  r_telemetry : json;
}

(* A labelling campaign of [tasks] journaled supplies: bulk state goes in
   before the journal starts (the genesis snapshot carries it), then each
   answer is one durable WAL entry. Recovery is cold. *)
let dur_src = "schema:\n  Task(id);\nrules:\n  Q: LabelOf(id, v)/open <- Task(id);\n"

let dur_campaign ~tasks ~compact =
  let storage = Cylog.Storage.Sim.(storage (create ())) in
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn dur_src) in
  for i = 0 to tasks - 1 do
    insert engine "Task" [ ("id", i) ]
  done;
  ignore (Cylog.Engine.run engine);
  let config =
    { Cylog.Journal.default_config with
      segment_bytes = 1 lsl 15;
      compact_every = (if compact then Some 64 else None) }
  in
  Cylog.Engine.journal_start ~config ~storage engine dur_dir;
  List.iter
    (fun (o : Cylog.Engine.open_tuple) ->
      (match
         Cylog.Engine.supply engine o.id ~worker:(Reldb.Value.String "w")
           [ ("v", Reldb.Value.Int (o.id mod 3)) ]
       with
      | Ok _ -> ()
      | Error e -> failwith (Cylog.Engine.reject_to_string e));
      ignore (Cylog.Engine.run engine))
    (Cylog.Engine.pending engine);
  Option.iter Cylog.Journal.close (Cylog.Engine.durable_journal engine);
  let recovered, stats = Cylog.Engine.recover ~config ~storage dur_dir in
  let r_identical =
    Cylog.Engine.journal_dump recovered = Cylog.Engine.journal_dump engine
  in
  {
    r_tasks = tasks;
    r_compacted = compact;
    r_records_replayed = stats.Cylog.Engine.records_replayed;
    r_base_segment = stats.Cylog.Engine.base_segment;
    r_segments_scanned = stats.Cylog.Engine.segments_scanned;
    r_identical;
    r_telemetry = telemetry (Cylog.Engine.metrics engine);
  }

let pp_dur_policy_run r =
  Format.printf "  %-10s %6d appends   %6d fsyncs   %d rotations@." r.d_policy r.d_appends
    r.d_fsyncs r.d_rotations

let pp_dur_recovery_run r =
  Format.printf
    "  %5d tasks  %-14s  %5d records replayed   base seg %d / %d scanned   identical: %b@."
    r.r_tasks
    (if r.r_compacted then "compacted" else "no-compaction")
    r.r_records_replayed r.r_base_segment r.r_segments_scanned r.r_identical

(* Every recovery campaign loads [dur_src] without a quorum, so one
   certificate covers them all. *)
let durability_json policies recoveries =
  Obj
    [ ("benchmark", String "durability"); ("payload_bytes", Int 128);
      ("certificate", certificate (Cylog.Engine.load (Cylog.Parser.parse_exn dur_src)));
      ( "fsync_policies",
        list
          (fun r ->
            Obj
              [ ("policy", String r.d_policy); ("appends", Int r.d_appends);
                ("fsyncs", Int r.d_fsyncs); ("rotations", Int r.d_rotations) ])
          policies );
      ( "recovery",
        list
          (fun r ->
            Obj
              [ ("tasks", Int r.r_tasks); ("compacted", Bool r.r_compacted);
                ("records_replayed", Int r.r_records_replayed);
                ("base_segment", Int r.r_base_segment);
                ("segments_scanned", Int r.r_segments_scanned);
                ("identical_results", Bool r.r_identical); ("telemetry", r.r_telemetry) ])
          recoveries ) ]

(* The deterministic gates: fsync counts must order with the policies,
   recovery must be exact, and compaction must bound the replay length
   (the O(live-state) restore claim, judged on records replayed). *)
let dur_check policies recoveries =
  let fsyncs name =
    (List.find (fun r -> r.d_policy = name) policies).d_fsyncs
  in
  failed
    (( "fsync counts do not order always > every-8 > never",
       fsyncs "always" > fsyncs "every-8" && fsyncs "every-8" > fsyncs "never" )
    :: List.map
         (fun r ->
           ( Printf.sprintf "recovery diverged (%d tasks, compacted %b)" r.r_tasks
               r.r_compacted,
             r.r_identical ))
         recoveries
    @ List.concat_map
        (fun r ->
          match
            List.find_opt (fun c -> c.r_compacted && c.r_tasks = r.r_tasks) recoveries
          with
          | Some c ->
              [ ( Printf.sprintf
                    "compaction did not bound the replay at %d tasks (%d vs %d records)"
                    r.r_tasks c.r_records_replayed r.r_records_replayed,
                  2 * c.r_records_replayed < r.r_records_replayed );
                ( Printf.sprintf "compaction never advanced the base at %d tasks" r.r_tasks,
                  c.r_base_segment > 0 ) ]
          | None -> [])
        (List.filter (fun r -> not r.r_compacted) recoveries))

(* Both tables, printed: [appends] appends under each fsync policy, and a
   campaign of each size with and without compaction. *)
let dur_runs ~appends sizes =
  let policies =
    List.map (dur_throughput ~count:appends)
      [ Cylog.Journal.Always; Cylog.Journal.Every_n 8; Cylog.Journal.Never ]
  in
  List.iter pp_dur_policy_run policies;
  let recoveries =
    List.concat_map
      (fun tasks -> List.map (fun compact -> dur_campaign ~tasks ~compact) [ false; true ])
      sizes
  in
  List.iter pp_dur_recovery_run recoveries;
  (policies, recoveries)

let run_durability () =
  section "Durability: fsyncs per policy, recovery cost vs journal length";
  let policies, recoveries = dur_runs ~appends:1500 [ 300; 1200 ] in
  write_artifact "BENCH_durability.json" (durability_json policies recoveries);
  notes (dur_check policies recoveries)

(* Minor words per [Journal.append] of a fixed 40-byte payload on
   in-memory storage under [Every_n 8], over 10,000 appends after one
   warm-up append; no append in the window rotates. The count repeats
   exactly. The bound is the measured figure (26.27 words under 64-bit
   OCaml 5.1) rounded up: an append that formats its segment's path
   again, builds its span attributes untraced, allocates a closure to
   write a segment header it does not have, or one per checksummed
   slice, fails it. *)
let append_words_bound = 27

let append_words () =
  let storage = Cylog.Storage.Sim.(storage (create ())) in
  let config = { Cylog.Journal.default_config with fsync = Cylog.Journal.Every_n 8 } in
  let j = Cylog.Journal.create ~config ~storage ~genesis:[ "bench" ] dur_dir in
  let payload = String.make 40 'x' and appends = 10_000 in
  Cylog.Journal.append j payload;
  let words0 = Gc.minor_words () in
  for _ = 1 to appends do
    Cylog.Journal.append j payload
  done;
  (Gc.minor_words () -. words0) /. float_of_int appends

let run_durability_smoke () =
  (* Scaled-down durability gate, wired into [dune runtest] via the
     [durability-smoke] alias: the gates judge fsync counters, records
     replayed and the words one append allocates. *)
  section "Durability smoke: fsync policy counters and compacted recovery";
  let policies, recoveries = dur_runs ~appends:300 [ 150 ] in
  let words = append_words () in
  Format.printf "  append: %.2f minor words per call (bound %d)@." words append_words_bound;
  verdict
    ~ok:
      "fsync counters order with the policies, recovery exact, compaction bounds the \
       replay, appends within their word bound"
    (dur_check policies recoveries
    @ failed
        [ ("journal append words above bound", words <= float_of_int append_words_bound) ]
    @ parse_check "BENCH_durability" (durability_json policies recoveries))

(* ------------------------------------------------------------------ *)
(* Monitor: campaign observability — latencies, series, watchdogs      *)
(* ------------------------------------------------------------------ *)

(* A faulted adaptive labelling campaign under the campaign monitor:
   [items] undesignated tasks, five workers wrapped in the drop fault
   profile, lease runtime on, adaptive quorum, one monitor sample per
   round. The budget-capped variant arms [max_budget] and must stop via
   the journaled [Alert_fired] within one round of the crossing; the
   journaled variant (Sim storage) is recovered afterwards and the
   monitor recounted from the recovered event log. *)

(* A worker that answers a random pending task with a random label. *)
let random_labeller labels engine ~worker:_ ~rng ~round:_ =
  match Cylog.Engine.pending engine with
  | [] -> Crowd.Simulator.Pass
  | pending ->
      let o = List.nth pending (Random.State.int rng (List.length pending)) in
      let label = labels.(Random.State.int rng (Array.length labels)) in
      Crowd.Simulator.Answer
        ( o.Cylog.Engine.id,
          [ ("label", Reldb.Value.String label) ],
          Crowd.Simulator.Enter_value )

let monitor_campaign ?budget ?store ~seed ~items () =
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn (quality_src items)) in
  (match store with
  | Some s ->
      Cylog.Engine.journal_start
        ~storage:(Cylog.Storage.Sim.storage s)
        engine "journal"
  | None -> ());
  let config = { Cylog.Monitor.default_config with max_budget = budget } in
  let workers =
    List.map
      (fun w -> (Reldb.Value.String w, random_labeller [| "cat"; "dog"; "bird" |]))
      [ "w1"; "w2"; "w3"; "w4"; "w5" ]
  in
  let workers =
    Crowd.Faults.inject ~seed (List.assoc "drop" Crowd.Faults.profiles) workers
  in
  let outcome =
    Crowd.Simulator.run ~seed ~max_rounds:400 ~lease:Cylog.Lease.default_config
      ~policy:quality_policy
      ~monitor:config
      ~stop:(fun e ->
        Cylog.Engine.pending e = [] && Cylog.Engine.run e |> snd = `Quiescent)
      ~workers engine
  in
  (engine, config, outcome)

let stop_name = function
  | `Stopped -> "stopped"
  | `Stalled -> "stalled"
  | `Max_rounds -> "max-rounds"
  | `Alert _ -> "alert"

let monitor_e2e mon p =
  match List.assoc_opt "lifecycle.end_to_end" (Cylog.Monitor.histograms mon) with
  | Some h -> Cylog.Telemetry.Metrics.quantile h p
  | None -> 0.0

let budget_firings mon =
  List.filter
    (fun (f : Cylog.Monitor.firing) ->
      match f.alert with Cylog.Event.Budget_exceeded _ -> true | _ -> false)
    (Cylog.Monitor.firings mon)

(* First series round whose spent exceeds the budget — the watchdog must
   have fired on that very sample (it checks before the point is pushed),
   so the campaign stops within one round of the crossing. *)
let budget_crossing mon budget =
  List.find_map
    (fun (p : Cylog.Monitor.point) ->
      if p.p_spent > budget then Some p.p_round else None)
    (Cylog.Monitor.points mon)

let monitor_budget_run ~seed ~items ~budget =
  let store = Cylog.Storage.Sim.create () in
  let engine, config, outcome = monitor_campaign ~budget ~store ~seed ~items () in
  Option.iter Cylog.Journal.close (Cylog.Engine.durable_journal engine);
  let mon = Option.get (Cylog.Engine.monitor engine) in
  let live = Cylog.Monitor.view mon in
  let recount =
    Cylog.Monitor.view (Cylog.Monitor.of_events config (Cylog.Engine.events engine))
  in
  let recovered, _ =
    Cylog.Engine.recover ~storage:(Cylog.Storage.Sim.storage store) "journal"
  in
  let recovered_view = Option.map Cylog.Monitor.view (Cylog.Engine.monitor recovered) in
  let firings = budget_firings mon in
  (* Each check: its artifact field, its failure message, its verdict. *)
  let checks =
    [ ("alert_fired_once", "budget alert did not fire exactly once", List.length firings = 1);
      ( "stopped_via_alert",
        "campaign did not stop via the alert",
        match outcome.stop_reason with `Alert _ -> true | _ -> false );
      ( "stopped_within_one_round",
        "alert fired more than one round after the budget crossing",
        match (firings, budget_crossing mon budget) with
        | [ f ], Some crossing -> f.at_round <= crossing + 1
        | _ -> false );
      ("recount_agrees", "event-log recount disagrees with the live monitor", recount = live);
      ( "recovered_agrees",
        "recovered monitor disagrees with the live monitor",
        recovered_view = Some live ) ]
  in
  (engine, mon, outcome, checks)

let monitor_check_failures checks = failed (List.map (fun (_, what, ok) -> (what, ok)) checks)

(* The two campaigns carry their own certificates: the budget-capped one
   certifies a monitor with a spend ceiling. *)
let monitor_json ~seed ~items ~budget (engine, outcome) (engine_b, mon_b, outcome_b, checks) =
  let campaign engine (outcome : Crowd.Simulator.outcome) extra =
    let mon = Option.get (Cylog.Engine.monitor engine) in
    Obj
      ([ ("rounds", Int outcome.rounds); ("stop", String (stop_name outcome.stop_reason));
         ("e2e_p50", Float (monitor_e2e mon 0.5)); ("e2e_p95", Float (monitor_e2e mon 0.95));
         ("e2e_p99", Float (monitor_e2e mon 0.99)) ]
      @ extra
      @ [ ("monitor", Raw (Cylog.Monitor.to_json mon));
          ("telemetry", telemetry (Cylog.Engine.metrics engine));
          ("certificate", certificate engine) ])
  in
  Obj
    [ ("benchmark", String "monitor"); ("seed", Int seed); ("items", Int items);
      ("campaign", campaign engine outcome []);
      ( "budget_capped",
        campaign engine_b outcome_b
          ([ ("budget", Int budget);
             ( "crossing_round",
               Int (Option.value (budget_crossing mon_b budget) ~default:(-1)) );
             ( "alert_round",
               Int (match budget_firings mon_b with f :: _ -> f.at_round | [] -> -1) ) ]
          @ List.map (fun (key, _, ok) -> (key, Bool ok)) checks) ) ]

let pp_monitor_run label mon (outcome : Crowd.Simulator.outcome) =
  Format.printf
    "  %-14s %3d rounds (%s)   %3d samples   spent %4d   answers %4d   \
     e2e p50/p95/p99 %.1f/%.1f/%.1f   alerts %d@."
    label outcome.rounds (stop_name outcome.stop_reason)
    (Cylog.Monitor.samples mon) (Cylog.Monitor.spent mon)
    (Cylog.Monitor.answers mon) (monitor_e2e mon 0.5) (monitor_e2e mon 0.95)
    (monitor_e2e mon 0.99)
    (List.length (Cylog.Monitor.firings mon))

(* Both campaigns, printed: free-running and budget-capped. *)
let monitor_runs ~seed ~items ~budget =
  let engine, _, outcome = monitor_campaign ~seed ~items () in
  pp_monitor_run "free-running" (Option.get (Cylog.Engine.monitor engine)) outcome;
  let ((_, mon_b, outcome_b, _) as capped) = monitor_budget_run ~seed ~items ~budget in
  pp_monitor_run "budget-capped" mon_b outcome_b;
  ((engine, outcome), capped)

let run_monitor () =
  section "Monitor: faulted adaptive campaign — latencies, series, watchdogs";
  let seed = 7 and items = 40 and budget = 60 in
  let free, ((_, mon_b, _, checks) as capped) = monitor_runs ~seed ~items ~budget in
  (match budget_firings mon_b with
  | f :: _ ->
      Format.printf "  budget %d crossed at round %d, alert at round %d (%s)@."
        budget
        (Option.value (budget_crossing mon_b budget) ~default:(-1))
        f.at_round
        (Cylog.Event.alert_to_string f.alert)
  | [] -> Format.printf "  budget %d never crossed@." budget);
  write_artifact "BENCH_monitor.json" (monitor_json ~seed ~items ~budget free capped);
  notes (monitor_check_failures checks)

(* ------------------------------------------------------------------ *)
(* Telemetry: JSON-output smoke test and null-sink overhead gate       *)
(* ------------------------------------------------------------------ *)

(* The counters any campaign with tasks, leases and a quorum must have
   produced — the smoke contract for --metrics-out consumers. *)
let mandatory_metric_keys =
  [ "engine.events"; "engine.fired"; "open.created"; "answers.accepted";
    "lease.granted"; "quorum.votes"; "db.inserted" ]

let run_telemetry_smoke () =
  section "Telemetry smoke: faulted quorum campaign under the JSON sink";
  let src =
    {|rules:
  Item(id:1); Item(id:2); Item(id:3); Item(id:4);
  Q: LabelOf(id, label)/open <- Item(id);
|}
  in
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn src) in
  let spans = ref [] in
  Cylog.Engine.set_sink engine
    (Cylog.Telemetry.Sink.fn (fun s -> spans := s :: !spans));
  let workers =
    List.map
      (fun w -> (Reldb.Value.String w, random_labeller [| "cat"; "dog" |]))
      [ "w1"; "w2"; "w3"; "w4" ]
  in
  let workers = Crowd.Faults.inject ~seed:5 (List.assoc "drop" Crowd.Faults.profiles) workers in
  let outcome =
    Crowd.Simulator.run ~seed:5 ~max_rounds:200 ~lease:Cylog.Lease.default_config
      ~policy:(Cylog.Engine.Fixed 2)
      ~stop:(fun e -> Cylog.Engine.pending e = [] && Cylog.Engine.run e |> snd = `Quiescent)
      ~workers engine
  in
  Format.printf "  campaign: %d rounds, %d events, %d spans@." outcome.rounds
    (Cylog.Engine.event_count engine)
    (List.length !spans);
  let metrics = Cylog.Engine.metrics engine in
  (* The derivability invariant, end to end: recounting the journal must
     reproduce every journal-derived counter of the live registry. *)
  let derived m =
    List.filter
      (fun (k, _) -> Cylog.Engine.journal_derived k)
      (Cylog.Telemetry.Metrics.counters m)
  in
  verdict
    ~ok:
      (Printf.sprintf "JSON parses, %d mandatory keys present, journal recount agrees"
         (List.length mandatory_metric_keys))
    (failed
       ([ ( "metrics JSON does not parse",
            json_parses (Cylog.Telemetry.Metrics.to_json metrics) );
          ("no spans were emitted", !spans <> []) ]
       @ List.map
           (fun s ->
             ("span JSON line does not parse", json_parses (Cylog.Telemetry.span_to_json s)))
           !spans
       @ List.map
           (fun key ->
             ( Printf.sprintf "mandatory metric %s missing" key,
               Cylog.Telemetry.Metrics.counter metrics key > 0 ))
           mandatory_metric_keys
       @ [ ( "journal recount disagrees with live registry",
             derived (Cylog.Engine.metrics_of_events (Cylog.Engine.events engine))
             = derived metrics ) ]))

(* The telemetry overhead gate counts minor-heap words, which repeat
   exactly, on one campaign made of task events: [items] labelling tasks
   under [Fixed 3], each answered by three workers, with a monitor sample
   every ten tasks when a monitor is installed. The count starts after
   [Engine.certificate], which the first answer would otherwise compute
   inside the window, and covers the answer phase. Returns the words and
   the events recorded. *)
let overhead_words ~items ~metrics ~monitored =
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn (quality_src items)) in
  Cylog.Telemetry.Metrics.set_enabled (Cylog.Engine.metrics engine) metrics;
  Cylog.Engine.set_quorum_policy engine (Cylog.Engine.Fixed 3);
  if monitored then
    Cylog.Engine.set_monitor engine (Some Cylog.Monitor.default_config);
  ignore (Cylog.Engine.run engine);
  ignore (Cylog.Engine.certificate engine);
  let workers = List.map (fun w -> Reldb.Value.String w) [ "w1"; "w2"; "w3" ] in
  let events0 = Cylog.Engine.event_count engine in
  let words0 = Gc.minor_words () in
  List.iteri
    (fun i (o : Cylog.Engine.open_tuple) ->
      List.iter
        (fun worker ->
          match
            Cylog.Engine.supply engine o.id ~worker [ ("label", Reldb.Value.String "x") ]
          with
          | Ok _ -> ()
          | Error r -> failwith (Cylog.Engine.reject_to_string r))
        workers;
      if monitored && i mod 10 = 9 then ignore (Cylog.Engine.monitor_sample engine ~round:i))
    (Cylog.Engine.pending engine);
  (Gc.minor_words () -. words0, Cylog.Engine.event_count engine - events0)

(* Bounds, in minor words per event over the metrics-off run: each is the
   figure this code measures (67.02 and 71.52 words under 64-bit OCaml
   5.1), rounded up to the next whole word, so one more allocation per
   event fails the gate. Re-measure with [dune exec bench/main.exe
   telemetry-overhead] when the fold's allocations change on purpose. *)
let metrics_words_per_event = 68
let monitor_words_per_event = 72

let run_telemetry_overhead () =
  section "Telemetry overhead: minor words per event, metrics and monitor on vs off";
  let items = 2000 in
  let off, _ = overhead_words ~items ~metrics:false ~monitored:false in
  let on, on_events = overhead_words ~items ~metrics:true ~monitored:false in
  let mon, mon_events = overhead_words ~items ~metrics:true ~monitored:true in
  let per_event words events = (words -. off) /. float_of_int events in
  let metrics = per_event on on_events and monitor = per_event mon mon_events in
  Format.printf "  %d tasks x 3 answers: off %.0f words; metrics on %.0f words over %d@."
    items off on on_events;
  Format.printf "  events; metrics and monitor on %.0f words over %d events@." mon mon_events;
  Format.printf "  metrics: %+.2f words/event (bound %d); metrics and monitor: %+.2f (bound %d)@."
    metrics metrics_words_per_event monitor monitor_words_per_event;
  verdict ~ok:"words per event within both bounds"
    (failed
       [ ( "metrics words per event above bound",
           metrics <= float_of_int metrics_words_per_event );
         ( "metrics and monitor words per event above bound",
           monitor <= float_of_int monitor_words_per_event ) ])

(* The monitor regression gate, wired into [dune runtest] via the
   [monitor-smoke] alias: the budget-capped faulted campaign must fire
   the budget alert exactly once, stop via the journaled alert within
   one round of the crossing, produce parseable JSON, and recount
   byte-identically from the event log — live, and after journal
   recovery. *)
let run_monitor_smoke () =
  section "Monitor smoke: budget watchdog on the seeded faulted campaign";
  let seed = 7 and items = 30 and budget = 30 in
  let free, ((_, mon, _, checks) as capped) = monitor_runs ~seed ~items ~budget in
  let jsonl_ok =
    List.for_all json_parses
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' (Cylog.Monitor.to_jsonl mon)))
  in
  verdict
    ~ok:"alert fired once, campaign stopped on it, JSON parses, recount and recovery agree"
    (monitor_check_failures checks
    @ failed
        [ ("monitor JSON does not parse", json_parses (Cylog.Monitor.to_json mon));
          ("a monitor JSONL line does not parse", jsonl_ok) ]
    @ parse_check "BENCH_monitor" (monitor_json ~seed ~items ~budget free capped))

(* ------------------------------------------------------------------ *)
(* Serve smoke: the sharded multi-campaign server                      *)
(* ------------------------------------------------------------------ *)

(* Server throughput and latency are measured by perfbench's [fleet]
   and [fleet-durable] workloads, not here. *)

(* A campaign of [rows] x 100 label tasks from [rows] + 100 facts: the
   cross product keeps set-up cheap, since lint and analysis walk facts
   while the history grows with the tasks. *)
let history_source ~rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "schema:\n  Row(r);\n  Col(c);\n  LabelOf(r, c, label);\nrules:\n";
  for r = 0 to rows - 1 do
    Buffer.add_string buf (Printf.sprintf "  Row(r:%d);\n" r)
  done;
  for c = 0 to 99 do
    Buffer.add_string buf (Printf.sprintf "  Col(c:%d);\n" c)
  done;
  Buffer.add_string buf "  Q: LabelOf(r, c, label)/open <- Row(r), Col(c);\n";
  Buffer.contents buf

(* A 1-shard server whose one slot has been driven to [tasks] resolved
   tasks, with a poll cursor already at the end of its history. *)
let history_slot ~tasks =
  let campaign = "history" in
  let server = Server.create ~shards:1 () in
  Server.open_campaign server ~name:campaign
    (Cylog.Parser.parse_exn (history_source ~rows:(tasks / 100)));
  let cursor = Server.poll_cursor server ~campaign in
  (match Server.Shard.engine (Server.shard server 0) ~campaign with
  | None -> ()
  | Some e ->
      List.iter
        (fun (ot : Cylog.Engine.open_tuple) ->
          ignore
            (Server.supply server ~campaign { Server.shard = 0; local = ot.id }
               ~worker:(Reldb.Value.String "w1")
               [ ("label", Reldb.Value.String "x") ]))
        (Cylog.Engine.pending e));
  let resolved = List.length (Server.resolve_poll server ~campaign cursor) in
  (server, campaign, cursor, resolved)

(* Times [calls] runs of [request] on a slot of 10^3 tasks and on one of
   10^4: each figure is the best of 5 trials, and the two slots take
   turns, so a slow phase of the host hits both. Fails when the larger
   slot is more than 2x slower. *)
let size_gate ~tasks what calls request slots =
  let best = Array.make (List.length slots) infinity in
  for _ = 1 to 5 do
    List.iteri
      (fun i slot ->
        let (), dt =
          time (fun () ->
              for _ = 1 to calls do
                request slot
              done)
        in
        best.(i) <- min best.(i) dt)
      slots
  done;
  let ratio = best.(1) /. best.(0) in
  Format.printf "  %s: %.2f ms at 10^3 %s, %.2f ms at 10^4 (%.2fx)@." what
    (best.(0) *. 1e3) tasks (best.(1) *. 1e3) ratio;
  if ratio > 2.0 then
    [ Printf.sprintf "%s: %.2fx slower at 10^4 %s than at 10^3 (gate 2x)" what ratio tasks ]
  else []

(* The history-length gate: polls that find no new events, pending counts
   and leases on the drained campaign must cost about the same on a slot
   with 10^4 resolved tasks as on one with 10^3. Returns the failures. *)
let serve_history_gate () =
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let slots = List.map (fun tasks -> (tasks, history_slot ~tasks)) [ 1_000; 10_000 ] in
  List.iter
    (fun (tasks, (server, _, _, resolved)) ->
      let pending = Server.pending_total server in
      if resolved <> tasks || pending <> 0 then
        fail "history slot: %d of %d tasks resolved, %d pending" resolved tasks pending)
    slots;
  let requests =
    [ ( "10^4 resolve_poll",
        10_000,
        fun (server, campaign, cursor, _) ->
          ignore (Server.resolve_poll server ~campaign cursor) );
      ("10^3 pending_total", 1_000, fun (server, _, _, _) -> ignore (Server.pending_total server));
      ( "10^3 lease",
        1_000,
        fun (server, campaign, _, _) ->
          ignore (Server.lease server ~campaign ~worker:(Reldb.Value.String "w1") ~now:0) ) ]
  in
  !failures
  @ List.concat_map
      (fun (what, calls, request) ->
        size_gate ~tasks:"resolved tasks" what calls request (List.map snd slots))
      requests

(* A 1-shard server whose one slot keeps [tasks] label tasks pending under
   [Fixed 3], with a monitor installed. *)
let pool_slot ~tasks =
  let campaign = "pool" in
  let server = Server.create ~shards:1 () in
  Server.open_campaign server ~name:campaign ~policy:(Cylog.Engine.Fixed 3)
    ~monitor:Cylog.Monitor.default_config
    (Cylog.Parser.parse_exn (history_source ~rows:(tasks / 100)));
  (server, campaign, tasks)

(* The pool-size gate: a monitor sample must cost about the same with 10^4
   tasks pending as with 10^3. Returns the failures. *)
let serve_pool_gate () =
  let slots = List.map (fun tasks -> pool_slot ~tasks) [ 1_000; 10_000 ] in
  List.concat_map
    (fun (server, _, tasks) ->
      let pending = Server.pending_total server in
      if pending <> tasks then
        [ Printf.sprintf "pool slot: %d of %d tasks pending" pending tasks ]
      else [])
    slots
  @ size_gate ~tasks:"pending tasks" "10^3 sample" 1_000
      (fun (server, campaign, _) -> ignore (Server.sample server ~campaign ~round:0))
      slots

(* WAL appends per accepted answer over serve-smoke's fleet: the genesis
   records, one entry per engine call a request makes (lease attempt,
   answer, reclaim, sample), and a run after each answer that wrote a
   relation. The counts repeat exactly, so the bound is the measured figure
   (290 appends for 60 answers) rounded up: one more append fails it, and
   so does a shard that journals a run after a vote that only banked or
   after a reclaim (390 appends, 6.50 per answer). *)
let serve_appends_per_answer = 4.84

let slot_appends server ~shards ~campaigns =
  let total = ref 0 in
  for s = 0 to shards - 1 do
    for k = 0 to campaigns - 1 do
      let campaign = Crowd.Fleet_sim.campaign_name k in
      match Server.Shard.engine (Server.shard server s) ~campaign with
      | Some e ->
          Option.iter
            (fun j -> total := !total + (Cylog.Journal.stats j).Cylog.Journal.appends)
            (Cylog.Engine.durable_journal e)
      | None -> ()
    done
  done;
  !total

(* The serve regression gate, wired into [dune runtest] via the
   [serve-smoke] alias: a small fixed-seed fleet on in-memory storage
   must route every partitioned fact to its hash-owned shard, finish the
   campaigns with exact quorum arithmetic, merge a sane fleet monitor,
   journal at most [serve_appends_per_answer] WAL entries per answer,
   and recover every shard's slot from its compacted journal to a
   byte-identical trace with O(live state) replay. A history-length gate
   then holds polls, pending counts and leases to the live state, and a
   pool-size gate holds monitor samples to constant work. *)
let run_serve_smoke () =
  section "Serve smoke: routing, merged monitor and recovery on a seeded fleet";
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let shards = 3 in
  let sims = Array.init shards (fun _ -> Cylog.Storage.Sim.create ()) in
  let server =
    Server.create ~journal_root:"serve-journal"
      ~journal_config:
        {
          Cylog.Journal.default_config with
          fsync = Cylog.Journal.Every_n 4;
          compact_every = Some 64;
        }
      ~storage:(fun i -> Cylog.Storage.Sim.storage sims.(i))
      ~shards ()
  in
  let config =
    { Crowd.Fleet_sim.default_config with campaigns = 2; items = 10; workers = 6 }
  in
  Crowd.Fleet_sim.open_campaigns server config;
  (* every Item fact must sit exactly on the shard its key hashes to *)
  let items_seen = ref 0 in
  for k = 0 to config.campaigns - 1 do
    let campaign = Crowd.Fleet_sim.campaign_name k in
    for s = 0 to shards - 1 do
      match Server.Shard.engine (Server.shard server s) ~campaign with
      | None -> fail "shard %d has no engine for %s" s campaign
      | Some e -> (
          match Reldb.Database.find (Cylog.Engine.database e) "Item" with
          | None -> ()
          | Some rel ->
              List.iter
                (fun tuple ->
                  match Reldb.Tuple.get tuple "id" with
                  | Some (Reldb.Value.Int _ as id) ->
                      incr items_seen;
                      let expect =
                        Server.Router.shard_of_values ~shards [ id ]
                      in
                      if expect <> s then
                        fail "item %s of %s landed on shard %d, hash owns %d"
                          (Reldb.Value.to_display id) campaign s expect
                  | _ -> ())
                (Reldb.Relation.tuples rel))
    done
  done;
  if !items_seen <> config.campaigns * config.items then
    fail "%d items across the fleet, expected %d (split lost or duplicated facts)"
      !items_seen
      (config.campaigns * config.items);
  let o = Crowd.Fleet_sim.run ~config server in
  let tasks = config.campaigns * config.items in
  if o.stop_reason <> `Done then fail "fleet run did not complete";
  if o.resolved <> tasks then fail "resolved %d tasks, expected %d" o.resolved tasks;
  if o.answers <> tasks * config.quorum then
    fail "accepted %d answers, expected %d" o.answers (tasks * config.quorum);
  let appends = slot_appends server ~shards ~campaigns:config.campaigns in
  let per_answer = float_of_int appends /. float_of_int o.answers in
  Format.printf "  WAL: %d appends for %d accepted answers, %.3f per answer (bound %.2f)@."
    appends o.answers per_answer serve_appends_per_answer;
  if per_answer > serve_appends_per_answer then
    fail "%.3f WAL appends per accepted answer, bound %.2f" per_answer
      serve_appends_per_answer;
  let view = Server.stats server in
  if view.Server.Fleet.pending <> 0 then
    fail "%d tasks still pending after completion" view.Server.Fleet.pending;
  (match view.Server.Fleet.monitor with
  | None -> fail "no merged fleet monitor"
  | Some m ->
      if m.Server.Fleet.f_answers <> o.answers then
        fail "merged monitor counts %d answers, loop saw %d"
          m.Server.Fleet.f_answers o.answers;
      if m.Server.Fleet.f_retired <> tasks then
        fail "merged monitor retired %d tasks, expected %d"
          m.Server.Fleet.f_retired tasks;
      if m.Server.Fleet.f_pending <> 0 then
        fail "merged monitor reports %d pending" m.Server.Fleet.f_pending);
  if not (json_parses (Server.Fleet.to_json view)) then
    fail "fleet JSON does not parse";
  (* recovery round-trip per shard: compact, recover, compare traces —
     the replay after the snapshot must be O(live state), i.e. ~nothing
     for a finished campaign *)
  let campaign = Crowd.Fleet_sim.campaign_name 0 in
  for s = 0 to shards - 1 do
    match Server.Shard.engine (Server.shard server s) ~campaign with
    | None -> fail "shard %d lost campaign %s" s campaign
    | Some e -> (
        let before = Cylog.Engine.journal_dump e in
        Cylog.Engine.compact_journal e;
        let stats = Server.recover_shard server s ~campaign () in
        match Server.Shard.engine (Server.shard server s) ~campaign with
        | None -> fail "shard %d lost campaign %s after recovery" s campaign
        | Some e' ->
            if Cylog.Engine.journal_dump e' <> before then
              fail "shard %d: recovered trace differs from the live one" s;
            if stats.Cylog.Engine.records_replayed > 2 then
              fail
                "shard %d: %d records replayed after compaction (live state \
                 only should remain)"
                s stats.Cylog.Engine.records_replayed)
  done;
  let history = serve_history_gate () in
  let pool = serve_pool_gate () in
  verdict
    ~ok:
      "facts routed by hash, campaigns completed, fleet view merged, every shard \
       recovered byte-identically, request cost independent of history and pool size"
    (!failures @ history @ pool)

(* ------------------------------------------------------------------ *)
(* Set-up scaling: lint and the budget certificate stay linear         *)
(* ------------------------------------------------------------------ *)

(* Every fact is a statement, so a TweetPecker program over n tweets has
   about n statements. The gate, wired into [dune runtest] via the
   [setup-smoke] alias: the words [Lint.check] and [Analysis.analyze]
   allocate (a count that repeats exactly) may grow at most 2.5x per
   doubling of the corpus — linear growth is 2x, quadratic 4x. Sizes run
   in ascending order and the first failing doubling stops the gate, so
   a quadratic regression costs seconds, not minutes and gigabytes. Times
   are the best of 5 and are printed, not gated. *)
let setup_sizes = [ 1_000; 2_000; 4_000; 8_000 ]
let setup_growth_gate = 2.5

let setup_program tweets =
  let variant = Tweetpecker.Programs.VREI in
  Tweetpecker.Programs.program variant
    ~corpus:(Tweets.Generator.generate ~seed:7 tweets)
    ~workers:
      (List.map
         (fun (w : Crowd.Worker.profile) -> w.name)
         (Tweetpecker.Runner.default_workers variant))

(* Minor-heap words allocated by one call, and its best time of 5. *)
let setup_measure f =
  let w0 = Gc.minor_words () in
  ignore (f ());
  let words = Gc.minor_words () -. w0 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let _, dt = time f in
    best := min !best dt
  done;
  (words, !best)

let run_setup_smoke () =
  section "Setup smoke: lint and certificate allocation per doubling (VRE/I)";
  Format.printf "  %7s %10s %14s %9s %14s %9s@." "tweets" "statements" "lint words"
    "lint ms" "cert words" "cert ms";
  let rec go prev = function
    | [] -> []
    | tweets :: rest ->
        let program = setup_program tweets in
        let lint_w, lint_s = setup_measure (fun () -> Cylog.Lint.check program) in
        let cert_w, cert_s = setup_measure (fun () -> Cylog.Analysis.analyze program) in
        Format.printf "  %7d %10d %14.0f %9.1f %14.0f %9.1f@." tweets
          (List.length program.Cylog.Ast.statements)
          lint_w (lint_s *. 1e3) cert_w (cert_s *. 1e3);
        let failures =
          match prev with
          | None -> []
          | Some (prev_tweets, prev_lint, prev_cert) ->
              List.filter_map
                (fun (what, now, before) ->
                  let growth = now /. before in
                  Format.printf "    %s words grew %.2fx from %d to %d tweets@." what growth
                    prev_tweets tweets;
                  if growth > setup_growth_gate then
                    Some
                      (Printf.sprintf "%s words grew %.2fx from %d to %d tweets (gate %.1fx)"
                         what growth prev_tweets tweets setup_growth_gate)
                  else None)
                [ ("Lint.check", lint_w, prev_lint); ("Analysis.analyze", cert_w, prev_cert) ]
        in
        if failures <> [] then failures else go (Some (tweets, lint_w, cert_w)) rest
  in
  verdict
    ~ok:
      (Printf.sprintf "Lint.check and Analysis.analyze words grow at most %.1fx per doubling"
         setup_growth_gate)
    (go None setup_sizes)
