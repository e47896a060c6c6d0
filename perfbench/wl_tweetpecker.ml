(* The tweetpecker workload: the paper's four TweetPecker variants (VE,
   VE/I, VRE, VRE/I), each run until every (tweet, attribute) pair has an
   agreed value. The corpus, the crowd policies and the simulation loop
   are traffic; the program under test is the parser, linter, analysis
   and engine they drive. *)

open Cylog
module Programs = Tweetpecker.Programs

type inputs = {
  corpus : Tweets.Generator.tweet list;
  variants : (string * Crowd.Worker.profile list * string * string) list;
      (** per variant: metric tag, crowd, program text, and the crowd's
          prepared policy state, marshalled *)
  seed : int;
}

let full_corpus = 1000
let tiny_corpus = 12

let tag = function
  | Programs.VE -> "VE"
  | Programs.VEI -> "VE-I"
  | Programs.VRE -> "VRE"
  | Programs.VREI -> "VRE-I"

let generate ~tweets ~seed =
  let corpus = Tweets.Generator.generate ~seed tweets in
  let variants =
    List.map
      (fun v ->
        let workers = Tweetpecker.Runner.default_workers v in
        let names = List.map (fun (w : Crowd.Worker.profile) -> w.name) workers in
        (* preparing the crowd costs far more than a campaign; each
           repetition unmarshals a fresh copy instead *)
        let shared = Tweetpecker.Policies.prepare ~seed ~corpus ~workers in
        (tag v, workers, Programs.source v ~corpus ~workers:names, Marshal.to_string shared []))
      Programs.all
  in
  { corpus; variants; seed }

let describe inputs =
  Printf.sprintf "%d tweets, 4 variants, 5 workers each" (List.length inputs.corpus)

let agreed_rows engine =
  match Reldb.Database.find (Engine.database engine) "Agreed" with
  | None -> []
  | Some rel ->
      List.map
        (fun t ->
          String.concat "|"
            (List.map
               (fun a -> Reldb.Value.to_string (Reldb.Tuple.get_or_null t a))
               [ "tw"; "attr"; "value" ]))
        (Reldb.Relation.tuples rel)

(* Times the engine's handling of each crowd answer from outside: from
   the moment a policy hands back an answer to the next policy call (or
   the end of the campaign), which covers the supply, the machine run to
   quiescence and the simulator's bookkeeping. *)
type answers = {
  latency : Samples.t;
  mutable decided_at : int;  (** 0 when no answer is in flight *)
  mutable attempted : int;
  slices : Samples.t;  (** the campaign cut at every policy call *)
  mutable last_mark : int;
}

let close_answer a now =
  if a.decided_at > 0 then begin
    Samples.add a.latency (now - a.decided_at);
    a.decided_at <- 0
  end

let mark a now =
  Samples.add a.slices (now - a.last_mark);
  a.last_mark <- now

let timed_policy a (policy : Crowd.Simulator.policy) : Crowd.Simulator.policy =
 fun engine ~worker ~rng ~round ->
  let now = Clock.now_ns () in
  close_answer a now;
  mark a now;
  Trace.round := round;
  let d = Trace.span "crowd.policy" (fun () -> policy engine ~worker ~rng ~round) in
  (match d with
  | Crowd.Simulator.Pass -> ()
  | Answer _ | Answer_existence _ ->
      a.attempted <- a.attempted + 1;
      a.decided_at <- Clock.now_ns ());
  d

let rep inputs ~traced:_ =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let answers =
    {
      latency = Samples.create ();
      decided_at = 0;
      attempted = 0;
      slices = Samples.create ();
      last_mark = 0;
    }
  in
  let setup_s = ref 0. and campaign_s = ref 0. and rejected = ref 0 in
  let target = 2 * List.length inputs.corpus in
  let gc0 = Gc.quick_stat () in
  let per_variant =
    List.map
      (fun (tag, workers, src, prepared) ->
        let t0 = Clock.now_ns () in
        let engine =
          Trace.span "setup" (fun () ->
              let program = Trace.span "parser.parse" (fun () -> Parser.parse_exn src) in
              let diags = Trace.span "lint.check" (fun () -> Lint.check program) in
              if Lint.has_errors diags then fail "%s: the program does not lint" tag;
              let engine =
                Trace.span "engine.load" (fun () -> Engine.load ~lint:`Off program)
              in
              (* the budget certificate, otherwise computed at the first answer *)
              ignore (Trace.span "analysis.analyze" (fun () -> Engine.certificate engine));
              engine)
        in
        let t1 = Clock.now_ns () in
        let shared : Tweetpecker.Policies.shared = Marshal.from_string prepared 0 in
        let crowd =
          List.map
            (fun (w : Crowd.Worker.profile) ->
              ( Reldb.Value.String w.name,
                timed_policy answers (Tweetpecker.Policies.policy shared w) ))
            workers
        in
        let agreed () =
          match Reldb.Database.find (Engine.database engine) "Agreed" with
          | Some rel -> Reldb.Relation.cardinal rel
          | None -> 0
        in
        let t2 = Clock.now_ns () in
        answers.last_mark <- t2;
        let outcome =
          Trace.span "campaign" (fun () ->
              Trace.span "simulator.run" (fun () ->
                  Crowd.Simulator.run ~seed:inputs.seed
                    ~stop:(fun _ -> agreed () >= target)
                    ~workers:crowd engine))
        in
        let t3 = Clock.now_ns () in
        close_answer answers t3;
        mark answers t3;
        Trace.round := -1;
        setup_s := !setup_s +. Clock.seconds_between t0 t1;
        campaign_s := !campaign_s +. Clock.seconds_between t2 t3;
        if outcome.stop_reason <> `Stopped then fail "%s: campaign did not finish" tag;
        if agreed () <> target then fail "%s: %d agreed rows, expected %d" tag (agreed ()) target;
        if outcome.capped_runs <> 0 then fail "%s: %d capped machine runs" tag outcome.capped_runs;
        rejected :=
          !rejected + List.fold_left (fun acc (_, n) -> acc + n) 0 outcome.rejections;
        let counters = Wl_fleet.engine_counters [ engine ] in
        ( (tag, Clock.seconds_between t2 t3),
          counters,
          tag ^ "\n" ^ String.concat "\n" (List.sort compare (agreed_rows engine)) ))
      inputs.variants
  in
  let gc1 = Gc.quick_stat () in
  let engine_values =
    match List.map (fun (_, c, _) -> c) per_variant with
    | [] -> []
    | first :: _ as all ->
        List.map
          (fun (name, _) ->
            let values = List.map (List.assoc name) all in
            if name = "planner.cache_hit_ratio" then
              (name, List.fold_left ( +. ) 0. values /. float_of_int (List.length values))
            else (name, List.fold_left ( +. ) 0. values))
          first
  in
  let counters =
    Report.zeros Report.fleet_counters
    @ Report.zeros Report.durable_counters
    @ [ ("router.resident_tuples_ratio", 1.) ]
    @ engine_values
    @ [
        ("gc.minor_words", gc1.minor_words -. gc0.minor_words);
        ("gc.promoted_words", gc1.promoted_words -. gc0.promoted_words);
        ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
      ]
    @ List.map (fun ((tag, s), _, _) -> ("tweetpecker." ^ tag ^ ".campaign_s", s)) per_variant
  in
  {
    Report.setup_s = !setup_s;
    campaign_s = !campaign_s;
    requests = answers.attempted;
    failed = !rejected;
    answer_ns = answers.latency;
    slices_ns = answers.slices;
    digest =
      Digest.to_hex
        (Digest.string (String.concat "\n" (List.map (fun (_, _, rows) -> rows) per_variant)));
    errors = List.rev !errors;
    counters;
    spans = [];
  }
