type outcome = {
  variant : Programs.variant;
  corpus : Tweets.Generator.tweet list;
  workers : Crowd.Worker.profile list;
  agreed : (int * string * string) list;
  agreed_events : (int * int * string * string) list;
  rules_entered : (int * Tweets.Extraction.rule * string) list;
  extracts : (int * string * string * int) list;
  payoffs : (string * int) list;
  sim : Crowd.Simulator.outcome;
  engine : Cylog.Engine.t;
  recoveries : Cylog.Engine.recovery_stats list;
}

let default_workers variant =
  let make =
    match variant with
    | Programs.VE | Programs.VEI -> Crowd.Worker.diligent ?rule_strategy:None
    | Programs.VRE ->
        Crowd.Worker.diligent
          ~rule_strategy:(Crowd.Worker.Haphazard { spread = 0.95; good_ratio = 0.55 })
    | Programs.VREI -> Crowd.Worker.rational ~rule_count:2
  in
  Crowd.Worker.crowd make 5

let str = function Reldb.Value.String s -> s | v -> Reldb.Value.to_display v
let int_of = function Reldb.Value.Int i -> i | _ -> -1

let collect_agreed db =
  match Reldb.Database.find db "Agreed" with
  | None -> []
  | Some rel ->
      List.map
        (fun t ->
          ( int_of (Reldb.Tuple.get_or_null t "tw"),
            str (Reldb.Tuple.get_or_null t "attr"),
            str (Reldb.Tuple.get_or_null t "value") ))
        (Reldb.Relation.tuples rel)

let collect_agreed_events engine =
  List.filter_map
    (fun (e : Cylog.Engine.event) ->
      List.find_map
        (function
          | Cylog.Engine.Inserted ("Agreed", t) ->
              Some
                ( e.clock,
                  int_of (Reldb.Tuple.get_or_null t "tw"),
                  str (Reldb.Tuple.get_or_null t "attr"),
                  str (Reldb.Tuple.get_or_null t "value") )
          | _ -> None)
        e.effects)
    (Cylog.Engine.events engine)

let collect_rules db =
  match Reldb.Database.find db "Rules" with
  | None -> []
  | Some rel ->
      List.map
        (fun t ->
          ( int_of (Reldb.Tuple.get_or_null t "rid"),
            {
              Tweets.Extraction.cond = str (Reldb.Tuple.get_or_null t "cond");
              attr = str (Reldb.Tuple.get_or_null t "attr");
              value = str (Reldb.Tuple.get_or_null t "value");
            },
            str (Reldb.Tuple.get_or_null t "p") ))
        (Reldb.Relation.tuples rel)

let collect_extracts db =
  match Reldb.Database.find db "Extracts" with
  | None -> []
  | Some rel ->
      List.map
        (fun t ->
          ( int_of (Reldb.Tuple.get_or_null t "tw"),
            str (Reldb.Tuple.get_or_null t "attr"),
            str (Reldb.Tuple.get_or_null t "value"),
            int_of (Reldb.Tuple.get_or_null t "rid") ))
        (Reldb.Relation.tuples rel)

let run ?(seed = 7) ?corpus ?workers ?strategy ?lease ?policy ?monitor ?faults
    ?sink ?journal ?storage_faults variant =
  let corpus = match corpus with Some c -> c | None -> Tweets.Generator.corpus () in
  let workers = match workers with Some w -> w | None -> default_workers variant in
  let names = List.map (fun (w : Crowd.Worker.profile) -> w.name) workers in
  let program = Programs.program variant ~corpus ~workers:names in
  (* Storage faults imply a WAL: without a named directory the journal
     lives at a virtual path inside the in-memory simulator. *)
  let sim_store =
    Option.map
      (fun sf ->
        ref (Cylog.Storage.Sim.create ~plan:(Crowd.Faults.storage_plan ~seed sf) ()))
      storage_faults
  in
  let jdir =
    match (journal, sim_store) with
    | Some dir, _ -> Some dir
    | None, Some _ -> Some "journal"
    | None, None -> None
  in
  let start_journal engine dir =
    match sim_store with
    | Some store ->
        Cylog.Engine.journal_start
          ~storage:(Cylog.Storage.Sim.storage !store) engine dir
    | None -> Cylog.Engine.journal_start engine dir
  in
  let engine = Cylog.Engine.load ?strategy program in
  Option.iter (start_journal engine) jdir;
  (match sink with Some s -> Cylog.Engine.set_sink engine s | None -> ());
  let shared = Policies.prepare ~seed ~corpus ~workers in
  let sim_workers =
    List.map
      (fun (w : Crowd.Worker.profile) ->
        (Reldb.Value.String w.name, Policies.policy shared w))
      workers
  in
  let sim_workers =
    match faults with
    | Some fs -> Crowd.Faults.inject ~seed fs sim_workers
    | None -> sim_workers
  in
  let target = 2 * List.length corpus in
  let agreed_count engine =
    match Reldb.Database.find (Cylog.Engine.database engine) "Agreed" with
    | Some rel -> Reldb.Relation.cardinal rel
    | None -> 0
  in
  let stop engine = agreed_count engine >= target in
  let progress engine = float_of_int (agreed_count engine) /. float_of_int target in
  let recoveries = ref [] in
  (* With a fault-injecting store the campaign may die mid-round (storage
     crash, disk full). Recover from the byte image a real disk would
     present, re-attach the journal, and resume the same crowd on the
     recovered engine: answers made durable before the crash are never
     asked again. *)
  let rec drive attempts engine =
    try
      let sim =
        Crowd.Simulator.run ~seed ~progress ?lease ?policy ?monitor ~stop
          ~workers:sim_workers engine
      in
      Option.iter Cylog.Journal.sync (Cylog.Engine.durable_journal engine);
      (engine, sim)
    with (Cylog.Storage.Crashed | Cylog.Storage.No_space) as exn -> (
      match (sim_store, jdir) with
      | Some store, Some dir when attempts < 5 ->
          let image =
            if Cylog.Storage.Sim.crashed !store then
              Cylog.Storage.Sim.after_crash !store
            else
              (* ENOSPC: nothing is lost, but the budget is lifted so the
                 reopened journal can keep appending. *)
              Cylog.Storage.Sim.copy !store
          in
          store := image;
          let engine, stats =
            Cylog.Engine.recover ~storage:(Cylog.Storage.Sim.storage image) dir
          in
          (match sink with Some s -> Cylog.Engine.set_sink engine s | None -> ());
          recoveries := !recoveries @ [ stats ];
          drive (attempts + 1) engine
      | _ -> raise exn)
  in
  let engine, sim = drive 0 engine in
  let db = Cylog.Engine.database engine in
  {
    variant;
    corpus;
    workers;
    agreed = collect_agreed db;
    agreed_events = collect_agreed_events engine;
    rules_entered = collect_rules db;
    extracts = collect_extracts db;
    payoffs =
      List.map (fun (p, s) -> (str p, int_of s)) (Cylog.Engine.payoffs engine);
    sim;
    engine;
    recoveries = !recoveries;
  }

let completion o =
  float_of_int (List.length o.agreed) /. float_of_int (2 * List.length o.corpus)

let agreed_lookup o ~tweet_id ~attr =
  List.find_map
    (fun (tw, a, v) -> if tw = tweet_id && String.equal a attr then Some v else None)
    o.agreed
