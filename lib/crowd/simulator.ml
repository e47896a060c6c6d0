type action_kind = Enter_value | Select_value | Reject_value | Enter_rule

type log_entry = {
  round : int;
  clock : int;
  worker : Reldb.Value.t;
  kind : action_kind;
  relation : string;
  values : (string * Reldb.Value.t) list;
  progress : float;
}

type decision =
  | Answer of Cylog.Engine.open_id * (string * Reldb.Value.t) list * action_kind
  | Answer_existence of Cylog.Engine.open_id * bool
  | Pass

type policy =
  Cylog.Engine.t -> worker:Reldb.Value.t -> rng:Random.State.t -> round:int -> decision

type worker_stat = { routed : int; answered : int; early_stop_credit : int }

type outcome = {
  log : log_entry list;
  rounds : int;
  stop_reason :
    [ `Stopped | `Stalled | `Max_rounds | `Alert of Cylog.Monitor.firing ];
  rejections : (Reldb.Value.t * int) list;
  capped_runs : int;
  dead_letters : (Cylog.Engine.open_tuple * Cylog.Lease.reason) list;
  worker_stats : (Reldb.Value.t * worker_stat) list;
}

let shuffle rng xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* Per-worker campaign tallies (satellite of the quality subsystem): how
   often work reached each worker, how many answers the engine accepted,
   and how many early-stopped resolutions their votes contributed to. The
   credit is a fold over the engine's event log since the campaign
   started: it keeps each pending task's voters, because the engine
   forgets a task's ballots the moment it resolves, and drops them when
   {!Cylog.Fold.retirements} says the task left the pool. *)
module Stats = struct
  type cell = { mutable routed : int; mutable answered : int; mutable credit : int }

  type t = {
    cells : (Reldb.Value.t, cell) Hashtbl.t;
    voters : (Cylog.Engine.open_id, Reldb.Value.t list) Hashtbl.t;
    mutable folded : int;  (* events of the log folded so far *)
  }

  let create engine =
    { cells = Hashtbl.create 8; voters = Hashtbl.create 16;
      folded = Cylog.Engine.event_count engine }

  let cell t w =
    match Hashtbl.find_opt t.cells w with
    | Some c -> c
    | None ->
        let c = { routed = 0; answered = 0; credit = 0 } in
        Hashtbl.add t.cells w c;
        c

  let routed t w = (cell t w).routed <- (cell t w).routed + 1

  let answered t w = (cell t w).answered <- (cell t w).answered + 1

  (* Fold the events recorded since the last call: remember each vote's
     worker, credit a task's voters when it resolves early, and forget
     them when it retires. *)
  let fold t engine =
    let voters id = Option.value (Hashtbl.find_opt t.voters id) ~default:[] in
    let credit w = (cell t w).credit <- (cell t w).credit + 1 in
    let early = function
      | Cylog.Engine.Adaptive_resolved { open_id; escalated = false; _ } ->
          List.iter credit (voters open_id)
      | _ -> ()
    in
    let retire : Cylog.Fold.retirement -> unit = function
      | Answered id | Quorum_resolved id | Dead (id, _) -> Hashtbl.remove t.voters id
    in
    List.iter
      (fun (ev : Cylog.Engine.event) ->
        (match (Cylog.Fold.vote ev, ev.by_human) with
        | Some (id, _), Some w -> Hashtbl.replace t.voters id (w :: voters id)
        | _ -> ());
        List.iter early ev.effects;
        List.iter retire (Cylog.Fold.retirements ev))
      (Cylog.Engine.events_since engine ~after:t.folded);
    t.folded <- Cylog.Engine.event_count engine

  let report t engine =
    fold t engine;
    Hashtbl.fold
      (fun w c acc ->
        (w, { routed = c.routed; answered = c.answered; early_stop_credit = c.credit })
        :: acc)
      t.cells []
    |> List.sort (fun (a, _) (b, _) -> Reldb.Value.compare a b)
end

(* Round-boundary monitor sampling: take the sample (a journaled event —
   the series point and any watchdog verdicts ride in the event log),
   then apply the caller's reaction to each alert that fired. Returns the
   firing that should stop the campaign, if any; [`Pause] sets
   [pause_next] so the next round skips the worker turns (a cooldown
   round — the machine and lease reclaim still run). *)
let sample_monitor ~on_alert ~pause_next engine n =
  if Cylog.Engine.monitor engine = None then None
  else begin
    let firings = Cylog.Engine.monitor_sample engine ~round:n in
    let stop_f = ref None in
    List.iter
      (fun (f : Cylog.Monitor.firing) ->
        match on_alert f with
        | `Stop -> if !stop_f = None then stop_f := Some f
        | `Pause -> pause_next := true
        | `Warn -> ())
      firings;
    !stop_f
  end

let run ?(seed = 42) ?(max_rounds = 10_000) ?(progress = fun _ -> 0.0) ?lease
    ?policy ?monitor ?(on_alert = fun _ -> `Stop) ~stop ~workers engine =
  (match lease with
  | Some _ -> Cylog.Engine.set_lease_config engine lease
  | None -> ());
  Option.iter (Cylog.Engine.set_quorum_policy engine) policy;
  (match monitor with
  | Some _ -> Cylog.Engine.set_monitor engine monitor
  | None -> ());
  let pause_next = ref false in
  let leased = lease <> None in
  let rng = Random.State.make [| seed |] in
  let tel = Cylog.Engine.telemetry engine in
  let mets = Cylog.Engine.metrics engine in
  let stats = Stats.create engine in
  let log = ref [] in
  let rejected : (Reldb.Value.t, int) Hashtbl.t = Hashtbl.create 8 in
  let reject worker =
    Cylog.Telemetry.Metrics.incr mets
      ("sim.rejected.worker." ^ Reldb.Value.to_display worker);
    Hashtbl.replace rejected worker
      (1 + Option.value (Hashtbl.find_opt rejected worker) ~default:0)
  in
  let capped = ref 0 in
  let machine () =
    match Cylog.Engine.run engine with
    | _, `Capped -> incr capped
    | _, `Quiescent -> ()
  in
  let record round worker kind relation values p =
    log :=
      {
        round;
        clock = Cylog.Engine.clock engine;
        worker;
        kind;
        relation;
        values;
        progress = p;
      }
      :: !log
  in
  (* The campaign span roots the simulator side of the trace hierarchy
     (campaign > round > rule > atom-match); task spans stay siblings of
     rounds because tasks outlive the round that created them. *)
  let campaign =
    Cylog.Telemetry.enter tel "campaign"
      ~attrs:
        [ ("seed", string_of_int seed);
          ("workers", string_of_int (List.length workers)) ]
      ~clock:(Cylog.Engine.clock engine)
  in
  machine ();
  (* A stall is only declared after several consecutive all-pass rounds:
     low-diligence workers legitimately sit out whole rounds now and
     then. *)
  let idle_rounds = ref 0 in
  let rounds_done = ref 0 in
  (* With the lease runtime on, an answer needs a live lease first; a
     refused lease is a rejected attempt like any other. *)
  let take_lease n worker id =
    if not leased then true
    else
      match Cylog.Engine.assign engine id ~worker ~now:n with
      | Ok _ -> true
      | Error _ ->
          reject worker;
          false
  in
  let rec rounds n =
    if n > max_rounds then `Max_rounds
    else if stop engine then `Stopped
    else begin
      rounds_done := n;
      let rspan =
        Cylog.Telemetry.enter tel "round"
          ~attrs:[ ("round", string_of_int n) ]
          ~clock:(Cylog.Engine.clock engine)
      in
      if leased then ignore (Cylog.Engine.reclaim engine ~now:n);
      let acted = ref false in
      let paused = !pause_next in
      pause_next := false;
      if not paused then
      List.iter
        (fun (worker, policy) ->
          if not (stop engine) then begin
            let p = progress engine in
            match policy engine ~worker ~rng ~round:n with
            | Pass -> ()
            | Answer (id, values, kind) ->
                if take_lease n worker id then begin
                  Stats.routed stats worker;
                  let relation =
                    match Cylog.Engine.find_open engine id with
                    | Some o -> o.Cylog.Engine.relation
                    | None -> ""
                  in
                  match Cylog.Engine.supply engine id ~worker values with
                  | Ok _ ->
                      acted := true;
                      Stats.answered stats worker;
                      record n worker kind relation values p;
                      machine ()
                  | Error _ -> reject worker
                end
            | Answer_existence (id, yes) ->
                if take_lease n worker id then begin
                  Stats.routed stats worker;
                  let before = Cylog.Engine.find_open engine id in
                  match Cylog.Engine.answer_existence engine id ~worker yes with
                  | Ok _ ->
                      acted := true;
                      Stats.answered stats worker;
                      let relation, values =
                        match before with
                        | Some o ->
                            ( o.Cylog.Engine.relation,
                              Reldb.Tuple.to_list o.Cylog.Engine.bound )
                        | None -> ("", [])
                      in
                      record n worker
                        (if yes then Select_value else Reject_value)
                        relation values p;
                      machine ()
                  | Error _ -> reject worker
                end
          end)
        (shuffle rng workers);
      let alert_stop = sample_monitor ~on_alert ~pause_next engine n in
      Stats.fold stats engine;
      let verdict =
        if stop engine then `Stop
        else
          match alert_stop with
          | Some f -> `Alert f
          | None ->
              if !acted then idle_rounds := 0 else incr idle_rounds;
              if !idle_rounds >= 5 then `Stall else `Next
      in
      Cylog.Telemetry.exit tel rspan
        ~attrs:[ ("acted", string_of_bool !acted) ]
        ~clock:(Cylog.Engine.clock engine);
      match verdict with
      | `Stop -> `Stopped
      | `Stall -> `Stalled
      | `Alert f -> `Alert f
      | `Next -> rounds (n + 1)
    end
  in
  let stop_reason = rounds 1 in
  Cylog.Telemetry.Metrics.set_gauge mets "sim.rounds" !rounds_done;
  Cylog.Telemetry.Metrics.set_gauge mets "sim.capped_runs" !capped;
  Cylog.Telemetry.exit tel campaign
    ~attrs:
      [ ( "stop",
          match stop_reason with
          | `Stopped -> "stopped"
          | `Stalled -> "stalled"
          | `Max_rounds -> "max-rounds"
          | `Alert _ -> "alert" ) ]
    ~clock:(Cylog.Engine.clock engine);
  let rejections =
    Hashtbl.fold (fun w n acc -> (w, n) :: acc) rejected []
    |> List.sort (fun (a, _) (b, _) -> Reldb.Value.compare a b)
  in
  {
    log = List.rev !log;
    rounds = !rounds_done;
    stop_reason;
    rejections;
    capped_runs = !capped;
    dead_letters = Cylog.Engine.dead_letters engine;
    worker_stats = Stats.report stats engine;
  }

(* --- Router-driven campaigns ------------------------------------------------ *)

let noisy_answer rng ~accuracy correct =
  if Random.State.float rng 1.0 < accuracy then correct
  else
    (* Two wrong alternatives per slot, so sloppy crowds can still pile up
       on a wrong plurality now and then. *)
    Reldb.Value.String
      (Printf.sprintf "%s#%d"
         (Reldb.Value.to_display correct)
         (1 + Random.State.int rng 2))

(* Quality-aware assignment as one more crowd strategy: instead of
   choosing its own task, the worker asks {!Quality.Router} for one — no
   task under the reliability floor, otherwise the pending value question
   with the highest posterior uncertainty that the worker has not voted
   on and that is not designated for someone else (uncertainty sampling).
   The worker answers it from the caller's ground truth with their profile
   accuracy. Existence questions are never routed. *)
let routed_policy ~truth (profile : Worker.profile) engine ~worker ~rng ~round:_ =
  let reliability = Cylog.Engine.worker_reliability engine worker in
  let tasks =
    List.filter_map
      (fun (o : Cylog.Engine.open_tuple) ->
        if
          o.existence
          || Cylog.Engine.has_voted engine o.id ~worker
          || (match o.asked with
             | Some w -> not (Reldb.Value.equal w worker)
             | None -> false)
        then None
        else Some (o, Cylog.Engine.task_uncertainty engine o.id))
      (Cylog.Engine.pending engine)
  in
  match Quality.Router.route Quality.Router.default_config ~reliability ~tasks with
  | None -> Pass
  | Some o ->
      let answer attr =
        let correct =
          match List.assoc_opt attr (truth o) with
          | Some v -> v
          | None -> Reldb.Value.String "?"
        in
        (attr, noisy_answer rng ~accuracy:profile.Worker.accuracy correct)
      in
      Answer (o.id, List.map answer o.open_attrs, Enter_value)

let run_routed ?seed ?policy ~truth ~workers engine =
  let no_value_question e =
    Seq.for_all (fun (o : Cylog.Engine.open_tuple) -> o.existence)
      (Cylog.Engine.pending_seq e)
  in
  run ?seed ?policy ~stop:no_value_question
    ~workers:(List.map (fun (w, profile) -> (w, routed_policy ~truth profile)) workers)
    engine
