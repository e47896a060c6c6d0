type firing = { at_round : int; at_clock : int; alert : Event.alert }

type retirement =
  | Answered of Event.open_id
  | Quorum_resolved of Event.open_id
  | Dead of Event.open_id * Lease.reason

let vote (ev : Event.event) =
  List.find_map
    (function Event.Vote_recorded (id, n) -> Some (id, n) | _ -> None)
    ev.effects

(* A non-quorum answer retires its task with a [Resolved] marker. Quorum
   resolutions keep their historical shape: the event that banks the final
   vote also applies (or explicitly skips, [No_effect]) the aggregated
   answer, so its [Vote_recorded] rides with other effects, while a vote
   that leaves the task pending is the event's only effect. *)
let rec retiring ~rides : Event.effect list -> retirement list = function
  | [] -> []
  | Vote_recorded (id, _) :: rest when rides -> Quorum_resolved id :: retiring ~rides rest
  | Resolved id :: rest -> Answered id :: retiring ~rides rest
  | Dead_lettered (id, reason) :: rest -> Dead (id, reason) :: retiring ~rides rest
  | _ :: rest -> retiring ~rides rest

let retirements (ev : Event.event) =
  retiring
    ~rides:(List.exists (function Event.Vote_recorded _ -> false | _ -> true) ev.effects)
    ev.effects

(* Exhaustive, so a new effect has to say whether it writes. *)
let writes (ev : Event.event) =
  List.exists
    (function
      | Event.Inserted _ | Updated _ | Deleted _ | Awarded _ -> true
      | Open_created _ | No_effect | Vote_recorded _ | Dead_lettered _
      | Adaptive_resolved _ | Resolved _ | Sampled _ | Alert_fired _ ->
          false)
    ev.effects

(* A pending task that has banked a vote. Only quorum tasks ever do, so
   the creation clock every task needs lives in a table of its own: a
   record per task would double the words a campaign of unvoted tasks
   keeps, and move its heap peak with them. *)
type voted = {
  first_vote : int;
  mutable ballots : (string * Reldb.Value.t) list list;
}

type t = {
  created : (Event.open_id, int) Hashtbl.t;
  voted : (Event.open_id, voted) Hashtbl.t;
  lifecycle : Telemetry.Metrics.t;
  mutable answers : int;
  mutable payoff_spent : int;
  mutable resolved : int;
  mutable dead : int;
  mutable votes_agree : int;
  mutable votes_total : int;
  mutable posterior_sum : int;
  mutable posterior_n : int;
  mutable samples : int;
  mutable last_progress : int;
  mutable idle_samples : int;
  mutable firings : firing list;
}

let create () =
  {
    created = Hashtbl.create 64;
    voted = Hashtbl.create 16;
    lifecycle = Telemetry.Metrics.create ();
    answers = 0;
    payoff_spent = 0;
    resolved = 0;
    dead = 0;
    votes_agree = 0;
    votes_total = 0;
    posterior_sum = 0;
    posterior_n = 0;
    samples = 0;
    last_progress = 0;
    idle_samples = 0;
    firings = [];
  }

let progress f = f.answers + f.resolved + f.dead

let stall f =
  if progress f = f.last_progress && Hashtbl.length f.created > 0 then f.idle_samples + 1
  else 0

let stmt_key label statement =
  match label with Some l -> l | None -> string_of_int statement

let reason_key = function
  | Lease.Timed_out -> "timed_out"
  | Lease.Rejected_answers _ -> "rejected_answers"
  | Lease.Declined -> "declined"

module M = Telemetry.Metrics

(* A quorum resolution's agreement rate: the share of the banked
   per-attribute ballots that match the chosen tuple, [ev.valuation].
   Existence ballots are not journaled per voter, so existence tasks
   contribute no agreement sample. *)
let note_agreement f m (ev : Event.event) voted =
  M.incr m "quorum.resolved";
  match (ev.valuation, voted) with
  | (_ :: _ as chosen), Some { ballots = _ :: _ as ballots; _ } ->
      let agree = ref 0 and total = ref 0 in
      List.iter
        (fun ballot ->
          List.iter
            (fun (attr, v) ->
              match List.assoc_opt attr ballot with
              | Some b ->
                  incr total;
                  if Reldb.Value.equal b v then incr agree
              | None -> ())
            chosen)
        ballots;
      M.incr m ~by:!agree "quorum.votes_agreeing";
      M.incr m ~by:(!total - !agree) "quorum.votes_disagreeing";
      if !total > 0 then M.observe m "quorum.agreement_pct" (100 * !agree / !total);
      f.votes_agree <- f.votes_agree + !agree;
      f.votes_total <- f.votes_total + !total
  | _ -> ()

(* A task leaves the pending table and its latencies land in the
   histograms. *)
let retire f m (ev : Event.event) r =
  let clock = ev.clock in
  let id = match r with Answered id | Quorum_resolved id | Dead (id, _) -> id in
  let voted = Hashtbl.find_opt f.voted id in
  (match r with Quorum_resolved _ -> note_agreement f m ev voted | _ -> ());
  match Hashtbl.find_opt f.created id with
  | None -> ()
  | Some created -> (
      Hashtbl.remove f.created id;
      Hashtbl.remove f.voted id;
      let h = f.lifecycle and e2e = clock - created in
      M.observe h "lifecycle.end_to_end" e2e;
      match r with
      | Dead _ ->
          M.observe m "open.age_at_dead_letter" e2e;
          M.observe h "lifecycle.dead_letter" e2e;
          (match voted with
          | Some v -> M.observe h "lifecycle.decision" (clock - v.first_vote)
          | None -> ());
          f.dead <- f.dead + 1
      | Answered _ | Quorum_resolved _ ->
          M.observe h "lifecycle.resolve" e2e;
          (* A non-quorum answer both first-answers and retires the task in
             one event; count it as an (instant) first answer so
             time-to-first-answer stays meaningful without quorums. *)
          let first =
            match voted with
            | Some v -> v.first_vote
            | None ->
                M.observe h "lifecycle.first_answer" e2e;
                clock
          in
          M.observe h "lifecycle.decision" (clock - first);
          f.resolved <- f.resolved + 1)

let apply f m (ev : Event.event) =
  let clock = ev.clock in
  M.incr m "engine.events";
  (match ev.by_human with
  | Some w ->
      f.answers <- f.answers + 1;
      M.incr m "answers.accepted";
      M.incr m ("answers.accepted.worker." ^ Reldb.Value.to_display w)
  | None ->
      if ev.fired then begin
        M.incr m "engine.fired";
        M.incr m ("engine.fired.rule." ^ stmt_key ev.label ev.statement)
      end
      else if ev.effects = [] then M.incr m "engine.tail_filtered");
  let retired = retirements ev in
  List.iter
    (fun (eff : Event.effect) ->
      match eff with
      | Inserted _ -> M.incr m "db.inserted"
      | Updated _ -> M.incr m "db.updated"
      | Deleted (_, n) -> M.incr m ~by:n "db.deleted_rows"
      | Awarded deltas ->
          M.incr m "payoff.awards";
          List.iter
            (fun (_, d) ->
              match d with
              | Reldb.Value.Int d when d > 0 -> f.payoff_spent <- f.payoff_spent + d
              | _ -> ())
            deltas
      | Open_created id ->
          M.incr m "open.created";
          Hashtbl.replace f.created id clock
      | Vote_recorded (id, _) -> (
          M.incr m "quorum.votes";
          match Hashtbl.find_opt f.created id with
          | Some created ->
              let v =
                match Hashtbl.find_opt f.voted id with
                | Some v -> v
                | None ->
                    M.observe f.lifecycle "lifecycle.first_answer" (clock - created);
                    let v = { first_vote = clock; ballots = [] } in
                    Hashtbl.replace f.voted id v;
                    v
              in
              (* A vote that retires nothing leaves its task pending and
                 banks its ballot (existence votes carry no valuation). *)
              if ev.valuation <> [] && retired = [] then
                v.ballots <- ev.valuation :: v.ballots
          | None -> ())
      | Dead_lettered (_, reason) ->
          M.incr m "open.dead_lettered";
          M.incr m ("open.dead_lettered.reason." ^ reason_key reason)
      | Adaptive_resolved { posterior_pct; escalated; _ } ->
          (* The resolution evidence rides in the event itself, so the
             adaptive counters and the posterior histogram recount exactly
             from the journal like every other quorum metric. *)
          M.incr m (if escalated then "quorum.escalated" else "quorum.early_stopped");
          M.observe m "quorum.posterior_at_resolution" posterior_pct;
          f.posterior_sum <- f.posterior_sum + posterior_pct;
          f.posterior_n <- f.posterior_n + 1
      | Resolved _ -> M.incr m "open.resolved"
      | Sampled _ ->
          M.incr m "monitor.samples";
          f.idle_samples <- stall f;
          f.last_progress <- progress f;
          f.samples <- f.samples + 1
      | Alert_fired { round; alert } ->
          (* Like [Adaptive_resolved], the verdict rides in the event: the
             fold reads alerts back instead of re-deciding them. *)
          M.incr m "monitor.alerts";
          M.incr m ("monitor.alerts." ^ Event.alert_key alert);
          f.firings <- { at_round = round; at_clock = clock; alert } :: f.firings
      | No_effect -> ())
    ev.effects;
  List.iter (retire f m ev) retired
