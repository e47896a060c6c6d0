type shared = {
  beliefs : Beliefs.t;
  (* Per-worker schedule of rules still to enter: (completion threshold,
     rule), sorted by threshold. Front-loaded (rational) workers have all
     thresholds at 0 — rules go in at the very start (Figure 12's VRE/I
     cluster); haphazard workers draw thresholds uniformly over [0,1), so
     entries spread over the whole run (Figure 12's VRE scatter). *)
  rule_queues : (string, (float * Tweets.Extraction.rule) list ref) Hashtbl.t;
  states : (string, worker_state) Hashtbl.t;
  target : int;  (* 2 × #tweets: for the completion measure *)
}

(* Per-worker incremental task pool: new open tuples are ingested from the
   engine once (by id cursor) and popped in random order, so a turn costs
   O(1) amortised instead of rescanning every pending open tuple. *)
and worker_state = {
  mutable cursor : int;
  candidates : bag;  (* existence questions: machine-extracted values *)
  entries : bag;  (* value-entry tasks *)
  mutable rules_open : Cylog.Engine.open_id option;
}

and bag = { mutable items : Cylog.Engine.open_tuple array; mutable len : int }

let bag_create () = { items = [||]; len = 0 }

let bag_add b o =
  if b.len = Array.length b.items then begin
    let cap = max 16 (2 * Array.length b.items) in
    let items = Array.make cap o in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- o;
  b.len <- b.len + 1

let bag_pop_random b rng =
  if b.len = 0 then None
  else begin
    let i = Random.State.int rng b.len in
    let x = b.items.(i) in
    b.items.(i) <- b.items.(b.len - 1);
    b.len <- b.len - 1;
    Some x
  end

(* Slice [xs] round-robin: worker k of n receives elements k, k+n, ... *)
let round_robin n k xs = List.filteri (fun i _ -> i mod n = k) xs

let prepare ~seed ~corpus ~workers =
  let beliefs = Beliefs.create ~seed ~corpus in
  let rule_queues = Hashtbl.create 8 in
  let states = Hashtbl.create 8 in
  let good_sorted =
    (* Most-supported rules first: the rational worker enters productive
       rules to maximise payoff 2a. *)
    List.sort
      (fun a b ->
        compare (Tweets.Extraction.support b corpus) (Tweets.Extraction.support a corpus))
      (Tweets.Extraction.good_rules ())
  in
  let rational_workers =
    List.filter
      (fun (w : Crowd.Worker.profile) ->
        match w.rule_strategy with Crowd.Worker.Front_loaded _ -> true | _ -> false)
      workers
  in
  let n_rational = max 1 (List.length rational_workers) in
  List.iter
    (fun (w : Crowd.Worker.profile) ->
      let queue =
        match w.rule_strategy with
        | Crowd.Worker.No_rules -> []
        | Crowd.Worker.Front_loaded { count } ->
            let k =
              match
                List.find_index
                  (fun (r : Crowd.Worker.profile) -> r.name = w.name)
                  rational_workers
              with
              | Some k -> k
              | None -> 0
            in
            let mine = round_robin n_rational k good_sorted in
            List.filteri (fun i _ -> i < count) mine
            |> List.map (fun r -> (0.0, r))
        | Crowd.Worker.Haphazard { spread; good_ratio } ->
            (* A personal shuffled mix of good and bad rules, entered at
               uniformly random completion points. *)
            let rng = Random.State.make [| seed; Hashtbl.hash w.name; 7 |] in
            let good = Crowd.Simulator.shuffle rng (Tweets.Extraction.good_rules ()) in
            let bad = Crowd.Simulator.shuffle rng (Tweets.Extraction.bad_rules ()) in
            let n_good = int_of_float (good_ratio *. 8.0) in
            let take n xs = List.filteri (fun i _ -> i < n) xs in
            let mix =
              Crowd.Simulator.shuffle rng (take n_good good @ take (8 - n_good) bad)
            in
            List.sort
              (fun (a, _) (b, _) -> compare a b)
              (List.map (fun r -> (Random.State.float rng spread, r)) mix)
      in
      Hashtbl.replace rule_queues w.name (ref queue);
      Hashtbl.replace states w.name
        { cursor = 0; candidates = bag_create (); entries = bag_create (); rules_open = None })
    workers;
  { beliefs; rule_queues; states; target = 2 * List.length corpus }

let v_str s = Reldb.Value.String s

let tweet_id_of (o : Cylog.Engine.open_tuple) =
  match Reldb.Tuple.get_or_null o.bound "tw" with
  | Reldb.Value.Int i -> Some i
  | _ -> None

let attr_of (o : Cylog.Engine.open_tuple) =
  match Reldb.Tuple.get_or_null o.bound "attr" with
  | Reldb.Value.String s -> Some s
  | _ -> None

let determined engine tweet_id attr =
  match Reldb.Database.find (Cylog.Engine.database engine) "Agreed" with
  | None -> false
  | Some rel ->
      Reldb.Relation.mem_pattern rel
        [ ("tw", Reldb.Value.Int tweet_id); ("attr", v_str attr) ]

let ingest engine worker state =
  List.iter
    (fun (o : Cylog.Engine.open_tuple) ->
      state.cursor <- max state.cursor o.id;
      let mine =
        match o.asked with
        | Some w -> Reldb.Value.equal w worker
        | None -> true
      in
      if mine then
        match o.relation with
        | "Rules" -> state.rules_open <- Some o.id
        | "Inputs" ->
            if o.existence then bag_add state.candidates o else bag_add state.entries o
        | _ -> ())
    (Cylog.Engine.pending_since engine ~after:state.cursor)

(* Pop tasks until one is still pending and still concerns an undetermined
   (tweet, attribute); stale tasks are discarded for good. *)
let rec next_live engine bag rng =
  match bag_pop_random bag rng with
  | None -> None
  | Some o -> (
      match Cylog.Engine.find_open engine o.id with
      | None -> next_live engine bag rng
      | Some _ -> (
          match (tweet_id_of o, attr_of o) with
          | Some tw, Some attr ->
              if determined engine tw attr then next_live engine bag rng
              else Some (o, tw, attr)
          | _ -> next_live engine bag rng))

let policy shared (profile : Crowd.Worker.profile) : Crowd.Simulator.policy =
 fun engine ~worker ~rng ~round ->
  ignore round;
  if Random.State.float rng 1.0 > profile.diligence then Crowd.Simulator.Pass
  else begin
    let state = Hashtbl.find shared.states profile.name in
    ingest engine worker state;
    let queue =
      match Hashtbl.find_opt shared.rule_queues profile.name with
      | Some q -> q
      | None -> ref []
    in
    let completion =
      match Reldb.Database.find (Cylog.Engine.database engine) "Agreed" with
      | Some rel ->
          float_of_int (Reldb.Relation.cardinal rel) /. float_of_int (max 1 shared.target)
      | None -> 0.0
    in
    let enter_rule_now =
      match (state.rules_open, !queue) with
      | None, _ | _, [] -> None
      | Some task, (threshold, rule) :: rest ->
          if completion >= threshold then Some (task, rule, rest) else None
    in
    match enter_rule_now with
    | Some (task, rule, rest) ->
        queue := rest;
        Crowd.Simulator.Answer
          ( task,
            [ ("cond", v_str rule.Tweets.Extraction.cond);
              ("attr", v_str rule.attr); ("value", v_str rule.value) ],
            Crowd.Simulator.Enter_rule )
    | None -> (
        (* Prefer judging a machine-extracted candidate over typing. *)
        match next_live engine state.candidates rng with
        | Some (o, tw, attr) ->
            let mine = Beliefs.belief shared.beliefs ~worker:profile ~tweet_id:tw ~attr in
            let shown = Reldb.Value.to_display (Reldb.Tuple.get_or_null o.bound "value") in
            let agreeing = String.equal mine shown in
            let yes =
              if profile.honest_selection then agreeing
              else if agreeing then Random.State.float rng 1.0 < 0.8
              else Random.State.float rng 1.0 < 0.3
            in
            Crowd.Simulator.Answer_existence (o.id, yes)
        | None -> (
            match next_live engine state.entries rng with
            | Some (o, tw, attr) ->
                let value =
                  Beliefs.belief shared.beliefs ~worker:profile ~tweet_id:tw ~attr
                in
                Crowd.Simulator.Answer
                  (o.id, [ ("value", v_str value) ], Crowd.Simulator.Enter_value)
            | None -> Crowd.Simulator.Pass))
  end
