type t = {
  seed : int;
  tweets : (int, Tweets.Generator.tweet) Hashtbl.t;
  memo : (string * int * string, string) Hashtbl.t;
}

let create ~seed ~corpus =
  let tweets = Hashtbl.create (List.length corpus) in
  List.iter (fun (tw : Tweets.Generator.tweet) -> Hashtbl.replace tweets tw.id tw) corpus;
  { seed; tweets; memo = Hashtbl.create 4096 }

let pick_weighted rng choices =
  (* [choices]: (weight, value) list with positive weights. *)
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  let x = Random.State.float rng total in
  let rec go acc = function
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if x < acc +. w then v else go (acc +. w) rest
    | [] -> invalid_arg "Beliefs.pick_weighted: empty"
  in
  go 0.0 choices

let draw t (profile : Crowd.Worker.profile) (tw : Tweets.Generator.tweet) attr =
  let rng =
    Random.State.make
      [| t.seed; Hashtbl.hash profile.name; tw.id; Hashtbl.hash attr |]
  in
  match attr with
  | "weather" -> (
      match tw.gt_weather with
      | Some gt ->
          if Random.State.float rng 1.0 < profile.accuracy then gt
          else
            (* Errors are correlated: most wrong workers land on the same
               leading confusion value, so wrong agreements (Table 1's
               "incorrect" row) actually happen. *)
            let confusions =
              match Tweets.Vocabulary.condition_by_value gt with
              | Some c when c.confusions <> [] -> c.confusions
              | _ -> [ "fine" ]
            in
            pick_weighted rng
              (List.mapi
                 (fun i v -> ((if i = 0 then 0.85 else 0.15), v))
                 confusions)
      | None ->
          (* Ambiguous tweet: a vague call, heavily biased to the common
             phrasing so agreement still happens. *)
          pick_weighted rng
            (List.mapi
               (fun i v -> (1.0 /. float_of_int ((i + 1) * (i + 1)), v))
               Tweets.Vocabulary.vague_values))
  | "place" -> (
      match tw.gt_place with
      | Some gt ->
          if Random.State.float rng 1.0 < profile.place_accuracy then gt
          else
            pick_weighted rng
              (List.mapi
                 (fun i v -> ((if i = 0 then 0.9 else 0.1), v))
                 Tweets.Vocabulary.place_confusions)
      | None ->
          if Random.State.float rng 1.0 < 0.9 then Tweets.Vocabulary.unknown_place
          else List.hd Tweets.Vocabulary.place_confusions)
  | a -> invalid_arg ("Beliefs.belief: unknown attribute " ^ a)

let belief t ~worker ~tweet_id ~attr =
  let key = (worker.Crowd.Worker.name, tweet_id, attr) in
  match Hashtbl.find_opt t.memo key with
  | Some v -> v
  | None ->
      let tw =
        match Hashtbl.find_opt t.tweets tweet_id with
        | Some tw -> tw
        | None -> invalid_arg (Printf.sprintf "Beliefs.belief: unknown tweet %d" tweet_id)
      in
      let v = draw t worker tw attr in
      Hashtbl.replace t.memo key v;
      v
