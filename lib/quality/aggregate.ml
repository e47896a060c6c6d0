type vote = { item : string; worker : string; value : string }

(* Group votes per item, preserving first-vote order of items and votes. *)
let by_item votes =
  let order = ref [] in
  let groups : (string, vote list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun v ->
      match Hashtbl.find_opt groups v.item with
      | Some cell -> cell := v :: !cell
      | None ->
          Hashtbl.replace groups v.item (ref [ v ]);
          order := v.item :: !order)
    votes;
  List.rev_map (fun item -> (item, List.rev !(Hashtbl.find groups item))) !order

(* Plurality over one item's votes in arrival order — the one tally behind
   [majority] and the engine's quorum resolution. *)
let plurality values =
  let counts = ref [] in
  List.iter
    (fun value ->
      match List.assoc_opt value !counts with
      | Some c -> counts := (value, c + 1) :: List.remove_assoc value !counts
      | None -> counts := !counts @ [ (value, 1) ])
    values;
  List.fold_left
    (fun best (value, c) ->
      match best with Some (_, bc) when bc >= c -> best | _ -> Some (value, c))
    None !counts
  |> Option.map fst

let majority votes =
  List.map
    (fun (item, vs) ->
      (item, Option.value (plurality (List.map (fun v -> v.value) vs)) ~default:""))
    (by_item votes)

type em_result = {
  consensus : (string * string) list;
  posteriors : (string * (string * float) list) list;
  worker_accuracy : (string * float) list;
  iterations : int;
}

let em votes =
  let items = by_item votes in
  let workers =
    List.sort_uniq compare (List.map (fun v -> v.worker) votes)
  in
  let accuracy : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun w -> Hashtbl.replace accuracy w 0.7) workers;
  let candidates vs = List.sort_uniq compare (List.map (fun v -> v.value) vs) in
  (* E-step: posterior over candidate values of one item. *)
  let posterior vs =
    let cands = candidates vs in
    let k = max 2 (List.length cands) in
    let score value =
      List.fold_left
        (fun acc v ->
          let a = Hashtbl.find accuracy v.worker in
          (* Clamp away from 0/1 so a single worker cannot saturate. *)
          let a = Float.max 0.01 (Float.min 0.99 a) in
          acc *. (if String.equal v.value value then a else (1.0 -. a) /. float_of_int (k - 1)))
        1.0 vs
    in
    let raw = List.map (fun c -> (c, score c)) cands in
    let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 raw in
    if total <= 0.0 then List.map (fun (c, _) -> (c, 1.0 /. float_of_int (List.length cands))) raw
    else List.map (fun (c, s) -> (c, s /. total)) raw
  in
  let rec iterate n =
    let posts = List.map (fun (item, vs) -> (item, vs, posterior vs)) items in
    (* M-step: expected correctness per worker. *)
    let num : (string, float) Hashtbl.t = Hashtbl.create 16 in
    let den : (string, float) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (_, vs, post) ->
        List.iter
          (fun v ->
            let p = Option.value (List.assoc_opt v.value post) ~default:0.0 in
            Hashtbl.replace num v.worker
              (p +. Option.value (Hashtbl.find_opt num v.worker) ~default:0.0);
            Hashtbl.replace den v.worker
              (1.0 +. Option.value (Hashtbl.find_opt den v.worker) ~default:0.0))
          vs)
      posts;
    let delta = ref 0.0 in
    List.iter
      (fun w ->
        let d = Option.value (Hashtbl.find_opt den w) ~default:0.0 in
        if d > 0.0 then begin
          let fresh = Hashtbl.find num w /. d in
          delta := Float.max !delta (Float.abs (fresh -. Hashtbl.find accuracy w));
          Hashtbl.replace accuracy w fresh
        end)
      workers;
    if !delta < 1e-6 || n + 1 >= 100 then (posts, n + 1) else iterate (n + 1)
  in
  let posts, iterations = iterate 0 in
  let consensus =
    List.map
      (fun (item, _, post) ->
        (* [post] lists candidates in lexicographic order and [bp >= p]
           keeps the incumbent, so exactly-tied posteriors resolve to the
           smallest candidate value — the documented tie-break. *)
        let best =
          List.fold_left
            (fun acc (c, p) ->
              match acc with Some (_, bp) when bp >= p -> acc | _ -> Some (c, p))
            None post
        in
        (item, match best with Some (c, _) -> c | None -> ""))
      posts
  in
  {
    consensus;
    posteriors = List.map (fun (item, _, post) -> (item, post)) posts;
    worker_accuracy = List.map (fun w -> (w, Hashtbl.find accuracy w)) workers;
    iterations;
  }

let accuracy_against ~truth labels =
  let comparable =
    List.filter_map
      (fun (item, value) ->
        match truth item with Some gt -> Some (String.equal gt value) | None -> None)
      labels
  in
  match comparable with
  | [] -> 0.0
  | _ ->
      float_of_int (List.length (List.filter Fun.id comparable))
      /. float_of_int (List.length comparable)
