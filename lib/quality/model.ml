type state = { mutable alpha : float; mutable beta : float; mutable seen : int }

type t = {
  prior_alpha : float;
  prior_beta : float;
  tbl : (string, state) Hashtbl.t;
}

let create ?(prior_alpha = 4.0) ?(prior_beta = 1.0) () =
  if prior_alpha <= 0.0 || prior_beta <= 0.0 then
    invalid_arg "Quality.Model.create: priors must be positive";
  { prior_alpha; prior_beta; tbl = Hashtbl.create 16 }

let state t worker =
  match Hashtbl.find_opt t.tbl worker with
  | Some s -> s
  | None ->
      let s = { alpha = t.prior_alpha; beta = t.prior_beta; seen = 0 } in
      Hashtbl.add t.tbl worker s;
      s

let observe t worker ~agreed =
  let s = state t worker in
  if agreed then s.alpha <- s.alpha +. 1.0 else s.beta <- s.beta +. 1.0;
  s.seen <- s.seen + 1

let reliability t worker =
  match Hashtbl.find_opt t.tbl worker with
  | Some s -> s.alpha /. (s.alpha +. s.beta)
  | None -> t.prior_alpha /. (t.prior_alpha +. t.prior_beta)

let observations t worker =
  match Hashtbl.find_opt t.tbl worker with Some s -> s.seen | None -> 0

let workers t =
  Hashtbl.fold (fun w _ acc -> w :: acc) t.tbl [] |> List.sort String.compare

let to_assoc t =
  List.map (fun w -> let s = Hashtbl.find t.tbl w in (w, (s.alpha, s.beta))) (workers t)

let of_assoc l =
  let t = create () in
  List.iter
    (fun (w, (alpha, beta)) ->
      (* [seen] is not serialized separately: it is derivable from the
         posterior's distance to the prior. *)
      let seen =
        int_of_float (alpha -. t.prior_alpha +. (beta -. t.prior_beta) +. 0.5)
      in
      Hashtbl.replace t.tbl w { alpha; beta; seen })
    l;
  t
