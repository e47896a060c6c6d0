type node =
  | Terminal of (string * float) list
  | Decision of { player : string; info_set : string; moves : (string * node) list }
  | Chance of (float * string * node) list

let of_matrix_sequential g =
  match Matrix.players g with
  | [ pa; pb ] ->
      let rows = Matrix.actions g 0 and cols = Matrix.actions g 1 in
      let second i =
        Decision
          {
            player = pb;
            (* One shared information set: B does not observe A's move. *)
            info_set = pb ^ ":choice";
            moves =
              List.mapi
                (fun j c ->
                  let p = Matrix.payoff g [| i; j |] in
                  (c, Terminal [ (pa, p.(0)); (pb, p.(1)) ]))
                cols;
          }
      in
      Decision
        {
          player = pa;
          info_set = pa ^ ":choice";
          moves = List.mapi (fun i r -> (r, second i)) rows;
        }
  | _ -> invalid_arg "Extensive.of_matrix_sequential: two-player games only"

let rec fold_nodes f acc node =
  let acc = f acc node in
  match node with
  | Terminal _ -> acc
  | Decision { moves; _ } -> List.fold_left (fun acc (_, n) -> fold_nodes f acc n) acc moves
  | Chance branches ->
      List.fold_left (fun acc (_, _, n) -> fold_nodes f acc n) acc branches

let players node =
  List.rev
    (fold_nodes
       (fun acc n ->
         match n with
         | Decision { player; _ } when not (List.mem player acc) -> player :: acc
         | Decision _ | Terminal _ | Chance _ -> acc)
       [] node)

let info_sets node =
  let sets =
    List.rev
      (fold_nodes
         (fun acc n ->
           match n with
           | Decision { player; info_set; moves } ->
               (player, info_set, List.map fst moves) :: acc
           | Terminal _ | Chance _ -> acc)
         [] node)
  in
  let rec dedup seen = function
    | [] -> []
    | ((player, is, moves) as entry) :: rest -> (
        match List.assoc_opt is seen with
        | Some (player', moves') ->
            if player <> player' || moves <> moves' then
              invalid_arg
                (Printf.sprintf "Extensive.info_sets: inconsistent info set %s" is)
            else dedup seen rest
        | None -> entry :: dedup ((is, (player, moves)) :: seen) rest)
  in
  dedup [] sets

type strategy = (string * string) list

let expected_payoffs node strategy =
  let totals : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let add player v =
    Hashtbl.replace totals player (v +. Option.value (Hashtbl.find_opt totals player) ~default:0.0)
  in
  let rec walk scale = function
    | Terminal payoffs -> List.iter (fun (p, v) -> add p (scale *. v)) payoffs
    | Decision { info_set; moves; _ } -> (
        match List.assoc_opt info_set strategy with
        | Some move -> (
            match List.assoc_opt move moves with
            | Some next -> walk scale next
            | None ->
                invalid_arg
                  (Printf.sprintf "Extensive.expected_payoffs: move %s not available at %s"
                     move info_set))
        | None ->
            invalid_arg
              (Printf.sprintf "Extensive.expected_payoffs: no choice for info set %s" info_set))
    | Chance branches ->
        List.iter (fun (p, _, next) -> walk (scale *. p) next) branches
  in
  walk 1.0 node;
  let ps =
    let from_decisions = players node in
    let from_terminals =
      List.rev
        (fold_nodes
           (fun acc n ->
             match n with
             | Terminal payoffs ->
                 List.fold_left
                   (fun acc (p, _) -> if List.mem p acc then acc else p :: acc)
                   acc payoffs
             | Decision _ | Chance _ -> acc)
           [] node)
    in
    from_decisions @ List.filter (fun p -> not (List.mem p from_decisions)) from_terminals
  in
  List.map (fun p -> (p, Option.value (Hashtbl.find_opt totals p) ~default:0.0)) ps

let to_matrix node =
  let sets = info_sets node in
  let ps = players node in
  let sets_of p = List.filter (fun (p', _, _) -> p' = p) sets in
  (* A pure strategy of player p = one move per information set of p. *)
  let strategies_of p =
    let rec build = function
      | [] -> [ [] ]
      | (_, is, moves) :: rest ->
          let tails = build rest in
          List.concat_map (fun m -> List.map (fun tail -> (is, m) :: tail) tails) moves
    in
    build (sets_of p)
  in
  let per_player = List.map strategies_of ps in
  let name strat = String.concat "," (List.map (fun (is, m) -> is ^ "=" ^ m) strat) in
  let decode profile =
    List.concat (List.mapi (fun i s -> List.nth (List.nth per_player i) s) (Array.to_list profile))
  in
  let matrix =
    Matrix.make ~players:ps
      ~actions:(List.map (fun strats -> List.map name strats) per_player)
      ~payoff:(fun profile ->
        let strategy = decode profile in
        let payoffs = expected_payoffs node strategy in
        Array.of_list (List.map (fun p -> List.assoc p payoffs) ps))
  in
  (matrix, decode)

let pure_nash node =
  let matrix, decode = to_matrix node in
  List.map decode (Matrix.pure_nash matrix)

let backward_induction node =
  let choices = ref [] in
  let rec solve = function
    | Terminal payoffs -> payoffs
    | Chance branches ->
        let totals : (string, float) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (p, _, next) ->
            List.iter
              (fun (player, v) ->
                Hashtbl.replace totals player
                  ((p *. v) +. Option.value (Hashtbl.find_opt totals player) ~default:0.0))
              (solve next))
          branches;
        Hashtbl.fold (fun p v acc -> (p, v) :: acc) totals []
    | Decision { player; info_set; moves } ->
        let solved = List.map (fun (m, next) -> (m, solve next)) moves in
        let value (_, payoffs) = Option.value (List.assoc_opt player payoffs) ~default:0.0 in
        let best =
          List.fold_left
            (fun acc entry -> match acc with
              | Some b when value b >= value entry -> Some b
              | _ -> Some entry)
            None solved
        in
        (match best with
        | Some (m, payoffs) ->
            choices := (info_set, m) :: !choices;
            payoffs
        | None -> invalid_arg "Extensive.backward_induction: decision without moves")
  in
  let payoffs = solve node in
  (List.rev !choices, payoffs)

let rec depth = function
  | Terminal _ -> 0
  | Decision { moves; _ } ->
      1 + List.fold_left (fun acc (_, n) -> max acc (depth n)) 0 moves
  | Chance branches ->
      1 + List.fold_left (fun acc (_, _, n) -> max acc (depth n)) 0 branches

let pp ppf node =
  let rec go indent = function
    | Terminal payoffs ->
        Format.fprintf ppf "%s-> (%s)@," indent
          (String.concat ", "
             (List.map (fun (p, v) -> Printf.sprintf "%s:%g" p v) payoffs))
    | Decision { player; info_set; moves } ->
        Format.fprintf ppf "%s%s [%s]@," indent player info_set;
        List.iter
          (fun (m, next) ->
            Format.fprintf ppf "%s  %s:@," indent m;
            go (indent ^ "    ") next)
          moves
    | Chance branches ->
        Format.fprintf ppf "%schance@," indent;
        List.iter
          (fun (p, m, next) ->
            Format.fprintf ppf "%s  %g %s:@," indent p m;
            go (indent ^ "    ") next)
          branches
  in
  Format.fprintf ppf "@[<v>";
  go "" node;
  Format.fprintf ppf "@]"
