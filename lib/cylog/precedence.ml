type edge = { src : int; dst : int; via : string; forward : bool }

type t = {
  statements : Ast.statement array;
  writers : (string, int list) Hashtbl.t;
      (* relation -> the statements whose heads write it, ascending *)
  succs : edge list array;  (* succs.(i): the edges leaving i, by (dst, via) *)
  preds : int list array;  (* preds.(q): the source of each edge entering q *)
}

let neg_preds body =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (l : Ast.literal) ->
         match l.Ast.lit with Ast.Neg a -> Some a.Ast.pred | _ -> None)
       body)

let update_delete_preds (s : Ast.statement) =
  List.filter_map
    (fun (h : Ast.head) ->
      match h.Ast.head with
      | Ast.Head_atom { atom; kind = Ast.Update | Ast.Delete } -> Some atom.Ast.pred
      | Ast.Head_atom _ | Ast.Head_payoff _ -> None)
    s.Ast.heads

let writers_of writers r = Option.value (Hashtbl.find_opt writers r) ~default:[]

let build statements =
  let stmts = Array.of_list statements in
  let n = Array.length stmts in
  let writers = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    List.iter
      (fun r -> Hashtbl.replace writers r (i :: writers_of writers r))
      (Ast.statement_preds stmts.(i))
  done;
  let succs = Array.make n [] and preds = Array.make n [] in
  (* Statement q consumes relation r when its body reads r (an edge from
     every other writer) or when it updates or deletes r (an edge from
     every earlier writer). Edges are prepended to their source's list,
     so visiting q and then r in descending order leaves each list sorted
     by (dst, via) without a sort. *)
  for q = n - 1 downto 0 do
    let s = stmts.(q) in
    let reads = Ast.body_preds s.Ast.body and rewrites = update_delete_preds s in
    List.iter
      (fun r ->
        let read = List.mem r reads and rewrite = List.mem r rewrites in
        List.iter
          (fun i ->
            if (read && i <> q) || (rewrite && i < q) then begin
              succs.(i) <- { src = i; dst = q; via = r; forward = i < q } :: succs.(i);
              preds.(q) <- i :: preds.(q)
            end)
          (writers_of writers r))
      (List.sort_uniq (fun a b -> String.compare b a) (reads @ rewrites))
  done;
  { statements = stmts; writers; succs; preds }

let size g = Array.length g.statements
let statement_at g i = g.statements.(i)
let edges g = Array.fold_right ( @ ) g.succs []

(* [seen.(i)] iff a path of at least one edge runs from [i] into [q]:
   [q] itself is marked only when it lies on a cycle, since [build]
   records no self-edges. A depth-first walk over predecessor lists. *)
let ancestors g q =
  let seen = Array.make (size g) false in
  let rec visit = function
    | [] -> ()
    | [] :: todo -> visit todo
    | (i :: rest) :: todo ->
        if seen.(i) then visit (rest :: todo)
        else begin
          seen.(i) <- true;
          visit (g.preds.(i) :: rest :: todo)
        end
  in
  visit [ g.preds.(q) ];
  seen

let in_range g i = i >= 0 && i < size g
let depends_on g q i = in_range g q && in_range g i && (ancestors g q).(i)

let data_complete g q =
  in_range g q
  &&
  let seen = ancestors g q in
  let rec loop i = i >= size g || ((not seen.(i)) && loop (i + 1)) in
  loop q

let parallelizable g a b = not (depends_on g a b) && not (depends_on g b a)

let parallel_groups g =
  let n = size g in
  let ancestors = Array.init n (ancestors g) in
  let parallelizable a b = not ancestors.(a).(b) && not ancestors.(b).(a) in
  let assigned = Array.make n false in
  let rec build start acc =
    if start >= n then List.rev acc
    else if assigned.(start) then build (start + 1) acc
    else begin
      (* Greedily extend the group with later statements independent of
         everything already in it. *)
      let group = ref [ start ] in
      assigned.(start) <- true;
      for j = start + 1 to n - 1 do
        if (not assigned.(j)) && List.for_all (fun i -> parallelizable i j) !group
        then begin
          group := j :: !group;
          assigned.(j) <- true
        end
      done;
      build (start + 1) (List.rev !group :: acc)
    end
  in
  build 0 []

let stratified g =
  let n = size g in
  let rec loop q =
    q >= n
    || ((neg_preds g.statements.(q).Ast.body = [] || data_complete g q) && loop (q + 1))
  in
  loop 0

(* Tarjan over the direct edges. [positive_only] keeps an edge only when
   the consuming statement reads the carrying relation through a positive
   body atom — negation tests emptiness and carries no cardinality, so the
   abstract interpreter ({!Analysis}) must not see cycles through it. *)
let sccs ?(positive_only = false) g =
  let n = size g in
  let keep e =
    (not positive_only)
    || List.exists
         (fun (l : Ast.literal) ->
           match l.Ast.lit with
           | Ast.Pos a -> String.equal a.Ast.pred e.via
           | Ast.Neg _ | Ast.Cmp _ | Ast.Call _ -> false)
         g.statements.(e.dst).Ast.body
  in
  let succs =
    Array.map (List.filter_map (fun e -> if keep e then Some e.dst else None)) g.succs
  in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and next = ref 0 and out = ref [] in
  let rec strong v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := List.sort compare (pop []) :: !out
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  (* Tarjan pops consumers before their producers; the prepends above
     reverse that, so the result lists producers first. *)
  !out

let vertex_name g i =
  let preds = Ast.statement_preds g.statements.(i) in
  let name = match preds with [] -> "Payoff" | p :: _ -> p in
  Printf.sprintf "%s_%d" name (i + 1)

(* -- Stratification witnesses -------------------------------------------- *)

type violation = {
  vertex : int;
  negated : string;
  writer : int;
  cycle : int list;
}

(* Whether a statement populates [r] through an Assert or Open head.
   Update and Delete heads are deliberately excluded: updating a relation
   after a later rule negated it is the paper's fill-if-absent idiom
   (Figure 16's Fill/Step pair), not a stratification hazard — the
   negation tests existence, and updates only rewrite tuples already
   observed. *)
let asserts (s : Ast.statement) r =
  List.exists
    (fun (h : Ast.head) ->
      match h.Ast.head with
      | Ast.Head_atom { atom; kind = Ast.Assert | Ast.Open _ } ->
          String.equal atom.Ast.pred r
      | Ast.Head_atom _ | Ast.Head_payoff _ -> false)
    s.Ast.heads

(* Shortest direct-edge path from [src] to [dst], as a vertex list
   [src; ...; dst], when one exists. *)
let path g ~src ~dst =
  let n = size g in
  if src < 0 || dst < 0 || src >= n || dst >= n then None
  else begin
    let prev = Array.make n (-1) in
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(src) <- true;
    Queue.push src queue;
    let found = ref (src = dst) in
    while (not !found) && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun e ->
          if not seen.(e.dst) then begin
            seen.(e.dst) <- true;
            prev.(e.dst) <- v;
            if e.dst = dst then found := true else Queue.push e.dst queue
          end)
        g.succs.(v)
    done;
    if not !found then None
    else begin
      let rec walk v acc = if v = src then v :: acc else walk prev.(v) (v :: acc) in
      Some (walk dst [])
    end
  end

let negation_violations g =
  List.concat
    (List.init (size g) (fun q ->
         List.concat_map
           (fun r ->
             List.filter_map
               (fun i ->
                 if i > q && asserts g.statements.(i) r then
                   let cycle =
                     match path g ~src:q ~dst:i with Some p -> p | None -> []
                   in
                   Some { vertex = q; negated = r; writer = i; cycle }
                 else None)
               (writers_of g.writers r))
           (neg_preds g.statements.(q).Ast.body)))
