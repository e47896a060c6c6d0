(* The precedence graph as first written: every pair of statements is
   tested for an edge, and dependence is an n×n matrix closed by repeated
   relaxation. Quadratic in statements and kept only as the reference
   that [Cylog.Precedence] must agree with on random programs
   ([test_differential.ml]). *)

open Cylog

type edge = Precedence.edge = { src : int; dst : int; via : string; forward : bool }

type violation = Precedence.violation = {
  vertex : int;
  negated : string;
  writer : int;
  cycle : int list;
}

type t = {
  statements : Ast.statement array;
  edges : edge list;
  (* reach.(q) holds the set of vertices i such that q depends on i. *)
  reach : bool array array;
}

let neg_preds body =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (l : Ast.literal) ->
         match l.Ast.lit with Ast.Neg a -> Some a.Ast.pred | _ -> None)
       body)

let build statements =
  let stmts = Array.of_list statements in
  let n = Array.length stmts in
  let writes i = Ast.statement_preds stmts.(i) in
  let update_delete_preds i =
    List.filter_map
      (fun (h : Ast.head) ->
        match h.Ast.head with
        | Ast.Head_atom { atom; kind = Ast.Update | Ast.Delete } -> Some atom.Ast.pred
        | Ast.Head_atom _ | Ast.Head_payoff _ -> None)
      stmts.(i).Ast.heads
  in
  let edges = ref [] in
  for q = 0 to n - 1 do
    let body_rels = Ast.body_preds stmts.(q).Ast.body in
    for i = 0 to n - 1 do
      if i <> q then begin
        (* Dataflow through a body read. *)
        List.iter
          (fun r ->
            if List.mem r (writes i) then
              edges := { src = i; dst = q; via = r; forward = i < q } :: !edges)
          body_rels;
        (* An update/delete of R in q consumes earlier writes of R. *)
        List.iter
          (fun r ->
            if i < q && List.mem r (writes i) then
              edges := { src = i; dst = q; via = r; forward = true } :: !edges)
          (update_delete_preds q)
      end
    done
  done;
  let edges =
    List.sort_uniq compare !edges |> List.sort (fun a b -> compare (a.src, a.dst) (b.src, b.dst))
  in
  (* Transitive closure by repeated relaxation. *)
  let reach = Array.make_matrix n n false in
  List.iter (fun e -> reach.(e.dst).(e.src) <- true) edges;
  let changed = ref true in
  while !changed do
    changed := false;
    for q = 0 to n - 1 do
      for mid = 0 to n - 1 do
        if reach.(q).(mid) then
          for i = 0 to n - 1 do
            if reach.(mid).(i) && not reach.(q).(i) then begin
              reach.(q).(i) <- true;
              changed := true
            end
          done
      done
    done
  done;
  { statements = stmts; edges; reach }

let size g = Array.length g.statements
let edges g = g.edges
let depends_on g q i = q >= 0 && q < size g && i >= 0 && i < size g && g.reach.(q).(i)

let data_complete g q =
  let n = size g in
  let rec loop i = i >= n || ((i < q || not (depends_on g q i)) && loop (i + 1)) in
  q >= 0 && q < n && loop q

let parallelizable g a b = not (depends_on g a b) && not (depends_on g b a)

let parallel_groups g =
  let n = size g in
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
        if (not assigned.(j)) && List.for_all (fun i -> parallelizable g i j) !group
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
  let succs = Array.make n [] in
  List.iter
    (fun e -> if keep e then succs.(e.src) <- e.dst :: succs.(e.src))
    (List.rev g.edges);
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

(* -- Stratification witnesses -------------------------------------------- *)

(* Relations a statement populates through Assert or Open heads. Update
   and Delete heads are deliberately excluded: updating a relation after a
   later rule negated it is the paper's fill-if-absent idiom (Figure 16's
   Fill/Step pair), not a stratification hazard — the negation tests
   existence, and updates only rewrite tuples already observed. *)
let assert_writes stmts i =
  List.filter_map
    (fun (h : Ast.head) ->
      match h.Ast.head with
      | Ast.Head_atom { atom; kind = Ast.Assert | Ast.Open _ } ->
          Some atom.Ast.pred
      | Ast.Head_atom _ | Ast.Head_payoff _ -> None)
    stmts.(i).Ast.heads

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
          if e.src = v && not seen.(e.dst) then begin
            seen.(e.dst) <- true;
            prev.(e.dst) <- v;
            if e.dst = dst then found := true else Queue.push e.dst queue
          end)
        g.edges
    done;
    if not !found then None
    else begin
      let rec walk v acc = if v = src then v :: acc else walk prev.(v) (v :: acc) in
      Some (walk dst [])
    end
  end

let negation_violations g =
  let n = size g in
  List.concat
    (List.init n (fun q ->
         let negs = neg_preds g.statements.(q).Ast.body in
         List.concat_map
           (fun r ->
             List.filter_map
               (fun i ->
                 if i <> q && List.mem r (assert_writes g.statements i) then
                   let cycle =
                     match path g ~src:q ~dst:i with Some p -> p | None -> []
                   in
                   Some { vertex = q; negated = r; writer = i; cycle }
                 else None)
               (List.init (n - q) (fun k -> q + k)))
           negs))
