(* Awake statements live in a binary min-heap over statement indices with
   a membership flag per statement: a step pops sleepers off the top in
   ascending order, a wake pushes, and neither allocates. *)

type watched = {
  name : string;
  mutable rel : Reldb.Relation.t option;  (* resolved once declared *)
  mutable seen : int;  (* generation at the last poll *)
  readers : int array;  (* statements whose body reads [name] *)
}

type t = {
  db : Reldb.Database.t;
  watched : watched array;
  heap : int array;  (* [heap.(0 .. size - 1)]: the awake statements *)
  mutable size : int;
  awake : bool array;
}

let generation db w =
  match w.rel with
  | Some r -> Reldb.Relation.generation r
  | None -> (
      match Reldb.Database.find db w.name with
      | Some r ->
          w.rel <- Some r;
          Reldb.Relation.generation r
      | None -> 0)

let create db reads =
  let by_rel = Hashtbl.create 16 in
  let rec add i = function
    | [] -> ()
    | r :: rest ->
        Hashtbl.replace by_rel r (i :: Option.value (Hashtbl.find_opt by_rel r) ~default:[]);
        add i rest
  in
  Array.iteri add reads;
  let watched =
    Hashtbl.fold
      (fun name readers acc ->
        let w = { name; rel = None; seen = 0; readers = Array.of_list readers } in
        w.seen <- generation db w;
        w :: acc)
      by_rel []
  in
  let n = Array.length reads in
  (* 0 .. n-1 in order is already a min-heap. *)
  { db; watched = Array.of_list watched; heap = Array.init n Fun.id; size = n;
    awake = Array.make n true }

let wake t i =
  if not t.awake.(i) then begin
    t.awake.(i) <- true;
    let j = ref t.size in
    t.size <- t.size + 1;
    while !j > 0 && t.heap.((!j - 1) / 2) > i do
      t.heap.(!j) <- t.heap.((!j - 1) / 2);
      j := (!j - 1) / 2
    done;
    t.heap.(!j) <- i
  end

let poll t =
  for k = 0 to Array.length t.watched - 1 do
    let w = t.watched.(k) in
    let g = generation t.db w in
    if g <> w.seen then begin
      w.seen <- g;
      for r = 0 to Array.length w.readers - 1 do
        wake t w.readers.(r)
      done
    end
  done

let first t = if t.size = 0 then -1 else t.heap.(0)

let sleep_first t =
  t.awake.(t.heap.(0)) <- false;
  t.size <- t.size - 1;
  let last = t.heap.(t.size) and j = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !j) + 1 in
    let c = if l + 1 < t.size && t.heap.(l + 1) < t.heap.(l) then l + 1 else l in
    if c < t.size && t.heap.(c) < last then begin
      t.heap.(!j) <- t.heap.(c);
      j := c
    end
    else sifting := false
  done;
  if t.size > 0 then t.heap.(!j) <- last
