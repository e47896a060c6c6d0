type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length a = a.len

let check a i =
  if i < 0 || i >= a.len then
    invalid_arg (Printf.sprintf "Dynarray: index %d out of bounds [0,%d)" i a.len)

let get a i =
  check a i;
  a.data.(i)

let set a i x =
  check a i;
  a.data.(i) <- x

let grow a x =
  let cap = Array.length a.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data' = Array.make cap' x in
  Array.blit a.data 0 data' 0 a.len;
  a.data <- data'

let push a x =
  if a.len = Array.length a.data then grow a x;
  a.data.(a.len) <- x;
  a.len <- a.len + 1;
  a.len - 1

let iter f a =
  for i = 0 to a.len - 1 do
    f a.data.(i)
  done

let iteri f a =
  for i = 0 to a.len - 1 do
    f i a.data.(i)
  done

let fold_left f acc a =
  let r = ref acc in
  for i = 0 to a.len - 1 do
    r := f !r a.data.(i)
  done;
  !r

let exists p a =
  let rec loop i = i < a.len && (p a.data.(i) || loop (i + 1)) in
  loop 0

let find_index p a =
  let rec loop i =
    if i >= a.len then None else if p a.data.(i) then Some i else loop (i + 1)
  in
  loop 0

let to_list a =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (a.data.(i) :: acc) in
  loop (a.len - 1) []

let of_list l =
  let a = create () in
  List.iter (fun x -> ignore (push a x)) l;
  a

let clear a =
  a.data <- [||];
  a.len <- 0

let truncate a n =
  if n <= 0 then clear a
  else if n < a.len then begin
    (* overwrite the dropped slots so they keep nothing reachable *)
    Array.fill a.data n (a.len - n) a.data.(0);
    a.len <- n
  end
