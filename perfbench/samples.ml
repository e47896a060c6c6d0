(* Growable arrays of integer samples (latencies in ns) and the order
   statistics the report uses. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 1024 0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

(* Nearest-rank with linear interpolation between the two neighbouring
   order statistics; [nan] when empty. *)
let quantile_sorted (sorted : float array) q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. ((sorted.(hi) -. sorted.(lo)) *. frac)

let percentile t q =
  let a = Array.init t.len (fun i -> float_of_int t.data.(i)) in
  Array.sort compare a;
  quantile_sorted a q

let quantile (xs : float list) q =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile_sorted a q

let median xs = quantile xs 0.5
