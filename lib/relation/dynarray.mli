(** Growable arrays.

    OCaml 5.1's standard library does not yet ship [Dynarray] (it arrived in
    5.2), so the relational substrate carries its own minimal implementation.
    Elements keep their insertion index until a {!truncate}; relations never
    truncate, and express removal by storing an explicit liveness flag
    instead of shifting, because CyLog's conflict resolution ranks tuples by
    the row at which they first appeared. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty dynamic array. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val get : 'a t -> int -> 'a
(** [get a i] is the [i]-th element. @raise Invalid_argument if out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set a i x] replaces the [i]-th element. @raise Invalid_argument if out
    of bounds. *)

val push : 'a t -> 'a -> int
(** [push a x] appends [x] and returns its index. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Iterate in index (= insertion) order. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
(** Like {!iter} with the index. *)

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold in index order. *)

val exists : ('a -> bool) -> 'a t -> bool
(** [exists p a] is true iff some element satisfies [p]. *)

val find_index : ('a -> bool) -> 'a t -> int option
(** Index of the first element satisfying the predicate, if any. *)

val to_list : 'a t -> 'a list
(** Elements in index order. *)

val of_list : 'a list -> 'a t
(** Array holding the given elements in order. *)

val clear : 'a t -> unit
(** Remove all elements. *)

val truncate : 'a t -> int -> unit
(** [truncate a n] keeps the first [n] elements and drops the rest; nothing
    happens if [n >= length a]. *)
