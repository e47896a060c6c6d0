(** Builtin predicates callable from rule bodies.

    A builtin receives its evaluated arguments and returns a value; in a
    body context the result is interpreted through [Value.truthy]. The
    default registry contains the paper's [matches(cond, tw)] (regex
    containment, with a pattern cache) plus a small string/arithmetic
    toolkit. *)

type t = Reldb.Value.t list -> Reldb.Value.t

exception Unknown of string
(** Raised when a rule calls a builtin missing from the registry. *)

exception Bad_arguments of { name : string; message : string }
(** Raised when arguments have the wrong arity or type. *)

type registry

val default : unit -> registry
(** Fresh registry with the standard builtins: [matches], [contains],
    [starts_with], [ends_with], [lowercase], [length], [concat], [abs],
    [min], [max], [mod]. Each call to [default] gets its own regex
    cache. *)

val call : registry -> string -> Reldb.Value.t list -> Reldb.Value.t
(** Invoke a builtin. @raise Unknown / Bad_arguments as appropriate. *)
