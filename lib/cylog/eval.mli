(** Body evaluation: expression evaluation, atom matching and valuation
    enumeration in conflict-resolution order.

    Enumeration follows the paper's tie-breaking among valuations of one
    rule: atoms are evaluated left to right and the instance valued by
    tuples at the earliest rows wins — i.e. valuations are produced in
    lexicographic order of the row indices chosen for each positive atom. *)

exception Error of string
(** A body is malformed with respect to the current valuation (unbound
    variable in a negation, comparison of incomparable values, ...). *)

val eval_expr : Builtin.registry -> Binding.t -> Ast.expr -> Reldb.Value.t
(** Evaluate a closed expression. @raise Error on unbound variables. *)

val try_eval_expr : Builtin.registry -> Binding.t -> Ast.expr -> Reldb.Value.t option
(** Like {!eval_expr} but [None] when a variable is unbound. *)

val match_atom : Binding.t -> Ast.atom -> Reldb.Tuple.t ->
  builtins:Builtin.registry -> Binding.t option
(** [match_atom env atom tuple] extends [env] by matching [tuple] against
    [atom]'s argument list, or returns [None] on mismatch. Binding rules:
    bare attribute [a] binds variable [a]; [a:v] with variable [v] binds
    [v]; [a:e] with a closed expression tests equality and additionally
    binds variable [a] to the tuple's value when [a] is unbound (so
    [Rules(..., attr:"weather", ...)] makes [attr] available to the
    head). *)

val check_filter : Builtin.registry -> Reldb.Database.t -> Binding.t ->
  Ast.literal -> [ `Pass of Binding.t | `Fail ]
(** Evaluate a non-branching literal: [Neg], [Call], or [Cmp]. An [Eq]
    comparison with exactly one unbound plain-variable side binds it.
    @raise Error if applied to [Pos], or on unbound variables. *)

type matched = {
  env : Binding.t;
  support : (string * int * int) list;
      (** (relation, row, row version) per positive atom, in body order *)
}

val support_key : matched -> (int * int) list
(** The conflict-resolution ordering key of an instance: its support
    [(row, version)] pairs in body order. Left-to-right enumeration
    produces instances in ascending key order, so the paper's
    earliest-rows winner is the minimum under this key. *)

val compare_matched : matched -> matched -> int
(** Compare instances by {!support_key}. *)

val merge_matched : matched list -> matched list -> matched list
(** Merge two key-ascending instance lists into one, preserving order —
    the operation that folds a delta scan's discoveries into an engine's
    pending set while keeping its head the conflict-resolution winner. *)

(** Row restriction for one positive atom during enumeration — the
    building block of seminaive (delta) evaluation. *)
type row_range =
  | All
  | Below of int  (** rows with index < the watermark *)
  | Exactly of int  (** one specific row *)

val enumerate : ?plan:(int -> row_range) ->
  ?reordered:Ast.literal list * int array -> rows_scanned:int ref ->
  Builtin.registry -> Reldb.Database.t -> Ast.literal list ->
  init:Binding.t -> f:(matched -> [ `Stop | `Continue ]) -> unit
(** Enumerate the valuations of a body over the database, calling [f] on
    each. Relations absent from the database are treated as empty. [plan]
    restricts the rows each positive atom (numbered left to right from 0
    {e in the original body}) may use; default unrestricted. Every
    candidate row handed to the atom matcher increments [rows_scanned] —
    the deterministic work measure behind each engine's
    [eval.rows_scanned] counter; the caller owns the count, so engines
    never share it.

    Without [reordered], atoms are joined left to right and valuations are
    produced in conflict-resolution order (lexicographic in the row indices
    chosen per positive atom). With [reordered:(literals, order)] — a
    {!Planner.t}'s reordering of the body, [order] mapping evaluation
    position to original positive-atom position — atoms are joined in the
    planned order instead, but each full match is {e replayed} over the
    original body, so [f] observes exactly the environments and supports
    left-to-right evaluation would have produced. Only the order in which
    [f] receives valuations may differ; callers needing the
    conflict-resolution winner must select the minimal support key
    themselves. *)

val split_tail : Ast.literal list -> Ast.literal list * Ast.literal list
(** Split a body into the prefix ending at the last positive atom and the
    trailing filter literals. The engine enumerates the prefix and
    evaluates the tail once per instance (the paper's Figure 13 trace:
    an instance is "evaluated" once even when a trailing negation
    rejects it). *)
