(** Wake-on-change statement scheduling: which statements an engine step
    examines under the optimised strategy.

    A statement whose body relations have not changed since it last
    yielded nothing would yield nothing again, so a step need not look at
    it. The schedule keeps the statements that might yield something
    {e awake} and lets a step visit them in ascending index order — the
    conflict-resolution order — so the first one that fires is the one a
    walk over every statement would have fired.

    Changes are found by polling each body relation's
    {!Reldb.Relation.generation}, which every insert, update, delete and
    clear bumps, so rows written straight into the database wake their
    readers like rows written by the engine. *)

type t

val create : Reldb.Database.t -> string list array -> t
(** [create db reads] schedules statements [0 .. Array.length reads - 1],
    statement [i] reading the relations [reads.(i)] of [db]. Every
    statement starts awake. A relation not declared in [db] reads as
    generation 0 — empty and unchanged — until it is. *)

val poll : t -> unit
(** Wake every statement that reads a relation whose generation moved
    since the previous poll (or since {!create}). *)

val first : t -> int
(** The lowest awake statement, or [-1] when every statement sleeps. *)

val sleep_first : t -> unit
(** Put {!first} to sleep: it yielded nothing. It stays asleep until a
    relation it reads changes. Requires [first t >= 0]. *)
