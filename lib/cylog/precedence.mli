(** Rule precedence graphs (Section 9.1, Figure 14).

    Each statement is a vertex (identified by its priority index). An edge
    runs from statement [i] to statement [q] when the result of [q] depends
    on that of [i]:

    - [q]'s body reads (positively or under negation) a relation that some
      head of [i] writes;
    - [q] updates or deletes a relation that some head of [i] writes, with
      [i < q].

    An edge with [i < q] is a {e forward} precedence (solid arrow in the
    paper); [i >= q] is {e backward} (dotted): tuples from [i] reach [q]
    only after [q]'s first evaluation.

    Costs are stated for a program of [V] statements, [A] statement atoms
    (heads plus body literals) and [E] edges. Building costs O(A + E) and
    computes no transitive closure: each transitive question
    ({!depends_on} and the functions built on it) walks the predecessor
    lists of the vertex it asks about. *)

type t

type edge = {
  src : int;
  dst : int;
  via : string;  (** the relation carrying the dataflow *)
  forward : bool;
}

val build : Ast.statement list -> t
(** Build the graph of a statement list (priorities are list positions).
    One pass indexes each relation's writers, a second takes every edge
    from that index: O(A + E) time and allocation. *)

val size : t -> int
(** Number of vertices. O(1). *)

val statement_at : t -> int -> Ast.statement
(** The statement at a vertex (its priority index). O(1).
    @raise Invalid_argument when out of range. *)

val edges : t -> edge list
(** All edges, sorted by (src, dst, via), each once. O(E): the list is
    assembled on each call. *)

val depends_on : t -> int -> int -> bool
(** [depends_on g q i] is true iff there is a direct or composite dataflow
    from statement [i] to statement [q]. Since {!build} records no
    self-edges, [depends_on g q q] holds exactly when [q] lies on a cycle.
    O(V + E): a depth-first walk over predecessor lists from [q]. *)

val data_complete : t -> int -> bool
(** [data_complete g q]: no statement [i >= q] feeds [q] directly or
    indirectly — every computation affecting [q] finishes before [q] first
    fires, so negation in [q] agrees with the final-set semantics (the
    paper's link to stratified Datalog). O(V + E): one walk from [q]. *)

val parallelizable : t -> int -> int -> bool
(** True iff neither statement depends on the other, so they may be
    evaluated in parallel (the paper's remark about rules 3 and 4). Costs
    {!depends_on} twice. *)

val parallel_groups : t -> int list list
(** A greedy partition of the statements into groups of mutually
    independent statements, in priority order — a schedule in which each
    group could evaluate in parallel. Statements never move ahead of a
    statement they depend on. One walk from every vertex: O(V * (V + E))
    time and O(V^2) memory — a display and test helper, not a set-up
    step. *)

val stratified : t -> bool
(** True iff every statement whose body uses negation is data complete.
    One {!data_complete} per negating statement. *)

(** A witness that negation in statement [vertex] observes a relation
    still being populated: statement [writer >= vertex] asserts (or opens)
    tuples of [negated] after [vertex] first evaluates. [cycle] is the
    dependency chain [vertex; ...; writer] through direct edges when one
    exists (the backward edge [writer -> vertex] closes the cycle), or
    [[]] when the only flow is that single backward edge. *)
type violation = {
  vertex : int;
  negated : string;
  writer : int;
  cycle : int list;
}

val negation_violations : t -> violation list
(** Witness-producing refinement of {!stratified}: one violation per
    (negating statement, negated relation, later Assert/Open writer)
    triple, in priority order. Unlike {!data_complete} — which counts any
    backward dataflow — only writers that insert new tuples into the
    negated relation are reported; update/delete writers are the paper's
    fill-if-absent idiom and remain legal (Figure 16). The later writers
    come from the relation index, so finding them costs O(A + E) over the
    whole program; each violation adds one O(V + E) breadth-first walk
    for its cycle. *)

val sccs : ?positive_only:bool -> t -> int list list
(** Strongly connected components of the direct-edge graph, each sorted
    ascending, listed in dependency order: a component appears before
    every component that reads its output. With [positive_only] (default
    false) an edge counts only when the consuming statement reads the
    carrying relation through a {e positive} body atom — cardinality
    flows through positive reads only, so this is the recursion notion
    {!Analysis} widens over. Self-edges are never recorded by {!build};
    callers that care about single-statement recursion (a statement
    positively reading a relation it writes) must test for it
    themselves. Tarjan's algorithm: O(V + E), plus one body scan per
    edge with [positive_only]. *)

val vertex_name : t -> int -> string
(** Display name of a vertex, [R_q] style (relation name and 1-based
    priority), as in Figure 14. O(heads of the statement). *)
