(** The formal model of Section 9.2: integration of human and machine
    computation as a consequence operator.

    A state [K = K_sure ⊕ K_open] holds the sure tuples (a database) and
    the open tuples (facts with open values awaiting human valuation).
    One application of the immediate integrated consequence operator
    [T_{P,S}]:

    - adds every {e immediate sure consequence} — heads of succeeding facts
      and rule instances whose bodies hold over [K_sure] alone (open tuples
      are never used for inference: the two-valued closed-world assumption
      over sure tuples);
    - adds every {e immediate open consequence} — open-headed instances,
      as open tuples;
    - turns the open tuples selected by the strategies [S] into sure tuples
      ({e immediate human consequences}).

    Iterating from the empty set yields the behaviour of [(P, S)]; a state
    with [T_{P,S}(K) = K] is its conclusion. When [S] is a game solution
    played by rational workers, these are the {e rational behaviour} and
    {e rational conclusion} defining the program's semantics.

    This batch operator covers the monotone fragment (facts, rules,
    open heads, payoffs). Programs using [/update] or [/delete] have
    inherently operational behaviour — use {!Engine} for those; {!supported}
    tells the two apart. *)

type state

type open_fact = {
  relation : string;
  bound : Reldb.Tuple.t;
  open_attrs : string list;
  asked : Reldb.Value.t option;
}

(** A strategy profile: given the current state, each invocation returns
    the valuations the crowd performs this round — pairs of an open fact
    (which must be pending in the state) and values for its open
    attributes. Returning [[]] means the humans are done. *)
type strategies = state -> (open_fact * (string * Reldb.Value.t) list) list

val supported : Ast.program -> bool
(** True iff the program avoids [/update] and [/delete] (batch semantics
    apply). *)

val initial : Ast.program -> state
(** The empty state [K = ∅] for a program. @raise Invalid_argument when
    {!supported} is false. *)

val sure : state -> Reldb.Database.t
(** [K_sure] as a database (a live view; treat as read-only). *)

val open_tuples : state -> open_fact list
(** [K_open], in first-derivation order. *)

val sure_count : state -> int
(** Number of sure tuples. *)

val apply : state -> strategies -> state
(** One application of [T_{P,S}]. The input state is not mutated. *)

val apply_delta : state -> strategies -> state
(** One application of [T_{P,S}], computed semi-naively: only instances
    whose support touches a row appended since the state's last
    application are enumerated (each positive atom takes a turn as the
    pinned delta atom, atoms to its left held below their frontiers), and
    discoveries are replayed in support-key order so open tuples keep
    first-derivation order. Over the supported fragment this equals
    {!apply} state for state: the database only grows, so instances over
    old rows cannot newly hold, and ones that already held contributed
    idempotent heads when discovered. Payoff statements — whose full-scan
    re-awards are {e not} idempotent — fall back to full enumeration. *)

val equal : state -> state -> bool
(** State equality (same sure tuples and same open tuples) — detects
    fixpoints. *)

val behaviour : ?bound:int -> Ast.program -> strategies -> state list * [ `Fixpoint | `Bound_reached ]
(** The behaviour of [(P, S)]: the sequence [K_0 = ∅, K_1, ...] up to a
    fixpoint (inclusive) or until [bound] applications (default 1000). *)

val behaviour_delta : ?bound:int -> Ast.program -> strategies -> state list * [ `Fixpoint | `Bound_reached ]
(** {!behaviour} with each step computed by {!apply_delta} — the
    semi-naive iteration of [T_{P,S}]. Produces the same state sequence
    as {!behaviour} over the supported fragment while joining only
    against each round's ΔR. *)

val conclusion : Ast.program -> strategies -> state option
(** The conclusion (final fixpoint state) if {!behaviour} reaches it
    within its default bound of 1000 applications. *)
