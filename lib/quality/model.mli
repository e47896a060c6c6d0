(** Online per-worker reliability.

    Each worker carries a Beta posterior over their probability of
    agreeing with the eventually-chosen answer: starting from a seedable
    [Beta(alpha, beta)] prior, every agreement event adds one to [alpha]
    and every disagreement one to [beta]. {!reliability} is the posterior
    mean [alpha / (alpha + beta)] — the plug-in accuracy estimate that
    {!Decide} weighs votes with and {!Router} screens workers by.

    The default prior is [Beta(4, 1)] (mean 0.8): optimistic, in line with
    the accuracy crowdsourcing platforms typically assume of a screened
    worker. Optimism is what lets an adaptive quorum stop early before any
    reputation exists — two agreeing fresh workers already clear a 0.9
    posterior — while a short streak of disagreements still drags a
    worker's weight down faster than agreement rebuilds it.

    State is mutable but fully determined by the sequence of {!observe}
    calls, so replaying the same events gives a structurally identical
    model. The engine serialises its model in every checkpoint and WAL
    state record, and replays only the entries written after one
    ({!Cylog.Engine.recover}); the restore and recovery tests compare
    the result with the live engine's. *)

type t

val create : ?prior_alpha:float -> ?prior_beta:float -> unit -> t
(** Fresh model. [prior_alpha]/[prior_beta] (defaults 4.0/1.0) seed every
    worker's Beta prior. @raise Invalid_argument unless both are > 0. *)

val observe : t -> string -> agreed:bool -> unit
(** Record that the worker's vote agreed (or not) with the chosen answer. *)

val reliability : t -> string -> float
(** Posterior mean accuracy; the prior mean for never-observed workers. *)

val observations : t -> string -> int
(** How many agreement events the worker has been scored on. *)

val workers : t -> string list
(** Workers with at least one observation, sorted. *)

val to_assoc : t -> (string * (float * float)) list
(** Serializable state: per observed worker (sorted) the posterior
    [(alpha, beta)]. *)

val of_assoc :
  ?prior_alpha:float -> ?prior_beta:float -> (string * (float * float)) list -> t
(** Rebuild a model from {!to_assoc} output (priors apply to workers not
    in the list). [to_assoc (of_assoc l) = l] for sorted [l]. *)
