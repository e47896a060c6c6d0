(** Extensive-form games: trees with decision, chance and terminal nodes,
    plus information sets (the dotted circle of Figure 4 right: a player
    who cannot see an earlier move has one information set covering all the
    histories it cannot distinguish). *)

type node =
  | Terminal of (string * float) list  (** payoffs per player *)
  | Decision of {
      player : string;
      info_set : string;  (** nodes sharing a label share the player's knowledge *)
      moves : (string * node) list;
    }
  | Chance of (float * string * node) list
      (** probability, move label, subtree; probabilities should sum to 1 *)

val of_matrix_sequential : Matrix.t -> node
(** Present a two-player normal-form game in extensive form: the first
    player moves, then the second moves {e without observing} the first
    move (one information set per second player), as in Figure 4 (right).
    @raise Invalid_argument for games that are not two-player. *)

val players : node -> string list
(** Players appearing in the tree, in first-appearance order. *)

val info_sets : node -> (string * string * string list) list
(** (player, info set, available moves) per information set, in
    first-appearance order. Raises [Invalid_argument] if the same info set
    appears with different move lists (ill-formed tree). *)

type strategy = (string * string) list
(** Pure behavioural strategy profile: a chosen move per information set. *)

val expected_payoffs : node -> strategy -> (string * float) list
(** Expected payoff per player when everyone follows [strategy], averaging
    over chance nodes. @raise Invalid_argument when a reached information
    set has no chosen move. *)

val to_matrix : node -> Matrix.t * (int array -> strategy)
(** Induced normal form: each player's actions are their pure strategies
    (move choices for each of their information sets); also returns a
    decoder from matrix profiles back to behavioural strategies. *)

val pure_nash : node -> strategy list
(** Pure Nash equilibria of the induced normal form, as behavioural
    strategies. *)

val backward_induction : node -> strategy * (string * float) list
(** Subgame-perfect choice by backward induction. Only sound for perfect-
    information trees (every information set a singleton); chance nodes are
    averaged. Ties break toward the first listed move. *)

val depth : node -> int
(** Longest path length (decision and chance nodes count). *)

val pp : Format.formatter -> node -> unit
(** Indented tree rendering. *)
