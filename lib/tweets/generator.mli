(** Seeded synthetic #tenki tweet generator.

    The generated corpus mirrors the structural properties Table 1 depends
    on: most tweets state a weather condition through a vocabulary keyword
    and name a city; a fraction are {e ambiguous} about the weather (the
    judges' "neither" class) and a fraction name no place. The same seed
    always produces the same corpus. *)

type tweet = {
  id : int;
  text : string;
  gt_weather : string option;
      (** canonical weather value, [None] for ambiguous tweets *)
  gt_place : string option;  (** city, [None] when the tweet names none *)
}

val default_count : int
(** 463 — the paper's corpus size. *)

val generate : ?seed:int -> int -> tweet list
(** [generate n] builds [n] tweets from [seed] (default 2013, the
    collection year). Each tweet is ambiguous about the weather with
    probability 0.25 and names no place with probability 0.15. *)

val corpus : unit -> tweet list
(** [generate default_count] with all defaults — the standard corpus every
    experiment uses. *)

val is_ambiguous : tweet -> bool
(** True iff the tweet has no ground-truth weather. *)

val pp : Format.formatter -> tweet -> unit
(** One-line rendering. *)
