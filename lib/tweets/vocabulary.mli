(** The weather vocabulary behind the synthetic #tenki corpus.

    The paper's dataset is 463 Japanese weather tweets collected over 16
    days in 2013; we substitute a seeded generator over a fixed vocabulary
    of weather conditions and cities. Each condition carries the canonical
    attribute value workers are expected to extract, the surface keywords
    that appear in tweet text, and the confusion values unreliable workers
    enter instead. *)

type condition = {
  value : string;  (** canonical extracted value, e.g. "rainy" *)
  keywords : string list;
      (** surface forms in tweet text, most common first, e.g. "rain",
          "drizzle" *)
  confusions : string list;  (** plausible wrong answers, e.g. "cloudy" *)
}

val conditions : condition list
(** The seven weather conditions of the corpus. *)

val condition_by_value : string -> condition option
(** Look up a condition by its canonical value. *)

val cities : string list
(** Japanese cities appearing as tweet locations. *)

val place_confusions : string list
(** Wrong answers workers give for the place attribute. *)

val vague_values : string list
(** Answers workers give on ambiguous tweets (classified "neither" by
    judges), most common first. *)

val unknown_place : string
(** The answer workers give when a tweet names no place. *)
