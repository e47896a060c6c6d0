(** Worker belief model.

    A worker's belief about an attribute of a tweet is what they would type
    into the value form — drawn once per (worker, tweet, attribute) from a
    seeded distribution, so a worker answers consistently whether they type
    the value or judge a machine-extracted candidate.

    For a clear tweet the belief is the ground truth with probability
    [profile.accuracy] (weather) / [profile.place_accuracy] (place), and a
    confusion value otherwise. For ambiguous tweets the worker believes a
    vague value ("unsettled", ...), biased toward the most common one so
    that two of five workers eventually coincide; likewise placeless
    tweets mostly yield "unknown". *)

type t

val create : seed:int -> corpus:Tweets.Generator.tweet list -> t
(** Belief table over a corpus. Workers are identified by name. *)

val belief : t -> worker:Crowd.Worker.profile -> tweet_id:int -> attr:string -> string
(** The worker's (memoised) belief. @raise Invalid_argument on unknown
    tweet ids or attributes. *)
