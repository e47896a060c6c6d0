(** Public regex API used by extraction rules.

    A compiled pattern is immutable and reusable. Matching never backtracks
    (Pike VM), so worker-supplied conditions cannot blow up the engine. *)

type t

val compile : ?case_insensitive:bool -> string -> (t, Parse.error) result
(** [compile pattern] parses and compiles. With [~case_insensitive:true]
    (default [false]) ASCII letters match both cases. Never raises: a
    malformed pattern, a repetition bound past [max_int] and a pattern
    whose program would pass {!Nfa.compile}'s 100,000 instructions are all
    an [Error] — which is what lets the [matches] builtin and
    [Tweets.Extraction] treat any worker-entered pattern as data. *)

val compile_exn : ?case_insensitive:bool -> string -> t
(** Like {!compile}. @raise Invalid_argument on malformed patterns. *)

val pattern : t -> string
(** The source pattern. *)

val full_match : t -> string -> bool
(** [full_match re s] is true iff [re] matches all of [s]. *)

val search : t -> string -> bool
(** [search re s] is true iff [re] matches some substring of [s] — the
    semantics of the paper's [matches(cond, tw)] builtin: a tweet matches an
    extraction rule when the condition occurs in it. *)

val find : t -> string -> (int * int) option
(** Leftmost match as a [(start, stop)] byte span ([stop] exclusive);
    longest run for that start. *)

val find_all : t -> string -> (int * int) list
(** All non-overlapping matches, left to right. Empty matches advance by
    one byte so the scan always terminates. *)

val matched_string : string -> int * int -> string
(** [matched_string s span] extracts the span from [s]. *)

val replace : t -> by:string -> string -> string
(** Replace every non-overlapping match by [by]. *)

val is_valid : string -> bool
(** [is_valid p] is [Result.is_ok (compile p)] — used to screen
    worker-entered conditions. *)
