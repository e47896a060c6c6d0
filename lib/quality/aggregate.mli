(** Statistics-based label aggregation.

    The paper's TweetPecker adopts a value when two workers agree first; it
    notes that CyLog can equally implement "other techniques for improving
    the quality of task results, such as statistics-based ones". This
    module provides the classical alternatives, used by the comparison
    experiment in the benchmark harness:

    - {!majority}: plurality voting per item;
    - {!em}: the one-coin Dawid–Skene model — jointly estimate a per-worker
      accuracy and a per-item consensus by expectation–maximisation, so
      reliable workers weigh more. *)

type vote = { item : string; worker : string; value : string }

val plurality : 'a list -> 'a option
(** Winning value of one item's votes in arrival order ([None] on an empty
    list) — the tally behind {!majority} and behind the quorum resolution
    of [Cylog.Engine], so engine-level redundant assignment and post-hoc
    aggregation agree. *)

val majority : vote list -> (string * string) list
(** Winning value per item (plurality; ties break toward the value voted
    earliest). Items appear in first-vote order. *)

type em_result = {
  consensus : (string * string) list;  (** item, most probable value *)
  posteriors : (string * (string * float) list) list;
      (** item, probability per candidate value *)
  worker_accuracy : (string * float) list;  (** estimated reliability *)
  iterations : int;  (** EM iterations until convergence *)
}

val em : vote list -> em_result
(** One-coin Dawid–Skene: each worker answers correctly with an unknown
    probability [a_w] and otherwise picks uniformly among the wrong
    candidates. E-step: posterior over values per item given accuracies;
    M-step: accuracies from expected correctness. Every worker starts at
    accuracy 0.7; EM stops when no accuracy moves by 1e-6 or more, or
    after 100 iterations.

    Deterministic: no randomness is involved, items appear in first-vote
    order, candidates and workers in lexicographic order, so identical
    votes yield an identical [em_result]. Exactly-tied posteriors break
    toward the lexicographically smallest candidate value (candidates are
    scanned in sorted order and a later candidate must strictly beat the
    incumbent) — unlike {!majority}, whose ties break toward the
    earliest-voted value, because EM posteriors carry no arrival order. *)

val accuracy_against :
  truth:(string -> string option) -> (string * string) list -> float
(** Fraction of aggregated labels matching a ground truth; items with no
    ground truth are skipped. 0 when nothing is comparable. *)
