(** The CyLog encoding of Turing machines — Figure 16 and Theorem 4.

    Any {!Machine.t} compiles into three relations and three CyLog rules:
    [TuringMachine(id, st, head)] holds the inner state and head position,
    [Tape(pos, sym)] the tape, [Rule(st, sym, new_st, new_sym, dir)] the
    transition function. One rule initialises, one extends the tape at
    unvisited positions, and one multi-head rule performs the transition
    atomically — exactly the paper's construction, proving CyLog Turing
    complete. The halting condition is encoded by the absence of
    transitions out of halting states: the engine simply reaches a
    fixpoint. *)

val to_source : Machine.t -> input:string list -> string
(** CyLog source text for the machine on the given input. *)

val load : Machine.t -> input:string list -> Cylog.Engine.t
(** Parse and load {!to_source}. *)

type run_result = {
  state : string;
  head : int;
  tape : (int * string) list;  (** non-blank cells, sorted *)
  engine_steps : int;
}

val run : Machine.t -> input:string list -> run_result
(** Execute the CyLog encoding to fixpoint (or 100,000 engine steps) and
    read the final configuration back out of the database. *)

val agrees_with_direct : Machine.t -> input:string list -> bool
(** Theorem 4 check: the CyLog encoding and the direct implementation halt
    in the same state with the same non-blank tape. The direct run gets
    {!Machine.run}'s default 10,000 steps and the encoding {!run}'s
    100,000; a direct run that does not halt is a disagreement. *)

(** An interactive machine witnessing class [G_*] (Theorem 3): the machine
    repeatedly asks a human to dictate the symbol under the head; each
    answer advances the head and re-arms the question, so the number of
    interaction phases cannot be bounded in advance. Dictating ["."]
    halts. *)
module Interactive : sig
  val source : string
  (** The CyLog program. *)

  val load : unit -> Cylog.Engine.t
  (** Fresh engine for the program. *)

  val dictate : Cylog.Engine.t -> string -> (unit, string) result
  (** Answer the current dictation question with one symbol. *)

  val run : answers:string list -> string
  (** Feed the answers in order (appending ["."] if absent) and return the
    final tape content. *)
end
