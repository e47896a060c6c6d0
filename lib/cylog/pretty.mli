(** Pretty-printing of CyLog ASTs back to concrete syntax.

    [Parser.parse_exn] of a printed program yields a structurally equal
    program up to {!Ast.strip_program} (the printer always emits flat
    style, so block-style sugar is not preserved — the desugared rules
    are — and source spans are not reproduced). *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_atom : Format.formatter -> Ast.atom -> unit
val pp_lit : Format.formatter -> Ast.lit -> unit
val pp_literal : Format.formatter -> Ast.literal -> unit
val pp_head_node : Format.formatter -> Ast.head_node -> unit
val pp_head : Format.formatter -> Ast.head -> unit
val pp_statement : Format.formatter -> Ast.statement -> unit
val pp_game : Format.formatter -> Ast.game_decl -> unit
val pp_program : Format.formatter -> Ast.program -> unit

val program_to_string : Ast.program -> string

val pp_precedence : Format.formatter -> Precedence.t -> unit
(** Text rendering of a precedence graph: vertices ([R_q] style) and
    edges with their direction ([->] forward, [-->] backward), as in
    Figure 14. *)

(** {1 Journal events}

    One-line human-readable renderings of the engine's event journal —
    the shared formatting behind the CLIs' trace output and the REPL's
    [:events] pager (see docs/OBSERVABILITY.md). *)

val pp_effect : Format.formatter -> Engine.effect -> unit
(** e.g. [+Out(x:1)], [-R x2], [open #4], [vote #4 (2 banked)],
    [dead #4 (timed out)], [payoff alice+1]. *)

val pp_event : Format.formatter -> Engine.event -> unit
(** One line: clock, rule label (or statement index), worker for
    human-caused events, valuation, then each effect. *)

val quality_json : Engine.t -> string
(** The engine's quality state as one JSON object:
    [{"workers": {w: {"reliability", "observations"}},
      "tasks": {id: {"relation", "votes", "uncertainty",
                     "posteriors": {attr: [{"value", "posterior"}]}}}}] —
    what [tweetpecker --quality-out] writes and the REPL's [:quality]
    prints. Shares {!Telemetry.json_escape} with the metrics/span
    printers. *)
