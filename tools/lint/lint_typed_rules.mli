(** Interprocedural rules over the typed AST (see doc/LINTS.md):

    - MSP012 — a module-level global written both inside the Server.run
      reactor and outside it;
    - MSP013 — per-element allocation inside [\[@@hot\]] functions;
    - MSP014 — probe accounting: every uncounted adjacency access in the
      CONGEST simulator must be dominated by a [Graph.add_probes] charge.

    Findings are raw — the driver applies [\[@lint.allow\]] spans via
    {!Lint_engine.suppress}. *)

type analysis

val prepare : Lint_typed.t list -> analysis
(** Build the call graph once; the three rules share it. *)

val msp012 : analysis -> Lint_types.finding list
val msp013 : analysis -> Lint_types.finding list
val msp014 : analysis -> Lint_types.finding list

val run : Lint_typed.t list -> Lint_types.finding list
(** All three rules, merged and sorted (convenience for tests). *)
