(** The msparlint rule set MSP001–MSP011: a single [Tast_iterator] pass
    over one typed unit, matching identifiers by their resolved path. *)

val lint_unit : mli:string option -> Lint_typed.t -> Lint_types.finding list
(** Raw findings, unordered, before [[@lint.allow]] suppression (applied by
    {!Lint_engine}).  [mli] is the sibling interface's source: [None] is
    MSP006 where {!Lint_config.requires_mli} holds and disables MSP007,
    which reads the exported names and their [@raise] docs from it. *)
