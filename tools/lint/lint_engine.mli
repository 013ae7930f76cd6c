(** [@lint.allow] suppression over typed units, and the per-fixture
    pipeline the test suite drives.

    Suppression forms:
    - [(expr [@lint.allow "MSP002"])] — the expression's span;
    - [let f x = ... [@@lint.allow "MSP002 MSP004"]] — the whole binding;
    - [[@@@lint.allow "MSP003"]] — the whole file.

    Payloads list rule codes separated by spaces or commas; ["*"] matches
    every rule.  Spans come from the unit's Typedtree attributes, so one
    mechanism covers MSP001–MSP014. *)

val suppress : Lint_typed.t list -> Lint_types.finding list -> Lint_types.finding list
(** Drop every finding that falls inside an allow span of the unit for
    its file.  Findings for files with no unit in the list pass
    through. *)

val lint_impl :
  file:string -> source:string -> mli:string option -> Lint_types.finding list
(** Lint one implementation given as text, as if it lived at [file]:
    type-check it with {!Lint_typed.typecheck_impl}, run MSP001–MSP011 and
    apply its [@lint.allow] spans.  [mli] is the sibling interface's
    source ([None] triggers MSP006 where {!Lint_config.requires_mli} holds
    and disables MSP007).  A source that does not parse or type-check
    yields the single finding [MSP000] carrying the compiler's diagnostic.
    Sorted. *)
