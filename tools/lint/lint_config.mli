(** Where each msparlint rule applies: the one, compiled-in set of scopes
    (the reason for each sits next to it in [lint_config.ml]).  File
    arguments are repo-relative paths with [/] separators. *)

val congest_forbidden : string list
(** Identifier paths that count as direct adjacency access under MSP003. *)

val in_hot_dir : string -> bool
(** MSP002 (polymorphic compare) applies. *)

val in_congest_scope : string -> bool
(** MSP003 (CONGEST fidelity) and MSP014 apply: CONGEST protocol code,
    minus the network substrate. *)

val in_probe_scope : string -> bool
(** MSP014 (probe accounting) also applies here — the oracle layer reads
    adjacency through uncounted accessors and must charge the probe
    counter in the same function. *)

val requires_mli : string -> bool
(** MSP006 (.mli required) applies. *)

val rule_enabled : code:string -> file:string -> bool
(** False when an allow entry covers [file] for [code]. *)

val under_prefix : prefix:string -> string -> bool
(** Segment-aware prefix test: ["lib/graph"] covers ["lib/graph/x.ml"] but
    not ["lib/graphics/x.ml"]. *)
