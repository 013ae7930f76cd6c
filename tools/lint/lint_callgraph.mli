(** Intra-package call graph over typed units.

    Nodes are toplevel [let] bindings (including bindings inside nested
    [module M = struct ... end], keyed by the innermost module name), named
    ["Module.binding"].  Edges are resolved [Texp_ident] references from one
    node's body to another node: same-unit references resolve by identifier
    stamp, cross-unit references by {!Lint_typed.norm_path}.  References
    through first-class values are over-approximated the same way — passing
    [f] to [List.iter] still records an edge to [f], which is exactly what a
    reachability analysis wants. *)

type node = {
  key : string;  (** ["Module.binding"] *)
  file : string;
  name : string;  (** binding name without the module prefix *)
  loc : Location.t;
  attrs : Parsetree.attributes;
  body : Typedtree.expression;
}

type t

val build : Lint_typed.t list -> t

val iter_nodes : t -> (node -> unit) -> unit

val resolve_ident : t -> file:string -> Ident.t -> string option
(** Node key for a [Pident] occurring in [file], when the identifier is one
    of that unit's toplevel bindings. *)

val callers : t -> string -> string list

val reachable : t -> string list -> (string, unit) Hashtbl.t
(** Keys reachable from [roots] (roots included when they are nodes). *)
