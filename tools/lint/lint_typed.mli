(** The one lint frontend: every rule (MSP001–MSP014) and every
    [[@lint.allow]] span works on a typed unit.

    Two ways to obtain one:
    - {!load_units} reads the [-bin-annot] [.cmt] files dune emits under
      each root's [.objs]/[.eobjs] directories (also checked under
      [_build/default/<root>] when linting from the repo root);
    - {!typecheck_impl} drives [Typemod.type_structure] over an in-memory
      fixture, which is how the test suite exercises the rules without a
      dune build.

    Both produce the same {!t}, so rule logic never cares which frontend
    fed it. *)

type t = {
  file : string;  (** repo-relative source path, e.g. ["lib/core/gdelta.ml"] *)
  modname : string;  (** unwrapped module name, e.g. ["Gdelta"] *)
  str : Typedtree.structure;
}

val norm_path : Path.t -> string
(** Normalise a resolved path to its last two components, stripping dune's
    wrapped-library mangling: both ["Mspar_prelude__Pool.parallel_for_ranges"]
    and a fixture's local [module Pool] yield ["Pool.parallel_for_ranges"];
    ["Stdlib.Array.unsafe_set"] yields ["Array.unsafe_set"].  Single-component
    paths are returned as-is (after demangling). *)

val load_units : roots:string list -> (t list, string) result
(** All typed implementations whose [cmt_sourcefile] is a [.ml] under one of
    [roots] (a root may also name one [.ml] file).  Unreadable or
    interface-only [.cmt]s are skipped; duplicates (same source built into
    several stanzas) keep the first occurrence.  Deterministic order
    (sorted by source path).  [Error root] names a root with no unit at
    all — nothing was built there, and linting it would check nothing. *)

val typecheck_impl : file:string -> string -> (t, string) result
(** Type-check fixture [source] against the standard library, [unix], and
    the dune-built [Mspar_prelude] and [Mspar_graph] interfaces (both
    opened), located from the working directory — the repo root or a
    directory under [_build/default].  [Error] carries a compiler
    diagnostic when the fixture does not parse or type-check. *)
