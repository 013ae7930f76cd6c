(** Fully dynamic undirected graph (fixed vertex set).

    Supports O(1)-expected edge insertion and deletion (hash-indexed
    swap-remove adjacency vectors) and O(1) uniform sampling of an incident
    edge — the primitive the dynamic sparsifier needs.  All adjacency reads
    are counted in a probe counter, mirroring {!Mspar_graph.Graph}. *)

open Mspar_prelude

type t

val create : int -> t
(** Edgeless dynamic graph on [n] vertices.
    @raise Invalid_argument if [n] is negative. *)

val n : t -> int
val m : t -> int
val degree : t -> int -> int

val has_edge : t -> int -> int -> bool
(** O(1) expected; not counted as a probe.
    @raise Invalid_argument if either endpoint is out of range. *)

val insert : t -> int -> int -> bool
(** [insert t u v] adds the edge; returns [false] (and changes nothing) if
    it was already present or [u = v].
    @raise Invalid_argument on out-of-range endpoints. *)

val delete : t -> int -> int -> bool
(** [delete t u v] removes the edge; returns [false] if absent. *)

val neighbor : t -> int -> int -> int
(** [neighbor t v i] is the [i]-th neighbor of [v] in the current internal
    order (which changes under deletion).  Counts one probe. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Counts [degree t v] probes. *)

val random_neighbor : t -> Rng.t -> int -> int option
(** Uniform incident neighbor, O(1); counts one probe. *)

val sample_neighbors : t -> Rng.t -> int -> k:int -> int list
(** [min k deg] distinct uniform neighbors of a vertex, O(k) expected;
    counts that many probes. *)

val probes : t -> int
val reset_probes : t -> unit

val non_isolated_count : t -> int
(** Number of vertices of positive degree; O(1). *)

val iter_non_isolated : t -> (int -> unit) -> unit
(** Iterate the vertices of positive degree in O(#non-isolated) — this is
    what lets a rebuild cost O(|MCM|·β·Δ) instead of O(n·Δ)
    (Lemma 2.2 + Obs 2.10).  Order is the hashtable's, i.e. unspecified
    and {e not} reproducible across restores, so consumers must not
    depend on it; the matching rebuild draws each vertex's marks from
    its own seeded stream. *)

val snapshot : t -> Mspar_graph.Graph.t
(** Immutable copy as a static graph; costs O(n + m) through the packed
    CSR builder, no boxed intermediates (audit/diagnostic use — the
    sublinear algorithms never call it). *)

val edges : t -> (int * int) list
(** Current edges, normalised and sorted. *)

val invariant_failures : t -> string list
(** Structural audit: adjacency/index coherence (every neighbor indexed
    at its true slot), symmetry of arcs, no self-loops or duplicates,
    active-set = vertices of positive degree, and arc count = 2m.  One
    message per violation; [[]] means healthy.  O(n + m). *)

val encode : t -> Buffer.t -> unit
(** Serialise for a snapshot blob.  The {e exact} adjacency order is
    preserved (sampling reads positions), so a decoded copy marks and
    samples exactly the positions the original would. *)

val decode : Codec.reader -> t
(** Inverse of {!encode}, with structural validation (range, symmetry,
    no duplicates, arc-count cross-check, and a {!Mspar_graph.Graph.audit}
    of the materialised CSR form).
    @raise Failure on validation failure.
    @raise Codec.Truncated on short input. *)
