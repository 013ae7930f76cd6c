(** Matchings as mutable mate arrays.

    A matching on vertices [0 .. n-1] stores, for each vertex, its mate or
    [-1].  All algorithms in this library produce and consume this
    representation. *)

open Mspar_graph

type t

val create : int -> t
(** Empty matching on [n] vertices.
    @raise Invalid_argument if [n] is negative. *)

val n : t -> int
val size : t -> int
(** Number of matched edges. O(1). *)

val mate : t -> int -> int
(** Mate of a vertex, or [-1]. *)

val is_matched : t -> int -> bool

val add : t -> int -> int -> unit
(** [add t u v] matches [u] with [v].
    @raise Invalid_argument if [u = v] or either endpoint is already
    matched. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge t u v] unmatches the pair.
    @raise Invalid_argument if [u] and [v] are not mates. *)

val remove_vertex : t -> int -> unit
(** Unmatch [v] (no-op if free). *)

val copy : t -> t
val clear : t -> unit

val edges : t -> (int * int) list
(** Matched pairs, normalised (u < v), sorted. *)

val of_edges : n:int -> (int * int) list -> t

val iter_edges : t -> (int -> int -> unit) -> unit

val is_valid : Graph.t -> t -> bool
(** Every matched pair is an edge of the graph and the mate involution is
    consistent. *)

val is_maximal : Graph.t -> t -> bool
(** No graph edge has both endpoints free. *)

val is_perfect : t -> bool
(** Every vertex is matched. *)

val restrict_to : Graph.t -> t -> int
(** Drop matched pairs that are not edges of the graph (the pruning step of
    the dynamic schemes); returns how many pairs were dropped. *)

val augment_along : t -> int list -> unit
(** Flip matched/unmatched status along an augmenting path given as a
    vertex list (odd number of edges, free endpoints, alternating).
    @raise Invalid_argument if the path is not augmenting for this
    matching. *)

val symmetric_difference_paths : t -> t -> int
(** Number of connected components of the symmetric difference that are
    augmenting with respect to the first matching — used in tests of the
    stability lemma.
    @raise Invalid_argument if the two matchings have different sizes. *)

val pp : Format.formatter -> t -> unit
