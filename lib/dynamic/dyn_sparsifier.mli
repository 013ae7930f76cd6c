(** Dynamically maintained G_Δ under an {e oblivious} adversary (§3.3).

    The paper first observes that against an oblivious adversary the
    sparsifier itself is easy to maintain with O(Δ) worst-case update time:
    after an update touching (u, v), discard the (at most Δ) edges marked
    {e due to} u and due to v and draw fresh marks for both endpoints.  The
    marks of different vertices stay mutually independent, so Theorem 2.1
    continues to apply to every snapshot — {e provided the adversary's
    updates do not depend on the algorithm's coins}.  (Against an adaptive
    adversary this argument collapses, which is why {!Dyn_matching} uses the
    stability-window scheme instead; the paper makes exactly this point.)

    Mark multiplicity is tracked per edge so that an edge marked by both
    endpoints survives the resampling of one of them. *)

open Mspar_prelude
open Mspar_graph

type t

type stats = {
  updates : int;
  total_resample_work : int;  (** marks drawn + discarded across updates *)
  max_update_work : int;
}

val create : Rng.t -> n:int -> delta:int -> t
(** @raise Invalid_argument if [delta < 1]. *)

val insert : t -> int -> int -> bool
(** Apply an insertion and resample both endpoints' marks. O(Δ). *)

val delete : t -> int -> int -> bool
(** Apply a deletion and resample both endpoints' marks. O(Δ). *)

val graph : t -> Dyn_graph.t

val sparsifier : t -> Graph.t
(** Snapshot of the current G_Δ (union of current marks). Costs O(n·Δ) to
    materialise; the maintained state itself is updated in O(Δ). *)

val sparsifier_edge_count : t -> int
(** Number of distinct currently marked edges, O(1). *)

val stats : t -> stats

val check_invariants : t -> bool
(** Every marked edge is a current graph edge; every vertex holds exactly
    min(Δ, deg) distinct marks; the multiplicity table and the distinct
    counter agree with a recount of the mark lists.  O(n·Δ).  For tests. *)
