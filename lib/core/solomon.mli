(** Solomon's ITCS'18 bounded-degree matching sparsifier (paper §3.2).

    For graphs of arboricity α: every vertex marks Δ_α = Θ(α/ε) arbitrary
    incident edges, and only edges marked by {e both} endpoints are kept.
    The result is a (1+ε)-matching sparsifier with maximum degree ≤ Δ_α.
    Unlike G_Δ this construction is deterministic — bounded arboricity is
    what makes arbitrary marking safe (Lemma 2.13 shows it is unsafe under
    mere bounded neighborhood independence). *)

open Mspar_graph

val delta_alpha : alpha:int -> eps:float -> int
(** ⌈c·α/ε⌉ with c = 4 (the constant used throughout this library; the
    asymptotics only need Θ(α/ε)). Always ≥ 1.
    @raise Invalid_argument unless [0 < eps < 1] and [alpha >= 0]. *)

val sparsify : Graph.t -> delta_alpha:int -> Graph.t
(** Keep exactly the edges marked by both endpoints, where every vertex
    marks its first [delta_alpha] adjacency entries.  Maximum degree of the
    result is ≤ [delta_alpha] by construction.
    @raise Invalid_argument if [delta_alpha < 1]. *)
