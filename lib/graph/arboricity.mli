(** Uniform-sparsity measures: degeneracy and arboricity bounds.

    The arboricity α(G) = max_U ⌈|E(U)|/(|U|−1)⌉ (Nash–Williams) is NP-easy
    but needs matroid machinery to compute exactly; the library reports the
    standard sandwich instead:

    {ul
    {- [density_lower_bound]: ⌈m/(n'−1)⌉ over the whole graph (n' counts
       non-isolated vertices) — a lower bound on α;}
    {- [degeneracy]: the minimum d such that every subgraph has a vertex of
       degree ≤ d — satisfies α ≤ d ≤ 2α − 1, so it upper-bounds α within a
       factor 2.}}

    Observation 2.12 of the paper (arboricity of G_Δ ≤ 2Δ) is validated
    against both ends of the sandwich. *)


val degeneracy : Graph.t -> int
(** O(n + m) bucket algorithm. 0 for edgeless graphs. *)

val degeneracy_order : Graph.t -> int * int array
(** Degeneracy together with an elimination order in which every vertex has
    at most [degeneracy g] neighbors appearing later. *)

val density_lower_bound : Graph.t -> int
(** ⌈m/(n'−1)⌉ where n' is the number of non-isolated vertices; 0 when the
    graph has fewer than 2 non-isolated vertices. *)

val orient_by_degeneracy : Graph.t -> (int * int) array array
(** Each edge oriented from the endpoint eliminated first; result.(v) lists
    v's out-edges.  Every vertex has out-degree ≤ degeneracy — the workhorse
    for bounded-arboricity algorithms. *)
