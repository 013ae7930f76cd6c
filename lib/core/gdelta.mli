(** The random matching sparsifier G_Δ (Section 2 of the paper).

    Every vertex marks Δ of its incident edges uniformly at random without
    replacement (all of them if its degree is at most the threshold); the
    sparsifier is the union of marked edges.  Marking uses the read-only
    emulated-swap sampler ({!Mspar_prelude.Sampling}), so construction costs
    a deterministic O(Δ) adjacency probes per vertex — the measured probe
    count is returned so sublinearity can be verified against m.

    Two threshold conventions appear in the paper:
    {ul
    {- §2: mark all neighbors when deg(v) ≤ Δ;}
    {- §3.1 ("the tweak"): mark all neighbors when deg(v) ≤ 2Δ, which keeps
       per-vertex sampling O(Δ) with the simple rejection-free sampler at
       the cost of a factor ≤ 2 in size/arboricity.}}

    Both are available via [?rule]; the default is the §3.1
    convention.

    The random builders run one marking loop on the calling domain:
    marks are collected as packed ints in a flat {!Mspar_prelude.Edgebuf}
    and turned into a CSR graph by counting sort ({!Graph.of_edgebuf}),
    in the O(n·Δ) of Thm 3.1's sequential build.  Every vertex [v] draws
    from its own generator {!Mspar_prelude.Rng.derive}[ ~seed v]
    ({!Mark_kernel}), so G_Δ is a pure function of
    [(seed, g, delta, rule)], replayable one vertex at a time by the LCA
    oracle.  The generator-taking builders key that build by one
    {!Mark_kernel.seed_of} draw. *)

open Mspar_prelude
open Mspar_graph

type stats = {
  delta : int;  (** the Δ used *)
  marks : int;  (** total (vertex, edge) marking events *)
  edges : int;  (** edges in the sparsifier (marks minus duplicates) *)
  probes : int;  (** adjacency-array reads consumed by the construction *)
  build_ns : int64;  (** wall-clock construction time *)
}

type mark_rule = Mark_kernel.rule =
  | Mark_all_at_most_delta  (** §2 convention: full neighborhood iff deg ≤ Δ *)
  | Mark_all_at_most_two_delta  (** §3.1 tweak: full neighborhood iff deg ≤ 2Δ *)

val sparsify_seeded :
  ?rule:mark_rule -> seed:int -> Graph.t -> delta:int -> Graph.t * stats
(** [sparsify_seeded ~seed g ~delta] builds G_Δ, vertex [v] drawing from
    {!Mspar_prelude.Rng.derive}[ ~seed v] — the contract the LCA oracle
    ([Mspar_lca.Oracle]) queries against.  Default rule:
    {!Mark_all_at_most_two_delta}.  Probes counted on [g] are reset and
    measured across the call: one per mark, so [probes = marks].
    @raise Invalid_argument if [delta < 1]. *)

val sparsify :
  ?rule:mark_rule -> Rng.t -> Graph.t -> delta:int -> Graph.t * stats
(** [sparsify rng g ~delta] is {!sparsify_seeded} keyed by
    {!Mark_kernel.seed_of}[ rng]: one draw from [rng]. *)

val marked_pairs :
  ?rule:mark_rule -> Rng.t -> Graph.t -> delta:int -> (int * int) list
(** The raw marked pairs of {!sparsify}'s build (possibly containing an
    edge twice, once per marking endpoint) without building the
    subgraph. *)

val marked_codes :
  ?rule:mark_rule -> Rng.t -> Graph.t -> delta:int -> Edgebuf.t * int
(** The marking hot path in isolation: the packed mark codes
    [(v lsl shift) lor u] of {!sparsify}'s build exactly as the
    cache-blocked collector emits them, plus the shift used — no CSR
    build.  Used by the bench harness to time marking separately from
    construction.
    @raise Invalid_argument if [delta < 1]. *)

val marked_codes_seeded :
  ?rule:mark_rule -> seed:int -> Graph.t -> delta:int -> Edgebuf.t * int
(** {!marked_codes} of {!sparsify_seeded}'s build — the materialized
    reference the oracle parity tests compare against, mark-for-mark.
    @raise Invalid_argument if [delta < 1]. *)

val deterministic_first_k : Graph.t -> delta:int -> Graph.t
(** The strawman of Lemma 2.13: every vertex deterministically marks its
    first Δ adjacency-array entries.  Exhibits approximation ratio n/(2Δ)
    on the clique-minus-edge family.
    @raise Invalid_argument if [delta < 1]. *)
