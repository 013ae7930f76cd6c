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

    Every builder runs one marking loop, {!collect}: marks are collected
    as packed ints in a flat {!Mspar_prelude.Edgebuf} and turned into a
    CSR graph by counting sort ({!Graph.of_edgebuf}).  Every vertex [v]
    draws from its own generator {!Mspar_prelude.Rng.derive}[ ~seed v]
    ({!Mark_kernel}), so G_Δ is a pure function of
    [(seed, g, delta, rule)]: the same on the caller and on any pool,
    and replayable one vertex at a time by the LCA oracle.  The
    generator-taking builders key that build by one
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

val collect :
  rule:mark_rule -> seed:int -> Graph.t -> delta:int -> int -> int -> Edgebuf.t
(** [collect ~rule ~seed g ~delta lo hi] is the one marking loop: the
    packed marks [(v lsl shift) lor u] of the vertices [\[lo, hi)], with
    [shift = Graph.pack_shift ~n:(Graph.n g)], in emission order
    (vertices ascending; within a vertex, adjacency order when it keeps
    its whole neighborhood, draw order when it samples).  A sampled
    vertex draws through {!Mark_kernel.sampled_indices_into}[ ~seed v].
    Probes are added to [g]'s counter, never reset, with one atomic add
    per cache-sized block, so chunks running it concurrently on
    disjoint ranges keep the total exact.
    @raise Invalid_argument if [delta < 1] or the range is not inside
    [\[0, Graph.n g\]]. *)

val sparsify_seeded :
  ?rule:mark_rule ->
  ?pool:Pool.t ->
  seed:int ->
  Graph.t ->
  delta:int ->
  Graph.t * stats
(** [sparsify_seeded ~seed g ~delta] builds G_Δ, vertex [v] drawing from
    {!Mspar_prelude.Rng.derive}[ ~seed v] — the contract the LCA oracle
    ([Mspar_lca.Oracle]) queries against.  Default rule:
    {!Mark_all_at_most_two_delta}.  Probes counted on [g] are reset and
    measured across the call.  On a [pool] of several domains, one chunk
    per domain runs {!collect} and the parallel CSR builder joins them;
    without a pool, or on a 1-domain one, the collector runs on the
    caller.  The graph and stats other than [build_ns] are the same
    either way (QCheck-pinned).
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
