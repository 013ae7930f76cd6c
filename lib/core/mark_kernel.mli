(** The per-vertex marking decision of G_Δ (§3.1), as a pure replayable
    kernel.

    Factored out of the batch marking loop ({!Gdelta.collect}) so that
    a local-access oracle ([Mspar_lca.Oracle]) can recompute, for one
    vertex in isolation, exactly the adjacency positions the batch pass
    marked: the decision depends only on the rule, Δ, the vertex's
    degree and the generator it draws from.  Under the {!Split} source
    the generator itself is a pure function of [(seed, v)]
    ({!Mspar_prelude.Rng.derive}), so replay needs no global state at
    all — the QCheck suite pins oracle and builders together
    bit-for-bit. *)

open Mspar_prelude

type rule =
  | Mark_all_at_most_delta  (** §2 convention: full neighborhood iff deg ≤ Δ *)
  | Mark_all_at_most_two_delta  (** §3.1 tweak: full neighborhood iff deg ≤ 2Δ *)

val threshold : rule -> int -> int
(** The keep-all degree threshold: Δ or 2Δ. *)

val mark_count : rule -> delta:int -> degree:int -> int
(** Marks a vertex of this degree emits: [degree] when at most the
    threshold, [delta] otherwise.  This is also its deterministic probe
    budget. *)

type source = Stream of Rng.t | Split of { seed : int }
(** Where a vertex's randomness comes from.  [Stream] is the historical
    sequential discipline (one shared generator consumed in vertex
    order); [Split] derives vertex [v]'s generator from [(seed, v)] —
    locally replayable; the pooled builder ({!Par_gdelta}) uses it for
    every chunk. *)

val rng_for : source -> int -> Rng.t
(** The generator vertex [v] draws from.  For [Stream] this is the
    shared generator itself (call sites must visit vertices in
    ascending order for reproducibility); for [Split] a fresh derived
    generator. *)

val sampled_indices_into :
  Sampling.t -> Rng.t -> delta:int -> degree:int -> out:int array -> unit
(** The high-degree branch: the [delta] distinct adjacency positions
    (uniform, without replacement, in draw order) vertex [v] marks,
    written into [out].  Thin wrapper over
    {!Mspar_prelude.Sampling.sample_indices_into} so builders and oracle
    share one call shape.
    @raise Invalid_argument if [degree] exceeds the sampler capacity or
    [out] is shorter than [min delta degree]. *)
