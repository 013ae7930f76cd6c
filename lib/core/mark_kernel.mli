(** The per-vertex marking decision of G_Δ (§3.1), as a pure replayable
    kernel.

    Every G_Δ in the library marks through it: the batch loop behind
    {!Gdelta.sparsify_seeded}, the one-round distributed
    protocol ([Mspar_distsim.Sparsify_dist]), the dynamic matcher's
    rebuild ([Mspar_dynamic.Dyn_matching]) and the local-access oracle
    ([Mspar_lca.Oracle]).  Which adjacency positions vertex [v] marks
    depends only on the rule, Δ, [v]'s degree and a build seed: [v]
    draws from {!Mspar_prelude.Rng.derive}[ ~seed v], so one vertex's
    marks can be replayed in isolation, in any order, on any domain —
    the QCheck suite pins oracle and builders together bit-for-bit. *)

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

val seed_of : Rng.t -> int
(** [seed_of rng] is the build seed a generator-taking caller keys
    G_Δ by: exactly [Int64.to_int (Rng.bits64 rng)], one draw, so the
    build is a pure function of the caller's generator state. *)

val sampled_indices_into :
  Sampling.t ->
  seed:int ->
  int ->
  delta:int ->
  degree:int ->
  out:int array ->
  unit
(** [sampled_indices_into sampler ~seed v ~delta ~degree ~out], the
    high-degree branch: the [delta] distinct adjacency positions
    (uniform, without replacement, in draw order) vertex [v] marks,
    drawn from {!Mspar_prelude.Rng.derive}[ ~seed v] and written into
    [out].
    @raise Invalid_argument if [degree] exceeds the sampler capacity or
    [out] is shorter than [min delta degree]. *)
