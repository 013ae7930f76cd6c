(** Multicore construction of G_Δ (OCaml 5 domains).

    The sparsifier construction is embarrassingly parallel: each vertex's
    marking is independent of every other vertex's (the very independence
    the proof of Theorem 2.1 exploits).  This module partitions the vertex
    set across the chunks of a persistent {!Mspar_prelude.Pool}, and each
    chunk runs the one marking loop, {!Gdelta.collect}, over its vertex
    range into a private packed buffer; the buffers feed the parallel CSR
    builder {!Graph.of_edgebufs_par} directly, so neither the buffer
    concatenation nor the counting sort ever runs sequentially, and the
    pool's worker domains are spawned once per process rather than once
    per call.

    Determinism across schedules: every vertex draws from its own
    generator {!Mspar_prelude.Rng.derive}[ ~seed v] (the [Split] source of
    {!Mark_kernel}), so the output is a pure function of
    [(seed, g, delta, rule)] — identical for any number of domains, any
    chunk count, and identical to {!Gdelta.sparsify_seeded}.  (This is the
    standard counter-based-RNG recipe for reproducible parallel Monte
    Carlo.)

    Probe accounting goes through the graph's atomic counter with one
    batched update per cache-sized block, so parallel probe totals are
    exact, not racy under-counts. *)

open Mspar_graph

val sparsify :
  ?pool:Mspar_prelude.Pool.t ->
  ?num_domains:int ->
  ?rule:Gdelta.mark_rule ->
  seed:int ->
  Graph.t ->
  delta:int ->
  Graph.t
(** Parallel construction over [num_domains] vertex chunks (default: the
    pool's size) executed on [pool] (default: the process-wide
    {!Mspar_prelude.Pool.get_default}), under [rule] (default
    {!Gdelta.Mark_all_at_most_two_delta}).  Output equals
    {!Gdelta.sparsify_seeded} with the same seed and rule for every pool
    size and chunk count; with one chunk the collector runs on the caller
    and the pool is never started.  Probes are added to [g]'s counter,
    which is not reset.
    @raise Invalid_argument if [delta < 1]. *)

val time_comparison :
  seed:int -> Graph.t -> delta:int -> domains:int list -> (int * float) list
(** [(d, milliseconds)] per domain count — the speedup curve for the
    benchmark harness.  Each measurement uses a fresh warmed pool of [d]
    domains, so it reflects the amortised steady state, not the spawn
    cost. *)
