(** The sequential sublinear-time pipeline (Theorem 3.1).

    Sparsify with G_Δ, then run a matcher on the sparsifier only.  The probe
    accounting separates what was read from the original graph (sublinear,
    O(n·Δ)) from work done on the sparsifier, making the theorem's
    "faster than reading the input" claim directly observable. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching

type matcher =
  | Exact  (** Edmonds blossom on the sparsifier. *)
  | Approx_eps  (** depth-limited / phase-limited (1+ε) matcher. *)
  | Greedy_2approx  (** greedy maximal on the sparsifier. *)

type result = {
  matching : Matching.t;
  delta : int;
  sparsifier_edges : int;
  probes_on_input : int;  (** adjacency reads of the original graph *)
  input_edges : int;  (** m of the original graph, for the sublinearity ratio *)
  sparsify_ns : int64;
  match_ns : int64;
}

val run :
  ?multiplier:float ->
  ?matcher:matcher ->
  ?rule:Gdelta.mark_rule ->
  ?pool:Pool.t ->
  Rng.t ->
  Graph.t ->
  beta:int ->
  eps:float ->
  result
(** [(1+ε)-approximate] matching of a graph with neighborhood independence
    ≤ beta.  Default matcher {!Approx_eps}, default Δ-multiplier 2.0.

    When [pool] is given, sparsification runs on the pool via
    {!Par_gdelta.sparsify}, under [rule] like the sequential path
    (per-vertex counter RNGs seeded from one draw of [rng], so the result
    is still deterministic in the caller's generator state — though not
    edge-for-edge identical to the sequential {!Gdelta} path, which
    consumes [rng] differently).  Probe accounting stays exact either
    way. *)

val sublinearity_ratio : result -> float
(** probes on input / 2m — below 1.0 means the pipeline read less than the
    input. *)
