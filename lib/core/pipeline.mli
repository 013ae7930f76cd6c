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
  Rng.t ->
  Graph.t ->
  beta:int ->
  eps:float ->
  result
(** [(1+ε)-approximate] matching of a graph with neighborhood independence
    ≤ beta.  Default matcher {!Approx_eps}, default Δ-multiplier 2.0.

    G_Δ is {!Gdelta.sparsify_seeded} keyed by one
    {!Mark_kernel.seed_of} draw from the generator, under [rule], built
    on the calling domain. *)

val sublinearity_ratio : result -> float
(** probes on input / 2m — below 1.0 means the pipeline read less than the
    input. *)
