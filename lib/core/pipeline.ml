open Mspar_prelude
open Mspar_graph
open Mspar_matching

type matcher = Exact | Approx_eps | Greedy_2approx

type result = {
  matching : Matching.t;
  delta : int;
  sparsifier_edges : int;
  probes_on_input : int;
  input_edges : int;
  sparsify_ns : int64;
  match_ns : int64;
}

(* The pooled path: construct G_Δ with the multicore builder on a
   persistent domain pool, under either marking rule.  One seed drawn
   from [rng] keys the per-vertex counter RNGs, so the run is still a
   pure function of the caller's generator state.  Under both rules every
   adjacency probe emits exactly one mark (deg reads for kept
   neighborhoods, Δ sampled reads otherwise), so [marks = probes]. *)
let sparsify_pooled ?rule pool rng g ~delta =
  Graph.reset_probes g;
  let seed = Int64.to_int (Rng.bits64 rng) in
  let sparsifier, build_ns =
    Clock.time_ns (fun () -> Par_gdelta.sparsify ~pool ?rule ~seed g ~delta)
  in
  let probes = Graph.probes g in
  ( sparsifier,
    {
      Gdelta.delta;
      marks = probes;
      edges = Graph.m sparsifier;
      probes;
      build_ns;
    } )

let run ?(multiplier = 2.0) ?(matcher = Approx_eps) ?rule ?pool rng g ~beta ~eps
    =
  let delta = Delta_param.scaled ~multiplier ~beta ~eps in
  let sparsifier, stats =
    match pool with
    | Some pool -> sparsify_pooled ?rule pool rng g ~delta
    | None -> Gdelta.sparsify ?rule rng g ~delta
  in
  let matching, match_ns =
    Clock.time_ns (fun () ->
        match matcher with
        | Exact -> Blossom.solve sparsifier
        | Approx_eps -> Approx.solve_general ~eps sparsifier
        | Greedy_2approx -> Greedy.maximal sparsifier)
  in
  {
    matching;
    delta;
    sparsifier_edges = stats.Gdelta.edges;
    probes_on_input = stats.Gdelta.probes;
    input_edges = Graph.m g;
    sparsify_ns = stats.Gdelta.build_ns;
    match_ns;
  }

let sublinearity_ratio r =
  if r.input_edges = 0 then 0.0
  else float_of_int r.probes_on_input /. float_of_int (2 * r.input_edges)
