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

let run ?(multiplier = 2.0) ?(matcher = Approx_eps) ?rule rng g ~beta ~eps =
  let delta = Delta_param.scaled ~multiplier ~beta ~eps in
  let sparsifier, stats =
    Gdelta.sparsify_seeded ?rule ~seed:(Mark_kernel.seed_of rng) g ~delta
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
