(* Degenerate-input hardening: every public entry point on empty graphs,
   single vertices, single edges, and boundary parameters.  The library
   should either work or reject with a clear Invalid_argument — never crash
   with an array error or loop forever. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Graph layer                                                        *)
(* ------------------------------------------------------------------ *)

let test_empty_graph_everything () =
  let g = Gen.empty 0 in
  check "n=0 n" 0 (Graph.n g);
  check "n=0 m" 0 (Graph.m g);
  check "n=0 max degree" 0 (Graph.max_degree g);
  check_bool "n=0 edges" true (Graph.edges g = [||]);
  check "n=0 degeneracy" 0 (Arboricity.degeneracy g);
  check "n=0 density" 0 (Arboricity.density_lower_bound g);
  check "n=0 beta" 0 (Beta.value (Beta.compute g));
  check "n=0 mcm" 0 (Brute_force.mcm_size g);
  check "n=0 blossom" 0 (Matching.size (Blossom.solve g));
  check "n=0 greedy" 0 (Matching.size (Greedy.maximal g));
  check "n=0 hk" 0 (Matching.size (Hopcroft_karp.solve g))

let test_single_vertex () =
  let g = Gen.empty 1 in
  check "deg" 0 (Graph.degree g 0);
  check "blossom" 0 (Matching.size (Blossom.solve g));
  check "beta" 0 (Beta.value (Beta.compute g));
  let m, st = Mspar_distsim.Det_matching.maximal g in
  check "det matching empty" 0 (Matching.size m);
  check "det rounds zero" 0 st.Mspar_distsim.Det_matching.rounds

let test_single_edge () =
  let g = Graph.of_edges ~n:2 [ (0, 1) ] in
  check "blossom" 1 (Matching.size (Blossom.solve g));
  check "greedy" 1 (Matching.size (Greedy.maximal g));
  check "hk" 1 (Matching.size (Hopcroft_karp.solve g));
  check "bounded" 1 (Matching.size (Blossom.solve_bounded ~max_len:1 g));
  check "beta" 1 (Beta.value (Beta.compute g));
  check "degeneracy" 1 (Arboricity.degeneracy g);
  let m, _ = Mspar_distsim.Det_matching.maximal g in
  check "det" 1 (Matching.size m);
  let a = Blossom.tutte_berge_witness g (Blossom.solve g) in
  check "tutte-berge" 0 (Blossom.deficiency_formula g ~a)

(* ------------------------------------------------------------------ *)
(* Sparsifiers on degenerate inputs                                   *)
(* ------------------------------------------------------------------ *)

let test_sparsifiers_on_empty () =
  let g = Gen.empty 4 in
  let rng = Rng.create 1 in
  let s, st = Mspar_core.Gdelta.sparsify rng g ~delta:3 in
  check "gdelta of empty" 0 (Graph.m s);
  check "no probes" 0 st.Mspar_core.Gdelta.probes;
  check "solomon of empty" 0
    (Graph.m (Mspar_core.Solomon.sparsify g ~delta_alpha:2));
  check "edcs of empty" 0 (Graph.m (Mspar_core.Edcs.construct g ~bound:3));
  let s, dst = Mspar_distsim.Sparsify_dist.gdelta rng g ~delta:2 in
  check "dist gdelta of empty" 0 (Graph.m s);
  check "dist one round still" 1 dst.Mspar_distsim.Sparsify_dist.rounds;
  check "dist zero messages" 0 dst.Mspar_distsim.Sparsify_dist.messages;
  let s, _, _ = Mspar_stream.Stream_sparsifier.run rng ~n:4 ~delta:2 [||] in
  check "stream of empty" 0 (Graph.m s);
  let par = Mspar_core.Par_gdelta.sparsify ~num_domains:3 ~seed:1 g ~delta:2 in
  check "parallel of empty" 0 (Graph.m par)

let test_pipelines_on_tiny () =
  let rng = Rng.create 2 in
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let r = Mspar_core.Pipeline.run rng g ~beta:1 ~eps:0.5 in
  check "pipeline tiny" 1 (Matching.size r.Mspar_core.Pipeline.matching);
  let d = Mspar_distsim.Pipeline_dist.run ~attempts_per_phase:2 rng g ~beta:1 ~eps:0.5 in
  check "dist pipeline tiny" 1
    (Matching.size d.Mspar_distsim.Pipeline_dist.matching);
  let cfg = { Mspar_mpc.Mpc.machines = 2; capacity = 1000 } in
  let m = Mspar_mpc.Mpc_matching.run rng cfg g ~beta:1 ~eps:0.5 in
  check "mpc tiny" 1 (Matching.size m.Mspar_mpc.Mpc_matching.matching)

let test_dynamic_on_tiny () =
  let rng = Rng.create 3 in
  let dm = Mspar_dynamic.Dyn_matching.create rng ~n:2 ~beta:1 ~eps:0.5 in
  check_bool "insert" true (Mspar_dynamic.Dyn_matching.insert dm 0 1);
  check "size" 1 (Mspar_dynamic.Dyn_matching.size dm);
  check_bool "delete" true (Mspar_dynamic.Dyn_matching.delete dm 0 1);
  check "size back" 0 (Mspar_dynamic.Dyn_matching.size dm);
  (* n = 0 dynamic structures *)
  let dg = Mspar_dynamic.Dyn_graph.create 0 in
  check "dyn n=0" 0 (Mspar_dynamic.Dyn_graph.m dg);
  let ds = Mspar_dynamic.Dyn_sparsifier.create rng ~n:0 ~delta:1 in
  check_bool "dyn sparsifier n=0 invariants" true
    (Mspar_dynamic.Dyn_sparsifier.check_invariants ds)

(* ------------------------------------------------------------------ *)
(* Parameter boundaries                                               *)
(* ------------------------------------------------------------------ *)

let test_parameter_boundaries () =
  (* eps at the edges of (0,1) *)
  check_bool "eps near 0 gives big delta" true
    (Mspar_core.Delta_param.scaled ~multiplier:1.0 ~beta:1 ~eps:0.01 > 100);
  check_bool "eps near 1 gives small delta" true
    (Mspar_core.Delta_param.scaled ~multiplier:1.0 ~beta:1 ~eps:0.99 >= 1);
  Alcotest.check_raises "eps = 1 rejected"
    (Invalid_argument "Delta_param: eps must lie in (0, 1)") (fun () ->
      ignore (Mspar_core.Delta_param.scaled ~multiplier:1.0 ~beta:1 ~eps:1.0));
  Alcotest.check_raises "negative multiplier"
    (Invalid_argument "Delta_param: multiplier must be positive") (fun () ->
      ignore (Mspar_core.Delta_param.scaled ~multiplier:(-1.0) ~beta:1 ~eps:0.5));
  (* delta exceeding every degree keeps the whole graph *)
  let g = Gen.complete 10 in
  let s, _ = Mspar_core.Gdelta.sparsify (Rng.create 0) g ~delta:100 in
  check_bool "huge delta keeps everything" true (Graph.equal s g);
  (* phases_for boundaries *)
  check "phases_for 1.0" 1 (Approx.phases_for 1.0);
  check "phases_for 0.5" 2 (Approx.phases_for 0.5);
  check "phases_for 0.33" 4 (Approx.phases_for 0.33)

let test_matching_degenerate () =
  let m = Matching.create 0 in
  check "empty matching size" 0 (Matching.size m);
  check_bool "edges empty" true (Matching.edges m = []);
  check "sym diff with self" 0 (Matching.symmetric_difference_paths m m);
  let g = Gen.empty 0 in
  check_bool "valid on empty graph" true (Matching.is_valid g m);
  check_bool "maximal on empty graph" true (Matching.is_maximal g m)

let test_network_degenerate () =
  let net = Mspar_distsim.Network.create (Gen.empty 0) in
  Mspar_distsim.Network.deliver net;
  check "deliver on empty network" 1 (Mspar_distsim.Network.rounds net);
  let net = Mspar_distsim.Network.create (Gen.empty 3) in
  check "neighbors of isolated" 0
    (Array.length (Mspar_distsim.Network.neighbors net 1))

let test_beta_star_vs_bound () =
  (* the regime condition fails when beta ~ n: the theorems exclude stars *)
  let g = Gen.star 200 in
  let beta = Beta.value (Beta.compute g) in
  check "star beta" 199 beta;
  check_bool "regime excluded" false
    (Mspar_core.Delta_param.regime_ok ~n:200 ~beta ~eps:0.2)

let () =
  Alcotest.run "mspar_edge_cases"
    [
      ( "degenerate-graphs",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph_everything;
          Alcotest.test_case "single vertex" `Quick test_single_vertex;
          Alcotest.test_case "single edge" `Quick test_single_edge;
        ] );
      ( "degenerate-sparsifiers",
        [
          Alcotest.test_case "sparsifiers on empty" `Quick
            test_sparsifiers_on_empty;
          Alcotest.test_case "pipelines on tiny" `Quick test_pipelines_on_tiny;
          Alcotest.test_case "dynamic on tiny" `Quick test_dynamic_on_tiny;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "parameters" `Quick test_parameter_boundaries;
          Alcotest.test_case "matching degenerate" `Quick
            test_matching_degenerate;
          Alcotest.test_case "network degenerate" `Quick test_network_degenerate;
          Alcotest.test_case "beta regime" `Quick test_beta_star_vs_bound;
        ] );
    ]
