(* Tests for mspar_core: the G_delta sparsifier (Theorem 2.1 and its
   supporting observations), the Solomon bounded-degree sparsifier, the
   composed two-round sparsifier, and the sequential pipeline. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Delta_param                                                        *)
(* ------------------------------------------------------------------ *)

let test_delta_param () =
  let d1 = Delta_param.scaled ~multiplier:1.0 ~beta:1 ~eps:0.5 in
  let d2 = Delta_param.scaled ~multiplier:2.0 ~beta:1 ~eps:0.5 in
  check_bool "multiplier monotone" true (d2 >= d1);
  let d3 = Delta_param.scaled ~multiplier:1.0 ~beta:2 ~eps:0.5 in
  check_bool "beta monotone" true (d3 >= d1);
  let d4 = Delta_param.scaled ~multiplier:1.0 ~beta:1 ~eps:0.1 in
  check_bool "eps monotone" true (d4 >= d1);
  check_bool "paper >= practical" true
    (Delta_param.paper ~beta:3 ~eps:0.2 >= Delta_param.practical ~beta:3 ~eps:0.2);
  Alcotest.check_raises "eps = 0 rejected"
    (Invalid_argument "Delta_param: eps must lie in (0, 1)") (fun () ->
      ignore (Delta_param.paper ~beta:1 ~eps:0.0));
  Alcotest.check_raises "beta = 0 rejected"
    (Invalid_argument "Delta_param: beta must be >= 1") (fun () ->
      ignore (Delta_param.paper ~beta:0 ~eps:0.5));
  check_bool "regime holds for dense reasonable case" true
    (Delta_param.regime_ok ~n:10_000 ~beta:2 ~eps:0.5);
  check_bool "regime fails for beta ~ n" false
    (Delta_param.regime_ok ~n:10_000 ~beta:9_999 ~eps:0.1)

(* ------------------------------------------------------------------ *)
(* Gdelta structure                                                   *)
(* ------------------------------------------------------------------ *)

let test_gdelta_is_subgraph () =
  let rng = Rng.create 1 in
  for _ = 0 to 9 do
    let g = Gen.gnp rng ~n:40 ~p:0.3 in
    let s, stats = Gdelta.sparsify rng g ~delta:4 in
    check_bool "subgraph" true (Graph.is_subgraph ~sub:s ~super:g);
    check "edge count in stats" (Graph.m s) stats.Gdelta.edges;
    check_bool "marks >= edges" true (stats.Gdelta.marks >= stats.Gdelta.edges)
  done

let test_gdelta_low_degree_keeps_all () =
  let rng = Rng.create 2 in
  (* a path has max degree 2 <= delta: the sparsifier must be the graph *)
  let g = Gen.path 30 in
  let s, _ = Gdelta.sparsify rng g ~delta:2 in
  check_bool "path preserved" true (Graph.equal s g);
  (* rule Mark_all_at_most_delta with delta = 3: every vertex of degree <= 3
     keeps its whole neighborhood *)
  let g = Gen.gnp rng ~n:30 ~p:0.1 in
  let s, _ =
    Gdelta.sparsify ~rule:Gdelta.Mark_all_at_most_delta rng g ~delta:3
  in
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v <= 3 then
      Graph.iter_neighbors g v (fun u ->
          check_bool "low-degree edge kept" true (Graph.has_edge s v u))
  done

let test_gdelta_min_degree_guarantee () =
  (* every vertex marks min(deg, delta) edges, so its sparsifier degree is
     at least that *)
  let rng = Rng.create 3 in
  let g = Gen.gnp rng ~n:60 ~p:0.4 in
  let delta = 5 in
  let s, _ = Gdelta.sparsify rng g ~delta in
  for v = 0 to Graph.n g - 1 do
    check_bool "degree lower bound" true
      (Graph.degree s v >= min (Graph.degree g v) delta)
  done

let test_gdelta_size_bounds () =
  let rng = Rng.create 4 in
  let g = Gen.complete 80 in
  let delta = 6 in
  let s, stats = Gdelta.sparsify rng g ~delta in
  check_bool "naive size bound" true (Graph.m s <= Graph.n g * 2 * delta);
  check_bool "probes linear in n*delta" true
    (stats.Gdelta.probes <= Graph.n g * 2 * delta);
  check_bool "probes sublinear vs m" true (stats.Gdelta.probes < 2 * Graph.m g)

let test_gdelta_determinism () =
  let g = Gen.gnp (Rng.create 5) ~n:50 ~p:0.3 in
  let s1, _ = Gdelta.sparsify (Rng.create 77) g ~delta:4 in
  let s2, _ = Gdelta.sparsify (Rng.create 77) g ~delta:4 in
  check_bool "same seed, same sparsifier" true (Graph.equal s1 s2);
  let s3, _ = Gdelta.sparsify (Rng.create 78) g ~delta:4 in
  check_bool "different seed differs" false (Graph.equal s1 s3)

let test_gdelta_rejects_bad_delta () =
  let g = Gen.path 4 in
  Alcotest.check_raises "delta 0" (Invalid_argument "Gdelta: delta must be >= 1")
    (fun () -> ignore (Gdelta.sparsify (Rng.create 0) g ~delta:0))

let test_gdelta_probe_exactness () =
  (* the probe counter accounts every read: the total equals the
     closed-form per-vertex cost of the rule, and every probe is a mark *)
  let rng = Rng.create 77 in
  let g = Gen.gnp rng ~n:300 ~p:0.2 in
  let delta = 4 in
  List.iter
    (fun (rule, keep) ->
      let expected = ref 0 in
      for v = 0 to Graph.n g - 1 do
        let d = Graph.degree g v in
        expected := !expected + (if d <= keep then d else delta)
      done;
      Graph.reset_probes g;
      let _, st = Gdelta.sparsify_seeded ~rule ~seed:5 g ~delta in
      check "sequential probes" !expected (Graph.probes g);
      check "probes exact" !expected st.Gdelta.probes;
      check "marks = probes" !expected st.Gdelta.marks)
    [
      (Gdelta.Mark_all_at_most_two_delta, 2 * delta);
      (Gdelta.Mark_all_at_most_delta, delta);
    ]

(* ------------------------------------------------------------------ *)
(* Theorem 2.1: approximation quality                                 *)
(* ------------------------------------------------------------------ *)

let ratio_on g ~beta ~eps ~multiplier rng =
  let delta = Delta_param.scaled ~multiplier ~beta ~eps in
  let s, _ = Gdelta.sparsify rng g ~delta in
  let opt_g = Matching.size (Blossom.solve g) in
  let opt_s = Matching.size (Blossom.solve s) in
  Properties.approximation_ratio ~mcm_g:opt_g ~mcm_sparsifier:opt_s

let test_theorem_2_1_families () =
  let rng = Rng.create 6 in
  let eps = 0.5 in
  let r = ratio_on (Gen.complete 60) ~beta:1 ~eps ~multiplier:1.0 rng in
  check_bool (Printf.sprintf "K60 ratio %.3f" r) true (r <= 1.0 +. eps);
  let lg = Line_graph.random_base rng ~base_n:16 ~p:0.5 in
  let r = ratio_on lg ~beta:2 ~eps ~multiplier:1.0 rng in
  check_bool (Printf.sprintf "line graph ratio %.3f" r) true (r <= 1.0 +. eps);
  let udg, _ = Unit_disk.random rng ~n:120 ~radius:0.2 in
  let r = ratio_on udg ~beta:5 ~eps ~multiplier:1.0 rng in
  check_bool (Printf.sprintf "unit disk ratio %.3f" r) true (r <= 1.0 +. eps);
  let dc = Gen.disjoint_cliques rng ~n:90 ~k:5 in
  let r = ratio_on dc ~beta:1 ~eps ~multiplier:1.0 rng in
  check_bool (Printf.sprintf "cliques ratio %.3f" r) true (r <= 1.0 +. eps)

let test_theorem_2_1_repeated_trials () =
  (* the guarantee is whp: run many independent trials on one instance *)
  let rng = Rng.create 7 in
  let g = Gen.complete 50 in
  let eps = 0.5 in
  let delta = Delta_param.scaled ~multiplier:1.0 ~beta:1 ~eps in
  let opt = Matching.size (Blossom.solve g) in
  for _ = 1 to 20 do
    let s, _ = Gdelta.sparsify rng g ~delta in
    let opt_s = Matching.size (Blossom.solve s) in
    check_bool "trial within 1+eps" true
      (float_of_int opt <= (1.0 +. eps) *. float_of_int opt_s)
  done

(* ------------------------------------------------------------------ *)
(* Obs 2.10 / 2.12 / Lemma 2.2                                        *)
(* ------------------------------------------------------------------ *)

let test_obs_2_10_size () =
  let rng = Rng.create 8 in
  List.iter
    (fun (g, beta) ->
      let delta = 5 in
      let s, _ = Gdelta.sparsify rng g ~delta in
      let mcm = Matching.size (Blossom.solve g) in
      check_bool "size bound obs 2.10" true
        (Properties.size_bound_obs_2_10 ~sparsifier:s ~mcm_size:mcm ~delta
           ~beta))
    [
      (Gen.complete 40, 1);
      (Gen.disjoint_cliques rng ~n:60 ~k:4, 1);
      (Line_graph.random_base rng ~base_n:14 ~p:0.5, 2);
    ]

let test_obs_2_12_arboricity () =
  let rng = Rng.create 9 in
  List.iter
    (fun delta ->
      let g = Gen.complete 70 in
      let s, _ = Gdelta.sparsify rng g ~delta in
      check_bool "density lower bound <= 4 delta" true
        (Properties.arboricity_bound_obs_2_12 ~sparsifier:s ~delta);
      check_bool "degeneracy sandwich" true
        (Properties.degeneracy_within ~sparsifier:s ~delta))
    [ 2; 5; 10 ]

let test_lemma_2_2 () =
  let rng = Rng.create 10 in
  List.iter
    (fun (g, beta) ->
      let mcm = Matching.size (Blossom.solve g) in
      check_bool "lemma 2.2" true
        (Properties.mcm_lower_bound_lemma_2_2 g ~mcm_size:mcm ~beta))
    [
      (Gen.complete 30, 1);
      (Gen.star 10, 9);
      (Gen.cycle 15, 2);
      (Gen.disjoint_cliques rng ~n:40 ~k:3, 1);
      (fst (Unit_disk.random rng ~n:80 ~radius:0.3), 5);
    ]

(* ------------------------------------------------------------------ *)
(* Lemma 2.13: deterministic marking fails                            *)
(* ------------------------------------------------------------------ *)

let test_lemma_2_13_deterministic_fails () =
  (* On K_n minus an edge among high-indexed vertices, first-k marking
     concentrates all sparsifier edges on low-indexed vertices, capping the
     matching near delta while MCM(G) = n/2. *)
  let n = 60 and delta = 4 in
  let g = Gen.clique_minus_edge ~n ~missing:(n - 1, n - 2) in
  let s = Gdelta.deterministic_first_k g ~delta in
  let det = Matching.size (Blossom.solve s) in
  let opt = Matching.size (Blossom.solve g) in
  check "clique minus edge has near-perfect matching" (n / 2) opt;
  check_bool
    (Printf.sprintf "deterministic matching small: %d vs opt %d" det opt)
    true
    (det <= (2 * delta) + 2);
  let rng = Rng.create 11 in
  let sr, _ = Gdelta.sparsify rng g ~delta in
  let rand = Matching.size (Blossom.solve sr) in
  check_bool
    (Printf.sprintf "randomized beats deterministic: %d vs %d" rand det)
    true (rand > 2 * det)

(* ------------------------------------------------------------------ *)
(* Obs 2.14: exact preservation needs delta ~ n                       *)
(* ------------------------------------------------------------------ *)

let test_obs_2_14_bridge_probability () =
  let half = 51 in
  let g, (a, b) = Gen.two_cliques_bridge ~half in
  let n = 2 * half in
  let delta = 5 in
  let rng = Rng.create 12 in
  let trials = 400 in
  let hits = ref 0 in
  for _ = 1 to trials do
    let pairs = Gdelta.marked_pairs rng g ~delta in
    if List.exists (fun (u, v) -> (u = a && v = b) || (u = b && v = a)) pairs
    then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  let q = 1.0 -. (2.0 *. float_of_int delta /. float_of_int n) in
  let predicted = 1.0 -. (q *. q) in
  check_bool
    (Printf.sprintf "bridge frequency %.3f vs predicted %.3f" freq predicted)
    true
    (Float.abs (freq -. predicted) <= 0.08);
  (* the qualitative content of Obs 2.14: at delta << n the bridge is almost
     always missed, so exactness fails with probability near 1 *)
  check_bool "well below certainty" true (freq < 0.35)

(* ------------------------------------------------------------------ *)
(* Lemma 2.13 as an executable game                                   *)
(* ------------------------------------------------------------------ *)

(* the natural deterministic strategy: probe delta entries per vertex and
   output exactly what was revealed *)
let first_k_strategy (o : Lower_bound.oracle) =
  let acc = ref [] in
  for v = 0 to o.Lower_bound.n - 1 do
    for _ = 1 to o.Lower_bound.delta do
      acc := (v, o.Lower_bound.probe v) :: !acc
    done
  done;
  !acc

let test_lower_bound_game_first_k () =
  List.iter
    (fun (n, delta) ->
      match Lower_bound.play first_k_strategy ~n ~delta with
      | Lower_bound.Small_matching s ->
          check_bool
            (Printf.sprintf "n=%d d=%d: matching %d <= delta" n delta s)
            true (s <= delta)
      | Lower_bound.Infeasible _ ->
          Alcotest.fail "honest strategy should stay feasible")
    [ (10, 2); (20, 4); (40, 6); (60, 10) ]

let test_lower_bound_game_cheater () =
  (* outputting an unprobed edge outside D gets caught *)
  let cheater (o : Lower_bound.oracle) =
    [ (o.Lower_bound.n - 2, o.Lower_bound.n - 1) ]
  in
  match Lower_bound.play cheater ~n:20 ~delta:3 with
  | Lower_bound.Infeasible (18, 19) -> ()
  | Lower_bound.Infeasible _ -> Alcotest.fail "wrong edge flagged"
  | Lower_bound.Small_matching _ -> Alcotest.fail "cheater must be infeasible"

let test_lower_bound_game_greedy_matching_attempt () =
  (* a smarter strategy: output a perfect matching among the answers it can
     actually trust... it still cannot beat delta, because every trusted
     edge touches the decoy set *)
  let strategy (o : Lower_bound.oracle) =
    let acc = ref [] in
    for v = o.Lower_bound.delta to o.Lower_bound.n - 1 do
      (* probe once and keep a single edge per outside vertex *)
      acc := (v, o.Lower_bound.probe v) :: !acc
    done;
    !acc
  in
  match Lower_bound.play strategy ~n:30 ~delta:5 with
  | Lower_bound.Small_matching s -> check_bool "still <= delta" true (s <= 5)
  | Lower_bound.Infeasible _ -> Alcotest.fail "touches only D, must be feasible"

let test_lower_bound_game_budget_enforced () =
  let over_prober (o : Lower_bound.oracle) =
    for _ = 0 to o.Lower_bound.delta do
      ignore (o.Lower_bound.probe 0)
    done;
    []
  in
  Alcotest.check_raises "budget"
    (Invalid_argument "Lower_bound: probe budget exceeded") (fun () ->
      ignore (Lower_bound.play over_prober ~n:10 ~delta:2))

(* ------------------------------------------------------------------ *)
(* Solomon / Compose                                                  *)
(* ------------------------------------------------------------------ *)

let test_solomon_degree_bound () =
  let rng = Rng.create 13 in
  List.iter
    (fun da ->
      let g = Gen.gnp rng ~n:80 ~p:0.2 in
      let s = Solomon.sparsify g ~delta_alpha:da in
      check_bool "subgraph" true (Graph.is_subgraph ~sub:s ~super:g);
      check_bool "max degree bound" true (Graph.max_degree s <= da))
    [ 1; 3; 8 ]

let test_solomon_on_bounded_arboricity () =
  let g = Gen.grid ~rows:8 ~cols:8 in
  let alpha = Arboricity.degeneracy g in
  let da = Solomon.delta_alpha ~alpha ~eps:0.5 in
  let s = Solomon.sparsify g ~delta_alpha:da in
  let opt = Matching.size (Blossom.solve g) in
  let opt_s = Matching.size (Blossom.solve s) in
  check_bool
    (Printf.sprintf "grid preserved: %d vs %d" opt_s opt)
    true
    (float_of_int opt <= 1.5 *. float_of_int opt_s)

let test_compose () =
  let rng = Rng.create 15 in
  let g = Gen.complete 70 in
  let eps = 0.5 in
  let r = Compose.run ~multiplier:1.0 rng g ~beta:1 ~eps in
  check_bool "bounded is subgraph of gdelta" true
    (Graph.is_subgraph ~sub:r.Compose.bounded ~super:r.Compose.gdelta);
  check_bool "gdelta is subgraph of g" true
    (Graph.is_subgraph ~sub:r.Compose.gdelta ~super:g);
  check_bool "max degree within delta_alpha" true
    (r.Compose.max_degree <= r.Compose.delta_alpha);
  let opt = Matching.size (Blossom.solve g) in
  let opt_b = Matching.size (Blossom.solve r.Compose.bounded) in
  check_bool
    (Printf.sprintf "composed ratio: %d vs %d" opt_b opt)
    true
    (float_of_int opt <= (1.0 +. (3.0 *. eps)) *. float_of_int opt_b)

(* ------------------------------------------------------------------ *)
(* EDCS (comparison sparsifier)                                       *)
(* ------------------------------------------------------------------ *)

let test_edcs_invariants () =
  let rng = Rng.create 71 in
  List.iter
    (fun (g, bound) ->
      let h = Edcs.construct g ~bound in
      check_bool "subgraph" true (Graph.is_subgraph ~sub:h ~super:g);
      check_bool "P1" true (Edcs.check_p1 g ~edcs:h ~bound);
      check_bool "P2" true (Edcs.check_p2 g ~edcs:h ~bound);
      (* P1 forces max degree < bound *)
      check_bool "degree below bound" true (Graph.max_degree h < bound))
    [
      (Gen.complete 40, 8);
      (Gen.gnp rng ~n:60 ~p:0.3, 6);
      (Gen.star 20, 4);
      (Gen.path 15, 3);
      (Gen.empty 5, 2);
      (fst (Unit_disk.random rng ~n:80 ~radius:0.3), 10);
    ]

let test_edcs_three_halves () =
  let rng = Rng.create 72 in
  for _ = 0 to 9 do
    let g = Gen.gnp rng ~n:50 ~p:0.3 in
    let h = Edcs.construct g ~bound:16 in
    let opt = Matching.size (Blossom.solve g) in
    let oh = Matching.size (Blossom.solve h) in
    check_bool
      (Printf.sprintf "3/2 bound: %d vs %d" oh opt)
      true
      (* 3/2 + slack for the finite bound *)
      (float_of_int opt <= 1.6 *. float_of_int (max 1 oh))
  done

let test_edcs_deterministic_and_sized () =
  let g = Gen.complete 50 in
  let h1 = Edcs.construct g ~bound:10 in
  let h2 = Edcs.construct g ~bound:10 in
  check_bool "deterministic" true (Graph.equal h1 h2);
  (* P1 gives |E(H)| <= n * bound / 2 *)
  check_bool "size bound" true (Graph.m h1 <= Graph.n g * 10 / 2);
  Alcotest.check_raises "bound >= 2"
    (Invalid_argument "Edcs.construct: bound >= 2") (fun () ->
      ignore (Edcs.construct g ~bound:1))

(* ------------------------------------------------------------------ *)
(* Pipeline (Theorem 3.1)                                             *)
(* ------------------------------------------------------------------ *)

let test_pipeline_quality () =
  let rng = Rng.create 16 in
  let g = Gen.complete 80 in
  let eps = 0.5 in
  let r = Pipeline.run ~multiplier:1.0 rng g ~beta:1 ~eps in
  check_bool "valid on original graph" true
    (Matching.is_valid g r.Pipeline.matching);
  let opt = Matching.size (Blossom.solve g) in
  check_bool
    (Printf.sprintf "pipeline size %d vs opt %d"
       (Matching.size r.Pipeline.matching)
       opt)
    true
    (float_of_int opt
    <= (1.0 +. eps) *. (1.0 +. eps)
       *. float_of_int (Matching.size r.Pipeline.matching))

let test_pipeline_sublinear_probes () =
  let rng = Rng.create 17 in
  let g = Gen.complete 300 in
  let r = Pipeline.run ~multiplier:1.0 rng g ~beta:1 ~eps:0.5 in
  check_bool "read less than the input" true
    (Pipeline.sublinearity_ratio r < 0.5);
  check "input edges recorded" (Graph.m g) r.Pipeline.input_edges

let test_pipeline_matcher_modes () =
  let rng = Rng.create 18 in
  let g = Gen.gnp rng ~n:60 ~p:0.3 in
  List.iter
    (fun matcher ->
      let r = Pipeline.run ~matcher rng g ~beta:6 ~eps:0.5 in
      check_bool "valid" true (Matching.is_valid g r.Pipeline.matching);
      check_bool "nonempty" true (Matching.size r.Pipeline.matching > 0))
    [ Pipeline.Exact; Pipeline.Approx_eps; Pipeline.Greedy_2approx ]

let test_pipeline_seeded_gdelta () =
  (* [Pipeline.run]'s G_delta is [Gdelta.sparsify_seeded] keyed by one
     draw of the rng, under either rule.  At beta 1 the Delta is 16 and
     degrees are near 60, so vertices sample. *)
  let rng = Rng.create 31 in
  let g = Gen.gnp rng ~n:200 ~p:0.3 in
  List.iter
    (fun rule ->
      let r = Pipeline.run ~rule (Rng.create 9) g ~beta:1 ~eps:0.5 in
      check_bool "matching is over the input graph" true
        (Matching.is_valid g r.Pipeline.matching);
      (* the build is the seeded one keyed by one draw of the rng *)
      let seed = Mark_kernel.seed_of (Rng.create 9) in
      check "seeded graph"
        (Graph.m
           (fst (Gdelta.sparsify_seeded ~rule ~seed g ~delta:r.Pipeline.delta)))
        r.Pipeline.sparsifier_edges;
      (* probes match the closed form for the rule at the chosen delta *)
      let expected = ref 0 in
      for v = 0 to Graph.n g - 1 do
        expected :=
          !expected
          + Mark_kernel.mark_count rule ~delta:r.Pipeline.delta
              ~degree:(Graph.degree g v)
      done;
      check "probe accounting" !expected r.Pipeline.probes_on_input)
    [ Gdelta.Mark_all_at_most_two_delta; Gdelta.Mark_all_at_most_delta ]

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let qcheck_subgraph_and_degree =
  QCheck.Test.make ~name:"gdelta is a subgraph with min-degree guarantee"
    ~count:50
    QCheck.(triple (int_range 5 40) (int_range 1 8) (int_range 0 1000))
    (fun (n, delta, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.3 in
      let s, _ = Gdelta.sparsify rng g ~delta in
      Graph.is_subgraph ~sub:s ~super:g
      && Array.for_all
           (fun v -> Graph.degree s v >= min (Graph.degree g v) delta)
           (Array.init n (fun i -> i)))

let qcheck_sparsifier_never_hurts_much =
  QCheck.Test.make
    ~name:"sparsifier keeps at least a third of the matching at delta=1"
    ~count:50
    QCheck.(pair (int_range 4 30) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.4 in
      let s, _ = Gdelta.sparsify rng g ~delta:1 in
      let og = Matching.size (Blossom.solve g) in
      let os = Matching.size (Blossom.solve s) in
      og = 0 || os * 3 >= og)

let qcheck_obs_2_10 =
  QCheck.Test.make ~name:"size bound of Obs 2.10 holds" ~count:40
    QCheck.(triple (int_range 5 40) (int_range 2 8) (int_range 0 1000))
    (fun (n, delta, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.5 in
      let s, _ = Gdelta.sparsify rng g ~delta in
      let mcm = Matching.size (Blossom.solve g) in
      let beta = Beta.value (Beta.compute ~budget:200_000 g) in
      Properties.size_bound_obs_2_10 ~sparsifier:s ~mcm_size:mcm ~delta ~beta)

let qcheck_solomon_invariants =
  QCheck.Test.make ~name:"solomon sparsifier: subgraph with degree bound"
    ~count:50
    QCheck.(triple (int_range 2 40) (int_range 1 10) (int_range 0 1000))
    (fun (n, da, seed) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.35 in
      let s = Solomon.sparsify g ~delta_alpha:da in
      Graph.is_subgraph ~sub:s ~super:g && Graph.max_degree s <= da)

let qcheck_edcs_invariants =
  QCheck.Test.make ~name:"edcs: P1 and P2 always hold" ~count:40
    QCheck.(triple (int_range 2 30) (int_range 2 10) (int_range 0 1000))
    (fun (n, bound, seed) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.35 in
      let h = Edcs.construct g ~bound in
      Edcs.check_p1 g ~edcs:h ~bound && Edcs.check_p2 g ~edcs:h ~bound)

let qcheck_compose_degree =
  QCheck.Test.make ~name:"composed sparsifier respects the degree cap"
    ~count:25
    QCheck.(pair (int_range 5 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.4 in
      let r = Compose.run ~multiplier:0.5 rng g ~beta:4 ~eps:0.5 in
      r.Compose.max_degree <= r.Compose.delta_alpha
      && Graph.is_subgraph ~sub:r.Compose.bounded ~super:g)

let qcheck_lower_bound_game =
  QCheck.Test.make
    ~name:"every delta-probe echo strategy loses the Lemma 2.13 game"
    ~count:25
    QCheck.(pair (int_range 2 8) (int_range 0 1000))
    (fun (delta, seed) ->
      let n = 2 * (delta + 2 + (seed mod 13)) in
      (* the echo strategy (probe the full budget, output every answer)
         across many (n, delta) shapes: always capped at delta *)
      match Lower_bound.play first_k_strategy ~n ~delta with
      | Lower_bound.Small_matching s -> s <= delta
      | Lower_bound.Infeasible _ -> false)

(* A differential reference for the marking loop: every vertex in order,
   its whole neighborhood when its degree is at most the rule's
   threshold, else Δ positions drawn by the read-only Fisher–Yates
   emulation with one live [Rng.int] per draw on [Rng.derive ~seed v].
   The blocked collector behind [Gdelta] (word prefetch, closure-free
   index landing, one buffer reservation per block) must emit the same
   codes in the same order. *)
let pervertex_mark_codes ~rule ~seed g ~delta =
  let shift = Graph.pack_shift ~n:(Graph.n g) in
  let pos = Sparse_array.create (Graph.max_degree g) ~default:(-1) in
  let value_at i =
    let x = Sparse_array.get pos i in
    if x = -1 then i else x
  in
  let codes = ref [] in
  for v = 0 to Graph.n g - 1 do
    let d = Graph.degree g v in
    let mark i =
      codes := ((v lsl shift) lor Graph.neighbor_uncounted g v i) :: !codes
    in
    if d <= Mark_kernel.threshold rule delta then
      for i = 0 to d - 1 do
        mark i
      done
    else begin
      let rng = Rng.derive ~seed v in
      Sparse_array.reset pos;
      for step = 0 to delta - 1 do
        let last = d - 1 - step in
        let j = Rng.int rng (last + 1) in
        mark (value_at j);
        Sparse_array.set pos j (value_at last)
      done
    end
  done;
  List.rev !codes

let qcheck_marks_match_reference =
  QCheck.Test.make
    ~name:"marked codes = per-vertex one-draw-per-mark reference" ~count:40
    QCheck.(triple (int_range 1 60) (int_range 1 6) (int_range 0 1000))
    (fun (n, delta, seed) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.4 in
      List.for_all
        (fun rule ->
          let buf, _ = Gdelta.marked_codes_seeded ~rule ~seed g ~delta in
          List.rev (Edgebuf.fold_left (fun acc c -> c :: acc) [] buf)
          = pervertex_mark_codes ~rule ~seed g ~delta)
        [ Gdelta.Mark_all_at_most_delta; Gdelta.Mark_all_at_most_two_delta ])

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        qcheck_marks_match_reference;
        qcheck_subgraph_and_degree;
        qcheck_sparsifier_never_hurts_much;
        qcheck_obs_2_10;
        qcheck_solomon_invariants;
        qcheck_edcs_invariants;
        qcheck_compose_degree;
        qcheck_lower_bound_game;
      ]
  in
  Alcotest.run "mspar_core"
    [
      ( "delta-param",
        [ Alcotest.test_case "parameter policy" `Quick test_delta_param ] );
      ( "gdelta",
        [
          Alcotest.test_case "subgraph" `Quick test_gdelta_is_subgraph;
          Alcotest.test_case "low degree keeps all" `Quick
            test_gdelta_low_degree_keeps_all;
          Alcotest.test_case "min degree guarantee" `Quick
            test_gdelta_min_degree_guarantee;
          Alcotest.test_case "size bounds" `Quick test_gdelta_size_bounds;
          Alcotest.test_case "determinism" `Quick test_gdelta_determinism;
          Alcotest.test_case "rejects bad delta" `Quick
            test_gdelta_rejects_bad_delta;
          Alcotest.test_case "probe exactness" `Quick
            test_gdelta_probe_exactness;
        ] );
      ( "theorem-2.1",
        [
          Alcotest.test_case "families" `Quick test_theorem_2_1_families;
          Alcotest.test_case "repeated trials" `Quick
            test_theorem_2_1_repeated_trials;
        ] );
      ( "structure",
        [
          Alcotest.test_case "obs 2.10 size" `Quick test_obs_2_10_size;
          Alcotest.test_case "obs 2.12 arboricity" `Quick
            test_obs_2_12_arboricity;
          Alcotest.test_case "lemma 2.2" `Quick test_lemma_2_2;
          Alcotest.test_case "lemma 2.13 deterministic fails" `Quick
            test_lemma_2_13_deterministic_fails;
          Alcotest.test_case "obs 2.14 bridge probability" `Quick
            test_obs_2_14_bridge_probability;
        ] );
      ( "lower-bound-game",
        [
          Alcotest.test_case "first-k loses" `Quick
            test_lower_bound_game_first_k;
          Alcotest.test_case "cheater caught" `Quick
            test_lower_bound_game_cheater;
          Alcotest.test_case "one-probe strategy loses" `Quick
            test_lower_bound_game_greedy_matching_attempt;
          Alcotest.test_case "budget enforced" `Quick
            test_lower_bound_game_budget_enforced;
        ] );
      ( "solomon",
        [
          Alcotest.test_case "degree bound" `Quick test_solomon_degree_bound;
          Alcotest.test_case "bounded arboricity quality" `Quick
            test_solomon_on_bounded_arboricity;
          Alcotest.test_case "composition" `Quick test_compose;
        ] );
      ( "edcs",
        [
          Alcotest.test_case "invariants" `Quick test_edcs_invariants;
          Alcotest.test_case "3/2 quality" `Quick test_edcs_three_halves;
          Alcotest.test_case "deterministic and sized" `Quick
            test_edcs_deterministic_and_sized;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "quality" `Quick test_pipeline_quality;
          Alcotest.test_case "sublinear probes" `Quick
            test_pipeline_sublinear_probes;
          Alcotest.test_case "matcher modes" `Quick test_pipeline_matcher_modes;
          Alcotest.test_case "seeded gdelta" `Quick test_pipeline_seeded_gdelta;
        ] );
      ("properties", qsuite);
    ]
