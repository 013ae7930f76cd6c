(* Tests for mspar_graph: the CSR adjacency-array graph and its probe
   accounting, the generators (including the paper's adversarial families),
   neighborhood independence, and arboricity/degeneracy. *)

open Mspar_prelude
open Mspar_graph

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Graph core                                                         *)
(* ------------------------------------------------------------------ *)

let test_graph_construction () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 1); (1, 0); (3, 3) ] in
  check "n" 4 (Graph.n g);
  check "m dedups and drops loops" 2 (Graph.m g);
  check "deg 1" 2 (Graph.degree g 1);
  check "deg 3 (loop dropped)" 0 (Graph.degree g 3);
  check_bool "has edge" true (Graph.has_edge g 2 1);
  check_bool "no self edge" false (Graph.has_edge g 3 3);
  check_bool "absent edge" false (Graph.has_edge g 0 3);
  check_bool "edges normalised" true (Graph.edges g = [| (0, 1); (1, 2) |])

let test_graph_rejects_out_of_range () =
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 5) ]))

let test_graph_neighbor_access () =
  let g = Graph.of_edges ~n:5 [ (0, 3); (0, 1); (0, 4) ] in
  (* sorted adjacency *)
  check "neighbor 0" 1 (Graph.neighbor g 0 0);
  check "neighbor 1" 3 (Graph.neighbor g 0 1);
  check "neighbor 2" 4 (Graph.neighbor g 0 2);
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Graph.neighbor: index out of range") (fun () ->
      ignore (Graph.neighbor g 0 3))

let test_graph_probe_accounting () =
  let g = Gen.complete 20 in
  Graph.reset_probes g;
  check "fresh" 0 (Graph.probes g);
  ignore (Graph.neighbor g 0 0);
  check "single read" 1 (Graph.probes g);
  Graph.iter_neighbors g 0 (fun _ -> ());
  check "iter adds degree" 20 (Graph.probes g);
  Graph.reset_probes g;
  ignore (Graph.has_edge g 0 19);
  check_bool "has_edge costs O(log deg)" true (Graph.probes g <= 6);
  (* edges/iter_edges are oracle paths: uncounted *)
  Graph.reset_probes g;
  ignore (Graph.edges g);
  check "oracle paths uncounted" 0 (Graph.probes g)

let test_graph_induced () =
  let g = Gen.cycle 6 in
  let sub, mapping = Graph.induced g [| 0; 1; 2; 4 |] in
  check "induced n" 4 (Graph.n sub);
  (* edges 0-1, 1-2 survive; 4 is isolated in the induced graph *)
  check "induced m" 2 (Graph.m sub);
  check_bool "mapping sorted distinct" true (mapping = [| 0; 1; 2; 4 |])

let test_graph_union_subgraph_equal () =
  let a = Graph.of_edges ~n:4 [ (0, 1) ] in
  let b = Graph.of_edges ~n:4 [ (1, 2) ] in
  let u = Graph.union a b in
  check "union m" 2 (Graph.m u);
  check_bool "a sub u" true (Graph.is_subgraph ~sub:a ~super:u);
  check_bool "u not sub a" false (Graph.is_subgraph ~sub:u ~super:a);
  check_bool "equal reflexive" true (Graph.equal u u);
  check_bool "not equal" false (Graph.equal a b)

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

let test_gen_basic_shapes () =
  check "complete m" (10 * 9 / 2) (Graph.m (Gen.complete 10));
  check "path m" 9 (Graph.m (Gen.path 10));
  check "cycle m" 10 (Graph.m (Gen.cycle 10));
  check "star m" 9 (Graph.m (Gen.star 10));
  check "star max degree" 9 (Graph.max_degree (Gen.star 10));
  check "grid m" ((3 * 3) + (4 * 2)) (Graph.m (Gen.grid ~rows:3 ~cols:4));
  check "matching m" 5 (Graph.m (Gen.perfect_matching 10));
  check "empty m" 0 (Graph.m (Gen.empty 7))

let test_gen_gnm_exact () =
  let rng = Rng.create 1 in
  for _ = 0 to 9 do
    let n = 5 + Rng.int rng 20 in
    let m = Rng.int rng (n * (n - 1) / 2) in
    let g = Gen.gnm rng ~n ~m in
    check "gnm edge count" m (Graph.m g)
  done

let test_gen_gnp_density () =
  let rng = Rng.create 2 in
  let g = Gen.gnp rng ~n:100 ~p:0.3 in
  let expected = int_of_float (0.3 *. float_of_int (100 * 99 / 2)) in
  check_bool "gnp density near p" true (abs (Graph.m g - expected) < expected / 5)

let test_gen_bipartite () =
  let rng = Rng.create 3 in
  let g = Gen.random_bipartite rng ~left:10 ~right:12 ~p:0.5 in
  check "n" 22 (Graph.n g);
  Graph.iter_edges g (fun u v ->
      check_bool "crosses partition" true (u < 10 && v >= 10))

let test_gen_clique_minus_edge () =
  let g = Gen.clique_minus_edge ~n:8 ~missing:(6, 7) in
  check "m" ((8 * 7 / 2) - 1) (Graph.m g);
  check_bool "missing edge" false (Graph.has_edge g 6 7);
  check_bool "other edges present" true (Graph.has_edge g 0 7)

let test_gen_two_cliques_bridge () =
  let g, (a, b) = Gen.two_cliques_bridge ~half:5 in
  check "n" 10 (Graph.n g);
  check "m" ((2 * (5 * 4 / 2)) + 1) (Graph.m g);
  check_bool "bridge present" true (Graph.has_edge g a b);
  (* the bridge is a cut edge between the halves *)
  check_bool "bridge crosses" true (a < 5 && b >= 5);
  Alcotest.check_raises "even half rejected"
    (Invalid_argument "Gen.two_cliques_bridge: need odd half >= 3") (fun () ->
      ignore (Gen.two_cliques_bridge ~half:4))

let test_gen_disjoint_cliques_structure () =
  let rng = Rng.create 4 in
  let g = Gen.disjoint_cliques rng ~n:30 ~k:3 in
  (* triangle-closed: if (u,v) and (v,w) then (u,w) *)
  Graph.iter_edges g (fun u v ->
      Graph.iter_neighbors g v (fun w ->
          if w <> u && Graph.has_edge g u v && Graph.has_edge g v w then
            check_bool "clique closure" true (Graph.has_edge g u w)))

let test_gen_hub_gadget () =
  let g, claimed_mcm = Gen.hub_gadget ~pairs:12 ~hub_size:3 in
  check "n" ((2 * 12) + (2 * 3)) (Graph.n g);
  check "m" (12 + (2 * 12 * 3)) (Graph.m g);
  (* the returned MCM size must be exact *)
  check "mcm formula" claimed_mcm
    (Mspar_matching.Matching.size (Mspar_matching.Blossom.solve g));
  (* beta = max(pairs, hub_size + 1): a hub's neighborhood contains all 12
     mutually non-adjacent l_i's *)
  let beta = Beta.value (Beta.compute g) in
  check "beta is max(pairs, hub_size+1)" 12 beta;
  check_bool "bipartite" true (Mspar_matching.Hopcroft_karp.bipartition g <> None)

let test_gen_planted_matching () =
  let rng = Rng.create 5 in
  let g = Gen.random_graph_with_planted_matching rng ~n:40 ~extra:60 in
  (* the planted perfect matching guarantees MCM = n/2 *)
  let m = Mspar_matching.Blossom.solve g in
  check "planted matching is perfect" 20 (Mspar_matching.Matching.size m)

(* ------------------------------------------------------------------ *)
(* Line graphs / unit disks                                           *)
(* ------------------------------------------------------------------ *)

let test_line_graph_structure () =
  (* L(path_4): path with 3 vertices; L(star_4): triangle *)
  let lp, edges = Line_graph.of_graph (Gen.path 4) in
  check "L(P4) n" 3 (Graph.n lp);
  check "L(P4) m" 2 (Graph.m lp);
  check "edge map size" 3 (Array.length edges);
  let ls, _ = Line_graph.of_graph (Gen.star 4) in
  check "L(K1,3) is a triangle" 3 (Graph.m ls);
  check "L(K1,3) n" 3 (Graph.n ls)

let test_line_graph_beta_at_most_2 () =
  let rng = Rng.create 6 in
  for _ = 0 to 4 do
    let lg = Line_graph.random_base rng ~base_n:10 ~p:0.4 in
    if Graph.n lg > 0 then begin
      let beta = Beta.compute lg in
      check_bool
        (Printf.sprintf "line graph beta %d <= 2" (Beta.value beta))
        true
        (Beta.value beta <= 2);
      check_bool "claw check agrees" true (Beta.check_claw_free lg ~beta:2 = None)
    end
  done

let test_unit_disk () =
  let rng = Rng.create 7 in
  let g, points = Unit_disk.random rng ~n:100 ~radius:0.15 in
  check "n" 100 (Graph.n g);
  check "points" 100 (Array.length points);
  (* verify adjacency against brute-force distances *)
  for u = 0 to 99 do
    for v = u + 1 to 99 do
      let d = Unit_disk.distance points.(u) points.(v) in
      check_bool "edge iff close" true
        (Graph.has_edge g u v = (d <= 0.15))
    done
  done;
  (* planar unit-disk graphs have beta <= 5 *)
  let beta = Beta.compute ~budget:2_000_000 g in
  check_bool
    (Printf.sprintf "udg beta %d <= 5" (Beta.value beta))
    true
    (Beta.value beta <= 5)

let test_proper_interval () =
  let rng = Rng.create 20 in
  let g = Geometric.proper_interval rng ~n:120 ~span:15.0 in
  (* unit interval graphs are claw-free: beta <= 2 *)
  let beta = Beta.value (Beta.compute ~budget:2_000_000 g) in
  check_bool (Printf.sprintf "interval beta %d <= 2" beta) true (beta <= 2);
  check_bool "no claw" true (Beta.check_claw_free g ~beta:2 = None);
  (* intervals form a chain: adjacency is consecutive-overlap, so the graph
     must have no induced C4 either; spot-check connectivity shape via
     degeneracy being at least 1 on dense spans *)
  check_bool "nonempty" true (Graph.m g > 0)

let test_quasi_unit_disk () =
  let rng = Rng.create 21 in
  let g = Geometric.quasi_unit_disk rng ~n:120 ~radius:0.25 ~inner:0.7 in
  (* the packing argument gives a constant bound; with inner=0.7 the
     constant is slightly above the UDG 5 *)
  let beta = Beta.value (Beta.compute ~budget:2_000_000 g) in
  check_bool (Printf.sprintf "qudg beta %d <= 8" beta) true (beta <= 8);
  Alcotest.check_raises "inner out of range"
    (Invalid_argument "Geometric.quasi_unit_disk: inner in (0, 1]") (fun () ->
      ignore (Geometric.quasi_unit_disk rng ~n:4 ~radius:0.1 ~inner:0.0))

let test_disk_graph () =
  let rng = Rng.create 22 in
  let g = Geometric.disk_graph rng ~n:120 ~rmin:0.05 ~rmax:0.1 in
  let beta = Beta.value (Beta.compute ~budget:2_000_000 g) in
  (* bounded radius ratio (2) keeps the packing constant small *)
  check_bool (Printf.sprintf "disk beta %d <= 8" beta) true (beta <= 8);
  Alcotest.check_raises "bad radii"
    (Invalid_argument "Geometric.disk_graph: need 0 < rmin <= rmax") (fun () ->
      ignore (Geometric.disk_graph rng ~n:4 ~rmin:0.2 ~rmax:0.1))

(* ------------------------------------------------------------------ *)
(* Beta                                                               *)
(* ------------------------------------------------------------------ *)

let test_beta_known_values () =
  check "clique beta" 1 (Beta.value (Beta.compute (Gen.complete 8)));
  check "star beta" 7 (Beta.value (Beta.compute (Gen.star 8)));
  check "cycle beta" 2 (Beta.value (Beta.compute (Gen.cycle 8)));
  check "path beta" 2 (Beta.value (Beta.compute (Gen.path 8)));
  check "empty beta" 0 (Beta.value (Beta.compute (Gen.empty 5)));
  check "matching beta" 1 (Beta.value (Beta.compute (Gen.perfect_matching 8)));
  check_bool "exactness flag" true (Beta.is_exact (Beta.compute (Gen.complete 8)))

let test_beta_clique_minus_edge_is_2 () =
  let g = Gen.clique_minus_edge ~n:10 ~missing:(3, 7) in
  check "beta of clique minus edge" 2 (Beta.value (Beta.compute g))

let test_beta_diversity_family () =
  let rng = Rng.create 8 in
  let g = Gen.bounded_diversity rng ~n:40 ~cliques:6 ~memberships:2 in
  let beta = Beta.value (Beta.compute ~budget:2_000_000 g) in
  (* each vertex's neighborhood is covered by <= 2 cliques, so beta <= 2 per
     the diversity argument in the paper's introduction *)
  check_bool (Printf.sprintf "diversity-2 beta %d <= 2" beta) true (beta <= 2)

let test_beta_budget_degrades_gracefully () =
  let g = Gen.star 30 in
  match Beta.compute ~budget:1 g with
  | Beta.Exact v -> check "still exact on trivial" 29 v
  | Beta.Lower_bound v -> check_bool "lower bound sane" true (v >= 1 && v <= 29)

let test_beta_claw_witness () =
  let g = Gen.star 6 in
  match Beta.check_claw_free g ~beta:2 with
  | None -> Alcotest.fail "star must contain a claw"
  | Some (center, leaves) ->
      check "claw center" 0 center;
      check "claw size" 3 (Array.length leaves);
      Array.iter
        (fun l -> check_bool "leaf adjacent to center" true (Graph.has_edge g 0 l))
        leaves

let test_beta_greedy_lower () =
  let rng = Rng.create 9 in
  let g = Gen.star 20 in
  let lower = Beta.greedy_lower rng g in
  check "greedy finds star independence" 19 lower

let test_beta_sampled_lower () =
  let rng = Rng.create 19 in
  (* sampled estimate is a valid lower bound *)
  for _ = 0 to 9 do
    let g = Gen.gnp rng ~n:30 ~p:0.3 in
    let exact = Beta.value (Beta.compute g) in
    let sampled = Beta.sampled_lower rng ~samples:16 g in
    check_bool "lower bound" true (sampled <= exact);
    check_bool "positive on non-empty" true (Graph.m g = 0 || sampled >= 1)
  done;
  (* with enough samples on a clique it nails beta = 1 *)
  check "clique sampled" 1 (Beta.sampled_lower rng ~samples:8 (Gen.complete 40));
  check "empty graph sampled" 0 (Beta.sampled_lower rng (Gen.empty 0))

(* ------------------------------------------------------------------ *)
(* Arboricity / degeneracy                                            *)
(* ------------------------------------------------------------------ *)

let test_degeneracy_known () =
  check "tree degeneracy" 1 (Arboricity.degeneracy (Gen.path 10));
  check "cycle degeneracy" 2 (Arboricity.degeneracy (Gen.cycle 10));
  check "clique degeneracy" 7 (Arboricity.degeneracy (Gen.complete 8));
  check "grid degeneracy" 2 (Arboricity.degeneracy (Gen.grid ~rows:4 ~cols:5));
  check "empty degeneracy" 0 (Arboricity.degeneracy (Gen.empty 5));
  check "star degeneracy" 1 (Arboricity.degeneracy (Gen.star 12))

let test_degeneracy_order_property () =
  let rng = Rng.create 10 in
  for _ = 0 to 9 do
    let g = Gen.gnp rng ~n:30 ~p:0.2 in
    let d, order = Arboricity.degeneracy_order g in
    let rank = Array.make (Graph.n g) 0 in
    Array.iteri (fun i v -> rank.(v) <- i) order;
    (* every vertex has at most d neighbors later in the order *)
    for v = 0 to Graph.n g - 1 do
      let later = ref 0 in
      Graph.iter_neighbors g v (fun u -> if rank.(u) > rank.(v) then incr later);
      check_bool "elimination order respects d" true (!later <= d)
    done
  done

let test_density_and_sandwich () =
  let g = Gen.complete 9 in
  (* alpha(K9) = ceil(36/8) = 5 *)
  check "density lower bound" 5 (Arboricity.density_lower_bound g);
  let d = Arboricity.degeneracy g in
  check_bool "sandwich lower <= degeneracy" true
    (Arboricity.density_lower_bound g <= d)

let test_orientation () =
  let rng = Rng.create 11 in
  let g = Gen.gnp rng ~n:25 ~p:0.3 in
  let out = Arboricity.orient_by_degeneracy g in
  let d = Arboricity.degeneracy g in
  let total = Array.fold_left (fun acc l -> acc + Array.length l) 0 out in
  check "every edge oriented once" (Graph.m g) total;
  Array.iter
    (fun l ->
      check_bool "out-degree bounded by degeneracy" true (Array.length l <= d))
    out

(* ------------------------------------------------------------------ *)
(* Graph I/O                                                          *)
(* ------------------------------------------------------------------ *)

let test_graph_io_roundtrip () =
  let rng = Rng.create 30 in
  for _ = 0 to 9 do
    let g = Gen.gnp rng ~n:(2 + Rng.int rng 30) ~p:0.3 in
    let g' = Graph_io.of_string_exn (Graph_io.to_string g) in
    check_bool "roundtrip" true (Graph.equal g g')
  done;
  (* empty graph *)
  let e = Gen.empty 0 in
  check_bool "empty roundtrip" true
    (Graph.equal e (Graph_io.of_string_exn (Graph_io.to_string e)))

let test_graph_io_file_roundtrip () =
  let g = Gen.cycle 9 in
  let path = Filename.temp_file "mspar" ".graph" in
  Graph_io.save path g;
  let g' = Graph_io.load_exn path in
  Sys.remove path;
  check_bool "file roundtrip" true (Graph.equal g g')

let test_graph_io_tolerant_input () =
  (* comments, blank lines, duplicate and reversed edges, self-loops *)
  let s = "# a comment\n\n4 5\n0 1\n1 0\n2 3\n1 1\n0 2\n" in
  let g = Graph_io.of_string_exn s in
  check "loops/dups merged" 3 (Graph.m g)

let test_graph_io_rejects_malformed () =
  check_bool "bad header" true
    (try
       ignore (Graph_io.of_string_exn "nope\n");
       false
     with Failure _ -> true);
  check_bool "wrong count" true
    (try
       ignore (Graph_io.of_string_exn "3 2\n0 1\n");
       false
     with Failure _ -> true);
  check_bool "out of range" true
    (try
       ignore (Graph_io.of_string_exn "2 1\n0 5\n");
       false
     with Failure _ -> true)

let test_graph_io_parse_errors () =
  (* the result API reports the offending line and token *)
  let err s =
    match Graph_io.parse s with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" s
    | Error e -> e
  in
  let e = err "nope\n" in
  check "bad header line" 1 e.Graph_io.line;
  check_bool "bad header token" true (e.Graph_io.token = Some "nope");
  let e = err "# c\n3 3\n0 1\n0 x\n1 2\n" in
  check "bad edge line" 4 e.Graph_io.line;
  check_bool "bad edge token" true (e.Graph_io.token = Some "x");
  let e = err "2 1\n0 5\n" in
  check "range line" 2 e.Graph_io.line;
  check_bool "range token" true (e.Graph_io.token = Some "5");
  let e = err "3 2\n0 1\n" in
  check_bool "count reason mentions edges" true
    (String.length e.Graph_io.reason > 0);
  (* huge header n must be rejected, not allocated *)
  let e = err "999999999999 0\n" in
  check "huge n line" 1 e.Graph_io.line;
  (* error_message matches the raising wrapper *)
  check_bool "message prefix" true
    (String.length (Graph_io.error_message e) > 9
    && String.sub (Graph_io.error_message e) 0 9 = "Graph_io:")

let test_graph_io_trailing_whitespace () =
  (* trailing spaces/tabs, CR-ish blank lines and a trailing comment are
     all tolerated *)
  let s = "  # padded comment\n3 2  \n0 1\t\n\n  2 0  \n   \n# done\n" in
  (match Graph_io.parse s with
  | Ok g ->
      check "ws n" 3 (Graph.n g);
      check "ws m" 2 (Graph.m g)
  | Error e -> Alcotest.failf "unexpected error: %s" (Graph_io.error_message e));
  check "wrapper agrees" 2 (Graph.m (Graph_io.of_string_exn s))

(* ------------------------------------------------------------------ *)
(* .msgr binary container                                             *)
(* ------------------------------------------------------------------ *)

let with_msgr g f =
  let path = Filename.temp_file "mspar" ".msgr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Graph_io.save_packed path g;
      f path)

let test_msgr_roundtrip () =
  let rng = Rng.create 40 in
  for _ = 0 to 9 do
    let g = Gen.gnp rng ~n:(2 + Rng.int rng 40) ~p:0.3 in
    with_msgr g (fun path ->
        match Graph_io.load_mmap path with
        | Error e -> Alcotest.fail e
        | Ok g' ->
            check_bool "equal" true (Graph.equal g g');
            check_bool "checksum preserved" true
              (Int64.equal (Graph.checksum g) (Graph.checksum g'));
            (* a full audit over the mmap-backed lanes stays in bounds *)
            Alcotest.(check (list string)) "audit clean" [] (Graph.audit g'))
  done;
  with_msgr (Gen.empty 0) (fun path ->
      check_bool "empty graph roundtrips" true
        (Graph.equal (Gen.empty 0) (Graph_io.load_mmap_exn path)));
  with_msgr (Gen.empty 5) (fun path ->
      check_bool "edgeless graph roundtrips" true
        (Graph.equal (Gen.empty 5) (Graph_io.load_mmap_exn path)))

let test_msgr_verify_and_materialize () =
  let g = Gen.complete 12 in
  with_msgr g (fun path ->
      let mm = Graph_io.load_mmap_exn ~verify:true path in
      check_bool "verified load equal" true (Graph.equal g mm);
      let d = Graph_io.load_packed_exn path in
      (* the materialized copy must survive the file vanishing *)
      Sys.remove path;
      check_bool "materialized equal" true (Graph.equal g d);
      Alcotest.(check (list string)) "materialized audit" [] (Graph.audit d);
      (* probe accounting works on loaded graphs *)
      Graph.reset_probes d;
      Graph.iter_neighbors d 0 (fun _ -> ());
      check "probes count on loaded graph" 11 (Graph.probes d))

let test_msgr_rejects_garbage () =
  (* wrong bytes entirely *)
  let path = Filename.temp_file "mspar" ".msgr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "definitely not a graph container";
      close_out oc;
      (match Graph_io.load_mmap path with
      | Ok _ -> Alcotest.fail "garbage must not load"
      | Error e -> check_bool "error is descriptive" true (String.length e > 0));
      check_bool "exn wrapper raises Failure" true
        (try
           ignore (Graph_io.load_mmap_exn path);
           false
         with Failure _ -> true));
  (* missing file is an Error, not an exception *)
  match Graph_io.load_mmap "/nonexistent/definitely/missing.msgr" with
  | Ok _ -> Alcotest.fail "missing file must not load"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

(* messy edge lists: self-loops, duplicates, and reversed duplicates all
   allowed — exactly the inputs the packed builder must clean up *)
let messy_edges_gen =
  QCheck.Gen.(
    int_range 1 40 >>= fun n ->
    int_range 0 300 >>= fun m ->
    list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun edges -> return (n, edges))

let messy_edges =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges)))
    messy_edges_gen

(* The seed's list-based builder, the differential reference for the
   packed pipeline: [List.sort_uniq compare] over the normalised edges,
   then a heap CSR with a per-block [Array.sort compare], handed to the
   library as raw lanes through [Graph.of_csr]. *)
let seed_reference ~n edges =
  let sorted =
    List.sort_uniq compare
      (List.filter_map
         (fun (u, v) -> if u = v then None else Some (min u v, max u v))
         edges)
  in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    sorted;
  let offsets = Array.make (n + 1) 0 in
  let maxdeg = ref 0 in
  for v = 0 to n - 1 do
    if deg.(v) > !maxdeg then maxdeg := deg.(v);
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  let adj = Array.make offsets.(n) 0 in
  let cursor = Array.copy offsets in
  List.iter
    (fun (u, v) ->
      adj.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1)
    sorted;
  for v = 0 to n - 1 do
    let lo = offsets.(v) and hi = offsets.(v + 1) in
    let block = Array.sub adj lo (hi - lo) in
    Array.sort compare block;
    Array.blit block 0 adj lo (hi - lo)
  done;
  match
    Graph.of_csr ~n ~offsets:(Bigvec.of_array offsets)
      ~adj:(Bigvec.of_array adj) ~maxdeg:!maxdeg
  with
  | Ok g -> g
  | Error e -> failwith ("seed reference builder: " ^ e)

let qcheck_packed_equals_list =
  QCheck.Test.make
    ~name:"packed builders agree with the seed reference builder on messy inputs"
    ~count:300 messy_edges
    (fun (n, edges) ->
      let via_list = Graph.of_edges ~n edges in
      let via_reference = seed_reference ~n edges in
      let via_packed =
        let shift = Graph.pack_shift ~n in
        let codes =
          Array.of_list (List.map (fun (u, v) -> Graph.pack ~shift u v) edges)
        in
        Graph.of_packed ~n codes
      in
      let via_iter =
        Graph.of_edges_iter ~n (fun push ->
            List.iter (fun (u, v) -> push u v) edges)
      in
      Graph.equal via_list via_reference
      && Graph.equal via_list via_packed
      && Graph.equal via_list via_iter)

let qcheck_packed_pack_roundtrip =
  QCheck.Test.make ~name:"pack/unpack roundtrip" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 10_000))
    (fun (n, seed) ->
      let shift = Graph.pack_shift ~n in
      let rng = Rng.create seed in
      let u = Rng.int rng n and v = Rng.int rng n in
      let c = Graph.pack ~shift u v in
      Graph.unpack_u ~shift c = u && Graph.unpack_v ~shift c = v)

let qcheck_max_degree_cached =
  QCheck.Test.make ~name:"cached max_degree equals the degree scan" ~count:100
    messy_edges
    (fun (n, edges) ->
      let g = Graph.of_edges ~n edges in
      let scan = ref 0 in
      for v = 0 to n - 1 do
        if Graph.degree g v > !scan then scan := Graph.degree g v
      done;
      Graph.max_degree g = !scan)

let test_of_packed_rejects () =
  Alcotest.check_raises "bad code"
    (Invalid_argument "Graph.of_packed: code out of range") (fun () ->
      ignore (Graph.of_packed ~n:4 [| -1 |]));
  Alcotest.check_raises "bad length"
    (Invalid_argument "Graph.of_packed: bad length") (fun () ->
      ignore (Graph.of_packed ~n:4 ~len:2 [| 0 |]));
  (* u beyond n decodes out of range *)
  (let shift = Graph.pack_shift ~n:4 in
   Alcotest.check_raises "endpoint beyond n"
     (Invalid_argument "Graph.of_packed: code out of range") (fun () ->
       ignore (Graph.of_packed ~n:4 [| Graph.pack ~shift 5 1 |])));
  (* of_edgebuf cleans loops/duplicates like of_edges *)
  let shift = Graph.pack_shift ~n:5 in
  let buf = Mspar_prelude.Edgebuf.create () in
  List.iter
    (fun (u, v) -> Mspar_prelude.Edgebuf.push buf (Graph.pack ~shift u v))
    [ (0, 1); (1, 0); (2, 2); (3, 4); (0, 1) ];
  let g = Graph.of_edgebuf ~n:5 buf in
  check "edgebuf m" 2 (Graph.m g);
  check_bool "edgebuf equal" true
    (Graph.equal g (Graph.of_edges ~n:5 [ (0, 1); (3, 4) ]))

(* The packable range is a precondition of [Graph.t]: one vertex past
   2^30 is refused by [pack_shift] and by every builder before it
   allocates anything (an n-word scratch array here would be 8 GiB), and
   by [of_csr] as an [Error]. *)
let test_packable_range () =
  let too_big = (1 lsl 30) + 1 in
  let names_range msg =
    let key = "packable range" in
    let k = String.length key in
    let rec go i =
      i + k <= String.length msg && (String.sub msg i k = key || go (i + 1))
    in
    go 0
  in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted n = 2^30 + 1" what
    | exception Invalid_argument msg ->
        check_bool (what ^ " names the range") true (names_range msg)
  in
  check "shift at n = 2^30" 30 (Graph.pack_shift ~n:(1 lsl 30));
  check "shift at n = 0" 1 (Graph.pack_shift ~n:0);
  refused "pack_shift" (fun () -> ignore (Graph.pack_shift ~n:too_big));
  refused "pack_shift on negative n" (fun () -> ignore (Graph.pack_shift ~n:(-1)));
  refused "of_edges" (fun () -> ignore (Graph.of_edges ~n:too_big [ (0, 1) ]));
  refused "of_edges_iter" (fun () ->
      ignore
        (Graph.of_edges_iter ~n:too_big (fun _ ->
             Alcotest.fail "of_edges_iter ran its producer")));
  refused "of_packed" (fun () -> ignore (Graph.of_packed ~n:too_big [| 1 |]));
  match
    Graph.of_csr ~n:too_big ~offsets:(Bigvec.of_array [| 0 |])
      ~adj:(Bigvec.of_array [| 0 |]) ~maxdeg:0
  with
  | Ok _ -> Alcotest.fail "of_csr accepted n = 2^30 + 1"
  | Error msg -> check_bool "of_csr error names the range" true (names_range msg)

let qcheck_csr_roundtrip =
  QCheck.Test.make ~name:"edges roundtrip through of_edges" ~count:100
    QCheck.(pair (int_range 1 25) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.4 in
      let g2 = Graph.of_edge_array ~n (Graph.edges g) in
      Graph.equal g g2)

let qcheck_degree_sum =
  QCheck.Test.make ~name:"degree sum equals 2m" ~count:100
    QCheck.(pair (int_range 1 30) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.3 in
      let sum = ref 0 in
      for v = 0 to n - 1 do
        sum := !sum + Graph.degree g v
      done;
      !sum = 2 * Graph.m g && Graph.complement_degree_sum g = !sum)

let qcheck_beta_vs_greedy =
  QCheck.Test.make ~name:"exact beta dominates greedy lower bound" ~count:50
    QCheck.(pair (int_range 2 18) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.4 in
      let exact = Beta.value (Beta.compute g) in
      let greedy = Beta.greedy_lower (Rng.create (seed + 1)) g in
      exact >= greedy)

let qcheck_interval_claw_free =
  QCheck.Test.make ~name:"proper interval graphs have beta <= 2" ~count:30
    QCheck.(pair (int_range 5 60) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Geometric.proper_interval rng ~n ~span:(float_of_int n /. 10.0) in
      Beta.check_claw_free g ~beta:2 = None)

let qcheck_io_roundtrip =
  QCheck.Test.make ~name:"graph_io roundtrips arbitrary graphs" ~count:60
    QCheck.(pair (int_range 0 40) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.3 in
      Graph.equal g (Graph_io.of_string_exn (Graph_io.to_string g)))

(* fuzz: [Graph_io.parse] is total — random byte junk must come back as
   [Ok] or [Error], never an exception *)
let junk_string =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      int_range 0 200 >>= fun len ->
      string_size ~gen:(char_range '\000' '\255') (return len))

let qcheck_parse_never_raises_on_junk =
  QCheck.Test.make ~name:"graph_io parse never raises on byte junk" ~count:500
    junk_string (fun s ->
      match Graph_io.parse s with Ok _ | Error _ -> true)

(* fuzz: valid serializations that are then truncated or mutated at a
   random position — the shapes a half-written or corrupted file takes *)
let mangled_edge_list =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      int_range 0 10_000 >>= fun seed ->
      int_range 1 25 >>= fun n ->
      int_range 0 3 >>= fun mode ->
      int_range 0 1_000_000 >>= fun pos ->
      int_range 0 255 >>= fun byte ->
      return
        (let g = Gen.gnp (Rng.create seed) ~n ~p:0.3 in
         let s = Graph_io.to_string g in
         let len = String.length s in
         match mode with
         | 0 -> String.sub s 0 (pos mod (len + 1)) (* truncate *)
         | 1 ->
             if len = 0 then s
             else
               let b = Bytes.of_string s in
               Bytes.set b (pos mod len) (Char.chr byte);
               Bytes.to_string b (* flip one byte *)
         | 2 -> s ^ String.make 1 (Char.chr byte) (* trailing junk *)
         | _ -> s))

let qcheck_parse_never_raises_on_mangled =
  QCheck.Test.make
    ~name:"graph_io parse never raises on truncated/mutated edge lists"
    ~count:500 mangled_edge_list (fun s ->
      match Graph_io.parse s with Ok _ | Error _ -> true)

(* the off-heap Bigarray CSR must be bit-for-bit the structure the heap
   reference builder produces: same canonical edge set, same checksum *)
let qcheck_checksum_parity =
  QCheck.Test.make
    ~name:"bigarray CSR checksum matches the heap reference builder"
    ~count:200 messy_edges
    (fun (n, edges) ->
      let want = Graph.checksum (seed_reference ~n edges) in
      let shift = Graph.pack_shift ~n in
      let codes =
        Array.of_list (List.map (fun (u, v) -> Graph.pack ~shift u v) edges)
      in
      Int64.equal want (Graph.checksum (Graph.of_packed ~n (Array.copy codes)))
      && Int64.equal want (Graph.checksum (Graph.of_edges ~n edges)))

let qcheck_msgr_roundtrip =
  QCheck.Test.make ~name:".msgr save / load_mmap preserves checksum and audit"
    ~count:60
    QCheck.(pair (int_range 0 40) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.3 in
      with_msgr g (fun path ->
          match Graph_io.load_mmap path with
          | Error e -> QCheck.Test.fail_report e
          | Ok g' ->
              Graph.equal g g'
              && Int64.equal (Graph.checksum g) (Graph.checksum g')
              && Graph.audit g' = []))

(* fuzz: valid .msgr containers then truncated, grown, byte-inserted or
   bit-flipped.  [load_mmap] must never raise and never read out of
   bounds; with [~verify:true] a mutated file either Errors or decodes
   to the semantically identical graph (Bigarray's int kind drops bit 63
   of each stored word on load, so a flip of that bit is invisible — the
   checksum equality below pins exactly that case and nothing more). *)
let mangled_msgr =
  QCheck.make
    ~print:(fun (seed, mode, pos, bit) ->
      Printf.sprintf "seed=%d mode=%d pos=%d bit=%d" seed mode pos bit)
    QCheck.Gen.(
      int_range 0 10_000 >>= fun seed ->
      int_range 0 3 >>= fun mode ->
      int_range 0 1_000_000 >>= fun pos ->
      int_range 0 7 >>= fun bit -> return (seed, mode, pos, bit))

let qcheck_msgr_fuzz =
  QCheck.Test.make
    ~name:".msgr load_mmap is total on truncated/corrupted containers"
    ~count:200 mangled_msgr
    (fun (seed, mode, pos, bit) ->
      let n = 1 + (seed mod 30) in
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.3 in
      let original = Graph.checksum g in
      with_msgr g (fun path ->
          let bytes =
            In_channel.with_open_bin path (fun ic ->
                Bytes.of_string (In_channel.input_all ic))
          in
          let len = Bytes.length bytes in
          let mutated =
            match mode with
            | 0 -> Bytes.sub bytes 0 (pos mod (len + 1)) (* truncate *)
            | 1 ->
                let i = pos mod len in
                Bytes.set bytes i
                  (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl bit)));
                bytes (* flip one bit *)
            | 2 -> Bytes.cat bytes (Bytes.make (1 + (pos mod 16)) '\x7f')
            | _ ->
                let i = pos mod (len + 1) in
                Bytes.concat Bytes.empty
                  [ Bytes.sub bytes 0 i; Bytes.make 1 '\x42';
                    Bytes.sub bytes i (len - i) ] (* insert a byte *)
          in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc mutated);
          (* plain load: total, and any Ok graph is structurally sound
             (audit reads every lane index, all inside the mapping) *)
          (match Graph_io.load_mmap path with
          | Error _ -> ()
          | Ok g' -> ignore (Graph.audit g'));
          (* verified load: Error, or the mutation was semantically
             invisible (header-CRC-survivable no-op or a bit-63 flip) *)
          match Graph_io.load_mmap ~verify:true path with
          | Error _ -> true
          | Ok g' ->
              Int64.equal (Graph.checksum g') original && Graph.audit g' = []))

let qcheck_density_le_degeneracy =
  QCheck.Test.make ~name:"density lower bound <= degeneracy" ~count:100
    QCheck.(pair (int_range 2 30) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p:0.3 in
      Arboricity.density_lower_bound g <= max 1 (Arboricity.degeneracy g))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        qcheck_csr_roundtrip;
        qcheck_packed_equals_list;
        qcheck_packed_pack_roundtrip;
        qcheck_max_degree_cached;
        qcheck_degree_sum;
        qcheck_beta_vs_greedy;
        qcheck_density_le_degeneracy;
        qcheck_interval_claw_free;
        qcheck_io_roundtrip;
        qcheck_parse_never_raises_on_junk;
        qcheck_parse_never_raises_on_mangled;
        qcheck_checksum_parity;
        qcheck_msgr_roundtrip;
        qcheck_msgr_fuzz;
      ]
  in
  Alcotest.run "mspar_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "construction" `Quick test_graph_construction;
          Alcotest.test_case "rejects bad input" `Quick
            test_graph_rejects_out_of_range;
          Alcotest.test_case "neighbor access" `Quick test_graph_neighbor_access;
          Alcotest.test_case "probe accounting" `Quick
            test_graph_probe_accounting;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          Alcotest.test_case "union/subgraph/equal" `Quick
            test_graph_union_subgraph_equal;
          Alcotest.test_case "of_packed validation" `Quick
            test_of_packed_rejects;
          Alcotest.test_case "packable range precondition" `Quick
            test_packable_range;
        ] );
      ( "generators",
        [
          Alcotest.test_case "basic shapes" `Quick test_gen_basic_shapes;
          Alcotest.test_case "gnm exact" `Quick test_gen_gnm_exact;
          Alcotest.test_case "gnp density" `Quick test_gen_gnp_density;
          Alcotest.test_case "bipartite" `Quick test_gen_bipartite;
          Alcotest.test_case "clique minus edge" `Quick
            test_gen_clique_minus_edge;
          Alcotest.test_case "two cliques bridge" `Quick
            test_gen_two_cliques_bridge;
          Alcotest.test_case "disjoint cliques" `Quick
            test_gen_disjoint_cliques_structure;
          Alcotest.test_case "planted matching" `Quick test_gen_planted_matching;
          Alcotest.test_case "hub gadget" `Quick test_gen_hub_gadget;
        ] );
      ( "families",
        [
          Alcotest.test_case "line graph structure" `Quick
            test_line_graph_structure;
          Alcotest.test_case "line graph beta" `Quick
            test_line_graph_beta_at_most_2;
          Alcotest.test_case "unit disk" `Quick test_unit_disk;
          Alcotest.test_case "proper interval" `Quick test_proper_interval;
          Alcotest.test_case "quasi unit disk" `Quick test_quasi_unit_disk;
          Alcotest.test_case "disk graph" `Quick test_disk_graph;
        ] );
      ( "beta",
        [
          Alcotest.test_case "known values" `Quick test_beta_known_values;
          Alcotest.test_case "clique minus edge" `Quick
            test_beta_clique_minus_edge_is_2;
          Alcotest.test_case "diversity family" `Quick test_beta_diversity_family;
          Alcotest.test_case "budget degradation" `Quick
            test_beta_budget_degrades_gracefully;
          Alcotest.test_case "claw witness" `Quick test_beta_claw_witness;
          Alcotest.test_case "greedy lower" `Quick test_beta_greedy_lower;
          Alcotest.test_case "sampled lower" `Quick test_beta_sampled_lower;
        ] );
      ( "arboricity",
        [
          Alcotest.test_case "degeneracy known" `Quick test_degeneracy_known;
          Alcotest.test_case "order property" `Quick
            test_degeneracy_order_property;
          Alcotest.test_case "density sandwich" `Quick test_density_and_sandwich;
          Alcotest.test_case "orientation" `Quick test_orientation;
        ] );
      ( "io",
        [
          Alcotest.test_case "string roundtrip" `Quick test_graph_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick
            test_graph_io_file_roundtrip;
          Alcotest.test_case "tolerant input" `Quick test_graph_io_tolerant_input;
          Alcotest.test_case "rejects malformed" `Quick
            test_graph_io_rejects_malformed;
          Alcotest.test_case "parse error details" `Quick
            test_graph_io_parse_errors;
          Alcotest.test_case "trailing whitespace" `Quick
            test_graph_io_trailing_whitespace;
          Alcotest.test_case "msgr roundtrip" `Quick test_msgr_roundtrip;
          Alcotest.test_case "msgr verify and materialize" `Quick
            test_msgr_verify_and_materialize;
          Alcotest.test_case "msgr rejects garbage" `Quick
            test_msgr_rejects_garbage;
        ] );
      ("properties", qsuite);
    ]
