(* Tests for Par_gdelta: the multicore G_delta construction must be a
   pure function of (seed, graph, delta, rule) — identical output for any
   domain count, identical to the seeded sequential builder. *)

open Mspar_prelude
open Mspar_graph
open Mspar_core

let check_bool = Alcotest.(check bool)

(* the sequential reference: the split-seed build on the caller *)
let seeded ?rule ~seed g ~delta = fst (Gdelta.sparsify_seeded ?rule ~seed g ~delta)

let test_vertex_streams_independent () =
  (* different vertices get different streams; same vertex, same stream *)
  let a = Rng.derive ~seed:1 0 in
  let b = Rng.derive ~seed:1 0 in
  check_bool "same vertex same stream" true (Rng.bits64 a = Rng.bits64 b);
  let c = Rng.derive ~seed:1 1 in
  let d = Rng.derive ~seed:2 0 in
  let a = Rng.derive ~seed:1 0 in
  check_bool "different vertex differs" false (Rng.bits64 a = Rng.bits64 c);
  let a = Rng.derive ~seed:1 0 in
  check_bool "different seed differs" false (Rng.bits64 a = Rng.bits64 d)

let test_parallel_equals_sequential () =
  let rng = Rng.create 5 in
  List.iter
    (fun (g, delta) ->
      let reference = seeded ~seed:99 g ~delta in
      List.iter
        (fun nd ->
          let s = Par_gdelta.sparsify ~num_domains:nd ~seed:99 g ~delta in
          check_bool
            (Printf.sprintf "domains=%d equals sequential" nd)
            true (Graph.equal s reference))
        [ 1; 2; 3; 4; 7 ];
      (* a chunk's marks are the whole pass's marks of its range, mark
         for mark, so chunks concatenate to the sequential pass *)
      let collect lo hi =
        Edgebuf.to_array
          (Gdelta.collect ~rule:Gdelta.Mark_all_at_most_two_delta
             (Mark_kernel.Split { seed = 99 })
             g ~delta lo hi)
      in
      let n = Graph.n g in
      check_bool "chunked marks concatenate to the whole pass" true
        (Array.append (collect 0 (n / 3)) (collect (n / 3) n) = collect 0 n))
    [
      (Gen.complete 60, 4);
      (Gen.gnp rng ~n:80 ~p:0.3, 3);
      (fst (Unit_disk.random rng ~n:100 ~radius:0.3), 6);
      (Gen.empty 10, 2);
      (Gen.path 9, 2);
    ]

let test_parallel_structure () =
  let g = Gen.complete 70 in
  let delta = 5 in
  let s = Par_gdelta.sparsify ~num_domains:4 ~seed:3 g ~delta in
  check_bool "subgraph" true (Graph.is_subgraph ~sub:s ~super:g);
  for v = 0 to Graph.n g - 1 do
    check_bool "degree floor" true
      (Graph.degree s v >= min (Graph.degree g v) delta)
  done;
  check_bool "naive size bound" true (Graph.m s <= Graph.n g * 2 * delta)

let test_parallel_quality () =
  let g = Gen.complete 80 in
  let s = Par_gdelta.sparsify ~num_domains:4 ~seed:7 g ~delta:8 in
  let os = Mspar_matching.Matching.size (Mspar_matching.Blossom.solve s) in
  check_bool
    (Printf.sprintf "quality %d vs 40" os)
    true
    (float_of_int 40 <= 1.5 *. float_of_int os)

let test_parallel_probe_exactness () =
  (* the probe counter is atomic, so concurrent domains must account every
     read — the parallel total equals the closed-form per-vertex cost, not
     a racy under-count *)
  let check_int = Alcotest.(check int) in
  let rng = Rng.create 77 in
  let g = Gen.gnp rng ~n:300 ~p:0.2 in
  let delta = 4 in
  let expected = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let d = Graph.degree g v in
    expected := !expected + (if d <= 2 * delta then d else delta)
  done;
  Graph.reset_probes g;
  ignore (Gdelta.sparsify_seeded ~seed:5 g ~delta);
  check_int "sequential probes" !expected (Graph.probes g);
  List.iter
    (fun nd ->
      Graph.reset_probes g;
      ignore (Par_gdelta.sparsify ~num_domains:nd ~seed:5 g ~delta);
      check_int
        (Printf.sprintf "domains=%d probes exact" nd)
        !expected (Graph.probes g))
    [ 2; 3; 4; 8 ]

let test_explicit_pool_equals_sequential () =
  (* sparsify on a caller-supplied pool: the pool size sets the default
     chunking, and the result must not depend on either, under either
     marking rule *)
  let rng = Rng.create 21 in
  let zoo =
    [
      (Gen.complete 60, 4);
      (Gen.gnp rng ~n:80 ~p:0.3, 3);
      (Gen.empty 10, 2);
      (Gen.path 2, 1);
      (Gen.complete 3, 1);
    ]
  in
  List.iter
    (fun nd ->
      let pool = Pool.create ~num_domains:nd () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          List.iter
            (fun rule ->
              List.iter
                (fun (g, delta) ->
                  let reference = seeded ~rule ~seed:42 g ~delta in
                  let s = Par_gdelta.sparsify ~pool ~rule ~seed:42 g ~delta in
                  check_bool
                    (Printf.sprintf "pool=%d n=%d equals sequential" nd
                       (Graph.n g))
                    true
                    (Graph.equal s reference);
                  (* more chunks than vertices: some ranges are empty *)
                  let s7 =
                    Par_gdelta.sparsify ~pool ~num_domains:7 ~rule ~seed:42 g
                      ~delta
                  in
                  check_bool
                    (Printf.sprintf "pool=%d chunks=7 n=%d equals sequential"
                       nd (Graph.n g))
                    true
                    (Graph.equal s7 reference))
                zoo)
            [ Gdelta.Mark_all_at_most_two_delta; Gdelta.Mark_all_at_most_delta ]))
    [ 1; 2; 4 ]

let test_pool_probe_exactness () =
  (* probe exactness must survive real worker domains, not just the
     caller-inline path *)
  let check_int = Alcotest.(check int) in
  let rng = Rng.create 78 in
  let g = Gen.gnp rng ~n:250 ~p:0.25 in
  let delta = 3 in
  let expected = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let d = Graph.degree g v in
    expected := !expected + (if d <= 2 * delta then d else delta)
  done;
  List.iter
    (fun nd ->
      let pool = Pool.create ~num_domains:nd () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          for trial = 1 to 3 do
            Graph.reset_probes g;
            ignore (Par_gdelta.sparsify ~pool ~seed:5 g ~delta);
            check_int
              (Printf.sprintf "pool=%d trial=%d probes exact" nd trial)
              !expected (Graph.probes g)
          done))
    [ 2; 4 ]

let test_pipeline_pool_path () =
  (* the core pipeline's ~pool fast path: same probe accounting contract as
     the sequential path, valid matching, deterministic in the rng state *)
  let module Pipeline = Mspar_core.Pipeline in
  let rng = Rng.create 31 in
  let g = Gen.gnp rng ~n:200 ~p:0.3 in
  let pool = Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let r1 = Pipeline.run ~pool (Rng.create 9) g ~beta:4 ~eps:0.5 in
      let r2 = Pipeline.run ~pool (Rng.create 9) g ~beta:4 ~eps:0.5 in
      check_bool "deterministic in rng state" true
        (Mspar_matching.Matching.size r1.Pipeline.matching
        = Mspar_matching.Matching.size r2.Pipeline.matching
        && r1.Pipeline.probes_on_input = r2.Pipeline.probes_on_input);
      check_bool "matching is over the input graph" true
        (Mspar_matching.Matching.is_valid g r1.Pipeline.matching);
      (* probes match the closed form for the §3.1 rule at the chosen Δ *)
      let delta = r1.Pipeline.delta in
      let expected = ref 0 in
      for v = 0 to Graph.n g - 1 do
        let d = Graph.degree g v in
        expected := !expected + (if d <= 2 * delta then d else delta)
      done;
      Alcotest.(check int) "pooled probe accounting" !expected
        r1.Pipeline.probes_on_input;
      (* an explicit default rule takes the same path *)
      let r3 =
        Pipeline.run ~pool ~rule:Gdelta.Mark_all_at_most_two_delta
          (Rng.create 9) g ~beta:4 ~eps:0.5
      in
      check_bool "explicit default rule stays pooled" true
        (r3.Pipeline.probes_on_input = r1.Pipeline.probes_on_input);
      (* the §2 rule runs on the pool too: it builds the split-seed graph
         keyed by the one draw the pooled path takes from the rng *)
      let rule = Gdelta.Mark_all_at_most_delta in
      let r4 = Pipeline.run ~pool ~rule (Rng.create 9) g ~beta:4 ~eps:0.5 in
      let seed = Int64.to_int (Rng.bits64 (Rng.create 9)) in
      Alcotest.(check int)
        "pooled section-2 rule builds the seeded graph"
        (Graph.m (seeded ~rule ~seed g ~delta))
        r4.Pipeline.sparsifier_edges)

let test_pool_survives_raising_job () =
  (* robustness regression: a job that raises must not poison the pool.
     This runs on the process-wide default pool on purpose — the same one
     the core pipeline uses and the one joined by at_exit, so this test
     binary also proves the at_exit join cannot deadlock after a failed
     job (a hang here fails the suite with a timeout, not silently). *)
  let exception Boom in
  let pool = Pool.get_default () in
  let attempt () =
    match
      Pool.parallel_for_ranges pool ~chunks:8 ~n:64 (fun ~chunk ~lo:_ ~hi:_ ->
          if chunk = 3 then raise Boom)
    with
    | () -> Alcotest.fail "raising job did not propagate"
    | exception Boom -> ()
  in
  attempt ();
  attempt ();
  (* the pool still runs real work, on every worker, with full coverage *)
  let g = Gen.gnp (Rng.create 13) ~n:120 ~p:0.3 in
  let reference = seeded ~seed:77 g ~delta:3 in
  let s = Par_gdelta.sparsify ~pool ~seed:77 g ~delta:3 in
  check_bool "default pool usable after raising job" true
    (Graph.equal s reference);
  let hits = Array.make 40 0 in
  Pool.parallel_for_ranges pool ~chunks:5 ~n:40 (fun ~chunk:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  check_bool "every index covered exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

let test_time_comparison_runs () =
  let g = Gen.complete 120 in
  let times = Par_gdelta.time_comparison ~seed:1 g ~delta:4 ~domains:[ 1; 2 ] in
  check_bool "two measurements" true (List.length times = 2);
  List.iter (fun (_, ms) -> check_bool "non-negative" true (ms >= 0.0)) times

let qcheck_parallel_pure =
  QCheck.Test.make
    ~name:"parallel output is a pure function of (seed, graph, delta)"
    ~count:30
    QCheck.(
      quad (int_range 2 40) (int_range 1 6) (int_range 0 1000) (int_range 1 5))
    (fun (n, delta, seed, domains) ->
      let g = Gen.gnp (Rng.create seed) ~n ~p:0.35 in
      let a = Par_gdelta.sparsify ~num_domains:domains ~seed g ~delta in
      let b = seeded ~seed g ~delta in
      Graph.equal a b)

let () =
  Alcotest.run "par_gdelta"
    [
      ( "par-gdelta",
        [
          Alcotest.test_case "vertex rng" `Quick test_vertex_streams_independent;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "structure" `Quick test_parallel_structure;
          Alcotest.test_case "quality" `Quick test_parallel_quality;
          Alcotest.test_case "probe exactness" `Quick
            test_parallel_probe_exactness;
          Alcotest.test_case "explicit pool = sequential" `Quick
            test_explicit_pool_equals_sequential;
          Alcotest.test_case "pool probe exactness" `Quick
            test_pool_probe_exactness;
          Alcotest.test_case "pipeline pool path" `Quick
            test_pipeline_pool_path;
          Alcotest.test_case "pool survives raising job" `Quick
            test_pool_survives_raising_job;
          Alcotest.test_case "timing runs" `Quick test_time_comparison_runs;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_parallel_pure ]);
    ]
