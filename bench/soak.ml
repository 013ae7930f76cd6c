(* Soak runner: larger-than-unit-test instances with invariant checks.

   Not part of `dune runtest` (it takes a minute); run explicitly with

     dune exec bench/soak.exe

   Each stage prints PASS/FAIL and the process exits non-zero on any
   failure, so this can serve as a heavyweight CI job. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching

let failures = ref 0

let stage name f =
  let t0 = Clock.now_ns () in
  let ok = try f () with e -> (Printf.printf "  exception: %s\n" (Printexc.to_string e); false) in
  let ms = Clock.ns_to_ms (Int64.sub (Clock.now_ns ()) t0) in
  Printf.printf "%-46s %s  (%.0f ms)\n%!" name (if ok then "PASS" else "FAIL") ms;
  if not ok then incr failures

let () =
  Printf.printf "mspar soak run\n%!";

  stage "sequential pipeline, K_3000 (m = 4.5M)" (fun () ->
      let g = Gen.complete 3000 in
      let r =
        Mspar_core.Pipeline.run ~multiplier:0.5 (Rng.create 1) g ~beta:1
          ~eps:0.5
      in
      (* ratio within 1.05 — far inside the (1+eps)^2 guarantee *)
      Matching.is_valid g r.Mspar_core.Pipeline.matching
      && 100 * Matching.size r.Mspar_core.Pipeline.matching >= 95 * 1500
      && Mspar_core.Pipeline.sublinearity_ratio r < 0.02);

  stage "sequential pipeline, unit disk n=5000" (fun () ->
      let g, _ = Unit_disk.random (Rng.create 2) ~n:5000 ~radius:0.06 in
      let r =
        Mspar_core.Pipeline.run ~multiplier:0.5 (Rng.create 3) g ~beta:5
          ~eps:0.5
      in
      let opt = Matching.size (Blossom.solve g) in
      let got = Matching.size r.Mspar_core.Pipeline.matching in
      Matching.is_valid g r.Mspar_core.Pipeline.matching
      && float_of_int opt <= 2.25 *. float_of_int got);

  stage "exact blossom, line graph ~3k vertices" (fun () ->
      let lg = Line_graph.random_base (Rng.create 4) ~base_n:120 ~p:0.45 in
      let m = Blossom.solve lg in
      let a = Blossom.tutte_berge_witness lg m in
      Matching.is_valid lg m
      && Blossom.deficiency_formula lg ~a
         = Graph.n lg - (2 * Matching.size m));

  stage "dynamic matcher, 30k churn updates" (fun () ->
      let n = 300 in
      let rng = Rng.create 5 in
      let dm =
        Mspar_dynamic.Dyn_matching.create ~multiplier:0.5 (Rng.split rng) ~n
          ~beta:3 ~eps:0.5
      in
      let ok = ref true in
      for step = 1 to 30_000 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then
          if Rng.bernoulli rng 0.35 then
            ignore (Mspar_dynamic.Dyn_matching.delete dm u v)
          else ignore (Mspar_dynamic.Dyn_matching.insert dm u v);
        if step mod 2_000 = 0 then begin
          let g = Mspar_dynamic.Dyn_graph.snapshot (Mspar_dynamic.Dyn_matching.graph dm) in
          if not (Matching.is_valid g (Mspar_dynamic.Dyn_matching.matching dm))
          then ok := false
        end
      done;
      !ok);

  stage "oblivious dynamic sparsifier, 20k updates" (fun () ->
      let rng = Rng.create 6 in
      let ds = Mspar_dynamic.Dyn_sparsifier.create (Rng.split rng) ~n:400 ~delta:6 in
      for _ = 1 to 20_000 do
        let u = Rng.int rng 400 and v = Rng.int rng 400 in
        if u <> v then
          if Rng.bool rng then ignore (Mspar_dynamic.Dyn_sparsifier.insert ds u v)
          else ignore (Mspar_dynamic.Dyn_sparsifier.delete ds u v)
      done;
      Mspar_dynamic.Dyn_sparsifier.check_invariants ds
      && (Mspar_dynamic.Dyn_sparsifier.stats ds).Mspar_dynamic.Dyn_sparsifier.max_update_work
         <= 25);

  stage "distributed pipeline, 4 cliques n=2000" (fun () ->
      let g = Gen.disjoint_cliques (Rng.create 7) ~n:2000 ~k:4 in
      let r =
        Mspar_distsim.Pipeline_dist.run_maximal_only ~multiplier:0.5
          (Rng.create 8) g ~beta:1 ~eps:0.5
      in
      Matching.is_valid g r.Mspar_distsim.Pipeline_dist.matching
      && r.Mspar_distsim.Pipeline_dist.messages < Graph.m g);

  stage "streaming sketch, 1M-edge stream" (fun () ->
      let g = Gen.complete 1500 in
      let edges = Graph.edges g in
      Rng.shuffle_in_place (Rng.create 9) edges;
      let s, `Stored peak, `Stream_len len =
        Mspar_stream.Stream_sparsifier.run (Rng.create 10) ~n:1500 ~delta:8
          edges
      in
      len = Graph.m g
      && peak <= 1500 * 8
      && Matching.size (Blossom.solve s) = 750);

  stage "MPC, 32 machines on K_1000" (fun () ->
      let g = Gen.complete 1000 in
      let cfg = { Mspar_mpc.Mpc.machines = 32; capacity = 100_000 } in
      let r = Mspar_mpc.Mpc_matching.run (Rng.create 11) cfg g ~beta:1 ~eps:0.5 in
      Matching.is_valid g r.Mspar_mpc.Mpc_matching.matching
      && r.Mspar_mpc.Mpc_matching.rounds = 2
      && Matching.size r.Mspar_mpc.Mpc_matching.matching = 500);

  stage "parallel construction equals sequential, K_1200" (fun () ->
      let g = Gen.complete 1200 in
      let a = Mspar_core.Par_gdelta.sparsify ~num_domains:4 ~seed:12 g ~delta:6 in
      let b, _ = Mspar_core.Gdelta.sparsify_seeded ~seed:12 g ~delta:6 in
      Graph.equal a b);

  if !failures = 0 then Printf.printf "soak: all stages passed\n"
  else begin
    Printf.printf "soak: %d stage(s) FAILED\n" !failures;
    exit 1
  end
