(* lca-query: the local-access oracle against the materialized batch
   build.  One row per graph size into bench_csv/lca-query.csv (under
   --csv), gates asserted inline:

   - cold probe gate: a cold [Oracle.in_gdelta] costs at most
     4*delta + 64 probes — the 4*delta from the two endpoint mark
     replays, the constant from the [has_edge] binary search — at every
     size, so the per-query cost is O(delta) independent of n;
   - crossover: at full size a single point query is >= 100x cheaper
     than materializing G_Delta (the query path exists because of this
     gap — below it, just build);
   - warm replay: under a Zipfian working set the memo must cut probes
     per query by >= 10x against cold (full size; the smoke gate is the
     weaker warm < cold);
   - parity: every answer is cross-checked against edge membership in
     the materialized [Gdelta.sparsify_seeded] on the same seed;
   - matching tail: cold [Oracle.is_matched] runs the recursive
     random-greedy simulation, whose probe tail is polynomial in the
     degree and delta but must stay independent of n.  Measured on a
     constant-average-degree companion graph (the main sizes sweep
     density, which would conflate degree growth with n growth) and
     gated per query at [16 * avg_deg * (delta + 8)] probes, with every
     answer cross-checked against the materialized greedy matching.

   Every query batch is pre-sampled before timing so the measured loop
   is nothing but oracle calls. *)

open Mspar_prelude
open Mspar_graph
open Mspar_core
open Mspar_lca

let seed = 7

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0L
  else sorted.(Int.min (n - 1) (int_of_float (p *. float_of_int n)))

(* log-uniform rank over [0, pool): the classic cheap Zipf(s~1) stand-in —
   rank 0 is drawn ~log(pool) times more often than the tail *)
let zipf_rank rng pool =
  let x = Float.exp (Rng.float rng (Float.log (float_of_int pool))) in
  Int.max 0 (Int.min (pool - 1) (int_of_float x - 1))

(* m uniform random non-loop pairs over [0, n) (duplicates possible) *)
let random_edge_array rng ~n ~m =
  Array.init m (fun _ ->
      let u = Rng.int rng n in
      let v = ref (Rng.int rng n) in
      while !v = u do
        v := Rng.int rng n
      done;
      (u, !v))

(* pre-sample an actual edge: both endpoint replays run on query *)
let random_edge rng g =
  let n = Graph.n g in
  let rec go () =
    let u = Rng.int rng n in
    let d = Graph.degree g u in
    if d = 0 then go () else (u, Graph.neighbor_uncounted g u (Rng.int rng d))
  in
  go ()

let gate name ok detail =
  if not ok then failwith (Printf.sprintf "lca-query gate failed: %s (%s)" name detail)

(* ---- matching tail: cold [is_matched] on a bounded-density graph ---- *)

(* The reference: the random-greedy maximal matching of the materialized
   sparsifier, edges taken in the oracle's own (rank, a, b) order. *)
let greedy_matched sg ~oseed =
  let n = Graph.n sg in
  let edges = ref [] in
  for u = 0 to n - 1 do
    Graph.iter_neighbors sg u (fun v -> if u < v then edges := (u, v) :: !edges)
  done;
  let arr = Array.of_list !edges in
  Array.sort
    (fun (a1, b1) (a2, b2) ->
      let r1 = Oracle.edge_rank ~seed:oseed a1 b1
      and r2 = Oracle.edge_rank ~seed:oseed a2 b2 in
      if r1 <> r2 then Int.compare r1 r2
      else if a1 <> a2 then Int.compare a1 a2
      else Int.compare b1 b2)
    arr;
  let matched = Array.make n false in
  Array.iter
    (fun (u, v) ->
      if (not matched.(u)) && not matched.(v) then begin
        matched.(u) <- true;
        matched.(v) <- true
      end)
    arr;
  matched

(* Per-query probe ceiling for the recursive matching simulation: each
   recursion level scans one neighborhood (~avg_deg probes) and replays
   its marks (O(delta)), and the explored lower-rank chain is bounded by
   the sparsifier degree — polynomial in (avg_deg, delta), with no n
   term.  The seeded maxima sit 1.4-4x below the ceiling (643 and 1,120
   of 1,536 at the smoke sizes, 962 and 1,263 of 3,840 at n = 25k and
   100k), and probe counts are exact for the fixed seed, so a 4x
   regression of the matching simulation fails the gate at every size
   without making it flaky. *)
let mm_row ~full ~n ~delta =
  let rng = Rng.create (seed + n) in
  let m' = 3 * n in
  let g = Graph.of_edge_array ~n (random_edge_array rng ~n ~m:m') in
  let sg, _ = Gdelta.sparsify_seeded ~seed g ~delta in
  let matched = greedy_matched sg ~oseed:seed in
  let o = Oracle.create (Adj.of_static g) ~seed ~delta in
  let q_mm = if full then 500 else 300 in
  let avg_deg = 2 * m' / n in
  let mm_budget = 16 * avg_deg * (delta + 8) in
  let total = ref 0 and maxp = ref 0 in
  for _ = 1 to q_mm do
    let v = Rng.int rng n in
    let p0 = Oracle.probes o in
    let got = Oracle.is_matched o v in
    let dp = Oracle.probes o - p0 in
    total := !total + dp;
    if dp > !maxp then maxp := dp;
    if got <> matched.(v) then
      failwith
        (Printf.sprintf "lca-query is_matched parity failed at v=%d n=%d" v n)
  done;
  gate "is_matched probes <= 16 * avg_deg * (delta + 8)"
    (!maxp <= mm_budget)
    (Printf.sprintf "max=%d budget=%d n=%d" !maxp mm_budget n);
  (float_of_int !total /. float_of_int q_mm, !maxp)

let row ~full ~n ~m ~delta =
  let rng = Rng.create (seed + n) in
  let g = Graph.of_edge_array ~n (random_edge_array rng ~n ~m) in
  (* the materialized reference: parity target and crossover baseline *)
  let sg, _ = Gdelta.sparsify_seeded ~seed g ~delta in
  let build_ns =
    Msgr_smoke.best_of ~repeats:3 (fun () ->
        ignore (Gdelta.sparsify_seeded ~seed g ~delta))
  in
  (* ---- cold pass: distinct random edges, one oracle ---- *)
  let q_cold = if full then 2_000 else 400 in
  let cold_edges = Array.init q_cold (fun _ -> random_edge rng g) in
  let o = Oracle.create (Adj.of_static g) ~seed ~delta in
  let lat = Array.make q_cold 0L in
  let probes = Array.make q_cold 0 in
  Oracle.reset_probes o;
  let budget = (4 * delta) + 64 in
  Array.iteri
    (fun i (u, v) ->
      let p0 = Oracle.probes o in
      let t0 = Clock.now_ns () in
      let got = Oracle.in_gdelta o ~u ~v in
      let t1 = Clock.now_ns () in
      lat.(i) <- Int64.sub t1 t0;
      probes.(i) <- Oracle.probes o - p0;
      if got <> Graph.has_edge sg u v then
        failwith
          (Printf.sprintf "lca-query parity failed at (%d,%d) n=%d" u v n))
    cold_edges;
  let cold_total_probes = Array.fold_left ( + ) 0 probes in
  let cold_mean_probes = float_of_int cold_total_probes /. float_of_int q_cold in
  let cold_max_probes = Array.fold_left Int.max 0 probes in
  gate "cold probes <= 4*delta + 64"
    (cold_max_probes <= budget)
    (Printf.sprintf "max=%d budget=%d n=%d" cold_max_probes budget n);
  Array.sort Int64.compare lat;
  let p50 = percentile lat 0.50 and p99 = percentile lat 0.99 in
  let speedup = Int64.to_float build_ns /. Int64.to_float (Int64.max p50 1L) in
  if full then
    gate "point query >= 100x cheaper than full build"
      (speedup >= 100.)
      (Printf.sprintf "build=%Ldns p50=%Ldns n=%d" build_ns p50 n);
  (* ---- warm pass: Zipfian replay over a pooled working set ---- *)
  let pool = Array.init (if full then 2_048 else 128) (fun _ -> random_edge rng g) in
  let q_warm = if full then 20_000 else 2_000 in
  let warm_queries =
    Array.init q_warm (fun _ -> pool.(zipf_rank rng (Array.length pool)))
  in
  let ow = Oracle.create (Adj.of_static g) ~seed ~delta in
  Oracle.reset_probes ow;
  Array.iter (fun (u, v) -> ignore (Oracle.in_gdelta ow ~u ~v)) warm_queries;
  let warm_mean_probes =
    float_of_int (Oracle.probes ow) /. float_of_int q_warm
  in
  let s = Oracle.stats ow in
  let hits = s.Oracle.edge_cache.Cache.hits
  and misses = s.Oracle.edge_cache.Cache.misses in
  let hit_ratio = float_of_int hits /. float_of_int (Int.max 1 (hits + misses)) in
  if full then
    gate "Zipfian warm replay cuts probes/query >= 10x"
      (cold_mean_probes >= 10. *. warm_mean_probes)
      (Printf.sprintf "cold=%.1f warm=%.1f" cold_mean_probes warm_mean_probes)
  else
    gate "warm replay cheaper than cold"
      (warm_mean_probes < cold_mean_probes)
      (Printf.sprintf "cold=%.1f warm=%.1f" cold_mean_probes warm_mean_probes);
  let mm_mean_probes, mm_max_probes = mm_row ~full ~n ~delta in
  [
    Table.cell_i n;
    Table.cell_i (Graph.m g);
    Table.cell_i delta;
    Table.cell_f (Int64.to_float build_ns /. 1e6);
    Table.cell_f cold_mean_probes;
    Table.cell_i cold_max_probes;
    Table.cell_f (Int64.to_float p50 /. 1e3);
    Table.cell_f (Int64.to_float p99 /. 1e3);
    Table.cell_f speedup;
    Table.cell_f warm_mean_probes;
    Table.cell_f hit_ratio;
    Table.cell_f mm_mean_probes;
    Table.cell_i mm_max_probes;
    Table.cell_i (q_cold + q_warm);
  ]

let run ~full () =
  let t =
    Table.create
      ~title:
        "lca-query (point-query oracle vs materialized G_delta build; cold \
         O(delta)-probe and 100x-crossover gates, Zipfian warm replay)"
      ~columns:
        [
          "n"; "m"; "delta"; "build-ms"; "cold-probes/q"; "cold-probes-max";
          "cold-p50-us"; "cold-p99-us"; "speedup-vs-build"; "warm-probes/q";
          "memo-hit-ratio"; "mm-probes/q"; "mm-probes-max"; "queries";
        ]
  in
  let sizes =
    (* two sizes per mode: the probe columns must not move with n *)
    if full then [ (25_000, 1_250_000, 32); (100_000, 5_000_000, 32) ]
    else [ (1_000, 10_000, 8); (4_000, 40_000, 8) ]
  in
  List.iter (fun (n, m, delta) -> Table.add_row t (row ~full ~n ~m ~delta)) sizes;
  Experiments.emit t
