(* Bechamel micro-benchmarks for the performance-critical kernels, plus a
   wall-clock suite for the sparsifier construction path itself.

   One Test.make per kernel; the OLS estimate (ns/run) is printed as a
   table.  These complement the experiment tables: E-tables measure the
   complexity *shape* (probes, messages, work units), the micro-benchmarks
   measure raw constants on this machine.

   The construction rows time the packed-int Edgebuf/counting-sort
   pipeline, sequential and multi-domain, and the cache-blocked marking
   loop against its per-vertex predecessor.  They are best-of-N wall
   times, not OLS estimates: the
   interesting configuration (100k vertices, ~5M edges) is too large to
   iterate under bechamel's sampling loop. *)

open Bechamel
open Toolkit
open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_core

let make_tests () =
  let rng = Rng.create 424242 in
  let k500 = Gen.complete 500 in
  let udg, _ = Unit_disk.random rng ~n:600 ~radius:0.15 in
  let lg = Line_graph.random_base rng ~base_n:40 ~p:0.4 in
  let delta = 8 in
  let sparsifier, _ = Gdelta.sparsify (Rng.create 7) k500 ~delta in
  [
    Test.make ~name:"gdelta/K500-d8"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Gdelta.sparsify (Rng.copy rng) k500 ~delta)));
    Test.make ~name:"gdelta/udg600-d8"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Gdelta.sparsify (Rng.copy rng) udg ~delta)));
    Test.make ~name:"greedy/udg600"
      (Staged.stage (fun () -> Sys.opaque_identity (Greedy.maximal udg)));
    Test.make ~name:"blossom/linegraph"
      (Staged.stage (fun () -> Sys.opaque_identity (Blossom.solve lg)));
    Test.make ~name:"blossom/K500-sparsified"
      (Staged.stage (fun () -> Sys.opaque_identity (Blossom.solve sparsifier)));
    Test.make ~name:"approx-eps0.5/K500-sparsified"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Approx.solve_general ~eps:0.5 sparsifier)));
    Test.make ~name:"sparse-array/create-100k"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Sparse_array.create 100_000 ~default:(-1))));
    Test.make ~name:"sparse-array/reset-vs-refill"
      (let a = Sparse_array.create 100_000 ~default:(-1) in
       Staged.stage (fun () ->
           for i = 0 to 63 do
             Sparse_array.set a (i * 1000) i
           done;
           Sparse_array.reset a));
    Test.make ~name:"rng/sample-distinct-16-of-1000"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Rng.sample_distinct (Rng.copy rng) ~k:16 ~n:1000)));
    Test.make
      ~name:"dyn/insert-delete"
      (let dg = Mspar_dynamic.Dyn_graph.create 1000 in
       let i = ref 0 in
       Staged.stage (fun () ->
           incr i;
           let u = !i * 7919 mod 1000 and v = !i * 104729 mod 1000 in
           if u <> v then begin
             ignore (Mspar_dynamic.Dyn_graph.insert dg u v);
             ignore (Mspar_dynamic.Dyn_graph.delete dg u v)
           end));
    Test.make ~name:"hopcroft-karp/bipartite-200x200"
      (let bip =
         Gen.random_bipartite (Rng.create 5) ~left:200 ~right:200 ~p:0.05
       in
       Staged.stage (fun () -> Sys.opaque_identity (Hopcroft_karp.solve bip)));
    Test.make ~name:"det-matching/udg600-sparsified"
      (let s8, _ = Gdelta.sparsify (Rng.create 9) udg ~delta:4 in
       Staged.stage (fun () ->
           Sys.opaque_identity (Mspar_distsim.Det_matching.maximal s8)));
    Test.make ~name:"edcs/K500-bound16"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Edcs.construct k500 ~bound:16)));
    Test.make ~name:"stream/feed-10k-edges"
      (let edges = Graph.edges (Gen.complete 150) in
       Staged.stage (fun () ->
           let t =
             Mspar_stream.Stream_sparsifier.create (Rng.create 3) ~n:150
               ~delta:8
           in
           Mspar_stream.Stream_sparsifier.feed_all t edges;
           Sys.opaque_identity t));
    Test.make ~name:"solomon/K500-d16"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Solomon.sparsify k500 ~delta_alpha:16)));
    Test.make ~name:"beta/compute-udg600"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Beta.compute ~budget:500_000 udg)));
    Test.make ~name:"degeneracy/udg600"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Arboricity.degeneracy udg)));
    Test.make ~name:"tutte-berge/linegraph"
      (let lm = Blossom.solve lg in
       Staged.stage (fun () ->
           Sys.opaque_identity (Blossom.tutte_berge_witness lg lm)));
  ]

(* ------------------------------------------------------------------ *)
(* Construction path: list vs packed, sequential vs domains           *)
(* ------------------------------------------------------------------ *)

(* Host parallelism, recorded as a column in every construction CSV row:
   a published wall-time is only interpretable next to the cores that
   produced it. *)
let host_cores = Domain.recommended_domain_count ()

(* Pooled rows may only advertise themselves as parallel when the host
   can actually run domains side by side.  On a single-core machine the
   same code path is still timed — the pool dispatch overhead is a real
   number — but the row is labelled honestly so a published CSV cannot
   claim a speedup the hardware could not have delivered. *)
let pooled_label domains =
  if host_cores >= 2 then Printf.sprintf "par-%ddom" domains
  else Printf.sprintf "pooled-serial-%ddom" domains

let random_edge_array rng ~n ~m =
  Array.init m (fun _ ->
      let u = Rng.int rng n in
      let v = ref (Rng.int rng n) in
      while !v = u do
        v := Rng.int rng n
      done;
      (u, !v))

let best_of ~repeats f =
  let best = ref Int64.max_int in
  for _ = 1 to repeats do
    let _, ns = Clock.time_ns f in
    if ns < !best then best := ns
  done;
  !best

(* Paired interleaved medians for an A/B kernel comparison.  The two
   thunks are timed alternately (A, B, A, B, …) so slow drift — the
   major-heap state earlier rows leave behind, container CPU contention —
   lands on both kernels equally, and the per-kernel medians stay
   comparable.  Medians, not best-of: the per-vertex mark baseline's cost
   is bimodal (doubling-growth buffer copies and major-GC slices land in
   some runs and not others), and that tail is part of what the blocked
   collector removes — a min() would report the lucky GC-free run.
   Back-to-back (non-interleaved) medians for this pair swung ±30% run to
   run on the 1-core CI container, drowning a steady ~12% difference. *)
let interleaved_medians ~rounds fa fb =
  let sa = Array.make rounds 0L and sb = Array.make rounds 0L in
  for i = 0 to rounds - 1 do
    sa.(i) <- snd (Clock.time_ns fa);
    sb.(i) <- snd (Clock.time_ns fb)
  done;
  Array.sort Int64.compare sa;
  Array.sort Int64.compare sb;
  (sa.(rounds / 2), sb.(rounds / 2))

(* The pre-blocking mark collector, kept as the perf baseline for the
   gdelta-mark rows: the same emulated-Fisher–Yates sampler, but with one
   live [Rng.int] call per draw (no word prefetch), one checked push per
   mark, one probe-counter update per vertex, and no CSR-block
   working-set reuse.  Its RNG consumption is word-for-word the batched
   collector's (every batched draw consumes at least one prefetched
   word, rejections fall through to the live stream), so the emitted
   codes are bit-for-bit identical — cross-checked below. *)
(* The pre-PR [Sampling.sample_indices], reproduced exactly: one live
   [Rng.int] per draw and the marks emitted through the [f] closure.  The
   old production collector paid that per-draw closure call too, so the
   baseline keeps it — hand-inlining the loop here would make the
   "before" row faster than the code it claims to represent. *)
let unbatched_sample_indices pos rng ~n ~k ~f =
  let k = Int.min k n in
  Sparse_array.reset pos;
  let value_at i =
    let x = Sparse_array.get pos i in
    if x = -1 then i else x
  in
  for step = 0 to k - 1 do
    let last = n - 1 - step in
    let j = Rng.int rng (last + 1) in
    f (value_at j);
    Sparse_array.set pos j (value_at last)
  done

let pervertex_mark_codes rng g ~delta ~shift =
  let n = Graph.n g in
  let pos = Sparse_array.create (Graph.max_degree g) ~default:(-1) in
  let buf = Edgebuf.create () in
  let keep = 2 * delta in
  for v = 0 to n - 1 do
    let d = Graph.degree g v in
    let base = v lsl shift in
    if d <= keep then
      Graph.iter_neighbors g v (fun u -> Edgebuf.push buf (base lor u))
    else begin
      Graph.add_probes g delta;
      unbatched_sample_indices pos rng ~n:d ~k:delta ~f:(fun i ->
          Edgebuf.push buf (base lor Graph.neighbor_uncounted g v i))
    end
  done;
  buf

(* One (kernel, ns) row per configuration; also cross-checks that every
   builder variant produces the identical graph, so the smoke run doubles
   as a correctness guard for the perf harness.

   The pooled rows reuse persistent pools created (and warmed by the
   cross-checks) outside the timed region, so they measure the amortised
   steady state a long-running process sees — the spawn cost the pool
   exists to eliminate is deliberately excluded. *)
let construction_rows ~full =
  let n, m, delta, repeats =
    if full then (100_000, 5_000_000, 32, 2) else (2_000, 40_000, 8, 3)
  in
  let rng = Rng.create 20200715 in
  let pairs = random_edge_array rng ~n ~m in
  let g = Graph.of_edge_array ~n pairs in
  let require name cond = if not cond then failwith ("micro-bench: " ^ name) in
  let shift = Graph.pack_shift ~n in
  let codes = Array.map (fun (u, v) -> Graph.pack ~shift u v) pairs in
  let pool1 = Pool.create ~num_domains:1 () in
  let pool2 = Pool.create ~num_domains:2 () in
  let pool4 = Pool.create ~num_domains:4 () in
  let pool8 = Pool.create ~num_domains:8 () in
  Fun.protect
    ~finally:(fun () -> List.iter Pool.shutdown [ pool1; pool2; pool4; pool8 ])
    (fun () ->
      (* correctness guards double as pool warm-up *)
      require "parallel CSR builder mismatches of_packed"
        (Graph.equal
           (Graph.of_packed ~n (Array.copy codes))
           (Graph.of_packed_par ~pool:pool4 ~n (Array.copy codes)));
      let seq, _ = Gdelta.sparsify_seeded ~seed:7 g ~delta in
      require "4-domain pooled sparsifier mismatches sequential"
        (Graph.equal seq (Par_gdelta.sparsify ~pool:pool4 ~seed:7 g ~delta));
      ignore (Par_gdelta.sparsify ~pool:pool2 ~seed:7 g ~delta);
      ignore (Par_gdelta.sparsify ~pool:pool8 ~seed:7 g ~delta);
      (let blocked, bshift = Gdelta.marked_codes (Rng.create 7) g ~delta in
       require "marked_codes shift mismatches pack_shift" (bshift = shift);
       require "per-vertex mark baseline mismatches the blocked collector"
         (Graph.equal
            (Graph.of_edgebuf ~n blocked)
            (Graph.of_edgebuf ~n
               (pervertex_mark_codes (Rng.create 7) g ~delta ~shift))));
      let tag name =
        Printf.sprintf "construction/%s/n%d-m%d-d%d" name n (Graph.m g) delta
      in
      (* ~cores is the domain count a row engages; the recorded column is
         capped by what the host can actually run side by side *)
      let row ~cores name f =
        (tag name, Int.min cores host_cores, best_of ~repeats f)
      in
      let mark_pair_ns =
        interleaved_medians
          ~rounds:((2 * repeats) + 3)
          (fun () ->
            Sys.opaque_identity
              (pervertex_mark_codes (Rng.create 7) g ~delta ~shift))
          (fun () ->
            Sys.opaque_identity (Gdelta.marked_codes (Rng.create 7) g ~delta))
      in
      [
        row ~cores:1 "of-edges-packed" (fun () ->
            Sys.opaque_identity (Graph.of_edge_array ~n pairs));
        (* both CSR builders mutate their input prefix, so each timed run
           pays one identical Array.copy of the packed codes *)
        row ~cores:1 "csr-build/seq" (fun () ->
            Sys.opaque_identity (Graph.of_packed ~n (Array.copy codes)));
        row ~cores:4
          ("csr-build/" ^ pooled_label 4)
          (fun () ->
            Sys.opaque_identity
              (Graph.of_packed_par ~pool:pool4 ~n (Array.copy codes)));
        row ~cores:1 "gdelta-packed" (fun () ->
            Sys.opaque_identity (Gdelta.sparsify (Rng.create 7) g ~delta));
        (* the marking hot path in isolation (no CSR build): per-vertex
           checked pushes + one live RNG call per draw through the ~f
           closure (the pre-PR shape), vs the cache-blocked collector
           with batched word prefetch and closure-free index landing
           (identical output codes, cross-checked above).  Timed as an
           interleaved pair — see [interleaved_medians]. *)
        (tag "gdelta-mark/pervertex-unbatched", 1, fst mark_pair_ns);
        (tag "gdelta-mark/blocked-batched", 1, snd mark_pair_ns);
        row ~cores:1 "par-gdelta-seq" (fun () ->
            Sys.opaque_identity (Gdelta.sparsify_seeded ~seed:7 g ~delta));
        row ~cores:1 "par-gdelta-pool-1dom" (fun () ->
            Sys.opaque_identity
              (Par_gdelta.sparsify ~pool:pool1 ~seed:7 g ~delta));
        row ~cores:2
          ("par-gdelta-pool/" ^ pooled_label 2)
          (fun () ->
            Sys.opaque_identity
              (Par_gdelta.sparsify ~pool:pool2 ~seed:7 g ~delta));
        row ~cores:4
          ("par-gdelta-pool/" ^ pooled_label 4)
          (fun () ->
            Sys.opaque_identity
              (Par_gdelta.sparsify ~pool:pool4 ~seed:7 g ~delta));
        row ~cores:8
          ("par-gdelta-pool/" ^ pooled_label 8)
          (fun () ->
            Sys.opaque_identity
              (Par_gdelta.sparsify ~pool:pool8 ~seed:7 g ~delta));
      ])

(* Pooled speedup curve (fresh warmed pool per domain count); emitted as
   its own CSV so scaling runs are diffable across machines.  The title's
   first token is the CSV slug: bench_csv/par-scaling.csv.

   Returns [None] on a single-core host: a "parallel speedup" table whose
   domains all time-slice one core is a fabrication, so the harness
   refuses to produce it rather than publishing rows a reader would take
   as genuine scaling. *)
let scaling_table () =
  if host_cores < 2 then begin
    prerr_endline
      "par-scaling: refusing to emit a parallel-speedup table on a \
       single-core host (Domain.recommended_domain_count () = 1); rerun on \
       a multicore machine";
    None
  end
  else begin
    let n, m, delta = (100_000, 5_000_000, 32) in
    let rng = Rng.create 20200715 in
    let g = Graph.of_edge_array ~n (random_edge_array rng ~n ~m) in
    let times =
      Par_gdelta.time_comparison ~seed:7 g ~delta
        ~domains:[ 1; 2; 4; 8 ]
    in
    let base = match times with (_, ms) :: _ -> ms | [] -> 1.0 in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "par-scaling (pooled G_delta, n=%d m=%d d=%d)" n
             (Graph.m g) delta)
        ~columns:[ "domains"; "ms"; "speedup-vs-1dom"; "host-cores" ]
    in
    List.iter
      (fun (d, ms) ->
        Table.add_row table
          [
            string_of_int d;
            Printf.sprintf "%.1f" ms;
            Printf.sprintf "%.2f" (base /. ms);
            string_of_int host_cores;
          ])
      times;
    Some table
  end

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* one (kernel, ns, cores) table; [filter] selects by row-name substring so
   the csr-build and gdelta-mark rows also land in their own CSVs *)
let rows_table ~title ?(filter = fun _ -> true) rows =
  let t = Table.create ~title ~columns:[ "kernel"; "ns/run"; "cores" ] in
  List.iter
    (fun (name, cores, ns) ->
      if filter name then
        Table.add_row t [ name; Int64.to_string ns; string_of_int cores ])
    rows;
  t

(* the before/after stories the CSVs exist to tell, as standalone tables:
   bench_csv/csr-build.csv and bench_csv/gdelta-mark.csv *)
let emit_focus_tables ~label rows =
  Experiments.emit
    (rows_table
       ~title:(Printf.sprintf "csr-build (%s; seq heap-free build vs pooled)" label)
       ~filter:(contains_substring ~needle:"/csr-build/")
       rows);
  Experiments.emit
    (rows_table
       ~title:
         (Printf.sprintf
            "gdelta-mark (%s; per-vertex checked pushes vs cache-blocked \
             batched collector)"
            label)
       ~filter:(contains_substring ~needle:"/gdelta-mark/")
       rows)

let find_row rows key =
  match List.find_opt (fun (name, _, _) -> String.length name >= String.length key
      && String.sub name 0 (String.length key) = key) rows with
  | Some (_, _, ns) -> ns
  | None -> failwith ("micro-bench: missing row " ^ key)

let smoke () =
  let rows = construction_rows ~full:false in
  Experiments.emit
    (rows_table ~title:"micro-smoke (construction path, tiny sizes)" rows);
  emit_focus_tables ~label:"smoke sizes" rows;
  (* wiring guard: a 1-domain pool takes the sequential path inside
     sparsify, so the pooled entry point must not cost more than the
     sequential one beyond noise (lenient: 1.5x plus 50ms absolute slack,
     as CI boxes jitter) *)
  let seq = find_row rows "construction/par-gdelta-seq/" in
  let pooled = find_row rows "construction/par-gdelta-pool-1dom/" in
  if
    Int64.to_float pooled
    > (1.5 *. Int64.to_float seq) +. 50_000_000.0
  then
    failwith
      (Printf.sprintf
         "micro-bench: pooled 1-domain path is slower than sequential beyond \
          tolerance (%Ld ns vs %Ld ns)"
         pooled seq)

let run ?(construction = `Smoke) () =
  let tests = Test.make_grouped ~name:"mspar" ~fmt:"%s %s" (make_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Table.create ~title:"micro-benchmarks (bechamel OLS, monotonic clock)"
      ~columns:[ "kernel"; "ns/run"; "cores" ]
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.0f" e
        | Some [] | None -> "n/a"
      in
      Table.add_row table [ name; est; "1" ])
    (List.sort compare rows);
  let crows = construction_rows ~full:(construction = `Full) in
  List.iter
    (fun (name, cores, ns) ->
      Table.add_row table [ name; Int64.to_string ns; string_of_int cores ])
    crows;
  Experiments.emit table;
  let label = if construction = `Full then "full sizes" else "smoke sizes" in
  emit_focus_tables ~label crows;
  if construction = `Full then
    match scaling_table () with
    | Some t -> Experiments.emit t
    | None -> ()
