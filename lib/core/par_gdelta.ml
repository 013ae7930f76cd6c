open Mspar_prelude
open Mspar_graph

let sparsify ?pool ?num_domains ?(rule = Gdelta.Mark_all_at_most_two_delta)
    ~seed g ~delta =
  if delta < 1 then invalid_arg "Par_gdelta: delta >= 1";
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let nd =
    Int.max 1 (match num_domains with Some d -> d | None -> Pool.size pool)
  in
  let nv = Graph.n g in
  let source = Mark_kernel.Split { seed } in
  (* One chunk runs on the caller.  Unlike [Gdelta.sparsify_seeded] it
     adds to the graph's probe counter instead of resetting it, as the
     pooled path does. *)
  if nd = 1 then Graph.of_edgebuf ~n:nv (Gdelta.collect ~rule source g ~delta 0 nv)
  else begin
    (* Workers only read the CSR lanes, and the collector charges probes
       through the graph's atomic counter, so totals are exact.  Marks
       depend only on (seed, v), and the canonical parallel CSR build
       makes the result invariant in both the chunk count and the pool
       size. *)
    let bufs = Array.init nd (fun _ -> Edgebuf.create ~initial_capacity:1 ()) in
    Pool.parallel_for_ranges pool ~chunks:nd ~n:nv (fun ~chunk ~lo ~hi ->
        if lo < hi then bufs.(chunk) <- Gdelta.collect ~rule source g ~delta lo hi);
    (* per-chunk buffers feed the parallel CSR builder directly — no
       concatenation copy, no sequential counting sort *)
    Graph.of_edgebufs_par ~pool ~n:nv bufs
  end
[@@domain_safe
  "each chunk writes only its own bufs.(chunk) slot; the collector reads \
   shared CSR lanes and charges probes atomically"]

let time_comparison ~seed g ~delta ~domains =
  List.map
    (fun d ->
      let pool = Pool.create ~num_domains:d () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          (* warm-up: pay the lazy Domain.spawn cost outside the timer, as
             a long-running process would *)
          ignore (sparsify ~pool ~seed g ~delta);
          let _, ns =
            Clock.time_ns (fun () -> ignore (sparsify ~pool ~seed g ~delta))
          in
          (d, Clock.ns_to_ms ns)))
    domains
