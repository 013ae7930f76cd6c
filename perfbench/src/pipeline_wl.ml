(* The [pipeline] workload: Thm 3.1's sequential path, one solve at a
   time.  Set-up generates the gadget union from the seed and saves it
   as [.msgr] (in a child process, so set-up memory never counts toward
   the solver's peak RSS); each solve then opens it with
   [Graph_io.load_mmap] and runs [Pipeline.run] with the [mspar run]
   defaults (ε = 0.5, multiplier 1.0, so Δ = 16) on the sequential path
   and the default [Approx_eps] matcher, under its own seed. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_core

let spec = { Gadgets.gadgets = 126; half = 99 }
let beta = 2
let eps = 0.5
let multiplier = 1.0
let delta = Delta_param.scaled ~multiplier ~beta ~eps
let max_len = (2 * Approx.phases_for eps) + 1
let setup_reps = 9

(* work per run: [solves_per_s] solves per second of --seconds, so that
   a 25-second run holds 12 solves; the 2-vCPU host the benchmark was
   sized on took 2.2-3.3 s per solve *)
let solves_per_s = 0.48
let solves ~seconds = Int.max 3 (int_of_float (Float.round (seconds *. solves_per_s)))
let graph_seed ~seed = Rng.bits62 (Rng.derive ~seed 0)
let solve_seed ~seed i = Rng.bits62 (Rng.derive ~seed (i + 1))

let setup_once ~seed ~path =
  let t0 = Mono.now_ns () in
  flush_all ();
  (match Unix.fork () with
  | 0 ->
      let code =
        match
          let g = Gadgets.build ~seed:(graph_seed ~seed) spec in
          if Graph.n g <> Gadgets.n spec || Graph.m g <> Gadgets.m spec then 3
          else begin
            Graph_io.save_packed path g;
            0
          end
        with
        | c -> c
        | exception e ->
            prerr_endline ("pipeline set-up: " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "pipeline set-up failed"));
  Mono.s_of_ns (Mono.ns_since t0)

type solve = {
  wall_ns : int;
  size : int;  (* |M| *)
  sp_edges : int;
  valid : bool;  (* Matching.is_valid on G *)
  mutable marks : int;
  probes : int;
  mutable greedy : int;  (* |greedy maximal| on G_Δ *)
}

let reference ~path s =
  let t0 = Mono.now_ns () in
  let g = Graph_io.load_mmap_exn path in
  let r = Pipeline.run ~multiplier (Rng.create s) g ~beta ~eps in
  let wall_ns = Mono.ns_since t0 in
  {
    wall_ns;
    size = Matching.size r.Pipeline.matching;
    sp_edges = r.Pipeline.sparsifier_edges;
    valid = Matching.is_valid g r.Pipeline.matching;
    marks = 0;
    probes = r.Pipeline.probes_on_input;
    greedy = 0;
  }

(* the exact work counts of a solve, recomputed off the clock: marks and
   the greedy start Approx.solve_general augments from *)
let fill_fingerprint ~path s (r : solve) =
  let g = Graph_io.load_mmap_exn path in
  let sp, st = Gdelta.sparsify (Rng.create s) g ~delta in
  r.marks <- st.Gdelta.marks;
  r.greedy <- Matching.size (Greedy.maximal sp);
  st.Gdelta.edges

type split = {
  sp_checksum : int64;
  s_edges : int;
  s_size : int;
  s_marks : int;
  s_probes : int;
  s_greedy : int;
}

(* the calls Pipeline.run composes, each in its own span *)
let traced_solve tr ~path ~op s =
  let span name f = Trace.span tr ~name:(Trace.name tr name) ~op f in
  let root = Trace.enter tr ~name:(Trace.name tr "pipeline.solve") ~op in
  let g = span "graph_io.open" (fun () -> Graph_io.load_mmap_exn path) in
  Graph.reset_probes g;
  let buf, _shift =
    span "gdelta.mark" (fun () -> Gdelta.marked_codes (Rng.create s) g ~delta)
  in
  let marks = Edgebuf.length buf in
  let probes = Graph.probes g in
  let sp = span "graph.csr_build" (fun () -> Graph.of_edgebuf ~n:(Graph.n g) buf) in
  let init = span "greedy.maximal" (fun () -> Greedy.maximal sp) in
  let greedy = Matching.size init in
  let m = span "blossom.augment" (fun () -> Blossom.solve_bounded ~init ~max_len sp) in
  Trace.leave tr root;
  {
    sp_checksum = Graph.checksum sp;
    s_edges = Graph.m sp;
    s_size = Matching.size m;
    s_marks = marks;
    s_probes = probes;
    s_greedy = greedy;
  }

let sum f xs = Array.fold_left (fun a x -> a + f x) 0 xs
let ms_median xs = Pct.median (Array.map Mono.ms_of_ns xs)

let run ~seed ~seconds ~trace ~dir (rep : Report.t) =
  let path = Filename.concat dir (Printf.sprintf "pipeline-%d.msgr" (Unix.getpid ())) in
  let setup = Array.init setup_reps (fun _ -> setup_once ~seed ~path) in
  let k = solves ~seconds in
  let seeds = Array.init k (solve_seed ~seed) in
  let n = Gadgets.n spec and mcm = Gadgets.mcm spec in
  Report.print_stamp
    (Host.stamp ()
    @ [
      ("workload", "pipeline");
      ("msgr_fs", Host.fs_type dir);
      ("fsync", "none");
      ("loop", "batch,one-solve-at-a-time,sequential");
      ("graph", Printf.sprintf "%dx2xK_%d(n=%d,m=%d,mcm=%d)" spec.gadgets spec.half n
                  (Gadgets.m spec) mcm);
      ("delta", string_of_int delta);
      ("eps", Printf.sprintf "%g" eps);
      ("solves", string_of_int k);
      ("graph_seed", string_of_int (graph_seed ~seed));
      ("solve_seeds", String.concat "," (Array.to_list (Array.map string_of_int seeds)));
    ]);
  let tr = Trace.create () in
  let splits = Array.make k None in
  let solves =
    Array.mapi
      (fun i s ->
        Gc.full_major ();
        match trace with
        | false -> reference ~path s
        | true ->
            splits.(i) <- Some (traced_solve tr ~path ~op:i s);
            Gc.full_major ();
            reference ~path s)
      seeds
  in
  let peak_rss = Host.vm_hwm_mb None in
  (* fingerprints: from the split when traced, recomputed otherwise *)
  Array.iteri
    (fun i (r : solve) ->
      match splits.(i) with
      | Some sp ->
          r.marks <- sp.s_marks;
          r.greedy <- sp.s_greedy;
          Report.check rep (sp.s_probes = r.probes)
            (Printf.sprintf "solve %d: split probes %d <> Pipeline.run %d" i sp.s_probes
               r.probes)
      | None ->
          Gc.full_major ();
          let edges = fill_fingerprint ~path seeds.(i) r in
          Report.check rep (edges = r.sp_edges)
            (Printf.sprintf "solve %d: G_delta edges not reproducible" i))
    solves;
  (* correctness: a valid matching on G, within (1+eps) of the closed form *)
  let within (r : solve) = float_of_int r.size *. (1. +. eps) >= float_of_int mcm in
  Array.iteri
    (fun i (r : solve) ->
      Report.check rep r.valid (Printf.sprintf "solve %d: matching invalid on G" i);
      Report.check rep (within r)
        (Printf.sprintf "solve %d: |M| = %d below MCM/(1+eps) = %d/%.1f" i r.size mcm
           (1. +. eps)))
    solves;
  let walls = Array.map (fun (r : solve) -> r.wall_ns) solves in
  let failed =
    Array.fold_left (fun a (r : solve) -> if r.valid && within r then a else a + 1) 0 solves
  in
  let ratio = Pct.median (Array.map (fun (r : solve) -> float_of_int r.size /. float_of_int mcm) solves) in
  let gate = not trace in
  Report.add ~gate rep ~name:"setup_s" ~unit_:"s" ~samples:setup_reps (Pct.median setup);
  Report.add ~gate rep ~name:"peak_rss_mb" ~unit_:"MB" ~samples:1 peak_rss;
  Report.add ~gate rep ~name:"matching_ratio" ~unit_:"ratio" ~samples:k ratio;
  (* throughput from the median solve, which a few solves slowed by the
     host do not move *)
  let p50 = Pct.median (Array.map Mono.s_of_ns walls) in
  Report.add ~gate rep ~name:"ops_per_s" ~unit_:"1/s" ~samples:k (1. /. p50);
  Report.add rep ~name:"solve_p50_s" ~unit_:"s" ~samples:k p50;
  List.iter
    (fun (name, unit_) -> Report.note_na rep ~name ~unit_)
    [
      ("update_p50_ms", "ms"); ("update_p99_ms", "ms"); ("query_p50_ms", "ms");
      ("query_p99_ms", "ms");
    ];
  Report.add rep ~name:"failed_ops_ratio" ~unit_:"ratio" ~samples:k
    (float_of_int failed /. float_of_int k);
  let marks = sum (fun (r : solve) -> r.marks) solves in
  let sp_edges = sum (fun (r : solve) -> r.sp_edges) solves in
  let free_roots = sum (fun (r : solve) -> n - (2 * r.greedy)) solves in
  let augmentations = sum (fun (r : solve) -> r.size - r.greedy) solves in
  let sizes = sum (fun (r : solve) -> r.size) solves in
  Report.fingerprint_int rep "gdelta.marks" marks;
  Report.fingerprint_int rep "graph.sparsifier_edges" sp_edges;
  Report.fingerprint_int rep "blossom.free_roots" free_roots;
  Report.fingerprint_int rep "blossom.augmentations" augmentations;
  Report.fingerprint_int rep "matching_size" sizes;
  Report.fingerprint rep "per_solve_matching_size"
    (String.concat "," (Array.to_list (Array.map (fun (r : solve) -> string_of_int r.size) solves)));
  if trace then begin
    let splits = Array.map Option.get splits in
    Array.iteri
      (fun i (sp : split) ->
        let r = solves.(i) in
        let ref_sum =
          let g = Graph_io.load_mmap_exn path in
          Graph.checksum (fst (Gdelta.sparsify (Rng.create seeds.(i)) g ~delta))
        in
        Report.check rep (Int64.equal sp.sp_checksum ref_sum)
          (Printf.sprintf "solve %d: split sparsifier checksum differs from Pipeline.run's" i);
        Report.check rep (sp.s_edges = r.sp_edges)
          (Printf.sprintf "solve %d: split |G_delta| %d <> %d" i sp.s_edges r.sp_edges);
        Report.check rep (sp.s_size = r.size)
          (Printf.sprintf "solve %d: split |M| %d <> Pipeline.run %d" i sp.s_size r.size))
      splits;
    Trace.write tr (Filename.concat dir "trace-pipeline.tsv");
    let aggs = Trace.aggregate tr in
    let med name = ms_median (Trace.durations tr name) in
    let count v = float_of_int v in
    let root = Trace.find aggs "pipeline.solve" in
    Layers.emit rep ~samples:k
      [
        ("graph_io.open_ms", med "graph_io.open");
        ("gdelta.mark_ms", med "gdelta.mark");
        ("gdelta.marks", count marks);
        ( "gdelta.probe_ratio",
          count (sum (fun (r : solve) -> r.probes) solves)
          /. count (k * 2 * Gadgets.m spec) );
        ("graph.csr_build_ms", med "graph.csr_build");
        ("graph.sparsifier_edges", count sp_edges);
        ("greedy.maximal_ms", med "greedy.maximal");
        ("blossom.augment_ms", med "blossom.augment");
        ("blossom.free_roots", count free_roots);
        ("blossom.augmentations", count augmentations);
        ("blossom.augment_yield", count augmentations /. count (Int.max 1 free_roots));
        ("pipeline.residual_ms", Mono.ms_of_ns root.Trace.self_ns /. count k);
        ( "trace.overhead_ratio",
          Pct.median (Array.map count (Trace.durations tr "pipeline.solve"))
          /. Pct.median (Array.map count walls) );
      ]
  end;
  (try Sys.remove path with Sys_error _ -> ());
  (k, failed)
