open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_core

type stats = {
  updates : int;
  rebuilds : int;
  total_work : int;
  max_spread_work : int;
  total_ns : int64;
}

type t = {
  dg : Dyn_graph.t;
  rng : Rng.t;
  sampler : Sampling.t; (* rebuild marking scratch, capacity n *)
  beta : int;
  eps : float;
  multiplier : float;
  mate : int array;
  mutable msize : int;
  mutable window_left : int;
  mutable updates : int;
  mutable rebuilds : int;
  mutable total_work : int;
  mutable max_spread_work : int;
  mutable total_ns : int64;
}

let create ?(multiplier = 2.0) rng ~n ~beta ~eps =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Dyn_matching: eps in (0,1)";
  {
    dg = Dyn_graph.create n;
    rng;
    sampler = Sampling.create ~capacity:n;
    beta;
    eps;
    multiplier;
    mate = Array.make n (-1);
    msize = 0;
    window_left = 1;
    updates = 0;
    rebuilds = 0;
    total_work = 0;
    max_spread_work = 0;
    total_ns = 0L;
  }

let graph t = t.dg
let size t = t.msize

let matching t =
  let m = Matching.create (Dyn_graph.n t.dg) in
  Array.iteri (fun v u -> if u > v then Matching.add m v u) t.mate;
  m

let stats t =
  {
    updates = t.updates;
    rebuilds = t.rebuilds;
    total_work = t.total_work;
    max_spread_work = t.max_spread_work;
    total_ns = t.total_ns;
  }

(* Static (1+eps/2)-approximate recomputation over the dynamic adjacency
   structure: G_Delta marked through [Mark_kernel] at the non-isolated
   vertices only, then the depth-limited matcher on the sparsifier. *)
let rebuild t =
  (* Budget split: the sparsifier and the matcher each take eps/2, composing
     to (1+eps/2)^2 <= 1+2eps... the window of eps/4*|M| updates adds the
     Lemma 3.4 slack on top.  Like the paper we do not chase the exact
     constants — the scaling in beta, eps and |M| is what the theorem
     asserts and what the benches measure. *)
  let eps_stage = max (t.eps /. 2.0) 0.05 in
  let delta =
    Delta_param.scaled ~multiplier:t.multiplier ~beta:t.beta ~eps:eps_stage
  in
  Dyn_graph.reset_probes t.dg;
  let t0 = Clock.now_ns () in
  (* One fresh window seed per rebuild from the private stream: the
     adversary has not seen it when it commits to this window's updates
     (Thm 3.5).  A vertex's marks depend only on (seed, v) and its
     adjacency order, so the visit order is free. *)
  let seed = Mark_kernel.seed_of t.rng in
  let n = Dyn_graph.n t.dg in
  let shift = Graph.pack_shift ~n in
  let keep =
    Mark_kernel.threshold Mark_kernel.Mark_all_at_most_two_delta delta
  in
  let idx = Array.make delta 0 in
  let bound =
    Int.min (2 * Dyn_graph.m t.dg) (keep * Dyn_graph.non_isolated_count t.dg)
  in
  let buf = Edgebuf.create ~initial_capacity:(Int.max 16 bound) () in
  Dyn_graph.iter_non_isolated t.dg (fun v ->
      let d = Dyn_graph.degree t.dg v in
      let base = v lsl shift in
      if d <= keep then
        Dyn_graph.iter_neighbors t.dg v (fun u -> Edgebuf.push buf (base lor u))
      else begin
        Mark_kernel.sampled_indices_into t.sampler ~seed v ~delta ~degree:d
          ~out:idx;
        Array.iter
          (fun i -> Edgebuf.push buf (base lor Dyn_graph.neighbor t.dg v i))
          idx
      end);
  let sparsifier = Graph.of_edgebuf ~n buf in
  let matching = Approx.solve_general ~eps:eps_stage sparsifier in
  let t1 = Clock.now_ns () in
  (* install *)
  Array.fill t.mate 0 (Array.length t.mate) (-1);
  Matching.iter_edges matching (fun u v ->
      t.mate.(u) <- v;
      t.mate.(v) <- u);
  t.msize <- Matching.size matching;
  (* work accounting: adjacency probes + matcher sweeps over the
     sparsifier (2k+1 alternating-tree passes is the matcher's work shape) *)
  let k = Approx.phases_for eps_stage in
  let work =
    Dyn_graph.probes t.dg + (((2 * k) + 1) * Graph.m sparsifier)
  in
  let window = max 1 (int_of_float (t.eps /. 4.0 *. float_of_int t.msize)) in
  t.window_left <- window;
  t.rebuilds <- t.rebuilds + 1;
  t.total_work <- t.total_work + work;
  let spread = (work + window - 1) / window in
  if spread > t.max_spread_work then t.max_spread_work <- spread;
  t.total_ns <- Int64.add t.total_ns (Int64.sub t1 t0)

let force_rebuild = rebuild

let after_update t =
  t.updates <- t.updates + 1;
  t.window_left <- t.window_left - 1;
  if t.window_left <= 0 then rebuild t

let insert t u v =
  let changed = Dyn_graph.insert t.dg u v in
  if changed then after_update t;
  changed

let delete t u v =
  let changed = Dyn_graph.delete t.dg u v in
  if changed then begin
    (* keep the output matching a subgraph of the current graph *)
    if t.mate.(u) = v then begin
      t.mate.(u) <- -1;
      t.mate.(v) <- -1;
      t.msize <- t.msize - 1
    end;
    after_update t
  end;
  changed

(* ------------------------------------------------------------------ *)
(* Invariant audit                                                    *)
(* ------------------------------------------------------------------ *)

let invariant_failures t =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let n = Dyn_graph.n t.dg in
  if Array.length t.mate <> n then
    fail "mate array length %d, expected %d" (Array.length t.mate) n;
  let matched = ref 0 in
  Array.iteri
    (fun v u ->
      if u <> -1 then begin
        if u < 0 || u >= n then fail "vertex %d matched to out-of-range %d" v u
        else begin
          if u = v then fail "vertex %d matched to itself" v;
          if t.mate.(u) <> v then
            fail "mate not an involution: mate(%d) = %d but mate(%d) = %d" v u u
              t.mate.(u);
          if v < u then begin
            incr matched;
            if not (Dyn_graph.has_edge t.dg v u) then
              fail "matched pair (%d, %d) is not a current graph edge" v u
          end
        end
      end)
    t.mate;
  if !matched <> t.msize then
    fail "msize counter %d, mate array holds %d pairs" t.msize !matched;
  if t.window_left < 0 then fail "window_left is negative (%d)" t.window_left;
  List.rev !failures

(* Deterministic white-box damage for audit tests: unpair one side of
   the lowest matched pair (breaking the involution and the size
   recount), or on an empty matching bump the size counter. *)
let inject_corruption t =
  match Array.find_index (fun u -> u >= 0) t.mate with
  | Some v -> t.mate.(v) <- -1
  | None -> t.msize <- t.msize + 1

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                     *)
(* ------------------------------------------------------------------ *)

let encode t buf =
  Dyn_graph.encode t.dg buf;
  Array.iter (Codec.add_int64 buf) (Rng.state t.rng);
  Codec.add_uvarint buf t.beta;
  Codec.add_float buf t.eps;
  Codec.add_float buf t.multiplier;
  Array.iter (Codec.add_int buf) t.mate;
  Codec.add_uvarint buf t.msize;
  Codec.add_int buf t.window_left;
  Codec.add_uvarint buf t.updates;
  Codec.add_uvarint buf t.rebuilds;
  Codec.add_uvarint buf t.total_work;
  Codec.add_uvarint buf t.max_spread_work;
  Codec.add_int64 buf t.total_ns

let decode r =
  let dg = Dyn_graph.decode r in
  let rng = Rng.of_state (Array.init 4 (fun _ -> Codec.read_int64 r)) in
  let beta = Codec.read_uvarint r in
  let eps = Codec.read_float r in
  if not (eps > 0.0 && eps < 1.0) then failwith "Dyn_matching.decode: bad eps";
  let multiplier = Codec.read_float r in
  let n = Dyn_graph.n dg in
  let mate = Array.init n (fun _ -> Codec.read_int r) in
  let msize = Codec.read_uvarint r in
  let window_left = Codec.read_int r in
  let updates = Codec.read_uvarint r in
  let rebuilds = Codec.read_uvarint r in
  let total_work = Codec.read_uvarint r in
  let max_spread_work = Codec.read_uvarint r in
  let total_ns = Codec.read_int64 r in
  let t =
    {
      dg;
      rng;
      sampler = Sampling.create ~capacity:n;
      beta;
      eps;
      multiplier;
      mate;
      msize;
      window_left;
      updates;
      rebuilds;
      total_work;
      max_spread_work;
      total_ns;
    }
  in
  (match invariant_failures t with
  | [] -> ()
  | f :: _ -> failwith ("Dyn_matching.decode: " ^ f));
  t
