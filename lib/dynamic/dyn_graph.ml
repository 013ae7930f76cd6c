open Mspar_prelude

type t = {
  nv : int;
  adj : int Vec.t array; (* adjacency as swap-remove vectors *)
  index : (int, int) Hashtbl.t array; (* neighbor -> position in adj vec *)
  active : (int, unit) Hashtbl.t; (* vertices of positive degree *)
  mutable m : int;
  mutable probe_count : int;
}

let create nv =
  if nv < 0 then invalid_arg "Dyn_graph.create: negative n";
  {
    nv;
    adj = Array.init nv (fun _ -> Vec.create ~dummy:(-1) ());
    index = Array.init nv (fun _ -> Hashtbl.create 8);
    active = Hashtbl.create 16;
    m = 0;
    probe_count = 0;
  }

let n t = t.nv
let m t = t.m
let degree t v = Vec.length t.adj.(v)

let check t u v =
  if u < 0 || v < 0 || u >= t.nv || v >= t.nv then
    invalid_arg "Dyn_graph: endpoint out of range"

let mem t u v = u <> v && Hashtbl.mem t.index.(u) v

let has_edge t u v =
  check t u v;
  mem t u v

let add_arc t u v =
  Hashtbl.replace t.index.(u) v (Vec.length t.adj.(u));
  Vec.push t.adj.(u) v

let remove_arc t u v =
  let pos = Hashtbl.find t.index.(u) v in
  Hashtbl.remove t.index.(u) v;
  let last = Vec.length t.adj.(u) - 1 in
  if pos <> last then begin
    let moved = Vec.get t.adj.(u) last in
    Vec.set t.adj.(u) pos moved;
    Hashtbl.replace t.index.(u) moved pos
  end;
  ignore (Vec.pop t.adj.(u))

let insert t u v =
  check t u v;
  if u = v || mem t u v then false
  else begin
    add_arc t u v;
    add_arc t v u;
    Hashtbl.replace t.active u ();
    Hashtbl.replace t.active v ();
    t.m <- t.m + 1;
    true
  end

let delete t u v =
  check t u v;
  if not (mem t u v) then false
  else begin
    remove_arc t u v;
    remove_arc t v u;
    if Vec.length t.adj.(u) = 0 then Hashtbl.remove t.active u;
    if Vec.length t.adj.(v) = 0 then Hashtbl.remove t.active v;
    t.m <- t.m - 1;
    true
  end

let neighbor t v i =
  t.probe_count <- t.probe_count + 1;
  Vec.get t.adj.(v) i

let iter_neighbors t v f =
  t.probe_count <- t.probe_count + Vec.length t.adj.(v);
  Vec.iter f t.adj.(v)

let random_neighbor t rng v =
  let d = Vec.length t.adj.(v) in
  if d = 0 then None
  else begin
    t.probe_count <- t.probe_count + 1;
    Some (Vec.get t.adj.(v) (Rng.int rng d))
  end

let sample_neighbors t rng v ~k =
  let d = Vec.length t.adj.(v) in
  let picks = Rng.sample_distinct rng ~k ~n:d in
  t.probe_count <- t.probe_count + Array.length picks;
  Array.to_list (Array.map (Vec.get t.adj.(v)) picks)

let probes t = t.probe_count
let reset_probes t = t.probe_count <- 0
let non_isolated_count t = Hashtbl.length t.active
let iter_non_isolated t f = Hashtbl.iter (fun v () -> f v) t.active

let edges t =
  let acc = ref [] in
  for v = 0 to t.nv - 1 do
    Vec.iter (fun u -> if v < u then acc := (v, u) :: !acc) t.adj.(v)
  done;
  List.sort compare !acc

(* [Audit] materialises a snapshot on every pass and recovery decodes one
   per journal blob, so this is a hot path in the durable pipeline: push
   arcs straight into the packed CSR builder instead of consing and
   sorting a boxed pair list (the builder's counting sort re-establishes
   canonical order on its own). *)
let snapshot t =
  Mspar_graph.Graph.of_edges_iter ~n:t.nv (fun push ->
      for v = 0 to t.nv - 1 do
        Vec.iter (fun u -> if v < u then push v u) t.adj.(v)
      done)

(* ------------------------------------------------------------------ *)
(* Invariant audit                                                    *)
(* ------------------------------------------------------------------ *)

let invariant_failures t =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let arcs = ref 0 in
  for v = 0 to t.nv - 1 do
    let deg = Vec.length t.adj.(v) in
    arcs := !arcs + deg;
    if Hashtbl.length t.index.(v) <> deg then
      fail "vertex %d: index has %d entries for %d adjacency slots" v
        (Hashtbl.length t.index.(v)) deg;
    for i = 0 to deg - 1 do
      let u = Vec.get t.adj.(v) i in
      if u < 0 || u >= t.nv then fail "vertex %d: neighbor %d out of range" v u
      else begin
        if u = v then fail "vertex %d: self-loop" v;
        (match Hashtbl.find_opt t.index.(v) u with
        | Some p when p = i -> ()
        | Some p -> fail "vertex %d: index says %d is at slot %d, found at %d" v u p i
        | None -> fail "vertex %d: neighbor %d missing from index" v u);
        if not (Hashtbl.mem t.index.(u) v) then
          fail "asymmetric arc: %d -> %d has no reverse" v u
      end
    done;
    let active = Hashtbl.mem t.active v in
    if active && deg = 0 then fail "vertex %d active but isolated" v;
    if (not active) && deg > 0 then fail "vertex %d has degree %d but not active" v deg
  done;
  if !arcs <> 2 * t.m then fail "arc count %d, expected 2m = %d" !arcs (2 * t.m);
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                     *)
(* ------------------------------------------------------------------ *)

(* The exact adjacency Vec order is serialised, not just the edge set:
   neighbor sampling reads Vec positions, so replay after restore is
   bit-for-bit identical only if every vector comes back in the same
   order it was in at snapshot time. *)
let encode t buf =
  Codec.add_uvarint buf t.nv;
  Codec.add_uvarint buf t.m;
  Codec.add_uvarint buf t.probe_count;
  for v = 0 to t.nv - 1 do
    Codec.add_uvarint buf (Vec.length t.adj.(v));
    Vec.iter (fun u -> Codec.add_uvarint buf u) t.adj.(v)
  done

let decode r =
  let nv = Codec.read_uvarint r in
  let m = Codec.read_uvarint r in
  let probe_count = Codec.read_uvarint r in
  let t = create nv in
  t.probe_count <- probe_count;
  let arcs = ref 0 in
  for v = 0 to nv - 1 do
    let deg = Codec.read_uvarint r in
    arcs := !arcs + deg;
    for _ = 1 to deg do
      let u = Codec.read_uvarint r in
      if u < 0 || u >= nv then failwith "Dyn_graph.decode: neighbor out of range";
      if u = v then failwith "Dyn_graph.decode: self-loop";
      if Hashtbl.mem t.index.(v) u then
        failwith "Dyn_graph.decode: duplicate neighbor";
      add_arc t v u
    done;
    if deg > 0 then Hashtbl.replace t.active v ()
  done;
  if !arcs <> 2 * m then failwith "Dyn_graph.decode: arc count does not match m";
  (* symmetry: every serialised arc must have its reverse *)
  for v = 0 to nv - 1 do
    Vec.iter
      (fun u ->
        if not (Hashtbl.mem t.index.(u) v) then
          failwith "Dyn_graph.decode: asymmetric adjacency")
      t.adj.(v)
  done;
  t.m <- m;
  (* the decoder also vouches for the CSR form: a blob that cannot
     materialise into a clean canonical CSR is rejected here, at
     recovery time, instead of surfacing later as an audit finding *)
  (match Mspar_graph.Graph.audit (snapshot t) with
  | [] -> ()
  | f :: _ -> failwith ("Dyn_graph.decode: csr " ^ f));
  t
