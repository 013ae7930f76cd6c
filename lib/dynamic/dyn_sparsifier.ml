open Mspar_prelude
open Mspar_graph

type stats = {
  updates : int;
  total_resample_work : int;
  max_update_work : int;
}

type t = {
  dg : Dyn_graph.t;
  rng : Rng.t;
  delta : int;
  marks : int list array; (* marks.(v) = neighbors currently marked due to v *)
  multiplicity : (int * int, int) Hashtbl.t; (* edge -> number of markers *)
  mutable distinct : int;
  mutable updates : int;
  mutable total_work : int;
  mutable max_work : int;
}

let create rng ~n ~delta =
  if delta < 1 then invalid_arg "Dyn_sparsifier.create: delta >= 1";
  {
    dg = Dyn_graph.create n;
    rng;
    delta;
    marks = Array.make n [];
    multiplicity = Hashtbl.create 64;
    distinct = 0;
    updates = 0;
    total_work = 0;
    max_work = 0;
  }

let key u v = if u < v then (u, v) else (v, u)

let unmark t v u =
  let k = key v u in
  match Hashtbl.find_opt t.multiplicity k with
  | None -> assert false
  | Some 1 ->
      Hashtbl.remove t.multiplicity k;
      t.distinct <- t.distinct - 1
  | Some c -> Hashtbl.replace t.multiplicity k (c - 1)

let mark t v u =
  let k = key v u in
  match Hashtbl.find_opt t.multiplicity k with
  | None ->
      Hashtbl.replace t.multiplicity k 1;
      t.distinct <- t.distinct + 1
  | Some c -> Hashtbl.replace t.multiplicity k (c + 1)

(* discard and redraw v's marks; returns work units *)
let resample t v =
  let old = t.marks.(v) in
  List.iter (unmark t v) old;
  let fresh = Dyn_graph.sample_neighbors t.dg t.rng v ~k:t.delta in
  List.iter (mark t v) fresh;
  t.marks.(v) <- fresh;
  List.length old + List.length fresh

let account t work =
  t.updates <- t.updates + 1;
  t.total_work <- t.total_work + work;
  if work > t.max_work then t.max_work <- work

let insert t u v =
  let changed = Dyn_graph.insert t.dg u v in
  if changed then begin
    let w = resample t u + resample t v in
    account t (w + 1)
  end;
  changed

let delete t u v =
  let changed = Dyn_graph.delete t.dg u v in
  if changed then begin
    (* the deleted edge may carry marks from both endpoints; resampling
       removes them because it discards the endpoints' full mark lists *)
    let w = resample t u + resample t v in
    account t (w + 1)
  end;
  changed

let graph t = t.dg

let sparsifier t =
  (* push the marked edges straight into the packed CSR builder — no
     intermediate list of boxed pairs *)
  Graph.of_edges_iter ~n:(Dyn_graph.n t.dg) (fun push ->
      Hashtbl.iter (fun (u, v) _count -> push u v) t.multiplicity)

let sparsifier_edge_count t = t.distinct

let stats t =
  {
    updates = t.updates;
    total_resample_work = t.total_work;
    max_update_work = t.max_work;
  }

let invariant_failures t =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let n = Dyn_graph.n t.dg in
  let recount = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    let ms = t.marks.(v) in
    let expected = Int.min t.delta (Dyn_graph.degree t.dg v) in
    let len = List.length ms in
    if len <> expected then
      fail "vertex %d holds %d marks, expected min(delta, deg) = %d" v len expected;
    if List.length (List.sort_uniq Int.compare ms) <> len then
      fail "vertex %d has duplicate marks" v;
    List.iter
      (fun u ->
        if not (Dyn_graph.has_edge t.dg v u) then
          fail "mark (%d, %d) is not a current graph edge" v u;
        let k = key v u in
        Hashtbl.replace recount k
          (1 + Option.value ~default:0 (Hashtbl.find_opt recount k)))
      ms
  done;
  if Hashtbl.length recount <> Hashtbl.length t.multiplicity then
    fail "multiplicity table has %d edges, recount has %d"
      (Hashtbl.length t.multiplicity) (Hashtbl.length recount);
  Hashtbl.iter
    (fun (u, v) c ->
      let stored = Option.value ~default:0 (Hashtbl.find_opt t.multiplicity (u, v)) in
      if stored <> c then
        fail "edge (%d, %d): multiplicity %d, recounted %d" u v stored c)
    recount;
  if t.distinct <> Hashtbl.length t.multiplicity then
    fail "distinct counter %d, multiplicity table holds %d" t.distinct
      (Hashtbl.length t.multiplicity);
  List.rev !failures

let check_invariants t = List.is_empty (invariant_failures t)
