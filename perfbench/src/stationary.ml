(* Size-stationary serve streams.  Each connection owns a disjoint
   partition of [span] vertices starting at [base] and holds an exact
   model of its edges.  Set-up inserts [preload] distinct edges; the
   timed stream then alternates "delete a present edge" and "insert an
   absent one", so every timed update meets a graph of the same size,
   every update changes the graph (the expected reply is [Ack true]),
   and no update ever deletes an absent edge.  Mixed streams interleave
   point queries whose endpoints are Zipf-skewed inside the partition.
   Everything is a pure function of the seed. *)

open Mspar_prelude
open Mspar_server

type expect =
  | Changed  (** [Ack true]: the update flipped an edge *)
  | Answer of bool  (** [Bool b]: a [Query_edge] the model can answer *)
  | Any_answer  (** [Bool _]: an oracle query *)

type item = { req : Wire.request; expect : expect }

type part = {
  client : int;
  base : int;
  span : int;
  rng : Rng.t;
  hot : int array;  (* Zipf rank -> local vertex *)
  mutable edges : int array;  (* local codes u * span + v, u < v *)
  mutable count : int;
  pos : (int, int) Hashtbl.t;  (* code -> index in [edges] *)
  seen : (int, unit) Hashtbl.t;  (* every code ever inserted *)
  mutable rid : int;
  mutable updates : int;
}

let create ~seed ~client ~base ~span =
  if span < 2 then invalid_arg "Stationary.create: span";
  let rng = Rng.derive ~seed client in
  {
    client;
    base;
    span;
    rng;
    hot = Rng.perm rng span;
    edges = Array.make 64 0;
    count = 0;
    pos = Hashtbl.create 4096;
    seen = Hashtbl.create 4096;
    rid = 0;
    updates = 0;
  }

let code p u v = if u < v then (u * p.span) + v else (v * p.span) + u
let mem p u v = Hashtbl.mem p.pos (code p u v)
let edge_count p = p.count

let add p c =
  if p.count = Array.length p.edges then
    p.edges <- Array.append p.edges (Array.make p.count 0);
  p.edges.(p.count) <- c;
  Hashtbl.replace p.pos c p.count;
  Hashtbl.replace p.seen c ();
  p.count <- p.count + 1

let remove p c =
  let i = Hashtbl.find p.pos c in
  let last = p.count - 1 in
  let moved = p.edges.(last) in
  p.edges.(i) <- moved;
  Hashtbl.replace p.pos moved i;
  Hashtbl.remove p.pos c;
  p.count <- last

let rec random_absent p =
  let u = Rng.int p.rng p.span in
  let v = Rng.int p.rng p.span in
  if u = v || mem p u v then random_absent p else code p u v

let endpoints p c = (p.base + (c / p.span), p.base + (c mod p.span))

let next_rid p =
  p.rid <- p.rid + 1;
  p.rid

let insert p =
  let c = random_absent p in
  add p c;
  let u, v = endpoints p c in
  { req = Wire.Insert { rid = next_rid p; u; v }; expect = Changed }

let delete p =
  let c = p.edges.(Rng.int p.rng p.count) in
  remove p c;
  let u, v = endpoints p c in
  { req = Wire.Delete { rid = next_rid p; u; v }; expect = Changed }

(* alternate delete / insert, starting with a delete: the edge count
   is back at its preload size after every second update *)
let update p =
  let it = if p.updates mod 2 = 0 then delete p else insert p in
  p.updates <- p.updates + 1;
  it

let preload p ~edges = Array.init edges (fun _ -> insert p)
let write_stream p ~updates = Array.init updates (fun _ -> update p)

(* log-uniform rank over [0, pool): the Zipf(s~1) stand-in the lca_query
   bench uses — rank 0 is drawn ~log(pool) times more often than the
   tail *)
let zipf_rank rng pool =
  let x = Float.exp (Rng.float rng (Float.log (float_of_int pool))) in
  Int.max 0 (Int.min (pool - 1) (int_of_float x - 1))

let zipf_vertex p = p.hot.(zipf_rank p.rng p.span)

let rec zipf_pair p =
  let u = zipf_vertex p in
  let v = zipf_vertex p in
  if u = v then zipf_pair p else (u, v)

let query p =
  match Rng.int p.rng 3 with
  | 0 ->
      let u, v = zipf_pair p in
      { req = Wire.Query_sparsifier (p.base + u, p.base + v); expect = Any_answer }
  | 1 -> { req = Wire.Query_matched (p.base + zipf_vertex p); expect = Any_answer }
  | _ ->
      let u, v = zipf_pair p in
      {
        req = Wire.Query_edge (p.base + u, p.base + v);
        expect = Answer (mem p u v);
      }

(* [update_permille] of the ops are updates, the rest queries split in
   equal thirds *)
let mixed_stream p ~ops ~update_permille =
  Array.init ops (fun _ ->
      if Rng.int p.rng 1000 < update_permille then update p else query p)

(* the partition's current edges, as global vertex pairs *)
let edges p = Array.init p.count (fun i -> endpoints p p.edges.(i))

(* the whole model: every pair the stream ever inserted, with whether
   it is present now *)
let model p =
  Hashtbl.fold (fun c () acc -> (endpoints p c, Hashtbl.mem p.pos c) :: acc) p.seen []
  |> List.sort compare |> Array.of_list
