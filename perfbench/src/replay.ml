(* The serve workloads' traced run: the connections' request streams
   replayed in-process, with no sockets, against a fresh [Durable] plus
   the dispatcher's point-query oracle.  Each request is one root span
   holding [Wire.decode_request], the update or query calls the
   dispatcher would make, and [Wire.encode_response]; [Durable.sync]
   runs after every round of one window per connection, as the daemon's
   group commit does.  Connections are interleaved one window at a time;
   partitions are disjoint, so the final edge set does not depend on the
   interleaving and must match the daemon's. *)

open Mspar_graph
open Mspar_dynamic
open Mspar_lca
open Mspar_server

type t = {
  durable : Durable.t;
  oracle : Oracle.t;
  graph : Dyn_graph.t;
  out : Buffer.t;
  mutable trace : Trace.t option;
  mutable since_sync : int;
  mutable op : int;
  mutable updates : int;
  mutable queries : int;
  mutable oracle_queries : int;
  mutable oracle_probes : int;
}

let create ~dir cfg =
  let durable = Durable.create ~dir cfg in
  let dispatch = Dispatch.create ~metrics:(Metrics.create ()) durable in
  {
    durable;
    oracle = Dispatch.oracle dispatch;
    graph = Dyn_matching.graph (Durable.matching durable);
    out = Buffer.create 64;
    trace = None;
    since_sync = 0;
    op = 0;
    updates = 0;
    queries = 0;
    oracle_queries = 0;
    oracle_probes = 0;
  }

let timed t name f =
  match t.trace with
  | None -> f ()
  | Some tr -> Trace.span tr ~name:(Trace.name tr name) ~op:t.op f

let update t ~client ~rid ~insert u v =
  t.updates <- t.updates + 1;
  let res =
    timed t "durable.apply" (fun () ->
        if insert then Durable.insert_req t.durable ~client ~rid u v
        else Durable.delete_req t.durable ~client ~rid u v)
  in
  match res with
  | `Applied changed ->
      if changed then
        timed t "oracle.invalidate" (fun () -> Oracle.invalidate_edge t.oracle u v);
      Wire.Ack changed
  | `Duplicate changed -> Wire.Ack changed

let oracle_query t name f =
  t.queries <- t.queries + 1;
  t.oracle_queries <- t.oracle_queries + 1;
  let p0 = Oracle.probes t.oracle in
  let b = timed t name f in
  t.oracle_probes <- t.oracle_probes + Oracle.probes t.oracle - p0;
  Wire.Bool b

let serve t ~client body =
  let req = timed t "wire.decode" (fun () -> Wire.decode_request body) in
  match req with
  | Ok (Wire.Insert { rid; u; v }) -> update t ~client ~rid ~insert:true u v
  | Ok (Wire.Delete { rid; u; v }) -> update t ~client ~rid ~insert:false u v
  | Ok (Wire.Query_sparsifier (u, v)) ->
      oracle_query t "oracle.in_gdelta" (fun () -> Oracle.in_gdelta t.oracle ~u ~v)
  | Ok (Wire.Query_matched v) ->
      oracle_query t "oracle.is_matched" (fun () -> Oracle.is_matched t.oracle v)
  | Ok (Wire.Query_edge (u, v)) ->
      t.queries <- t.queries + 1;
      Wire.Bool (timed t "dyn_graph.has_edge" (fun () -> Dyn_graph.has_edge t.graph u v))
  | Ok _ -> failwith "replay: request outside the workload"
  | Error msg -> failwith ("replay: undecodable request: " ^ msg)

let sync t =
  timed t "durable.sync" (fun () -> Durable.sync t.durable);
  t.since_sync <- 0

let request t ~batch ~client body =
  let go () =
    let resp = serve t ~client body in
    Buffer.clear t.out;
    timed t "wire.encode" (fun () -> Wire.encode_response t.out resp)
  in
  timed t "request" go;
  t.op <- t.op + 1;
  t.since_sync <- t.since_sync + 1;
  if t.since_sync = batch then sync t

(* [streams.(i)] is client [i + 1]'s request bodies, in send order *)
let feed t ~window (streams : string array array) =
  let batch = Array.length streams * window in
  let pos = Array.make (Array.length streams) 0 in
  let left () =
    Array.exists Fun.id (Array.mapi (fun i s -> pos.(i) < Array.length s) streams)
  in
  while left () do
    Array.iteri
      (fun i s ->
        let stop = Int.min (Array.length s) (pos.(i) + window) in
        for j = pos.(i) to stop - 1 do
          request t ~batch ~client:(i + 1) s.(j)
        done;
        pos.(i) <- stop)
      streams
  done;
  sync t

let start_trace t tr = t.trace <- Some tr

let graph_checksum t = Graph.checksum (Dyn_graph.snapshot t.graph)
let close t = Durable.close t.durable
