open Mspar_graph
open Mspar_dynamic
open Mspar_lca

(* Request semantics, independent of any socket: the event loop hands
   decoded requests here and queues whatever comes back.  Updates are
   journaled immediately but only become acknowledgeable after
   [sync_if_dirty] — the loop's group-commit point — so an Ack on the
   wire always means "survives kill -9".

   Point queries (Query_sparsifier / Query_matched) are answered by the
   local-access oracle over the live dynamic graph: O(Δ)-probe replay of
   the seeded G_Δ marking plus local simulation of its random-greedy
   matching, memoized across requests.  Read-your-writes contract: an
   applied update that changed the graph invalidates the oracle's
   entries for its two endpoints (and the matching memo) before the ack
   is enqueued, so a client that has seen its own Ack never reads a
   stale pre-update answer — regression-tested in test_server.ml. *)

type t = {
  durable : Durable.t;
  metrics : Metrics.t;
  oracle : Oracle.t;
  mutable draining : bool;
  mutable dirty : bool;  (* ops journaled since the last group commit *)
  mutable upstream : Wire.addr option;
      (* the primary a replica tails and redirects updates to; read only
         while the journal says this is a replica *)
  crash_after_ops : int option;
  mutable applied : int;
}

let create ?crash_after_ops ?upstream ~metrics durable =
  let cfg = Durable.config durable in
  let g = Dyn_matching.graph (Durable.matching durable) in
  let oracle =
    Oracle.create (Adj.of_dyn g) ~seed:cfg.Durable.seed ~delta:cfg.Durable.delta
  in
  metrics.Metrics.oracle <- Some oracle;
  {
    durable;
    metrics;
    oracle;
    draining = false;
    dirty = false;
    upstream;
    crash_after_ops;
    applied = 0;
  }

let oracle t = t.oracle

let redirect t =
  Wire.Redirect
    (match t.upstream with Some a -> Fmt.str "%a" Wire.pp_addr a | None -> "")

(* The one place a [Wire.digest] is built.  [sparsifier] is the
   checksum of the G_Δ the point queries answer from: the seeded batch
   build on the config's [(seed, delta)], which the oracle replays
   bit-for-bit (test_lca). *)
let digest durable =
  let cfg = Durable.config durable in
  let dm = Durable.matching durable in
  let g = Dyn_graph.snapshot (Dyn_matching.graph dm) in
  let gdelta, _ =
    Mspar_core.Gdelta.sparsify_seeded ~seed:cfg.Durable.seed g
      ~delta:cfg.Durable.delta
  in
  {
    Wire.op_count = Durable.op_count durable;
    graph = Graph.checksum g;
    sparsifier = Graph.checksum gdelta;
    matching = Dyn_matching.size dm;
  }

let crash_point t =
  (* test hook: simulated kill -9 — the process vanishes with the op
     journaled (maybe unsynced) and the ack never flushed *)
  match t.crash_after_ops with
  | Some k when t.applied >= k -> Unix._exit 137
  | Some _ | None -> ()

let update t ~u ~v result =
  t.dirty <- true;
  match result with
  | `Applied changed ->
      t.applied <- t.applied + 1;
      t.metrics.Metrics.ops_applied <- t.metrics.Metrics.ops_applied + 1;
      (* read-your-writes: drop oracle state the flipped edge can have
         poisoned before the ack is enqueued *)
      if changed then Oracle.invalidate_edge t.oracle u v;
      crash_point t;
      Wire.Ack changed
  | `Duplicate changed ->
      (* already applied once (and invalidated then); replayed ack only *)
      t.metrics.Metrics.dedup_hits <- t.metrics.Metrics.dedup_hits + 1;
      Wire.Ack changed

let handle t ~client (req : Wire.request) : Wire.response =
  match req with
  | Wire.Hello _ -> Wire.Ok  (* binding handled by the loop *)
  | Wire.Insert { rid; u; v } | Wire.Delete { rid; u; v } -> (
      if t.draining then Wire.Draining
      else
        match (Durable.replica_cursor t.durable, client) with
        | Some _, _ -> redirect t
        | None, None -> Wire.Error "updates require Hello first"
        | None, Some client -> (
            let apply =
              match req with
              | Wire.Insert _ -> Durable.insert_req
              | _ -> Durable.delete_req
            in
            match apply t.durable ~client ~rid u v with
            | result -> update t ~u ~v result
            | exception Invalid_argument msg -> Wire.Error msg))
  | Wire.Query_matched v -> (
      t.metrics.Metrics.queries <- t.metrics.Metrics.queries + 1;
      match Oracle.is_matched t.oracle v with
      | b -> Wire.Bool b
      | exception Invalid_argument msg -> Wire.Error msg)
  | Wire.Query_edge (u, v) -> (
      t.metrics.Metrics.queries <- t.metrics.Metrics.queries + 1;
      let g = Dyn_matching.graph (Durable.matching t.durable) in
      match Dyn_graph.has_edge g u v with
      | b -> Wire.Bool b
      | exception Invalid_argument msg -> Wire.Error msg)
  | Wire.Query_sparsifier (u, v) -> (
      t.metrics.Metrics.queries <- t.metrics.Metrics.queries + 1;
      match Oracle.in_gdelta t.oracle ~u ~v with
      | b -> Wire.Bool b
      | exception Invalid_argument msg -> Wire.Error msg)
  | Wire.Checksum -> Wire.Digest (digest t.durable)
  | Wire.Snapshot -> (
      match Durable.replica_cursor t.durable with
      | Some _ -> redirect t
      | None ->
          Durable.snapshot_now t.durable;
          t.dirty <- false;
          Wire.Ok)
  | Wire.Drain ->
      t.draining <- true;
      Wire.Ok
  | Wire.Stats -> Wire.Stats_reply (Metrics.summary t.metrics)
  | Wire.Ping -> Wire.Ok
  (* the replication plane is stateful per-connection, so the event loop
     intercepts these before dispatch; reaching here is a violation *)
  | Wire.Repl_hello _ | Wire.Repl_ack _ | Wire.Promote | Wire.Role ->
      Wire.Error "replication message outside the serve loop"

let sync_if_dirty t =
  if t.dirty then begin
    Durable.sync t.durable;
    t.dirty <- false
  end
