(** Request semantics, socket-free: decoded {!Wire.request}s in,
    {!Wire.response}s out, against a {!Mspar_dynamic.Durable} pipeline.

    Updates are journaled on [handle] but acknowledgements only become
    durable at {!sync_if_dirty} — the event loop's group-commit point —
    so the loop must call it before flushing Acks to any socket.

    Point queries ([Query_sparsifier] / [Query_matched]) are answered by
    a {!Mspar_lca.Oracle} over the live dynamic graph — O(Δ)-probe
    replay of the seeded G_Δ marking and local simulation of its
    random-greedy matching, memoized across requests.  Read-your-writes:
    an applied update that changed the graph invalidates the oracle's
    endpoint entries before its Ack is enqueued, so a client that has
    seen its own Ack never reads a stale pre-update answer.  A query
    naming a vertex id that is negative or at least [n] answers
    [Wire.Error]. *)

open Mspar_dynamic
open Mspar_lca

type t = {
  durable : Durable.t;
  metrics : Metrics.t;
  oracle : Oracle.t;
      (** point-query oracle over the live dynamic graph, seeded from
          the durable config's [(seed, delta)] *)
  mutable draining : bool;
      (** once set (Drain request or SIGTERM), updates answer
          [Draining]; queries keep working *)
  mutable dirty : bool;
      (** set by a journaled update (or shipped WAL bytes on a replica);
          cleared by {!sync_if_dirty} *)
  mutable upstream : Wire.addr option;
      (** the primary a replica tails and names in its [Redirect]s; the
          serve loop re-points it when the upstream redirects.  Read only
          while [Durable.replica_cursor durable] is [Some _], which is
          the one record of whether this node is a replica *)
  crash_after_ops : int option;
  mutable applied : int;
}

val create :
  ?crash_after_ops:int -> ?upstream:Wire.addr -> metrics:Metrics.t -> Durable.t -> t
(** Registers the new oracle in [metrics], whose reports read its memo
    counters.  [crash_after_ops] is a fault-injection hook: the process
    [_exit]s with status 137 (simulated kill -9) immediately after the
    Nth applied update, before any ack reaches a socket. *)

val redirect : t -> Wire.response
(** A replica's answer to a request only the primary serves: [Redirect]
    naming [upstream] (an empty hint when there is none). *)

val handle : t -> client:int option -> Wire.request -> Wire.response
(** Serve one request.  [client] is the connection's Hello-bound id;
    updates without one are protocol errors.  On a replica, updates and
    [Snapshot] answer {!redirect}; queries are served locally.  Total:
    domain errors, including a resent rid outside its window, come back
    as [Wire.Error], not exceptions.
    @raise Unix.Unix_error on journal I/O errors. *)

val digest : Durable.t -> Wire.digest
(** Full-state digest, the answer to [Checksum]: op count, checksum of
    the graph snapshot, checksum of the G_Δ the point queries answer
    from ([Gdelta.sparsify_seeded] on that snapshot with the config's
    [seed] and [delta]), and |M| of the maintained matching.  Costs one
    snapshot plus one O(n·Δ) batch G_Δ build. *)

val oracle : t -> Oracle.t
(** The dispatcher's point-query oracle (tests inspect its cache
    stats). *)

val sync_if_dirty : t -> unit
(** Group commit: fsync the WAL iff updates were journaled since the
    last commit.
    @raise Unix.Unix_error on journal I/O errors. *)
