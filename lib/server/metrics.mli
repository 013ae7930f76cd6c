(** Serve-loop counters.  The event loop is single-threaded, so these
    are plain mutable fields, exposed for direct bumping.  The point-query
    oracle's memo counters stay in the oracle: {!summary} reads them
    from the registered one. *)

type t = {
  mutable accepted : int;  (** connections accepted, lifetime *)
  mutable active : int;  (** connections currently open *)
  mutable dropped_protocol : int;  (** closed for malformed/corrupt input *)
  mutable dropped_idle : int;  (** closed by the idle timeout *)
  mutable dropped_slowloris : int;  (** closed by the partial-frame timeout *)
  mutable frames_in : int;
  mutable frames_out : int;
  mutable malformed : int;  (** frames/bodies that failed to decode *)
  mutable busy_rejections : int;  (** requests answered [Busy] *)
  mutable ops_applied : int;  (** updates applied into the pipeline *)
  mutable dedup_hits : int;  (** updates answered from the dedup cache *)
  mutable queries : int;
  mutable oracle : Mspar_lca.Oracle.t option;
      (** the dispatcher's point-query oracle, registered by
          [Dispatch.create]; its memo hits and misses (all three memos)
          are reported as [oracle_hits] / [oracle_misses] *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable repl_followers : int;  (** replication out-streams attached *)
  mutable repl_lag : int;
      (** durable WAL bytes not yet acked by the slowest follower;
          recomputed by the shipping loop *)
  mutable repl_fenced : int;  (** stale-epoch hellos/frames refused *)
  mutable repl_frames_out : int;  (** Repl_frames messages shipped *)
  mutable repl_acks : int;  (** Repl_ack messages received *)
  mutable repl_frames_in : int;  (** Repl_frames received (replica side) *)
  mutable repl_applied : int;  (** ops applied from shipped frames *)
}

val create : unit -> t
val summary : t -> Wire.summary
