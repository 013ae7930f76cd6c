(** Serve-loop counters.  The event loop is single-threaded, so these
    are plain mutable fields, exposed for direct bumping.  The point-query
    oracle's memo counters stay in the oracle: {!summary} reads them
    from the registered one. *)

type t = {
  mutable accepted : int;  (** connections accepted, lifetime *)
  mutable active : int;  (** connections currently open *)
  mutable frames_in : int;
  mutable frames_out : int;
  mutable malformed : int;  (** frames/bodies that failed to decode *)
  busy_rejections : int;
      (** always 0, since no request is refused for load; reported in
          {!Wire.summary} *)
  mutable ops_applied : int;  (** updates applied into the pipeline *)
  mutable dedup_hits : int;  (** updates answered from the dedup cache *)
  mutable queries : int;
  mutable oracle : Mspar_lca.Oracle.t option;
      (** the dispatcher's point-query oracle, registered by
          [Dispatch.create]; its memo hits and misses (all three memos)
          are reported as [oracle_hits] / [oracle_misses] *)
  mutable repl_followers : int;  (** replication out-streams attached *)
  mutable repl_lag : int;
      (** durable WAL bytes not yet acked by the slowest follower;
          recomputed by the shipping loop *)
  mutable repl_fenced : int;  (** stale-epoch hellos/frames refused *)
}

val create : unit -> t
val summary : t -> Wire.summary
