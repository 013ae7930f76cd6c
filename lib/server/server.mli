(** The [mspar serve] event loop: a single-threaded [Unix.select]
    reactor over {!Conn} connections, dispatching into a
    {!Mspar_dynamic.Durable} pipeline via {!Dispatch}.

    Contracts (see DESIGN.md §10):
    - an [Ack] is written to a socket only after the WAL fsync covering
      the op (group commit per select round) — zero acknowledged-update
      loss under kill -9;
    - one backpressure rule: a connection whose out-queue is over the
      soft cap is not read until it flushes.  Every complete frame a
      read delivers is served, so no request is refused for load and a
      connection's updates apply in arrival order;
    - corrupt/malformed frames close only the offending connection;
      idle and slowloris timeouts reap silent or dribbling peers;
    - SIGTERM/SIGINT (or a [Drain] request) triggers graceful drain:
      stop accepting, answer buffered requests, fsync, snapshot, flush,
      return [Ok ()]. *)

open Mspar_dynamic

type config = {
  addr : Wire.addr;
  max_conns : int;  (** accepted connections held concurrently *)
  max_frame : int;  (** largest frame body accepted on the wire *)
  idle_timeout : float;  (** seconds of silence before a conn is reaped *)
  frame_timeout : float;
      (** seconds an incomplete frame may dribble (slowloris bound) *)
  seed : int;  (** replica reconnect jitter RNG seed *)
  crash_after_ops : int option;  (** fault-injection hook, see {!Dispatch} *)
}

val default_config : Wire.addr -> config

val exit_config_error : int
(** 3 — bad CLI arguments / configuration. *)

val exit_bind_failure : int
(** 4 — could not bind/listen on the requested address. *)

val exit_recovery_failure : int
(** 5 — journal recovery failed. *)

val bind_listen : Wire.addr -> (Unix.file_descr, string) result
(** Bind and listen.  A stale Unix socket file left by an unclean
    shutdown is unlinked first; a path that exists but is not a socket
    is an [Error]. *)

val bootstrap_replica :
  upstream:Wire.addr -> dir:string -> (unit, string) result
(** Seed an empty replica dir from a running primary: connect, send a
    fresh [Repl_hello {epoch = 0; offset = 0}], collect the chunked
    [Repl_snapshot] stream, and write the dir via
    [Durable.bootstrap_replica].  Run before {!run} with [?replica_of]
    when the dir has no journal yet.  All failure modes (unreachable
    upstream, upstream not primary, fenced, corrupt payload) come back
    as [Error]. *)

val run :
  ?replica_of:Wire.addr ->
  config ->
  listen:Unix.file_descr ->
  durable:Durable.t ->
  (unit, string) result
(** Serve until SIGTERM/SIGINT or a [Drain] request, then drain
    gracefully.  Installs (and restores) SIGTERM/SIGINT/SIGPIPE
    handlers.  Closes [listen] and every connection before returning;
    the caller still owns [durable] and should {!Durable.close} it.

    With [?replica_of] the node starts as a hot standby of the given
    primary (see DESIGN.md §13): it tails the primary's WAL into its own
    journal byte-for-byte (handshaking from [Durable.replica_cursor]),
    acks each locally-fsynced extension, serves point queries from its
    own oracle, answers updates with a [Redirect] naming its upstream,
    and keeps reconnecting under jittered backoff while the upstream is
    away.  An upstream that is itself a replica redirects the node to
    its own upstream, which the node then tails and names instead.  A [Promote]
    request (on this or any node) bumps the replication epoch and turns
    the replica into a full primary; stale-epoch peers are fenced.

    The flag must agree with the journal: [Error] before serving when
    [?replica_of] is given but [Durable.replica_cursor durable] is [None]
    (a primary's dir), or omitted while it is [Some _] (an un-promoted
    replica's dir).  The message names the remedy.
    @raise Unix.Unix_error on journal I/O errors. *)
