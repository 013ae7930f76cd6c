(** Crash-safe dynamic pipeline: WAL + snapshots + audit with self-repair.

    Wraps {!Dyn_matching} — whose dynamic graph is the only dynamic
    state kept — behind a write-ahead journal (see
    {!Mspar_prelude.Journal}): every op is journaled before it is
    applied, snapshot blobs are written every [snapshot_every] ops (with
    an [Epoch] journal record marking the boundary), and the {!Audit}
    checks run every [audit_every] ops — a failed audit rebuilds the
    matching from the authoritative dynamic graph and is counted in
    {!stats}.  The G_Δ the service answers point queries from is not
    stored here: it is a pure function of the graph and
    [(config.seed, config.delta)], replayed by [Mspar_lca.Oracle].

    {!recover} rebuilds the state after a crash: truncate the journal's
    torn tail, load the newest snapshot blob that passes its CRC, its
    layout tag and structural validation (falling back to older ones;
    with none left a primary replays its whole journal, a replica must
    re-bootstrap), and replay the op suffix.  Snapshots carry the exact
    adjacency order and RNG stream position, so replay is bit-for-bit
    identical to the uncrashed run — with [sync_every = 1], recovery
    loses nothing and diverges nowhere.

    All file I/O goes through {!Mspar_prelude.Journal} (lint MSP009). *)

type config = {
  n : int;
  delta : int;
      (** marks per vertex (Theorem 2.1 Δ) of the seeded G_Δ that point
          queries and the digest read; the matcher sizes its own Δ from
          [beta], [eps] and [multiplier] *)
  beta : int;  (** neighborhood independence bound *)
  eps : float;
  multiplier : float;  (** Δ headroom multiplier for the matcher *)
  seed : int;
}

type stats = {
  ops : int;  (** ops journaled (including no-ops), lifetime *)
  snapshots : int;  (** snapshot blobs written by this process *)
  audits : int;  (** audit passes run by this process *)
  audit_failures : int;
      (** audits that found at least one violation; each one rebuilt the
          matcher *)
  recovered_epoch : int option;
      (** snapshot epoch this process recovered from, if any *)
  replayed : int;  (** ops replayed from the journal at recovery *)
}

type t

val create :
  ?sync_every:int ->
  ?snapshot_every:int ->
  ?audit_every:int ->
  dir:string ->
  config ->
  t
(** Start a fresh durable pipeline in [dir] (created if missing): claim
    the directory lockfile ({!Mspar_prelude.Journal.acquire_lock}), write
    the journal header and the [Meta] config record, derive the matcher
    RNG stream from [config.seed].  [sync_every] is the journal fsync
    batch (default 32; 1 = lose nothing).
    @raise Invalid_argument if [dir] already holds a journal (use
    {!recover}), is locked by a live process, or a parameter is out of
    range ([delta < 1], [eps] outside (0, 1)).
    @raise Unix.Unix_error on filesystem errors. *)

val recover :
  ?sync_every:int ->
  ?snapshot_every:int ->
  ?audit_every:int ->
  string ->
  (t, string) result
(** Recover from the journal in the given directory.  Claims the
    directory lockfile first — a dir held by a live process is an
    [Error], a stale lock (dead owner) is broken automatically.  Never
    raises on corrupt state: torn tails are truncated, damaged or
    foreign-layout snapshot blobs are skipped in favour of older ones or
    full replay, and any structural problem is returned as [Error].  A
    replica journal (one holding a bootstrap marker) with no usable blob
    is an [Error] naming its bootstrap blob: its ops start at the
    primary's snapshot, so replaying them onto an empty state would
    diverge — re-bootstrap it.  On [Ok t], [t] continues
    exactly where the durable prefix of the journal left off, including
    the at-most-once dedup table rebuilt from [Tagged] records. *)

val insert : t -> int -> int -> bool
(** Journal then apply an insertion; returns [false] if the edge was
    already present.  Triggers the periodic audit and snapshot if their
    counters come due.
    @raise Invalid_argument on out-of-range endpoints, before anything
    is journaled.
    @raise Unix.Unix_error on filesystem errors. *)

val delete : t -> int -> int -> bool
(** Journal then apply a deletion; returns [false] if absent.
    @raise Invalid_argument on out-of-range endpoints.
    @raise Unix.Unix_error on filesystem errors. *)

val insert_req :
  t -> client:int -> rid:int -> int -> int -> [ `Applied of bool | `Duplicate of bool ]
(** At-most-once insert on behalf of server client [client] with
    client-assigned request id [rid] (strictly increasing per client).
    A rid past the client's last one journals a [Tagged] record then
    applies.  A resend of one of the last 62 rids (the last one
    included) answers [`Duplicate changed] with that rid's own outcome
    (the resend-after-lost-acks case), so a client that keeps at most 62
    updates unacked gets exact answers for every resend.  The window is
    carried in snapshots and rebuilt on replay.
    @raise Invalid_argument on out-of-range endpoints, and on a rid the
    window cannot answer: one never applied, or 62 or more rids before
    the last one.  Nothing is journaled then.
    @raise Unix.Unix_error on filesystem errors. *)

val delete_req :
  t -> client:int -> rid:int -> int -> int -> [ `Applied of bool | `Duplicate of bool ]
(** At-most-once delete; same contract as {!insert_req}.
    @raise Invalid_argument on out-of-range endpoints.
    @raise Unix.Unix_error on filesystem errors. *)

val sync : t -> unit
(** Flush and fsync the journal now — the server's group-commit point:
    acknowledgements may be sent only after this returns.
    @raise Unix.Unix_error on filesystem errors. *)

val audit_now : t -> string list
(** Run {!Audit.matching} (dynamic graph, its CSR snapshot, matching
    invariants) now.  On failure, rebuilds the matching from the graph
    ({!Dyn_matching.force_rebuild}), bumping [audit_failures]; the
    returned list is what the audit {e found} (pre-repair).  Consumes
    randomness only when a repair actually happens. *)

val snapshot_now : t -> unit
(** Sync the journal, write a snapshot blob at the current op count, and
    append the [Epoch] record.  On an un-promoted replica
    ({!replica_cursor} is [Some _]) only the blob is written: its
    [Epoch] records are the primary's shipped ones.
    @raise Unix.Unix_error on filesystem errors. *)

(** {2 Replication}

    A hot standby is a second [Durable] dir seeded from a primary
    snapshot ({!bootstrap_payload} → {!bootstrap_replica}) that then
    appends the primary's fsynced WAL frames {e verbatim}
    ({!apply_shipped}).  Because journal frames and wire frames share
    one codec, the replica's log is byte-identical to the primary's
    shipped suffix, its replay position is implied by its own file
    length, and recovery after a replica crash resumes from exactly the
    right primary offset ({!replica_cursor}).  Promotion
    ({!bump_repl_epoch}) appends a monotone epoch record and stamps the
    directory lockfile, fencing any stale ex-primary. *)

val repl_epoch : t -> int
(** Current replication epoch: 0 at creation, bumped by every
    {!bump_repl_epoch}, recovered as the maximum epoch recorded in the
    journal. *)

val replica_cursor : t -> int option
(** [Some off] iff this dir is an un-promoted replica: [off] is the
    primary-WAL byte offset it has applied through, i.e. the offset to
    present in a replication hello.  [None] on primaries. *)

val durable_offset : t -> int
(** Journal bytes covered by the last fsync — the exact prefix a
    primary may ship ({!Mspar_prelude.Journal.durable_offset}). *)

val wal_path : t -> string
(** Path of the journal file (for
    {!Mspar_prelude.Journal.read_slice} by the shipping loop). *)

val config_bytes : t -> string
(** The encoded config record, as journaled — shipped to replicas at
    bootstrap so both sides build identical state. *)

val bootstrap_payload : t -> int * string * int
(** Syncs the journal, then returns [(op_epoch, snapshot, wal_offset)]:
    a snapshot of the current state (op count [op_epoch]) plus the
    durable WAL offset covering it.  Every op after [wal_offset] reaches
    the replica as shipped frames; no disk blob is written.
    @raise Unix.Unix_error on filesystem errors. *)

val bootstrap_replica :
  dir:string ->
  config_bytes:string ->
  op_epoch:int ->
  wal_offset:int ->
  repl_epoch:int ->
  snapshot:string ->
  (unit, string) result
(** Seed a fresh replica dir from a primary's {!bootstrap_payload}:
    validates the payloads, writes the snapshot blob, and creates a
    journal holding exactly [Meta config; Meta marker; Epoch op_epoch].
    [Error] if the payloads are corrupt, the snapshot is of another
    layout (the message names both), does not match [op_epoch], the dir
    already holds a journal, or it is locked.
    {!recover} the dir afterwards to obtain a [t] with
    [replica_cursor = Some wal_offset].
    @raise Unix.Unix_error on filesystem errors. *)

val apply_shipped :
  t -> string -> on_update:(u:int -> v:int -> changed:bool -> unit) -> (int, string) result
(** Apply a slice of primary WAL bytes (whole frames, starting at this
    replica's cursor) shipped by the primary: validates every frame and
    record up front, appends the bytes verbatim, applies each op in
    order (firing [on_update] per graph update so derived read state can
    be invalidated), maintains the dedup table from [Tagged] records,
    writes a local snapshot blob at shipped [Epoch] points, and advances
    the cursor.  Returns the number of ops applied.  [Error] without any
    state change when validation fails; an [Error "apply failed"]
    mid-application leaves the replica inconsistent — discard the dir
    and re-bootstrap. *)

val bump_repl_epoch : t -> int
(** Promote: append a durable epoch record ([repl_epoch t + 1]), stamp
    the lockfile fence, clear {!replica_cursor}, and return the new
    epoch.  After this the dir is a primary; a stale ex-primary
    presenting an older epoch is refused by lock and handshake alike.
    @raise Unix.Unix_error on filesystem errors. *)

val matching : t -> Dyn_matching.t
val config : t -> config
val op_count : t -> int
val stats : t -> stats

val close : t -> unit
(** Flush and close the journal, then release the directory lock.
    Idempotent.
    @raise Unix.Unix_error on filesystem errors. *)
