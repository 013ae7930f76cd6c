(** Append-only write-ahead log + atomic snapshot blobs for the dynamic
    pipeline.

    This module is the single blessed home of raw file I/O in [lib/]
    (lint rule MSP009); everything durability-related — framing, CRCs,
    fsyncs, torn-tail truncation, atomic renames, blob retention — lives
    here so it can be reviewed in one place.  A writer fsyncs only at
    its caller's commit points ({!sync}, {!close}).

    {2 File format}

    A journal file is a 9-byte header ([MSPARWAL] + version byte)
    followed by frames, one per record:

    {v <uvarint body-len> <body> <crc32-le of body> v}

    The reader validates each frame in order and {e stops at the first
    bad one} — short frame, CRC mismatch, or malformed body.  It never
    resyncs: a corrupt or torn suffix is reported via
    {!type:read_result} and can be chopped with {!truncate_torn}, so
    replay never sees bytes that were not fully acknowledged. *)

(** One logical journal record.  [Epoch e] marks that a snapshot blob
    numbered [e] captures all state up to this point; [Meta] carries an
    opaque configuration payload written once at journal creation.
    [Tagged (client, rid, op)] is an update journaled on behalf of a
    server client together with its client-assigned request id, so
    replay can rebuild the at-most-once dedup table; the nested record
    must be [Insert] or [Delete] (encoding anything else raises
    [Invalid_argument], decoding it is a malformed record). *)
type record =
  | Insert of int * int
  | Delete of int * int
  | Epoch of int
  | Meta of string
  | Tagged of int * int * record

val header_bytes : int
(** Size of the file header — the byte offset of the first frame, i.e.
    the [offset = 0] meaning of {!tail_from}. *)

val frame_size : record -> int
(** Exact on-disk size of the frame encoding this record (length prefix
    + body + CRC trailer).  Frame encoding is deterministic, so journal
    byte offsets can be computed from record lists.
    @raise Invalid_argument on a [Tagged] wrapping a non-update. *)

val record_of_body : string -> (record, string) result
(** Total decode of one frame {e body} (as yielded by
    {!Mspar_prelude.Codec.Frames} over journal bytes) back into a
    record.  Used by replication followers to validate shipped WAL
    frames before appending them verbatim. *)

(** {2 Writing} *)

type writer

val open_writer : string -> writer
(** Open (creating or appending to) the journal at [path].  A fresh or
    header-torn file is (re)started from a clean, fsynced header.  If
    the existing file has a torn tail, run {!read} + {!truncate_torn}
    first — appending after garbage hides it forever.
    @raise Unix.Unix_error on filesystem errors. *)

val append : writer -> record -> unit
(** Buffer one record.  Nothing reaches the file before the next
    {!sync} or {!close}.
    @raise Invalid_argument if the writer is closed. *)

val sync : writer -> unit
(** The commit point: write the buffer and fsync.  After [sync]
    returns, every appended record survives a crash.  No fsync is
    issued when nothing was written since the last one.
    @raise Invalid_argument if the writer is closed.
    @raise Unix.Unix_error on filesystem errors. *)

val durable_offset : writer -> int
(** Total file bytes covered by the last fsync through this writer —
    the exact prefix a replication primary may ship ("ship after
    fsync").  Initialized to the file size at open, so run {!read} +
    {!truncate_torn} first when the file may hold a torn tail. *)

val append_raw : writer -> string -> unit
(** Append already-framed journal bytes verbatim (replication follower
    path: shipped WAL frames are byte-identical to the primary's, so
    they are validated with {!Mspar_prelude.Codec.Frames.decode_all} +
    {!record_of_body} and then appended without re-encoding).  Buffered
    like {!append}.  The caller must have validated the bytes —
    appending garbage poisons the journal.
    @raise Invalid_argument if the writer is closed. *)

val close : writer -> unit
(** [sync] then close the fd.  Idempotent.
    @raise Unix.Unix_error on filesystem errors. *)

(** {2 Reading} *)

type read_result = {
  records : record list;  (** every fully valid record, in append order *)
  valid_bytes : int;  (** header plus all valid frames — the safe prefix *)
  torn : string option;
      (** [Some reason] iff parsing stopped before end of file *)
}

val read : string -> read_result
(** Parse the journal at [path].  Total: corruption and torn tails are
    reported in the result, never raised.  A missing file reads as
    empty with [torn = None].
    @raise Sys_error if the file exists but cannot be opened/read. *)

val truncate_torn : string -> read_result -> unit
(** If [result.torn] is set, truncate the file at [path] down to
    [result.valid_bytes] (and fsync) so a writer can safely append
    again.  No-op when the journal parsed cleanly.
    @raise Unix.Unix_error on filesystem errors. *)

(** {2 Position-addressed streaming read (replication tailing)} *)

type tail = {
  tail_records : record list;  (** valid records from [offset] on *)
  tail_next : int;
      (** the next durable offset — header plus every valid frame, the
          same boundary {!read} reports as [valid_bytes] *)
  tail_torn : string option;  (** the verdict {!read} would report *)
}

val tail_from : string -> offset:int -> (tail, string) result
(** [tail_from path ~offset] parses the journal with the same
    never-resync CRC discipline as {!read} and returns exactly the
    durable suffix starting at byte [offset] ([0] means the first
    frame, i.e. {!header_bytes}).  [offset] must be a frame boundary
    within the valid prefix (or its end, yielding an empty tail) —
    anything else, including a missing file or a bad header, is an
    [Error].  A torn tail is reported, never included.
    @raise Sys_error if the file exists but cannot be read. *)

val read_slice : string -> pos:int -> len:int -> string
(** Raw byte range [pos, pos+len) of the file (short at EOF).  The
    replication primary ships WAL slices with this after trimming to a
    frame boundary; it performs no validation of its own.
    @raise Invalid_argument on a negative range.
    @raise Unix.Unix_error if the file cannot be opened or read. *)

(** {2 Snapshot blobs} *)

val blob_path : string -> int -> string
(** [blob_path dir e] is the blob of [dir] that captures op count [e]
    ([snap-<e>.bin]). *)

val write_blob : string -> string -> unit
(** [write_blob path payload] durably writes [payload] (with magic,
    length, and CRC framing) to [path ^ ".tmp"], fsyncs, then renames —
    a crash at any point leaves either the previous blob or the new
    one, never a half-written file.
    @raise Unix.Unix_error on filesystem errors. *)

val read_blob : string -> string option
(** Read a blob written by {!write_blob}.  Returns [None] if the file
    is missing, short, mis-tagged, or fails its CRC — callers fall back
    to an older snapshot or full replay.
    @raise Sys_error if the file exists but cannot be opened/read. *)

val retain_blobs : string -> keep:int list -> unit
(** [retain_blobs dir ~keep] removes every blob of [dir]
    ([snap-*.bin]) but those {!blob_path} names for the op counts in
    [keep].
    @raise Sys_error if the dir cannot be listed or a blob removed. *)

val ensure_dir : string -> unit
(** [mkdir -p]: create [path] and any missing parents.
    @raise Unix.Unix_error on filesystem errors other than [EEXIST]. *)

(** {2 Directory lockfile}

    Advisory single-host lock claiming a journal directory, so two
    {!Durable} instances cannot open the same dir and interleave WAL
    frames.  The lock is a [lock.pid] file created with
    [O_CREAT|O_EXCL] holding the owner's pid (a lockfile of an older
    build that records ["pid epoch"] is read by its first token); a lock
    whose recorded pid no longer exists (or whose contents are
    unparsable) is stale and is broken automatically, once. *)

type lock

val acquire_lock : string -> (lock, string) result
(** [acquire_lock dir] claims [dir] (which must exist).  [Error reason]
    if another live process holds it.
    @raise Unix.Unix_error on filesystem errors other than [EEXIST]. *)

val release_lock : lock -> unit
(** Remove the lockfile.  Idempotent; never raises. *)
