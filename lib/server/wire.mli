(** Request/response payloads for the [mspar serve] binary protocol.

    One message = one {!Mspar_prelude.Codec.Frames} frame whose body is a
    tag byte plus Codec varints, encoded/decoded here.  Decoders are
    total: bytes arrive from an untrusted peer, so a malformed body is an
    [Error], never an exception. *)

(** Listen/connect address. *)
type addr = Unix_path of string | Tcp of string * int

val pp_addr : Format.formatter -> addr -> unit

val addr_of_string : string -> (addr, string) result
(** Parse ["unix:PATH"], ["tcp:HOST:PORT"], bare ["HOST:PORT"] (the last
    [':'] splits host from port, so IPv6 literals work unbracketed), or a
    bare filesystem path (no [':'] → [Unix_path]).  Inverse of
    {!pp_addr}. *)

val sockaddr : addr -> (Unix.sockaddr, string) result
(** The socket address to bind or connect to.  A TCP host that is not an
    address literal is looked up by name; one that resolves to no
    address is an [Error]. *)

type request =
  | Hello of int
      (** Bind the connection to a client id.  Must precede updates: the
          id keys the at-most-once dedup table across reconnects. *)
  | Insert of { rid : int; u : int; v : int }
      (** Insert edge [(u,v)]; [rid] is the client-assigned request id,
          strictly increasing per client. *)
  | Delete of { rid : int; u : int; v : int }
  | Query_matched of int  (** is this vertex matched? *)
  | Query_edge of int * int  (** is this edge in the dynamic graph? *)
  | Query_sparsifier of int * int  (** is this edge marked into G_Δ? *)
  | Checksum  (** full-state digest (op count + checksums + |M|) *)
  | Snapshot  (** force a durable snapshot now *)
  | Drain  (** begin graceful drain (same as SIGTERM) *)
  | Stats  (** server counters *)
  | Ping
  | Repl_hello of { epoch : int; offset : int }
      (** Follower handshake: "I have your WAL through [offset] at
          replication epoch [epoch]".  [epoch = 0, offset = 0] asks for a
          snapshot bootstrap; a stale epoch is refused with
          {!Repl_fence}.  Turns the connection into a replication
          out-stream. *)
  | Repl_ack of { offset : int }
      (** Follower has fsynced shipped WAL through [offset].  One-way:
          the primary sends no response, it only advances its lag
          accounting. *)
  | Promote
      (** Operator order: bump the replication epoch and (on a replica)
          become the primary.  Idempotent on a node that is already
          primary. *)
  | Role  (** who are you? → {!Role_reply}; used for primary discovery *)

type digest = {
  op_count : int;
  graph : int64;  (** [Graph.checksum] of the dynamic graph snapshot *)
  sparsifier : int64;
      (** [Graph.checksum] of the G_Δ that [Query_sparsifier] answers
          from: [Gdelta.sparsify_seeded] on the graph snapshot with the
          config's seed and Δ *)
  matching : int;  (** matching size *)
}

type summary = {
  accepted : int;
  active : int;
  frames_in : int;
  frames_out : int;
  malformed : int;
  busy_rejections : int;
      (** always 0: no request is refused for load.  Kept so the [Stats]
          layout stays put for readers that count it as failed ops. *)
  ops_applied : int;
  dedup_hits : int;
  queries : int;
  oracle_hits : int;
      (** oracle memo hits (mark, edge and matched-bit memos) on the query
          path *)
  oracle_misses : int;
      (** oracle memo misses — cold replays and stale entries dropped *)
  repl_followers : int;  (** replication out-streams currently attached *)
  repl_lag : int;
      (** durable bytes not yet acked by the slowest follower (0 with no
          followers) *)
  repl_fenced : int;  (** stale-epoch hellos and frames refused *)
}

type response =
  | Ack of bool
      (** Update durably applied (or answered from the dedup cache);
          payload says whether the graph changed.  Sent only after the
          WAL fsync covering the op. *)
  | Bool of bool  (** query answer *)
  | Digest of digest
  | Draining  (** server is draining; no further updates accepted *)
  | Ok
  | Stats_reply of summary
  | Error of string  (** protocol violation; the connection will close *)
  | Repl_snapshot of {
      epoch : int;  (** primary's replication epoch *)
      op_epoch : int;  (** op count baked into the snapshot *)
      wal_offset : int;  (** durable WAL bytes the snapshot covers *)
      meta : string;  (** encoded {!Mspar_dynamic.Durable} config *)
      last : bool;  (** final chunk of this bootstrap *)
      chunk : string;  (** snapshot payload slice, in order *)
    }
      (** Bootstrap stream answering a fresh {!Repl_hello}: concatenate
          the chunks, then seed a replica dir with
          [Mspar_dynamic.Durable.bootstrap_replica]. *)
  | Repl_frames of { epoch : int; start_offset : int; payload : string }
      (** Verbatim primary WAL bytes covering
          [start_offset, start_offset + length payload) — whole frames,
          already fsynced on the primary (ship-after-fsync). *)
  | Repl_fence of { epoch : int }
      (** Handshake refused: the receiver has seen replication epoch
          [epoch], newer than the sender's.  A fenced ex-primary must not
          retry — it has been superseded. *)
  | Redirect of string
      (** This node is a replica; updates (and replication hellos) must
          go to the primary.  The payload is an address hint, possibly
          empty. *)
  | Role_reply of { primary : bool; epoch : int; offset : int }
      (** Answer to {!Role}: role, replication epoch, and durable WAL
          offset (the replica's applied cursor when not primary). *)

val encode_request : Buffer.t -> request -> unit
val encode_response : Buffer.t -> response -> unit

val decode_request : string -> (request, string) result
(** Total decode of a frame body. *)

val decode_response : string -> (response, string) result
(** Total decode of a frame body. *)
