(** Per-connection state for the serve loop: incremental frame reader
    inbound, bounded byte buffer outbound, non-blocking fd throughout. *)

open Mspar_prelude

type state = Open | Closing

(** Replication out-stream bookkeeping, attached to a connection by an
    accepted [Repl_hello]. *)
type follower = {
  mutable sent : int;  (** primary WAL offset shipped so far *)
  mutable acked : int;  (** highest [Repl_ack] offset received *)
}

(** Who is on the other end of a connection.  An accepted connection
    starts as [Client None]; the last handshake it sent decides what it
    is, so it is never a bound client and a follower at once. *)
type peer =
  | Client of int option
      (** a client; [Some id] once [Hello] bound it, which updates
          require *)
  | Follower of follower  (** a replication out-stream *)
  | Upstream
      (** dialled by a replica: its link to the primary, which answers
          the [Repl_hello] / [Repl_ack] requests sent on it *)

type t = {
  fd : Unix.file_descr;
  id : int;
  frames : Codec.Frames.t;
  out : Buffer.t;
  mutable out_pos : int;
  mutable peer : peer;
  mutable last_activity : float;
  mutable partial_since : float option;
      (** since when an incomplete frame has been pending — drives the
          slowloris timeout *)
  mutable state : state;
  mutable wbuf : bytes;
      (** reusable write-side scratch (grown on demand): response bodies
          are staged here for [Codec.Frames.encode_bytes], and [flush]
          carries the pending output suffix through it, so neither path
          allocates a string per call *)
}

val create : ?max_frame:int -> id:int -> now:float -> Unix.file_descr -> t
(** Wrap a connected fd (switched to non-blocking) as a [Client None].
    @raise Unix.Unix_error on fd errors. *)

val pending_out : t -> int
(** Outbound bytes queued but not yet written. *)

val feed : t -> now:float -> string -> int -> unit
(** Push [len] freshly read bytes into the frame reader and refresh the
    activity clock.
    @raise Invalid_argument if [len] overruns the chunk. *)

val next_frame :
  t -> now:float -> [ `Frame of string | `Need_more | `Corrupt of string ]
(** Pop the next complete frame, maintaining [partial_since]. *)

val queue : t -> Buffer.t -> Wire.response -> unit
(** Encode a response (via the [scratch] buffer) onto the out queue. *)

val queue_request : t -> Buffer.t -> Wire.request -> unit
(** Encode a request onto the out queue — the replica's upstream
    connection speaks the client role ([Repl_hello] / [Repl_ack]). *)

val read_into : t -> bytes -> [ `Data of int | `Eof | `Blocked ]
(** One non-blocking read.  Hard fd errors read as [`Eof]. *)

val flush : t -> [ `Done | `Partial of int | `Error ]
(** Write as much queued output as the socket accepts right now. *)

val close : t -> unit
(** Close the fd (errors ignored) and mark the connection [Closing]. *)
