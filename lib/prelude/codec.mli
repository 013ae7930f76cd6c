(** Hand-rolled binary codec for the durability layer (journal + snapshots).

    [Marshal] is banned (MSP005: unversioned, structurally unchecked), so
    everything that reaches disk is encoded explicitly: LEB128 varints,
    zigzag for signed fields, fixed little-endian [int64] lanes, IEEE bit
    patterns for floats.  The reader is total: reading past the end of the
    input raises {!Truncated}, which callers turn into torn-tail /
    corrupt-blob verdicts rather than crashes. *)

exception Truncated
(** Raised by every [read_*] function on exhausted input, and by
    {!read_uvarint} on a length no writer here produces. *)

(** {2 Writers (append to a [Buffer.t])} *)

val add_uvarint : Buffer.t -> int -> unit
(** LEB128 encoding of a non-negative int.
    @raise Invalid_argument on a negative argument. *)

val add_int : Buffer.t -> int -> unit
(** Zigzag-then-LEB128 encoding of any int (small magnitudes stay short). *)

val add_int64 : Buffer.t -> int64 -> unit
(** Fixed 8 bytes, little-endian. *)

val add_float : Buffer.t -> float -> unit
(** IEEE-754 bit pattern via {!add_int64} (bit-exact round trip). *)

val add_string : Buffer.t -> string -> unit
(** Length ({!add_uvarint}) followed by the raw bytes. *)

(** {2 Position-tracked reader} *)

type reader

val reader : ?pos:int -> ?len:int -> string -> reader
(** Reader over [s.[pos .. pos+len)] (default: the rest of the string).
    @raise Invalid_argument if [pos] is outside the string. *)

val pos : reader -> int
(** Current absolute offset into the underlying string. *)

val at_end : reader -> bool

val read_byte : reader -> int
(** @raise Truncated on exhausted input (same for all [read_*] below). *)

val read_uvarint : reader -> int
(** Inverse of {!add_uvarint}.
    @raise Truncated on exhausted or over-long input, or on a word with
    the top bit set, which no {!add_uvarint} writes (it would decode as a
    negative int). *)

val read_int : reader -> int
(** Inverse of {!add_int}. @raise Truncated on exhausted input. *)

val read_int64 : reader -> int64
(** @raise Truncated on exhausted input. *)

val read_float : reader -> float
(** @raise Truncated on exhausted input. *)

val read_string : reader -> string
(** @raise Truncated if the declared length overruns the input. *)

(** {2 Integrity} *)

val crc32 : ?pos:int -> ?len:int -> string -> int32
(** CRC-32 (IEEE 802.3, reflected, polynomial [0xEDB88320]) of the byte
    range (default: the whole string).  Guards every journal record and
    snapshot blob.
    @raise Invalid_argument if the range is out of bounds. *)

val crc32_bytes : ?pos:int -> ?len:int -> bytes -> int32
(** {!crc32} over a [bytes] range — lets writers that stage output in a
    reusable scratch buffer checksum it without a copy.
    @raise Invalid_argument if the range is out of bounds. *)

(** {2 Frames}

    The shared frame discipline — [<uvarint body-len> <body> <crc32-le of
    body>] — exactly the journal's record framing, reused on the
    [mspar serve] wire.  {!Frames.t} is an incremental reader: feed it
    arbitrary partial-read chunks (a socket delivers bytes, not frames)
    and pop complete, CRC-verified frame bodies.  It is total on any
    input: every byte sequence either yields frames, asks for more, or
    lands in a sticky [`Corrupt] state — it never raises on malformed
    input and never hangs on a finite one. *)
module Frames : sig
  type t

  (** Verdict on the unconsumed tail of a whole-buffer decode. *)
  type tail =
    | Clean  (** input ended exactly on a frame boundary *)
    | Short  (** trailing bytes form an incomplete (torn) frame *)
    | Bad of string  (** trailing bytes are corrupt beyond truncation *)

  val default_max_frame : int
  (** 1 MiB — default bound on a single frame body. *)

  val create : ?max_frame:int -> unit -> t
  (** Fresh incremental reader.  [max_frame] bounds the body length a
      frame may declare; a larger declaration is corruption, which stops
      a hostile peer from making us buffer unbounded input.
      @raise Invalid_argument if [max_frame < 1]. *)

  val feed : t -> ?pos:int -> ?len:int -> string -> unit
  (** Append [chunk.[pos .. pos+len)] (default: the whole string) to the
      reader's buffer.  No-op once the reader is corrupt.
      @raise Invalid_argument if the range is out of bounds. *)

  val next : t -> [ `Frame of string | `Need_more | `Corrupt of string ]
  (** Pop the next complete frame body.  [`Need_more] means the buffered
      bytes are a (possibly empty) prefix of a valid frame; [`Corrupt]
      means they can never become one (over-long or oversized length,
      CRC mismatch) — the verdict is sticky and the buffer is dropped. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed (0 after corruption). *)

  val encode : Buffer.t -> string -> unit
  (** Append one frame carrying [body] — the exact inverse of {!next}. *)

  val encode_bytes : Buffer.t -> bytes -> pos:int -> len:int -> unit
  (** {!encode} for a body staged in [b.[pos .. pos+len)] — appends and
      checksums in place, building no intermediate string.  The server's
      per-response path uses this to stay allocation-free.
      @raise Invalid_argument if the range is out of bounds. *)

  val decode_all : ?max_frame:int -> string -> string list * tail
  (** Whole-buffer decode: every complete valid frame in order, plus the
      verdict on what remains.  Implemented independently of the
      incremental reader so the two can be property-tested against each
      other. *)
end
