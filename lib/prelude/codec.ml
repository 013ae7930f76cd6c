(* Hand-rolled binary codec for the durability layer.

   MSP005 bans [Marshal], so every byte that reaches disk is written and
   parsed explicitly here: LEB128 varints for the op payloads (edge
   endpoints are small, so one or two bytes each), zigzag for the few
   signed fields (mate arrays store -1), fixed little-endian 8-byte lanes
   for RNG state and nanosecond counters, and IEEE bit patterns for the
   two float parameters.  The reader is position-tracked and total: any
   read past the end raises the single exception [Truncated], which the
   journal and snapshot loaders turn into "torn tail" / "corrupt blob"
   verdicts instead of crashes. *)

exception Truncated

(* ------------------------------------------------------------------ *)
(* writers                                                            *)
(* ------------------------------------------------------------------ *)

(* the int treated as an unsigned word: [lsr] keeps the loop terminating
   even when the top (sign) bit is set, as it is for zigzagged min_int *)
let add_uvarint_word buf n =
  let rec go n =
    if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n
[@@hot]

let add_uvarint buf n =
  if n < 0 then invalid_arg "Codec.add_uvarint: negative";
  add_uvarint_word buf n
[@@hot]

(* zigzag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... *)
let add_int buf n =
  add_uvarint_word buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
[@@hot]

let add_int64 buf x =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff))
  done
[@@hot]

let add_float buf f = add_int64 buf (Int64.bits_of_float f)

let add_string buf s =
  add_uvarint buf (String.length s);
  Buffer.add_string buf s
[@@hot]

(* ------------------------------------------------------------------ *)
(* reader                                                             *)
(* ------------------------------------------------------------------ *)

type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?len src =
  let limit =
    match len with None -> String.length src | Some l -> Int.min (pos + l) (String.length src)
  in
  if pos < 0 || pos > String.length src then invalid_arg "Codec.reader: bad pos";
  { src; pos; limit }

let pos r = r.pos
let at_end r = r.pos >= r.limit

let read_byte r =
  if r.pos >= r.limit then raise Truncated;
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c
[@@hot]

(* the raw word, top (sign) bit included: the inverse of
   [add_uvarint_word], which zigzag needs for all 63 bits *)
let read_uvarint_word r =
  let rec go shift acc =
    if shift > Sys.int_size - 2 then raise Truncated;
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0
[@@hot]

(* A 9-byte varint whose last byte sets bit 62 decodes to a negative
   word, which no [add_uvarint] wrote; as a length it would pass every
   [> limit] check, so it is refused like any other malformed input. *)
let read_uvarint r =
  let n = read_uvarint_word r in
  if n < 0 then raise Truncated;
  n
[@@hot]

let read_int r =
  let z = read_uvarint_word r in
  (z lsr 1) lxor (-(z land 1))
[@@hot]

let read_int64 r =
  let x = ref 0L in
  for i = 0 to 7 do
    x := Int64.logor !x (Int64.shift_left (Int64.of_int (read_byte r)) (8 * i))
  done;
  !x
[@@hot]

let read_float r = Int64.float_of_bits (read_int64 r)

let read_string r =
  let len = read_uvarint r in
  if len > r.limit - r.pos then raise Truncated;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)                     *)
(* ------------------------------------------------------------------ *)

(* placed above Frames so the frame codec can use it *)

let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref (Int32.of_int i) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 ?(pos = 0) ?len s =
  let len = match len with None -> String.length s - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.crc32: range out of bounds";
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (String.unsafe_get s i)))) 0xFFl)
    in
    c := Int32.logxor (Array.unsafe_get table idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
[@@hot]

(* twin over [bytes] so writers staging output in a reusable scratch
   buffer (Conn) can checksum without a [Bytes.to_string] copy *)
let crc32_bytes ?(pos = 0) ?len b =
  let len = match len with None -> Bytes.length b - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.crc32_bytes: range out of bounds";
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.unsafe_get b i)))) 0xFFl)
    in
    c := Int32.logxor (Array.unsafe_get table idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
[@@hot]

(* ------------------------------------------------------------------ *)
(* Frames: the shared frame discipline, incrementally decodable        *)
(* ------------------------------------------------------------------ *)

(* One frame is

     <uvarint body-len> <body> <crc32-le of body>

   — exactly the journal's record framing, reused verbatim on the
   `mspar serve` wire so a torn or bit-flipped frame is detected the
   same way in both places.  The incremental reader accepts arbitrary
   partial-read chunks (a socket delivers bytes, not frames) and is
   total: any input either yields frames, asks for more bytes, or lands
   in a sticky [`Corrupt] state — it never raises and never hangs on a
   finite input.  Corruption is unrecoverable by design (no resync):
   after a bad frame the connection/file is dropped, mirroring the
   journal's stop-at-first-bad-frame rule. *)

module Frames = struct
  type tail = Clean | Short | Bad of string

  type t = {
    max_frame : int;
    mutable data : string;  (* unconsumed bytes are data.[start ..] *)
    mutable start : int;
    mutable bad : string option;  (* sticky corruption verdict *)
  }

  let default_max_frame = 1 lsl 20

  let create ?(max_frame = default_max_frame) () =
    if max_frame < 1 then invalid_arg "Codec.Frames.create: max_frame >= 1";
    { max_frame; data = ""; start = 0; bad = None }

  let buffered t = String.length t.data - t.start

  let feed t ?(pos = 0) ?len chunk =
    let len =
      match len with None -> String.length chunk - pos | Some l -> l
    in
    if pos < 0 || len < 0 || pos + len > String.length chunk then
      invalid_arg "Codec.Frames.feed: range out of bounds";
    match t.bad with
    | Some _ -> ()  (* corrupt readers ignore further input *)
    | None ->
        let keep = buffered t in
        let b = Bytes.create (keep + len) in
        Bytes.blit_string t.data t.start b 0 keep;
        Bytes.blit_string chunk pos b keep len;
        t.data <- Bytes.unsafe_to_string b;
        t.start <- 0
  [@@hot]

  let corrupt t msg =
    t.bad <- Some msg;
    t.data <- "";
    t.start <- 0;
    `Corrupt msg

  (* A frame length is a uvarint; 9 continuation bytes already overflow
     the 62-bit value range, so a length field that is still incomplete
     after 9 bytes can never become valid.  A complete 9-byte length with
     the top bit set is refused by [read_uvarint] after those 9 bytes
     too, so it lands in the same verdict. *)
  let max_len_bytes = 9

  let read_crc_le r =
    let x = ref 0l in
    for i = 0 to 3 do
      x :=
        Int32.logor !x (Int32.shift_left (Int32.of_int (read_byte r)) (8 * i))
    done;
    !x

  let next t =
    match t.bad with
    | Some msg -> `Corrupt msg
    | None ->
        if buffered t = 0 then `Need_more
        else begin
          let total = String.length t.data in
          let r = reader ~pos:t.start t.data in
          match read_uvarint r with
          | exception Truncated ->
              if pos r - t.start >= max_len_bytes then
                corrupt t "over-long frame length"
              else `Need_more
          | body_len ->
              if body_len > t.max_frame then
                corrupt t
                  (Printf.sprintf "oversized frame (%d > max %d)" body_len
                     t.max_frame)
              else begin
                let body_start = pos r in
                if total - body_start < body_len + 4 then `Need_more
                else begin
                  let body = String.sub t.data body_start body_len in
                  let trailer = reader ~pos:(body_start + body_len) t.data in
                  let stored = read_crc_le trailer in
                  if not (Int32.equal stored (crc32 body)) then
                    corrupt t "frame crc mismatch"
                  else begin
                    t.start <- body_start + body_len + 4;
                    if t.start = total then begin
                      (* cheap compaction at a frame boundary *)
                      t.data <- "";
                      t.start <- 0
                    end;
                    `Frame body
                  end
                end
              end
        end

  let add_crc_le buf crc =
    for i = 0 to 3 do
      Buffer.add_char buf
        (Char.chr
           (Int32.to_int (Int32.shift_right_logical crc (8 * i)) land 0xff))
    done
  [@@hot]

  let encode buf body =
    add_uvarint buf (String.length body);
    Buffer.add_string buf body;
    add_crc_le buf (crc32 body)
  [@@hot]

  (* [encode] for a body staged in a [bytes] scratch region — no
     intermediate string is built; the body is appended and checksummed
     in place *)
  let encode_bytes buf b ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      invalid_arg "Codec.Frames.encode_bytes: range out of bounds";
    add_uvarint buf len;
    Buffer.add_subbytes buf b pos len;
    add_crc_le buf (crc32_bytes ~pos ~len b)
  [@@hot]

  (* Reference whole-buffer decoder, written independently of the
     incremental reader so the QCheck chunk-boundary property compares
     two implementations rather than one against itself. *)
  let decode_all ?(max_frame = default_max_frame) s =
    let total = String.length s in
    let frames = ref [] in
    let off = ref 0 in
    let tail = ref Clean in
    (try
       while !off < total do
         let r = reader ~pos:!off s in
         let body_len =
           match read_uvarint r with
           | n -> n
           | exception Truncated ->
               if pos r - !off >= max_len_bytes then
                 tail := Bad "over-long frame length"
               else tail := Short;
               raise Exit
         in
         if body_len > max_frame then begin
           tail :=
             Bad
               (Printf.sprintf "oversized frame (%d > max %d)" body_len
                  max_frame);
           raise Exit
         end;
         let body_start = pos r in
         if total - body_start < body_len + 4 then begin
           tail := Short;
           raise Exit
         end;
         let body = String.sub s body_start body_len in
         let trailer = reader ~pos:(body_start + body_len) s in
         if not (Int32.equal (read_crc_le trailer) (crc32 body)) then begin
           tail := Bad "frame crc mismatch";
           raise Exit
         end;
         frames := body :: !frames;
         off := body_start + body_len + 4
       done
     with Exit -> ());
    (List.rev !frames, !tail)
end
