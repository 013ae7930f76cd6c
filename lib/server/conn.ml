open Mspar_prelude

(* Per-connection state: an incremental frame reader on the inbound
   side and a bounded byte buffer on the outbound side.  All fds are
   non-blocking; the event loop drives [read_into]/[flush] off select
   readiness, so a slow or dead peer can stall only its own buffers. *)

type state = Open | Closing

type follower = {
  mutable sent : int;  (* primary WAL offset shipped so far *)
  mutable acked : int;  (* highest Repl_ack offset received *)
}

(* who is on the other end; the last handshake decides *)
type peer =
  | Client of int option  (* accepted; [Some id] once a Hello bound it *)
  | Follower of follower  (* accepted; an accepted Repl_hello made it a
                             replication out-stream *)
  | Upstream  (* dialled by a replica: the link to its primary *)

type t = {
  fd : Unix.file_descr;
  id : int;
  frames : Codec.Frames.t;
  out : Buffer.t;
  mutable out_pos : int;  (* prefix of [out] already written to the fd *)
  mutable peer : peer;
  mutable last_activity : float;
  mutable partial_since : float option;
      (* when the oldest buffered incomplete frame started arriving —
         the slowloris clock *)
  mutable state : state;
  mutable wbuf : bytes;
      (* reusable write-side scratch: stages response bodies for
         [Codec.Frames.encode_bytes] and carries the pending [out]
         suffix to [Unix.write], so neither path builds a string per
         call; grown on demand, never shrunk *)
}

let create ?(max_frame = Codec.Frames.default_max_frame) ~id ~now fd =
  Unix.set_nonblock fd;
  {
    fd;
    id;
    frames = Codec.Frames.create ~max_frame ();
    out = Buffer.create 512;
    out_pos = 0;
    peer = Client None;
    last_activity = now;
    partial_since = None;
    state = Open;
    wbuf = Bytes.create 4096;
  }

let reserve_wbuf t len =
  if Bytes.length t.wbuf < len then begin
    let cap = ref (Bytes.length t.wbuf) in
    while !cap < len do
      cap := !cap * 2
    done;
    t.wbuf <- Bytes.create !cap
  end

let pending_out t = Buffer.length t.out - t.out_pos

let feed t ~now chunk len =
  t.last_activity <- now;
  Codec.Frames.feed t.frames ~len chunk
[@@hot]

let next_frame t ~now =
  let r = Codec.Frames.next t.frames in
  (match r with
  | `Frame _ | `Corrupt _ -> t.partial_since <- None
  | `Need_more ->
      if Codec.Frames.buffered t.frames = 0 then t.partial_since <- None
      else if Option.is_none t.partial_since then t.partial_since <- Some now);
  r
[@@hot]

let queue t scratch resp =
  Buffer.clear scratch;
  Wire.encode_response scratch resp;
  (* stage the body in [wbuf] so the frame is appended and checksummed
     without a [Buffer.contents] string per response *)
  let len = Buffer.length scratch in
  reserve_wbuf t len;
  Buffer.blit scratch 0 t.wbuf 0 len;
  Codec.Frames.encode_bytes t.out t.wbuf ~pos:0 ~len
[@@hot]

(* same staging as [queue], for the client-role messages a replica sends
   upstream (Repl_hello / Repl_ack) over its primary connection *)
let queue_request t scratch req =
  Buffer.clear scratch;
  Wire.encode_request scratch req;
  let len = Buffer.length scratch in
  reserve_wbuf t len;
  Buffer.blit scratch 0 t.wbuf 0 len;
  Codec.Frames.encode_bytes t.out t.wbuf ~pos:0 ~len

let read_into t bytes =
  match Unix.read t.fd bytes 0 (Bytes.length bytes) with
  | 0 -> `Eof
  | n -> `Data n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      `Blocked
  | exception Unix.Unix_error (_, _, _) -> `Eof
[@@hot]

let flush t =
  let len = pending_out t in
  if len = 0 then `Done
  else begin
    (* blit only the pending suffix into [wbuf] — the old
       [Buffer.contents] copied the whole buffer per write.  A write is
       capped at the scratch capacity; the select loop re-calls [flush]
       while [`Partial], so the cap only bounds per-wakeup work. *)
    let n = Int.min len (Bytes.length t.wbuf) in
    Buffer.blit t.out t.out_pos t.wbuf 0 n;
    match Unix.write t.fd t.wbuf 0 n with
    | written ->
        t.out_pos <- t.out_pos + written;
        if pending_out t = 0 then begin
          Buffer.clear t.out;
          t.out_pos <- 0;
          `Done
        end
        else `Partial written
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        `Partial 0
    | exception Unix.Unix_error (_, _, _) -> `Error
  end
[@@hot]

let close t =
  (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ());
  t.state <- Closing
