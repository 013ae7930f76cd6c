(* Closed-loop load generator: one process, one select loop, several
   connections, each keeping [window] requests in flight over its own
   partition.  Frames are encoded before the clock starts, a connection's
   in-flight requests are the index range [acked, next) of its stream
   (responses come back in order), and replenishment for everything one
   read answered goes out in a single write — so the generator's cost
   per request is a few array stores next to the server's decode, apply,
   fsync and encode. *)

open Mspar_prelude
open Mspar_server

type conn = {
  fd : Unix.file_descr;
  reader : Codec.Frames.t;
  inbuf : bytes;
  mutable sent : int;  (* frames written, lifetime *)
  mutable received : int;  (* responses decoded, lifetime *)
}

let connect addr =
  match Client.connect_retry ~attempts:60 ~base_delay:0.02 addr with
  | Error msg -> failwith ("loadgen: cannot reach daemon: " ^ msg)
  | Ok c ->
      {
        fd = Client.fd c;
        reader = Codec.Frames.create ();
        inbuf = Bytes.create 65536;
        sent = 0;
        received = 0;
      }

let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let body_of req =
  let b = Buffer.create 32 in
  Wire.encode_request b req;
  Buffer.contents b

let frame_of_body body =
  let b = Buffer.create 40 in
  Codec.Frames.encode b body;
  Buffer.contents b

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* read until one whole frame is buffered and return its response *)
let rec next_response c =
  match Codec.Frames.next c.reader with
  | `Frame body -> (
      c.received <- c.received + 1;
      match Wire.decode_response body with
      | Ok r -> r
      | Error msg -> failwith ("loadgen: undecodable response: " ^ msg))
  | `Corrupt msg -> failwith ("loadgen: corrupt response stream: " ^ msg)
  | `Need_more ->
      let n = Unix.read c.fd c.inbuf 0 (Bytes.length c.inbuf) in
      if n = 0 then failwith "loadgen: daemon closed the connection";
      Codec.Frames.feed c.reader (Bytes.sub_string c.inbuf 0 n);
      next_response c

(* one request, one response: set-up and verification traffic *)
let call c req =
  write_all c.fd (frame_of_body (body_of req));
  c.sent <- c.sent + 1;
  next_response c

(* a request stream's frames, encoded once and before any clock starts *)
type encoded = { frames : string array; expect : Stationary.expect array }

let encode (items : Stationary.item array) : encoded =
  {
    frames = Array.map (fun (it : Stationary.item) -> frame_of_body (body_of it.req)) items;
    expect = Array.map (fun (it : Stationary.item) -> it.expect) items;
  }

type stream = {
  conn : conn;
  frames : string array;
  expect : Stationary.expect array;
  sent_at : int array;  (* ns, per request *)
  latency : int array;  (* ns, per request *)
  mutable next : int;
  mutable acked : int;
  mutable failed : int;  (* Busy, Error or a reply of the wrong kind *)
  mutable mismatched : int;  (* right kind, answer disagrees with the model *)
}

let stream conn (e : encoded) =
  let n = Array.length e.frames in
  {
    conn;
    frames = e.frames;
    expect = e.expect;
    sent_at = Array.make n 0;
    latency = Array.make n 0;
    next = 0;
    acked = 0;
    failed = 0;
    mismatched = 0;
  }

let is_update (e : Stationary.expect) =
  match e with Changed -> true | Answer _ | Any_answer -> false

type outcome = {
  wall_ns : int;  (* first send -> last response *)
  wait_ns : int;  (* blocked in select *)
  cpu_s : float;  (* generator CPU over the loop *)
}

let check s i (resp : Wire.response) =
  match (s.expect.(i), resp) with
  | Changed, Ack true | Any_answer, Bool _ -> ()
  | Changed, Ack false -> s.mismatched <- s.mismatched + 1
  | Answer b, Bool got -> if not (Bool.equal b got) then s.mismatched <- s.mismatched + 1
  | (Changed | Answer _ | Any_answer), _ -> s.failed <- s.failed + 1

let refill s ~window scratch =
  let stop = Int.min (Array.length s.frames) (s.acked + window) in
  if s.next < stop then begin
    Buffer.clear scratch;
    for i = s.next to stop - 1 do
      Buffer.add_string scratch s.frames.(i)
    done;
    let now = Int64.to_int (Mono.now_ns ()) in
    for i = s.next to stop - 1 do
      s.sent_at.(i) <- now
    done;
    s.conn.sent <- s.conn.sent + (stop - s.next);
    s.next <- stop;
    write_all s.conn.fd (Buffer.contents scratch)
  end

let drain s =
  let rec go now =
    if s.acked < s.next then
      match Codec.Frames.next s.conn.reader with
      | `Need_more -> ()
      | `Corrupt msg -> failwith ("loadgen: corrupt response stream: " ^ msg)
      | `Frame body ->
          s.conn.received <- s.conn.received + 1;
          let i = s.acked in
          s.latency.(i) <- now - s.sent_at.(i);
          (match Wire.decode_response body with
          | Ok r -> check s i r
          | Error _ -> s.failed <- s.failed + 1);
          s.acked <- i + 1;
          go now
  in
  let c = s.conn in
  let n = Unix.read c.fd c.inbuf 0 (Bytes.length c.inbuf) in
  if n = 0 then failwith "loadgen: daemon closed the connection";
  Codec.Frames.feed c.reader (Bytes.sub_string c.inbuf 0 n);
  go (Int64.to_int (Mono.now_ns ()))

(* a daemon that answers nothing for this long has stalled: the run fails *)
let stall_s = 30.

(* drive every stream to completion, [window] requests in flight each *)
let run ~window streams =
  let scratch = Buffer.create 4096 in
  let cpu0 = Host.self_cpu_s () in
  let t0 = Mono.now_ns () in
  let wait = ref 0 in
  List.iter (fun s -> refill s ~window scratch) streams;
  let busy () =
    List.filter (fun s -> s.acked < Array.length s.frames) streams
  in
  let rec loop () =
    match busy () with
    | [] -> ()
    | live ->
        let fds = List.map (fun s -> s.conn.fd) live in
        let w0 = Mono.now_ns () in
        (match Unix.select fds [] [] stall_s with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> failwith "loadgen: daemon stalled"
        | ready, _, _ ->
            wait := !wait + Mono.ns_since w0;
            List.iter
              (fun s ->
                if List.memq s.conn.fd ready then begin
                  drain s;
                  refill s ~window scratch
                end)
              live);
        loop ()
  in
  loop ();
  {
    wall_ns = Mono.ns_since t0;
    wait_ns = !wait;
    cpu_s = Host.self_cpu_s () -. cpu0;
  }

(* latencies in ms, split by op kind *)
let latencies_ms s ~updates =
  let out = ref [] in
  for i = Array.length s.latency - 1 downto 0 do
    if Bool.equal (is_update s.expect.(i)) updates then
      out := Mono.ms_of_ns s.latency.(i) :: !out
  done;
  Array.of_list !out

