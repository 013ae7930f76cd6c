open Mspar_prelude

(* Request/response payloads for the `mspar serve` protocol.  A message
   on the socket is one Codec.Frames frame whose body is encoded here:
   a tag byte followed by Codec varints.  Decoders are total — any
   malformed body comes back as [Error], never an exception — because
   the bytes arrive from an untrusted peer. *)

type addr = Unix_path of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_path p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) -> Fmt.pf ppf "tcp:%s:%d" h p

let addr_of_string s =
  let tcp rest =
    match String.rindex_opt rest ':' with
    | Some i when i > 0 && i < String.length rest - 1 -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
        | Some _ | None -> Stdlib.Error (Printf.sprintf "bad port in %S" s))
    | _ -> Stdlib.Error (Printf.sprintf "expected HOST:PORT in %S" s)
  in
  if s = "" then Stdlib.Error "empty address"
  else if String.starts_with ~prefix:"unix:" s then
    Ok (Unix_path (String.sub s 5 (String.length s - 5)))
  else if String.starts_with ~prefix:"tcp:" s then
    tcp (String.sub s 4 (String.length s - 4))
  else if String.contains s ':' then tcp s
  else Ok (Unix_path s)

let sockaddr = function
  | Unix_path p -> Ok (Unix.ADDR_UNIX p)
  | Tcp (host, port) -> (
      match Unix.inet_addr_of_string host with
      | a -> Ok (Unix.ADDR_INET (a, port))
      | exception Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
              Stdlib.Error ("cannot resolve " ^ host)
          | h -> Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))))

type request =
  | Hello of int  (* client id: binds the connection for dedup *)
  | Insert of { rid : int; u : int; v : int }
  | Delete of { rid : int; u : int; v : int }
  | Query_matched of int
  | Query_edge of int * int
  | Query_sparsifier of int * int
  | Checksum
  | Snapshot
  | Drain
  | Stats
  | Ping
  (* replication plane: a follower speaks these to its primary *)
  | Repl_hello of { epoch : int; offset : int }
      (* epoch 0 + offset 0 = fresh follower asking for a bootstrap *)
  | Repl_ack of { offset : int }
  | Promote
  | Role

type digest = {
  op_count : int;
  graph : int64;  (* Graph.checksum of the dynamic graph snapshot *)
  sparsifier : int64;  (* Graph.checksum of the seeded G_Δ queries read *)
  matching : int;  (* matching size *)
}

type summary = {
  accepted : int;
  active : int;
  frames_in : int;
  frames_out : int;
  malformed : int;
  busy_rejections : int;
  ops_applied : int;
  dedup_hits : int;
  queries : int;
  oracle_hits : int;
  oracle_misses : int;
  repl_followers : int;
  repl_lag : int;
  repl_fenced : int;
}

type response =
  | Ack of bool  (* update applied (or deduped); payload = "changed" *)
  | Bool of bool
  | Digest of digest
  | Draining
  | Ok
  | Stats_reply of summary
  | Error of string
  | Repl_snapshot of {
      epoch : int;  (* primary's replication epoch *)
      op_epoch : int;  (* op count baked into the snapshot *)
      wal_offset : int;  (* durable WAL bytes the snapshot covers *)
      meta : string;  (* encoded Durable config, journaled verbatim *)
      last : bool;  (* final chunk of this bootstrap *)
      chunk : string;  (* snapshot payload slice *)
    }
  | Repl_frames of { epoch : int; start_offset : int; payload : string }
    (* verbatim WAL bytes [start_offset, start_offset + |payload|) *)
  | Repl_fence of { epoch : int }
    (* refused: the primary's epoch is newer than the hello's *)
  | Redirect of string  (* not the primary; retry at this address hint *)
  | Role_reply of { primary : bool; epoch : int; offset : int }

(* ------------------------------------------------------------------ *)
(* encoding                                                           *)
(* ------------------------------------------------------------------ *)

let encode_request buf r =
  match r with
  | Hello client ->
      Buffer.add_char buf '\001';
      Codec.add_uvarint buf client
  | Insert { rid; u; v } ->
      Buffer.add_char buf '\002';
      Codec.add_uvarint buf rid;
      Codec.add_uvarint buf u;
      Codec.add_uvarint buf v
  | Delete { rid; u; v } ->
      Buffer.add_char buf '\003';
      Codec.add_uvarint buf rid;
      Codec.add_uvarint buf u;
      Codec.add_uvarint buf v
  | Query_matched v ->
      Buffer.add_char buf '\004';
      Codec.add_uvarint buf v
  | Query_edge (u, v) ->
      Buffer.add_char buf '\005';
      Codec.add_uvarint buf u;
      Codec.add_uvarint buf v
  | Query_sparsifier (u, v) ->
      Buffer.add_char buf '\006';
      Codec.add_uvarint buf u;
      Codec.add_uvarint buf v
  | Checksum -> Buffer.add_char buf '\007'
  | Snapshot -> Buffer.add_char buf '\008'
  | Drain -> Buffer.add_char buf '\009'
  | Stats -> Buffer.add_char buf '\010'
  | Ping -> Buffer.add_char buf '\011'
  | Repl_hello { epoch; offset } ->
      Buffer.add_char buf '\012';
      Codec.add_uvarint buf epoch;
      Codec.add_uvarint buf offset
  | Repl_ack { offset } ->
      Buffer.add_char buf '\013';
      Codec.add_uvarint buf offset
  | Promote -> Buffer.add_char buf '\014'
  | Role -> Buffer.add_char buf '\015'
[@@hot]

let encode_response buf r =
  match r with
  | Ack changed ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (if changed then '\001' else '\000')
  | Bool b ->
      Buffer.add_char buf '\002';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Digest d ->
      Buffer.add_char buf '\003';
      Codec.add_uvarint buf d.op_count;
      Codec.add_int64 buf d.graph;
      Codec.add_int64 buf d.sparsifier;
      Codec.add_uvarint buf d.matching
  (* tag 4 was a refusal for load; it is retired and never reused *)
  | Draining -> Buffer.add_char buf '\005'
  | Ok -> Buffer.add_char buf '\006'
  | Stats_reply s ->
      Buffer.add_char buf '\007';
      Codec.add_uvarint buf s.accepted;
      Codec.add_uvarint buf s.active;
      Codec.add_uvarint buf s.frames_in;
      Codec.add_uvarint buf s.frames_out;
      Codec.add_uvarint buf s.malformed;
      Codec.add_uvarint buf s.busy_rejections;
      Codec.add_uvarint buf s.ops_applied;
      Codec.add_uvarint buf s.dedup_hits;
      Codec.add_uvarint buf s.queries;
      Codec.add_uvarint buf s.oracle_hits;
      Codec.add_uvarint buf s.oracle_misses;
      Codec.add_uvarint buf s.repl_followers;
      Codec.add_uvarint buf s.repl_lag;
      Codec.add_uvarint buf s.repl_fenced
  | Error msg ->
      Buffer.add_char buf '\008';
      Codec.add_string buf msg
  | Repl_snapshot { epoch; op_epoch; wal_offset; meta; last; chunk } ->
      Buffer.add_char buf '\009';
      Codec.add_uvarint buf epoch;
      Codec.add_uvarint buf op_epoch;
      Codec.add_uvarint buf wal_offset;
      Codec.add_string buf meta;
      Buffer.add_char buf (if last then '\001' else '\000');
      Codec.add_string buf chunk
  | Repl_frames { epoch; start_offset; payload } ->
      Buffer.add_char buf '\010';
      Codec.add_uvarint buf epoch;
      Codec.add_uvarint buf start_offset;
      Codec.add_string buf payload
  | Repl_fence { epoch } ->
      Buffer.add_char buf '\011';
      Codec.add_uvarint buf epoch
  | Redirect hint ->
      Buffer.add_char buf '\012';
      Codec.add_string buf hint
  | Role_reply { primary; epoch; offset } ->
      Buffer.add_char buf '\013';
      Buffer.add_char buf (if primary then '\001' else '\000');
      Codec.add_uvarint buf epoch;
      Codec.add_uvarint buf offset
[@@hot]

(* ------------------------------------------------------------------ *)
(* decoding                                                           *)
(* ------------------------------------------------------------------ *)

let read_bool r =
  match Codec.read_byte r with
  | 0 -> false
  | 1 -> true
  | b -> failwith (Printf.sprintf "bad bool byte %d" b)

let total what go body =
  let r = Codec.reader body in
  match
    let v = go r in
    if not (Codec.at_end r) then failwith "trailing bytes";
    v
  with
  | v -> Stdlib.Ok v
  | exception Codec.Truncated -> Stdlib.Error ("short " ^ what)
  | exception Failure msg -> Stdlib.Error ("malformed " ^ what ^ ": " ^ msg)

(* the per-tag parsers are unexported: their [failwith]s are protocol
   verdicts that only ever run under [total], which converts them to
   [Error] results at the exported boundary *)
let request_payload r =
  match Codec.read_byte r with
  | 1 -> Hello (Codec.read_uvarint r)
  | 2 ->
      let rid = Codec.read_uvarint r in
      let u = Codec.read_uvarint r in
      let v = Codec.read_uvarint r in
      Insert { rid; u; v }
  | 3 ->
      let rid = Codec.read_uvarint r in
      let u = Codec.read_uvarint r in
      let v = Codec.read_uvarint r in
      Delete { rid; u; v }
  | 4 -> Query_matched (Codec.read_uvarint r)
  | 5 ->
      let u = Codec.read_uvarint r in
      Query_edge (u, Codec.read_uvarint r)
  | 6 ->
      let u = Codec.read_uvarint r in
      Query_sparsifier (u, Codec.read_uvarint r)
  | 7 -> Checksum
  | 8 -> Snapshot
  | 9 -> Drain
  | 10 -> Stats
  | 11 -> Ping
  | 12 ->
      let epoch = Codec.read_uvarint r in
      let offset = Codec.read_uvarint r in
      Repl_hello { epoch; offset }
  | 13 -> Repl_ack { offset = Codec.read_uvarint r }
  | 14 -> Promote
  | 15 -> Role
  | t -> failwith (Printf.sprintf "unknown request tag %d" t)

let decode_request body = total "request" request_payload body

let response_payload r =
  match Codec.read_byte r with
  | 1 -> Ack (read_bool r)
  | 2 -> Bool (read_bool r)
  | 3 ->
      let op_count = Codec.read_uvarint r in
      let graph = Codec.read_int64 r in
      let sparsifier = Codec.read_int64 r in
      let matching = Codec.read_uvarint r in
      Digest { op_count; graph; sparsifier; matching }
  | 5 -> Draining
  | 6 -> Ok
  | 7 ->
      let accepted = Codec.read_uvarint r in
      let active = Codec.read_uvarint r in
      let frames_in = Codec.read_uvarint r in
      let frames_out = Codec.read_uvarint r in
      let malformed = Codec.read_uvarint r in
      let busy_rejections = Codec.read_uvarint r in
      let ops_applied = Codec.read_uvarint r in
      let dedup_hits = Codec.read_uvarint r in
      let queries = Codec.read_uvarint r in
      let oracle_hits = Codec.read_uvarint r in
      let oracle_misses = Codec.read_uvarint r in
      let repl_followers = Codec.read_uvarint r in
      let repl_lag = Codec.read_uvarint r in
      let repl_fenced = Codec.read_uvarint r in
      Stats_reply
        {
          accepted;
          active;
          frames_in;
          frames_out;
          malformed;
          busy_rejections;
          ops_applied;
          dedup_hits;
          queries;
          oracle_hits;
          oracle_misses;
          repl_followers;
          repl_lag;
          repl_fenced;
        }
  | 8 -> Error (Codec.read_string r)
  | 9 ->
      let epoch = Codec.read_uvarint r in
      let op_epoch = Codec.read_uvarint r in
      let wal_offset = Codec.read_uvarint r in
      let meta = Codec.read_string r in
      let last = read_bool r in
      let chunk = Codec.read_string r in
      Repl_snapshot { epoch; op_epoch; wal_offset; meta; last; chunk }
  | 10 ->
      let epoch = Codec.read_uvarint r in
      let start_offset = Codec.read_uvarint r in
      let payload = Codec.read_string r in
      Repl_frames { epoch; start_offset; payload }
  | 11 -> Repl_fence { epoch = Codec.read_uvarint r }
  | 12 -> Redirect (Codec.read_string r)
  | 13 ->
      let primary = read_bool r in
      let epoch = Codec.read_uvarint r in
      let offset = Codec.read_uvarint r in
      Role_reply { primary; epoch; offset }
  | t -> failwith (Printf.sprintf "unknown response tag %d" t)

let decode_response body = total "response" response_payload body
