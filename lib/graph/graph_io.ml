let to_string g =
  let buf = Buffer.create (16 * (Graph.m g + 2)) in
  Buffer.add_string buf
    (Printf.sprintf "# mspar edge list\n%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

type error = { line : int; token : string option; reason : string }

let error_message e =
  match e.token with
  | Some tok -> Printf.sprintf "Graph_io: line %d: %s (at %S)" e.line e.reason tok
  | None -> Printf.sprintf "Graph_io: line %d: %s" e.line e.reason

(* a vertex-count ceiling: the header alone drives O(n) allocation, so an
   absurd [n] in a few bytes of junk must be an [Error], not an OOM *)
let default_max_vertices = 1 lsl 26

exception Parse_error of error

let parse ?(max_vertices = default_max_vertices) s =
  let fail line ?token reason = raise (Parse_error { line; token; reason }) in
  let tokens line =
    String.split_on_char ' '
      (String.map (fun c -> if c = '\t' then ' ' else c) line)
    |> List.filter (fun t -> t <> "")
  in
  let parse_two lineno line =
    match tokens (String.trim line) with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some x, Some y -> (x, y)
        | None, _ -> fail lineno ~token:a "expected two integers"
        | _, None -> fail lineno ~token:b "expected two integers")
    | tok :: _ :: _ :: _ -> fail lineno ~token:tok "expected two integers"
    | [ tok ] -> fail lineno ~token:tok "expected two integers"
    | [] -> fail lineno "expected two integers"
  in
  let run () =
    let lines = String.split_on_char '\n' s in
    let rec skip_comments lineno = function
      | [] -> fail lineno "missing header"
      | line :: rest ->
          let trimmed = String.trim line in
          if trimmed = "" || trimmed.[0] = '#' then
            skip_comments (lineno + 1) rest
          else (lineno, line, rest)
    in
    let lineno, header, rest = skip_comments 1 lines in
    let n, m = parse_two lineno header in
    if n < 0 || m < 0 then fail lineno "negative header values";
    if n > max_vertices then
      fail lineno
        ~token:(string_of_int n)
        (Printf.sprintf "vertex count exceeds the %d limit" max_vertices);
    let edges = ref [] in
    let count = ref 0 in
    let last_line = ref lineno in
    List.iteri
      (fun i line ->
        let trimmed = String.trim line in
        if trimmed <> "" && trimmed.[0] <> '#' then begin
          let ln = lineno + 1 + i in
          last_line := ln;
          let u, v = parse_two ln line in
          if u < 0 || u >= n then
            fail ln ~token:(string_of_int u) "endpoint out of range";
          if v < 0 || v >= n then
            fail ln ~token:(string_of_int v) "endpoint out of range";
          edges := (u, v) :: !edges;
          incr count
        end)
      rest;
    if !count <> m then
      fail !last_line
        (Printf.sprintf "header declares %d edges but found %d" m !count);
    Graph.of_edges ~n !edges
  in
  match run () with g -> Ok g | exception Parse_error e -> Error e
(* total by construction: Parse_error is raised only inside [run] and
   caught on the line above *)
[@@lint.allow "MSP007"]

let of_string_exn s =
  match parse s with Ok g -> g | Error e -> failwith (error_message e)

let save path g =
  let oc = open_out path in
  output_string oc (to_string g);
  close_out oc

let load_exn path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string_exn s

(* ------------------------------------------------------------------ *)
(* .msgr — the mmap-able binary graph container                       *)
(* ------------------------------------------------------------------ *)

(* Layout (every lane 8-byte aligned, every byte covered by a check):

     offset  0  magic "MSPARGR1"                 8 bytes
     offset  8  n        int64 LE
     offset 16  m        int64 LE
     offset 24  maxdeg   int64 LE
     offset 32  checksum int64 LE  (Graph.checksum of the full structure)
     offset 40  flags    int64 LE  (bit 0: lanes are little-endian words)
     offset 48  crc32 of bytes [0, 48), stored as int64 LE
     offset 56  offsets lane: (n+1) x int64 LE
     offset 56 + 8(n+1)  adjacency lane: 2m x int64 LE
     EOF must land exactly at the end of the adjacency lane.

   The lane values are OCaml ints written as little-endian int64 words, so
   on a 64-bit little-endian host the on-disk bytes are exactly the
   in-memory representation of an [(int, int_elt) Bigarray] — [load_mmap]
   maps them in place with no decode pass and no copy.  The header CRC
   makes metadata damage a clean [Error]; the offsets lane is validated in
   O(n) by [Graph.of_csr] (monotone, inside the adjacency extent) so no
   adjacency index can escape the mapping; the adjacency lane itself is
   never read at load time unless [~verify:true] asks for the full
   checksum pass — that laziness is what makes opening a multi-million-edge
   graph O(n) instead of O(m). *)

module Bigvec = Mspar_prelude.Bigvec
module Codec = Mspar_prelude.Codec

let msgr_magic = "MSPARGR1"
let msgr_header_bytes = 56
let msgr_flag_le = 1L

(* one lane-write buffer: 8 KiB of int64 words, flushed as it fills *)
let lane_buf_words = 1024

let write_lane oc (lane : Bigvec.t) =
  let buf = Bytes.create (8 * lane_buf_words) in
  let len = Bigvec.length lane in
  let i = ref 0 in
  while !i < len do
    let batch = Int.min lane_buf_words (len - !i) in
    for k = 0 to batch - 1 do
      Bytes.set_int64_le buf (8 * k) (Int64.of_int (Bigvec.unsafe_get lane (!i + k)))
    done;
    output_bytes oc (Bytes.sub buf 0 (8 * batch));
    i := !i + batch
  done

let msgr_header g =
  let buf = Buffer.create msgr_header_bytes in
  Buffer.add_string buf msgr_magic;
  Codec.add_int64 buf (Int64.of_int (Graph.n g));
  Codec.add_int64 buf (Int64.of_int (Graph.m g));
  Codec.add_int64 buf (Int64.of_int (Graph.max_degree g));
  Codec.add_int64 buf (Graph.checksum g);
  Codec.add_int64 buf msgr_flag_le;
  let crc = Codec.crc32 (Buffer.contents buf) in
  Codec.add_int64 buf (Int64.logand (Int64.of_int32 crc) 0xFFFFFFFFL);
  Buffer.contents buf

let save_packed path g =
  if Sys.big_endian then
    invalid_arg "Graph_io.save_packed: .msgr lanes require a little-endian host";
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (msgr_header g);
      let offsets, adj = Graph.csr_lanes g in
      write_lane oc offsets;
      write_lane oc adj);
  (* atomic publish: readers either see the complete container or the old
     file, never a torn write *)
  Sys.rename tmp path

exception Bad of string

let read_exactly fd bytes len =
  let got = ref 0 in
  (try
     while !got < len do
       let k = Unix.read fd bytes !got (len - !got) in
       if k = 0 then raise Exit;
       got := !got + k
     done
   with Exit -> ());
  if !got < len then raise (Bad "truncated header")

let parse_msgr_header s =
  if not (String.equal (String.sub s 0 8) msgr_magic) then
    raise (Bad "bad magic (not an .msgr file)");
  let r = Codec.reader ~pos:8 s in
  let n64 = Codec.read_int64 r in
  let m64 = Codec.read_int64 r in
  let maxdeg64 = Codec.read_int64 r in
  let checksum = Codec.read_int64 r in
  let flags = Codec.read_int64 r in
  let stored_crc = Codec.read_int64 r in
  let crc = Int64.logand (Int64.of_int32 (Codec.crc32 ~pos:0 ~len:48 s)) 0xFFFFFFFFL in
  if not (Int64.equal stored_crc crc) then raise (Bad "header CRC mismatch");
  if not (Int64.equal (Int64.logand flags msgr_flag_le) msgr_flag_le) then
    raise (Bad "lanes are not little-endian");
  (* bound the counts before truncating to int: 2^48 vertices/edges is far
     beyond any mappable file and guards every later size product *)
  let in_range v = Int64.compare v 0L >= 0 && Int64.compare v 0x1_0000_0000_0000L < 0 in
  if not (in_range n64 && in_range m64 && in_range maxdeg64) then
    raise (Bad "header counts out of range");
  (Int64.to_int n64, Int64.to_int m64, Int64.to_int maxdeg64, checksum)

let map_lane fd ~pos ~len : Bigvec.t =
  if len = 0 then Bigvec.create 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int Bigarray.c_layout
         false [| len |])

let load_mmap ?(verify = false) path =
  let run () =
    if Sys.big_endian then raise (Bad "big-endian hosts cannot map .msgr lanes");
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size < msgr_header_bytes then raise (Bad "truncated header");
        let hdr = Bytes.create msgr_header_bytes in
        read_exactly fd hdr msgr_header_bytes;
        let n, m, maxdeg, checksum = parse_msgr_header (Bytes.to_string hdr) in
        let offsets_pos = msgr_header_bytes in
        let adj_pos = offsets_pos + (8 * (n + 1)) in
        let expected = adj_pos + (8 * 2 * m) in
        if size < expected then raise (Bad "file shorter than its lanes");
        if size > expected then raise (Bad "trailing bytes after the lanes");
        let offsets = map_lane fd ~pos:offsets_pos ~len:(n + 1) in
        let adj = map_lane fd ~pos:adj_pos ~len:(2 * m) in
        match Graph.of_csr ~n ~offsets ~adj ~maxdeg with
        | Error e -> raise (Bad ("offsets lane invalid: " ^ e))
        | Ok g ->
            if verify && not (Int64.equal (Graph.checksum g) checksum) then
              raise (Bad "content checksum mismatch");
            g)
  in
  match run () with
  | g -> Ok g
  | exception Bad reason -> Error (Printf.sprintf "Graph_io.load_mmap: %s: %s" path reason)
  | exception Codec.Truncated ->
      Error (Printf.sprintf "Graph_io.load_mmap: %s: truncated header" path)
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "Graph_io.load_mmap: %s: %s" path (Unix.error_message e))
  | exception Sys_error e -> Error (Printf.sprintf "Graph_io.load_mmap: %s" e)
(* total by construction: every failure mode of [run] is enumerated and
   converted to [Error] above *)
[@@lint.allow "MSP007"]

let load_mmap_exn ?verify path =
  match load_mmap ?verify path with Ok g -> g | Error e -> failwith e

let load_packed_exn path =
  Graph.materialize (load_mmap_exn ~verify:true path)
