(* Append-only write-ahead log for the dynamic pipeline, plus the one
   blessed home of raw file I/O in lib/ (lint rule MSP009 routes every
   open_out/openfile here so durability and atomicity decisions stay in
   one reviewable place; Graph_io keeps its own exemption for edge lists).

   On-disk layout:

     MSPARWAL <version byte>                      9-byte file header
     <uvarint body-len> <body> <crc32 of body>    one frame per record
     ...

   where a body is a tag byte plus Codec varints.  The CRC is the frame
   trailer rather than part of the body, so a torn write (power cut mid
   record) is detected either as a short frame or as a CRC mismatch; the
   reader stops at the first bad frame and never resyncs — a corrupt
   suffix is *never* replayed, it is reported and then chopped by
   [truncate_torn].

   Writers buffer encoded frames and push them to the file descriptor
   with one [write] + [fsync] at the caller's commit points ([sync] and
   [close]) and never in between: the serve loop's group commit, a
   snapshot, a replica's ack.  A record is durable once a [sync] after
   its [append] has returned. *)

type record =
  | Insert of int * int
  | Delete of int * int
  | Epoch of int  (* snapshot boundary: state up to here is in snapshot [e] *)
  | Meta of string  (* opaque configuration payload, written once at creation *)
  | Tagged of int * int * record
      (* (client, request id, op): an update journaled on behalf of a
         server client, so replay can rebuild the at-most-once dedup
         table.  The nested record must itself be Insert/Delete. *)

let magic = "MSPARWAL"
let version = '\001'
let header = magic ^ String.make 1 version
let header_len = String.length header
let header_bytes = header_len

(* ------------------------------------------------------------------ *)
(* record codec                                                       *)
(* ------------------------------------------------------------------ *)

let rec encode_body buf r =
  match r with
  | Insert (u, v) ->
      Buffer.add_char buf '\001';
      Codec.add_uvarint buf u;
      Codec.add_uvarint buf v
  | Delete (u, v) ->
      Buffer.add_char buf '\002';
      Codec.add_uvarint buf u;
      Codec.add_uvarint buf v
  | Epoch e ->
      Buffer.add_char buf '\003';
      Codec.add_uvarint buf e
  | Meta s ->
      Buffer.add_char buf '\004';
      Codec.add_string buf s
  | Tagged (client, rid, op) ->
      (match op with
      | Insert _ | Delete _ -> ()
      | Epoch _ | Meta _ | Tagged _ ->
          invalid_arg "Journal: Tagged may only wrap Insert/Delete");
      Buffer.add_char buf '\005';
      Codec.add_uvarint buf client;
      Codec.add_uvarint buf rid;
      encode_body buf op

let decode_body body =
  let r = Codec.reader body in
  let rec go () =
    match Codec.read_byte r with
    | 1 ->
        let u = Codec.read_uvarint r in
        let v = Codec.read_uvarint r in
        Insert (u, v)
    | 2 ->
        let u = Codec.read_uvarint r in
        let v = Codec.read_uvarint r in
        Delete (u, v)
    | 3 -> Epoch (Codec.read_uvarint r)
    | 4 -> Meta (Codec.read_string r)
    | 5 ->
        let client = Codec.read_uvarint r in
        let rid = Codec.read_uvarint r in
        (match go () with
        | (Insert _ | Delete _) as op -> Tagged (client, rid, op)
        | Epoch _ | Meta _ | Tagged _ ->
            failwith "Tagged record wraps a non-update")
    | t -> failwith (Printf.sprintf "unknown record tag %d" t)
  in
  let rec_ = go () in
  if not (Codec.at_end r) then failwith "trailing bytes in record body";
  rec_

let body_of r =
  let body = Buffer.create 16 in
  encode_body body r;
  Buffer.contents body

let frame buf r = Codec.Frames.encode buf (body_of r)
let frame_size r = Codec.Frames.frame_size (String.length (body_of r))

let record_of_body body =
  match decode_body body with
  | r -> Ok r
  | exception (Failure msg | Invalid_argument msg) -> Error msg
  | exception Codec.Truncated -> Error "short record body"

(* ------------------------------------------------------------------ *)
(* reading                                                            *)
(* ------------------------------------------------------------------ *)

type read_result = {
  records : record list;
  valid_bytes : int;  (* header + every fully valid frame *)
  torn : string option;  (* why parsing stopped before the end, if it did *)
}

(* shared parse core: every valid record with the byte offset its frame
   starts at, plus the usual (valid_bytes, torn) verdict.  Frames are cut
   by [Codec.Frames.decode_all], the decoder shipped WAL bytes go through
   too; the first body that is not a record ends the valid prefix. *)
let parse_frames contents =
  let total = String.length contents in
  if total < header_len then ([], 0, Some "missing or short header")
  else if not (String.equal (String.sub contents 0 header_len) header) then
    ([], 0, Some "bad magic/version header")
  else begin
    let bodies, tail =
      Codec.Frames.decode_all (String.sub contents header_len (total - header_len))
    in
    let rec go acc off = function
      | [] ->
          ( List.rev acc,
            off,
            match tail with
            | Codec.Frames.Clean -> None
            | Codec.Frames.Short -> Some "truncated record (torn tail)"
            | Codec.Frames.Bad msg -> Some msg )
      | body :: rest -> (
          match record_of_body body with
          | Ok r ->
              go ((off, r) :: acc)
                (off + Codec.Frames.frame_size (String.length body))
                rest
          | Error msg -> (List.rev acc, off, Some ("malformed record: " ^ msg)))
    in
    go [] header_len bodies
  end

let parse contents =
  let records, valid_bytes, torn = parse_frames contents in
  { records = List.map snd records; valid_bytes; torn }

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let read path =
  if not (Sys.file_exists path) then
    { records = []; valid_bytes = 0; torn = None }
  else parse (read_file path)

(* ------------------------------------------------------------------ *)
(* position-addressed streaming read (replication tailing)            *)
(* ------------------------------------------------------------------ *)

type tail = {
  tail_records : record list;  (* valid records from [offset] on *)
  tail_next : int;  (* the next durable offset: header + all valid frames *)
  tail_torn : string option;  (* same verdict [read] would report *)
}

let tail_from path ~offset =
  if not (Sys.file_exists path) then Error ("no journal at " ^ path)
  else begin
    let frames, valid_bytes, torn = parse_frames (read_file path) in
    if valid_bytes = 0 then
      Error (Option.value torn ~default:"empty journal")
    else begin
      let offset = if offset = 0 then header_len else offset in
      if offset = valid_bytes then
        Ok { tail_records = []; tail_next = valid_bytes; tail_torn = torn }
      else begin
        let rec suffix = function
          | (off, _) :: _ as fs when off = offset -> Some (List.map snd fs)
          | _ :: rest -> suffix rest
          | [] -> None
        in
        match suffix frames with
        | Some records ->
            Ok { tail_records = records; tail_next = valid_bytes; tail_torn = torn }
        | None ->
            Error
              (Printf.sprintf
                 "offset %d is not a frame boundary (durable end %d)" offset
                 valid_bytes)
      end
    end
  end

let read_slice path ~pos ~len =
  if len < 0 || pos < 0 then invalid_arg "Journal.read_slice: negative range";
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let buf = Bytes.create len in
      let got = ref 0 in
      let eof = ref false in
      while (not !eof) && !got < len do
        match Unix.read fd buf !got (len - !got) with
        | 0 -> eof := true
        | n -> got := !got + n
      done;
      Bytes.sub_string buf 0 !got)

let truncate_torn path result =
  match result.torn with
  | None -> ()
  | Some _ ->
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd result.valid_bytes;
          Unix.fsync fd)

(* ------------------------------------------------------------------ *)
(* writing                                                            *)
(* ------------------------------------------------------------------ *)

type writer = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable written_bytes : int;  (* bytes pushed to the fd, fsynced or not *)
  mutable durable_bytes : int;  (* bytes covered by the last fsync *)
  mutable closed : bool;
}

let flush_buf w =
  let s = Buffer.contents w.buf in
  Buffer.clear w.buf;
  let len = String.length s in
  let written = ref 0 in
  while !written < len do
    written :=
      !written + Unix.write_substring w.fd s !written (len - !written)
  done;
  w.written_bytes <- w.written_bytes + len

let sync w =
  if w.closed then invalid_arg "Journal.sync: writer is closed";
  flush_buf w;
  (* a commit point with nothing new to commit costs no fsync *)
  if w.written_bytes > w.durable_bytes then begin
    Unix.fsync w.fd;
    w.durable_bytes <- w.written_bytes
  end

let open_writer path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let w =
    { fd; buf = Buffer.create 256; written_bytes = size; durable_bytes = size;
      closed = false }
  in
  if size < header_len then begin
    (* fresh (or header-torn) file: start from a clean header *)
    Unix.ftruncate fd 0;
    w.written_bytes <- 0;
    w.durable_bytes <- 0;
    Buffer.add_string w.buf header;
    sync w
  end
  else ignore (Unix.lseek fd 0 Unix.SEEK_END);
  w

let durable_offset w = w.durable_bytes

let append w r =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  frame w.buf r

let append_raw w s =
  if w.closed then invalid_arg "Journal.append_raw: writer is closed";
  Buffer.add_string w.buf s

let close w =
  if not w.closed then begin
    sync w;
    w.closed <- true;
    Unix.close w.fd
  end

(* ------------------------------------------------------------------ *)
(* snapshot blobs                                                     *)
(* ------------------------------------------------------------------ *)

let blob_magic = "MSPARSNP"

(* a dir's blobs are named by the op count they capture *)
let blob_name epoch = Printf.sprintf "snap-%d.bin" epoch
let blob_path dir epoch = Filename.concat dir (blob_name epoch)

(* a blob is [blob_magic], the version byte, then the payload as one
   frame: the journal's framing, without its size bound *)
let write_blob path payload =
  let buf = Buffer.create (String.length payload + 32) in
  Buffer.add_string buf blob_magic;
  Buffer.add_char buf version;
  Codec.Frames.encode buf payload;
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let s = Buffer.contents buf in
      let len = String.length s in
      let written = ref 0 in
      while !written < len do
        written := !written + Unix.write_substring fd s !written (len - !written)
      done;
      Unix.fsync fd);
  (* atomic publish: a crash leaves either the old blob or the new one *)
  Unix.rename tmp path

let read_blob path =
  if not (Sys.file_exists path) then None
  else begin
    let contents = read_file path in
    let hl = String.length blob_magic + 1 in
    if String.length contents < hl then None
    else if not (String.equal (String.sub contents 0 (String.length blob_magic)) blob_magic)
    then None
    else
      List.nth_opt
        (fst
           (Codec.Frames.decode_all ~max_frame:max_int
              (String.sub contents hl (String.length contents - hl))))
        0
  end

let retain_blobs dir ~keep =
  let kept = List.map blob_name keep in
  Array.iter
    (fun name ->
      if
        String.starts_with ~prefix:"snap-" name
        && String.ends_with ~suffix:".bin" name
        && not (List.exists (String.equal name) kept)
      then Sys.remove (Filename.concat dir name))
    (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* directory lockfile                                                 *)
(* ------------------------------------------------------------------ *)

(* Two live Durable instances over the same journal dir would interleave
   WAL frames and corrupt each other's replay, so a dir is claimed with
   an O_CREAT|O_EXCL pid file before any WAL fd is opened.  A lock left
   behind by a kill -9'd owner is detected by probing the recorded pid
   (kill 0): if the process is gone — or the file is unparsable — the
   lock is stale and is broken, once.  This is advisory single-host
   locking; it is not meant to survive shared network filesystems. *)

type lock = { lock_path : string; mutable held : bool }

(* the holder's pid is the first token: lockfiles of older builds go on
   to record a replication epoch, which nothing reads *)
let lock_holder s =
  int_of_string_opt (List.hd (String.split_on_char ' ' (String.trim s)))

let lock_path dir = Filename.concat dir "lock.pid"

(* Lock paths held live by this process.  A lockfile recording our own
   pid but absent from this registry was left behind by an abandoned
   in-process incarnation (the crash-simulation suites "kill" a Durable
   without process death) and counts as stale, while a registered path
   is genuinely contended. *)
let live_locks : (string, unit) Hashtbl.t = Hashtbl.create 8

let holder_alive ~path pid =
  if pid = Unix.getpid () then Hashtbl.mem live_locks path
  else
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.EPERM, _, _) -> true  (* alive, not ours *)
    | exception Unix.Unix_error (_, _, _) -> false

let try_claim path =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let s = string_of_int (Unix.getpid ()) in
          let n = Unix.write_substring fd s 0 (String.length s) in
          if n <> String.length s then failwith "short write to lockfile");
      true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false

let acquire_lock dir =
  let path = lock_path dir in
  let claimed () =
    Hashtbl.replace live_locks path ();
    Ok { lock_path = path; held = true }
  in
  if try_claim path then claimed ()
  else begin
    let holder =
      match read_file path with
      | s -> lock_holder s
      | exception Sys_error _ -> None
    in
    match holder with
    | Some pid when holder_alive ~path pid ->
        Error (Printf.sprintf "journal dir locked by pid %d (%s)" pid path)
    | Some _ | None ->
        (* stale: owner is dead or the file is garbage — break it once *)
        (try Sys.remove path with Sys_error _ -> ());
        if try_claim path then claimed ()
        else Error (Printf.sprintf "journal dir lock contended (%s)" path)
  end

let release_lock l =
  if l.held then begin
    l.held <- false;
    Hashtbl.remove live_locks l.lock_path;
    try Sys.remove l.lock_path with Sys_error _ -> ()
  end

let ensure_dir path =
  let rec go p =
    if not (String.equal p "" || String.equal p "/" || String.equal p ".")
       && not (Sys.file_exists p)
    then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path
