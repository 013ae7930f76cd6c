open Mspar_prelude

(* Crash-safe wrapper around the dynamic matcher: a Journal WAL of ops,
   and one durability schedule decided by the config and the op count
   alone — the journal is fsynced at the caller's commit points ([sync],
   snapshots, [close]), and every [config.n] journaled ops a primary
   audits its state and writes a snapshot blob named by an [Epoch]
   record, keeping that blob and its fallback.

   Layout of [dir]:
     journal.wal       op log (Meta config record first, then ops/epochs)
     snap-<e>.bin      snapshot blob at epoch e = op count when written

   Discipline: every op is journaled *before* it is applied (redo
   logging).  Replaying a journaled-but-unapplied op after a crash is
   exactly the intended semantics; replaying a no-op (insert of an
   existing edge) consumes no randomness, so it is always safe.

   This module performs no file I/O of its own — every byte that touches
   disk goes through [Journal] (see MSP009). *)

type config = {
  n : int;
  delta : int;
  beta : int;
  eps : float;
  multiplier : float;
  seed : int;
}

type stats = {
  ops : int;
  snapshots : int;
  audits : int;
  audit_failures : int;
  recovered_epoch : int option;
  replayed : int;
}

(* A client's resend window: bit [i] of [applied] and of [changed] tells
   whether rid [last - i] was applied and whether it changed the graph,
   for the [window] rids that end at [last]. *)
type window = { last : int; applied : int; changed : int }

type t = {
  dir : string;
  config : config;
  writer : Journal.writer;
  lock : Journal.lock;
  mutable repl_epoch : int;
      (* monotone replication epoch: bumped on promotion, persisted as a
         Meta record; the Repl_hello handshake fences followers of
         another epoch *)
  mutable cursor : int option;
      (* replica mode: the primary-WAL byte offset this dir has applied
         up to.  [None] on primaries.  Maintained by [apply_shipped];
         recomputed at recovery from the bootstrap marker plus the
         byte-identical shipped suffix. *)
  dm : Dyn_matching.t;
  (* at-most-once: client id -> its resend window.  Request ids are
     client-assigned and strictly increasing per client, so a resend
     after lost acks carries rids at or below the last one and is
     answered from here without re-applying. *)
  dedup : (int, window) Hashtbl.t;
  mutable last_epoch : int option;
      (* the op count of the newest blob known to be readable: the one
         this process last wrote, or recovered from.  It and the next
         one are the two blobs kept on disk *)
  mutable ops : int;
  mutable snapshots : int;
  mutable audits : int;
  mutable audit_failures : int;
  recovered_epoch : int option;
  mutable replayed : int;
}

let journal_path dir = Filename.concat dir "journal.wal"

(* ------------------------------------------------------------------ *)
(* config codec (the Meta record payload)                             *)
(* ------------------------------------------------------------------ *)

let encode_config c =
  let buf = Buffer.create 48 in
  Codec.add_uvarint buf c.n;
  Codec.add_uvarint buf c.delta;
  Codec.add_uvarint buf c.beta;
  Codec.add_float buf c.eps;
  Codec.add_float buf c.multiplier;
  Codec.add_int buf c.seed;
  Buffer.contents buf

let decode_config s =
  let r = Codec.reader s in
  let n = Codec.read_uvarint r in
  let delta = Codec.read_uvarint r in
  let beta = Codec.read_uvarint r in
  let eps = Codec.read_float r in
  let multiplier = Codec.read_float r in
  let seed = Codec.read_int r in
  { n; delta; beta; eps; multiplier; seed }

(* Replication metadata rides in [Journal.Meta] records so it shares the
   WAL's durability and never-resync discipline:

     "epoch!"   uvarint e             promotion bumped the repl epoch to e
     "replica!" uvarint wal_offset    replica bootstrap marker: this dir
                uvarint op_epoch      was seeded from a primary snapshot
                uvarint repl_epoch    at op count [op_epoch] whose WAL was
                                      durable through [wal_offset]

   A replica journal is exactly: Meta config, Meta marker, Epoch
   op_epoch, then the primary's shipped frames appended verbatim — so
   the applied-up-to cursor needs no separate persistence: it is
   [wal_offset + (local valid bytes - the 3-record prefix)]. *)

let repl_meta_prefix = "epoch!"
let marker_prefix = "replica!"

let encode_repl_epoch e =
  let buf = Buffer.create 12 in
  Buffer.add_string buf repl_meta_prefix;
  Codec.add_uvarint buf e;
  Buffer.contents buf

let payload_after_prefix ~prefix s =
  if String.starts_with ~prefix s then
    let pl = String.length prefix in
    Some (String.sub s pl (String.length s - pl))
  else None

let repl_epoch_of_meta s =
  match payload_after_prefix ~prefix:repl_meta_prefix s with
  | None -> None
  | Some rest -> (
      match Codec.read_uvarint (Codec.reader rest) with
      | e -> Some e
      | exception _ -> None)

let encode_marker ~wal_offset ~op_epoch ~repl_epoch =
  let buf = Buffer.create 32 in
  Buffer.add_string buf marker_prefix;
  Codec.add_uvarint buf wal_offset;
  Codec.add_uvarint buf op_epoch;
  Codec.add_uvarint buf repl_epoch;
  Buffer.contents buf

let marker_of_meta s =
  match payload_after_prefix ~prefix:marker_prefix s with
  | None -> None
  | Some rest -> (
      match
        let r = Codec.reader rest in
        let wal_offset = Codec.read_uvarint r in
        let op_epoch = Codec.read_uvarint r in
        let repl_epoch = Codec.read_uvarint r in
        (wal_offset, op_epoch, repl_epoch)
      with
      | m -> Some m
      | exception _ -> None)

let fresh_matching config =
  (* The matcher draws from the second split of the base seed.  The
     first fed the sparsifier that layout-1 snapshots (below) kept; it
     stays skipped so a config's seed keeps naming the same matcher
     stream. *)
  let base = Rng.create config.seed in
  ignore (Rng.split base);
  Dyn_matching.create ~multiplier:config.multiplier (Rng.split base)
    ~n:config.n ~beta:config.beta ~eps:config.eps

(* ------------------------------------------------------------------ *)
(* audit / repair / snapshot                                          *)
(* ------------------------------------------------------------------ *)

let audit_now t =
  t.audits <- t.audits + 1;
  let failures = Audit.matching t.dm in
  if not (List.is_empty failures) then begin
    t.audit_failures <- t.audit_failures + 1;
    (* Self-repair from the authoritative dynamic graph.  The graph is
       the ground truth (it is what the journal reconstructs); the
       matching is derived state and can be rebuilt from it. *)
    Dyn_matching.force_rebuild t.dm
  end;
  failures

(* The resend window is 62 rids: both bit masks stay non-negative ints. *)
let window = 62
let window_mask = (1 lsl window) - 1

let encode_dedup buf dedup =
  let entries = Hashtbl.fold (fun client w acc -> (client, w) :: acc) dedup [] in
  (* sorted by client id so the snapshot bytes are deterministic *)
  let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
  Codec.add_uvarint buf (List.length entries);
  List.iter
    (fun (client, w) ->
      Codec.add_uvarint buf client;
      Codec.add_uvarint buf w.last;
      Codec.add_uvarint buf w.applied;
      Codec.add_uvarint buf w.changed)
    entries

let decode_dedup r =
  let count = Codec.read_uvarint r in
  let dedup = Hashtbl.create (Int.max 16 count) in
  for _ = 1 to count do
    let client = Codec.read_uvarint r in
    let last = Codec.read_uvarint r in
    let applied = Codec.read_uvarint r in
    let changed = Codec.read_uvarint r in
    if applied > window_mask || applied land 1 = 0 || changed land lnot applied <> 0
    then failwith (Printf.sprintf "bad resend window of client %d" client);
    Hashtbl.replace dedup client { last; applied; changed }
  done;
  dedup

(* Snapshot payloads open with a layout tag, checked before any field is
   decoded.  Layout 1 had no tag and held a sparsifier section (graph,
   RNG, marks) ahead of the matcher; layouts 2 to 4 hold the op count,
   the matcher and the dedup table.  Layout 3's matcher rebuilds from a
   per-window seed, layout 2's from one shared stream, so a layout-2
   matcher would replay under a different rebuild.  Layout 4 keeps a
   resend window per client where layout 3 kept one outcome. *)
let snapshot_layout = "mspar-snap/4"

let layout_mismatch =
  Printf.sprintf
    "snapshot layout mismatch: this build reads layout 4 (tag %S: op count, \
     window-seeded matcher, per-client resend windows), the payload lacks \
     that tag (layout 3 blobs keep one outcome per client, layout 2 blobs \
     hold a stream-seeded matcher, layout 1 blobs are untagged and also \
     carry the sparsifier)"
    snapshot_layout

let encode_state t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf snapshot_layout;
  Codec.add_uvarint buf t.ops;
  Dyn_matching.encode t.dm buf;
  encode_dedup buf t.dedup;
  Buffer.contents buf

(* The state has reached an Epoch: audit it first, so that a repair
   happens at the same op wherever this Epoch is applied (on the primary,
   on every replica, and in every replay), then write the blob once the
   ops it covers are durable.  A primary appends the Epoch record after
   the blob; a replica's is the shipped frame, already in its buffer.
   Once the Epoch is durable only its blob and the last readable one
   stay. *)
let checkpoint t =
  ignore (audit_now t);
  Journal.sync t.writer;
  Journal.write_blob (Journal.blob_path t.dir t.ops) (encode_state t);
  if Option.is_none t.cursor then begin
    Journal.append t.writer (Journal.Epoch t.ops);
    Journal.sync t.writer
  end;
  t.snapshots <- t.snapshots + 1;
  Journal.retain_blobs t.dir ~keep:(t.ops :: Option.to_list t.last_epoch);
  t.last_epoch <- Some t.ops

(* A replica writes nothing: a frame of its own would break byte-identity
   with the primary's suffix, and a blob no Epoch names is never read. *)
let snapshot_now t =
  if
    Option.is_none t.cursor
    && not (Option.equal Int.equal t.last_epoch (Some t.ops))
  then checkpoint t

(* [Error] for a payload of another layout; a damaged payload of this
   layout raises from the codec or the validating decoder instead. *)
let decode_snapshot payload =
  if not (String.starts_with ~prefix:snapshot_layout payload) then
    Error layout_mismatch
  else
    let r = Codec.reader ~pos:(String.length snapshot_layout) payload in
    let epoch = Codec.read_uvarint r in
    let dm = Dyn_matching.decode r in
    let dedup = decode_dedup r in
    Ok (epoch, dm, dedup)

(* ------------------------------------------------------------------ *)
(* ops                                                                *)
(* ------------------------------------------------------------------ *)

(* The at-most-once guard: [`Fresh] for a rid past the client's last
   one, [`Resent changed] for an applied rid the window still holds. *)
let lookup dedup ~client ~rid =
  match Hashtbl.find_opt dedup client with
  | None -> `Fresh
  | Some w when rid > w.last -> `Fresh
  | Some w ->
      let i = w.last - rid in
      if i < window && (w.applied lsr i) land 1 = 1 then
        `Resent ((w.changed lsr i) land 1 = 1)
      else `Unanswerable

(* slide the client's window forward to the fresh [rid] and record its
   outcome in bit 0 *)
let record dedup ~client ~rid changed =
  let w =
    Option.value (Hashtbl.find_opt dedup client)
      ~default:{ last = rid; applied = 0; changed = 0 }
  in
  let s = rid - w.last in
  let slide bits = if s < window then (bits lsl s) land window_mask else 0 in
  Hashtbl.replace dedup client
    {
      last = rid;
      applied = slide w.applied lor 1;
      changed = slide w.changed lor Bool.to_int changed;
    }

(* The one place an update reaches the matcher — live, replayed at
   recovery, or shipped from a primary.  A [Tagged] record passes the
   at-most-once guard and records its outcome in [dedup]; the primary
   only journals fresh rids, so on a healthy stream the guard never
   fires.  Returns the applied update, or [None] for a record that is
   not one (or not a fresh rid). *)
let rec apply dm dedup = function
  | Journal.Insert (u, v) -> Some (u, v, Dyn_matching.insert dm u v)
  | Journal.Delete (u, v) -> Some (u, v, Dyn_matching.delete dm u v)
  | Journal.Tagged (client, rid, op) -> (
      match lookup dedup ~client ~rid with
      | `Resent _ | `Unanswerable -> None
      | `Fresh ->
          let applied = apply dm dedup op in
          Option.iter
            (fun (_, _, changed) -> record dedup ~client ~rid changed)
            applied;
          applied)
  | Journal.Epoch _ | Journal.Meta _ -> None

(* every [config.n] journaled ops: a crash replays at most [n] of them *)
let after_op t =
  t.ops <- t.ops + 1;
  if t.ops mod t.config.n = 0 then snapshot_now t

(* Live updates range-check before journaling: a record that replay
   cannot apply would make every later recovery of the dir fail. *)
let journal_and_apply t record u v =
  let n = t.config.n in
  if u < 0 || v < 0 || u >= n || v >= n then
    invalid_arg
      (Printf.sprintf "Durable: endpoint of (%d, %d) outside [0, %d)" u v n);
  Journal.append t.writer record;
  let changed =
    match apply t.dm t.dedup record with Some (_, _, c) -> c | None -> false
  in
  after_op t;
  changed

let insert t u v = journal_and_apply t (Journal.Insert (u, v)) u v
let delete t u v = journal_and_apply t (Journal.Delete (u, v)) u v

(* At-most-once variants for the server: the op is journaled as [Tagged]
   so replay rebuilds the dedup table.  A resend inside the window
   answers its own recorded outcome; a rid the window cannot answer
   (never applied, or too old) is refused, never re-applied. *)
let apply_req t ~client ~rid op u v =
  match lookup t.dedup ~client ~rid with
  | `Fresh -> `Applied (journal_and_apply t (Journal.Tagged (client, rid, op)) u v)
  | `Resent changed -> `Duplicate changed
  | `Unanswerable ->
      invalid_arg
        (Printf.sprintf
           "Durable: rid %d of client %d is outside its resend window: never \
            applied, or not among the last %d rids"
           rid client window)

let insert_req t ~client ~rid u v =
  apply_req t ~client ~rid (Journal.Insert (u, v)) u v

let delete_req t ~client ~rid u v =
  apply_req t ~client ~rid (Journal.Delete (u, v)) u v

let sync t = Journal.sync t.writer

(* ------------------------------------------------------------------ *)
(* create / recover                                                   *)
(* ------------------------------------------------------------------ *)

let make ~dir ~config ~writer ~lock ~repl_epoch ~cursor ~dm ~dedup ~last_epoch
    ~ops ~recovered_epoch =
  {
    dir;
    config;
    writer;
    lock;
    repl_epoch;
    cursor;
    dm;
    dedup;
    last_epoch;
    ops;
    snapshots = 0;
    audits = 0;
    audit_failures = 0;
    recovered_epoch;
    replayed = 0;
  }

let create ~dir config =
  if Sys.file_exists (journal_path dir) then
    invalid_arg "Durable.create: journal already exists (use recover)";
  (* parameters are checked before anything touches disk: the snapshot
     cadence divides by n, and the G_Δ the service answers from is built
     with this Δ *)
  if config.n < 1 then invalid_arg "Durable.create: n >= 1";
  if config.delta < 1 then invalid_arg "Durable.create: delta >= 1";
  let dm = fresh_matching config in
  Journal.ensure_dir dir;
  let lock =
    match Journal.acquire_lock dir with
    | Ok l -> l
    | Error msg -> invalid_arg ("Durable.create: " ^ msg)
  in
  match
    let writer = Journal.open_writer (journal_path dir) in
    Journal.append writer (Journal.Meta (encode_config config));
    Journal.sync writer;
    make ~dir ~config ~writer ~lock ~repl_epoch:0 ~cursor:None ~dm
      ~dedup:(Hashtbl.create 16) ~last_epoch:None ~ops:0 ~recovered_epoch:None
  with
  | t -> t
  | exception e ->
      Journal.release_lock lock;
      raise e

let recover dir =
  let path = journal_path dir in
  if not (Sys.file_exists path) then Error "no journal found"
  else begin
    match Journal.acquire_lock dir with
    | Error msg -> Error msg
    | Ok lock -> (
        let fail msg =
          Journal.release_lock lock;
          Error msg
        in
        let result = Journal.read path in
        (* chop any torn/corrupt suffix so the writer can append cleanly;
           everything past the last valid frame was never acknowledged *)
        Journal.truncate_torn path result;
        match result.Journal.records with
        | [] -> fail "journal holds no valid records"
        | Journal.Meta meta :: rest -> (
            match decode_config meta with
            | exception _ -> fail "corrupt config record"
            | config -> (
                let records = Array.of_list rest in
                (* highest replication epoch this dir has witnessed, from
                   promotion records and the bootstrap marker; a
                   promotion record also means this dir became a primary *)
                let repl_epoch, promoted =
                  Array.fold_left
                    (fun (acc, promoted) r ->
                      match r with
                      | Journal.Meta m -> (
                          match repl_epoch_of_meta m with
                          | Some e -> (Int.max acc e, true)
                          | None -> (
                              match marker_of_meta m with
                              | Some (_, _, e) -> (Int.max acc e, promoted)
                              | None -> (acc, promoted)))
                      | _ -> (acc, promoted))
                    (0, false) records
                in
                (* a replica journal opens with its bootstrap marker and
                   the Epoch of the primary snapshot it was seeded from *)
                let marker =
                  match rest with
                  | Journal.Meta m :: Journal.Epoch e :: _ -> (
                      match marker_of_meta m with
                      | Some (wal_offset, op_epoch, _) when e = op_epoch ->
                          Some (m, wal_offset, op_epoch)
                      | Some _ | None -> None)
                  | _ -> None
                in
                (* replica cursor: the marker layout pins the 3-record
                   prefix; everything after it is the primary's shipped
                   bytes verbatim, so the applied-up-to offset is implied
                   by our own valid length.  Promoted dirs have none. *)
                let cursor =
                  match marker with
                  | Some (m, wal_offset, op_epoch) when not promoted ->
                      let prefix =
                        Journal.header_bytes
                        + Journal.frame_size (Journal.Meta meta)
                        + Journal.frame_size (Journal.Meta m)
                        + Journal.frame_size (Journal.Epoch op_epoch)
                      in
                      Some (wal_offset + (result.Journal.valid_bytes - prefix))
                  | Some _ | None -> None
                in
                (* newest Epoch whose blob is intact and of this layout
                   wins; a damaged, missing or foreign blob falls back to
                   the next older one *)
                let rec newest i =
                  if i < 0 then None
                  else
                    match records.(i) with
                    | Journal.Epoch e -> (
                        match
                          Option.map decode_snapshot
                            (Journal.read_blob (Journal.blob_path dir e))
                        with
                        | Some (Ok (epoch, dm, dedup)) when epoch = e ->
                            Some (i + 1, Some e, dm, dedup)
                        | Some _ | None -> newest (i - 1)
                        | exception _ -> newest (i - 1))
                    | _ -> newest (i - 1)
                in
                (* with no usable blob a primary replays its whole journal
                   from the config record; a replica journal holds only
                   the ops after its bootstrap snapshot, so replaying it
                   onto an empty state would silently diverge *)
                let start =
                  match (newest (Array.length records - 1), marker) with
                  | Some s, _ -> Ok s
                  | None, None ->
                      Ok (0, None, fresh_matching config, Hashtbl.create 16)
                  | None, Some (_, _, op_epoch) ->
                      Error
                        (Printf.sprintf
                           "replica journal starts at primary op %d, but its \
                            bootstrap blob %s and every later one are \
                            missing, damaged or of another layout: \
                            re-bootstrap this dir from the primary"
                           op_epoch (Journal.blob_path dir op_epoch))
                in
                match start with
                | Error msg -> fail msg
                | Ok (first, recovered_epoch, dm, dedup) -> (
                    (* ops before the snapshot point are counted by the
                       epoch itself; the replayed ops come after it *)
                    let t =
                      make ~dir ~config ~writer:(Journal.open_writer path)
                        ~lock ~repl_epoch ~cursor ~dm ~dedup
                        ~last_epoch:recovered_epoch
                        ~ops:(Option.value ~default:0 recovered_epoch)
                        ~recovered_epoch
                    in
                    match
                      for i = first to Array.length records - 1 do
                        match records.(i) with
                        | Journal.Epoch _ ->
                            (* audited where it was written, so a repair
                               made there is made again here *)
                            ignore (audit_now t)
                        | r ->
                            if Option.is_some (apply dm dedup r) then begin
                              t.ops <- t.ops + 1;
                              t.replayed <- t.replayed + 1
                            end
                      done
                    with
                    | exception e ->
                        Journal.close t.writer;
                        fail ("replay failed: " ^ Printexc.to_string e)
                    | () -> Ok t)))
        | _ :: _ -> fail "journal does not start with a config record")
  end

(* ------------------------------------------------------------------ *)
(* replication                                                        *)
(* ------------------------------------------------------------------ *)

let repl_epoch t = t.repl_epoch
let replica_cursor t = t.cursor
let durable_offset t = Journal.durable_offset t.writer
let wal_path t = journal_path t.dir
let config_bytes t = encode_config t.config

let bootstrap_payload t =
  (* sync first so the announced wal_offset covers every op baked into
     the snapshot payload: ops <= wal_offset live in the payload, ops
     after it arrive as shipped frames *)
  Journal.sync t.writer;
  (t.ops, encode_state t, Journal.durable_offset t.writer)

let bump_repl_epoch t =
  let e = t.repl_epoch + 1 in
  Journal.append t.writer (Journal.Meta (encode_repl_epoch e));
  Journal.sync t.writer;
  t.repl_epoch <- e;
  t.cursor <- None;
  e

let bootstrap_replica ~dir ~config_bytes ~op_epoch ~wal_offset ~repl_epoch
    ~snapshot =
  match decode_config config_bytes with
  | exception _ -> Error "bootstrap: corrupt config payload"
  | _ -> (
      match decode_snapshot snapshot with
      | exception _ -> Error "bootstrap: corrupt snapshot payload"
      | Error msg -> Error ("bootstrap: " ^ msg)
      | Ok (epoch, _, _) when epoch <> op_epoch ->
          Error
            (Printf.sprintf "bootstrap: snapshot epoch %d, primary announced %d"
               epoch op_epoch)
      | Ok _ ->
          if Sys.file_exists (journal_path dir) then
            Error "bootstrap: journal already exists (remove the dir first)"
          else begin
            Journal.ensure_dir dir;
            match Journal.acquire_lock dir with
            | Error msg -> Error msg
            | Ok lock ->
                Fun.protect
                  ~finally:(fun () -> Journal.release_lock lock)
                  (fun () ->
                    Journal.write_blob (Journal.blob_path dir op_epoch) snapshot;
                    let w = Journal.open_writer (journal_path dir) in
                    Journal.append w (Journal.Meta config_bytes);
                    Journal.append w
                      (Journal.Meta
                         (encode_marker ~wal_offset ~op_epoch ~repl_epoch));
                    Journal.append w (Journal.Epoch op_epoch);
                    Journal.close w;
                    Ok ())
          end)

let apply_shipped t payload ~on_update =
  match t.cursor with
  | None -> Error "apply_shipped: not a replica journal"
  | Some cursor -> (
      let bodies, tail = Codec.Frames.decode_all payload in
      match tail with
      | Codec.Frames.Short | Codec.Frames.Bad _ ->
          Error "apply_shipped: shipped bytes are not whole frames"
      | Codec.Frames.Clean -> (
          let rec decode acc = function
            | [] -> Ok (List.rev acc)
            | body :: more -> (
                match Journal.record_of_body body with
                | Ok r -> decode (r :: acc) more
                | Error msg -> Error ("apply_shipped: " ^ msg))
          in
          match decode [] bodies with
          | Error _ as e -> e
          | Ok records -> (
              (* every frame validated — append the bytes verbatim so the
                 local WAL stays byte-identical to the primary's shipped
                 suffix, then apply each record in order *)
              Journal.append_raw t.writer payload;
              let applied = ref 0 in
              match
                List.iter
                  (fun r ->
                    match r with
                    | Journal.Epoch e ->
                        (* the primary audited and snapshotted here; our
                           state is bit-for-bit the same, so the audit
                           repeats any repair it made, and a local blob
                           at the same epoch is valid and bounds our
                           replay *)
                        if e = t.ops then checkpoint t
                    | Journal.Meta m -> (
                        match repl_epoch_of_meta m with
                        | Some e when e > t.repl_epoch -> t.repl_epoch <- e
                        | Some _ | None -> ())
                    | Journal.Insert _ | Journal.Delete _ | Journal.Tagged _
                      -> (
                        match apply t.dm t.dedup r with
                        | Some (u, v, changed) ->
                            t.ops <- t.ops + 1;
                            incr applied;
                            on_update ~u ~v ~changed
                        | None -> ()))
                  records
              with
              | () ->
                  t.cursor <- Some (cursor + String.length payload);
                  Ok !applied
              | exception e ->
                  Error ("apply_shipped: apply failed: " ^ Printexc.to_string e)
              )))

(* ------------------------------------------------------------------ *)
(* accessors                                                          *)
(* ------------------------------------------------------------------ *)

let matching t = t.dm
let config t = t.config
let op_count t = t.ops

let stats t =
  {
    ops = t.ops;
    snapshots = t.snapshots;
    audits = t.audits;
    audit_failures = t.audit_failures;
    recovered_epoch = t.recovered_epoch;
    replayed = t.replayed;
  }

let close t =
  Journal.close t.writer;
  Journal.release_lock t.lock
