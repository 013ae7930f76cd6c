(* Crash safety: journal codec, torn-tail handling, snapshot round-trips,
   audit + self-repair, and the recover-equivalence property.

   The QCheck property at the bottom is the central durability claim: for
   any op sequence and any crash point (torn-tail crash model, after a
   sync covered every acked op), recovering and applying the remaining
   ops is indistinguishable from never having crashed — same graph edge
   set, same matched edge set. *)

open Mspar_prelude
open Mspar_dynamic

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* scratch-dir plumbing                                                *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mspar-rec-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let flip_byte path pos =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x5a));
  write_file path (Bytes.to_string s)

let is_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let buf = Buffer.create 64 in
  Codec.add_uvarint buf 0;
  Codec.add_uvarint buf 127;
  Codec.add_uvarint buf 128;
  Codec.add_uvarint buf 0x3fff_ffff;
  Codec.add_int buf (-1);
  Codec.add_int buf 123456;
  Codec.add_int buf min_int;
  Codec.add_int64 buf 0x0123_4567_89ab_cdefL;
  Codec.add_float buf 0.3;
  Codec.add_float buf (-1e300);
  Codec.add_string buf "";
  Codec.add_string buf "torn\x00tail";
  let r = Codec.reader (Buffer.contents buf) in
  check_int "u0" 0 (Codec.read_uvarint r);
  check_int "u127" 127 (Codec.read_uvarint r);
  check_int "u128" 128 (Codec.read_uvarint r);
  check_int "u30" 0x3fff_ffff (Codec.read_uvarint r);
  check_int "i-1" (-1) (Codec.read_int r);
  check_int "i123456" 123456 (Codec.read_int r);
  check_int "imin" min_int (Codec.read_int r);
  Alcotest.(check int64) "i64" 0x0123_4567_89ab_cdefL (Codec.read_int64 r);
  Alcotest.(check (float 0.0)) "f" 0.3 (Codec.read_float r);
  Alcotest.(check (float 0.0)) "fneg" (-1e300) (Codec.read_float r);
  Alcotest.(check string) "s-empty" "" (Codec.read_string r);
  Alcotest.(check string) "s" "torn\x00tail" (Codec.read_string r);
  check_bool "at-end" true (Codec.at_end r)

let test_codec_truncated () =
  let buf = Buffer.create 16 in
  Codec.add_string buf "hello";
  let s = Buffer.contents buf in
  let short = String.sub s 0 (String.length s - 2) in
  check_bool "truncated raises" true
    (match Codec.read_string (Codec.reader short) with
    | exception Codec.Truncated -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* journal                                                             *)
(* ------------------------------------------------------------------ *)

let sample_records =
  Journal.
    [ Meta "config-bytes"; Insert (0, 1); Insert (2, 3); Epoch 2; Delete (0, 1) ]

let write_sample path =
  let w = Journal.open_writer path in
  List.iter (Journal.append w) sample_records;
  Journal.close w

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "j.wal" in
      Journal.ensure_dir dir;
      write_sample path;
      let r = Journal.read path in
      check_bool "clean" true (r.Journal.torn = None);
      check_bool "records" true (r.Journal.records = sample_records);
      (* append-after-reopen keeps the earlier records *)
      let w = Journal.open_writer path in
      Journal.append w (Journal.Insert (7, 8));
      Journal.close w;
      let r2 = Journal.read path in
      check_bool "appended" true
        (r2.Journal.records = sample_records @ [ Journal.Insert (7, 8) ]))

let test_journal_missing () =
  with_dir (fun dir ->
      let r = Journal.read (Filename.concat dir "absent.wal") in
      check_bool "no records" true (r.Journal.records = []);
      check_bool "not torn" true (r.Journal.torn = None))

let test_journal_torn_tail () =
  with_dir (fun dir ->
      Journal.ensure_dir dir;
      let path = Filename.concat dir "j.wal" in
      write_sample path;
      append_bytes path "\x1fgarbage-that-is-not-a-frame";
      let r = Journal.read path in
      check_bool "torn reported" true (r.Journal.torn <> None);
      check_bool "records survive" true (r.Journal.records = sample_records);
      Journal.truncate_torn path r;
      let r2 = Journal.read path in
      check_bool "clean after truncate" true (r2.Journal.torn = None);
      check_bool "same records" true (r2.Journal.records = sample_records);
      check_int "file size = valid bytes"
        r.Journal.valid_bytes
        (String.length (read_file path)))

let test_journal_crc_corruption () =
  with_dir (fun dir ->
      Journal.ensure_dir dir;
      let path = Filename.concat dir "j.wal" in
      write_sample path;
      let size = String.length (read_file path) in
      (* flip a byte in the last frame: that record must drop, the
         prefix must survive, and nothing may raise *)
      flip_byte path (size - 2);
      let r = Journal.read path in
      check_bool "torn reported" true (r.Journal.torn <> None);
      check_int "prefix kept" 4 (List.length r.Journal.records);
      check_bool "prefix exact" true
        (r.Journal.records
        = Journal.[ Meta "config-bytes"; Insert (0, 1); Insert (2, 3); Epoch 2 ]))

let test_journal_header_damage () =
  with_dir (fun dir ->
      Journal.ensure_dir dir;
      let path = Filename.concat dir "j.wal" in
      write_sample path;
      flip_byte path 3;
      let r = Journal.read path in
      check_bool "no records from bad header" true (r.Journal.records = []);
      check_bool "torn reported" true (r.Journal.torn <> None))

let test_blob_roundtrip () =
  with_dir (fun dir ->
      Journal.ensure_dir dir;
      let path = Filename.concat dir "b.bin" in
      let payload = String.init 1000 (fun i -> Char.chr (i * 7 mod 256)) in
      Journal.write_blob path payload;
      check_bool "roundtrip" true (Journal.read_blob path = Some payload);
      flip_byte path 500;
      check_bool "corrupt -> None" true (Journal.read_blob path = None);
      check_bool "missing -> None" true
        (Journal.read_blob (Filename.concat dir "nope.bin") = None))

(* ------------------------------------------------------------------ *)
(* rng checkpointing                                                   *)
(* ------------------------------------------------------------------ *)

let test_rng_state_roundtrip () =
  let rng = Rng.create 99 in
  for _ = 1 to 57 do
    ignore (Rng.int rng 1000)
  done;
  let saved = Rng.state rng in
  let copy = Rng.of_state saved in
  let a = Array.init 20 (fun _ -> Rng.int rng 1_000_000) in
  let b = Array.init 20 (fun _ -> Rng.int copy 1_000_000) in
  check_bool "same stream" true (a = b);
  check_bool "bad length rejected" true
    (match Rng.of_state [| 1L; 2L |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "all-zero rejected" true
    (match Rng.of_state [| 0L; 0L; 0L; 0L |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* component snapshots                                                 *)
(* ------------------------------------------------------------------ *)

(* a deterministic mixed op sequence *)
let ops_of_seed seed ~n ~count =
  let rng = Rng.create seed in
  Array.init count (fun _ ->
      let u = Rng.int rng n and v = Rng.int rng n in
      let u, v = if u = v then (u, (v + 1) mod n) else (u, v) in
      (Rng.int rng 10 < 7, u, v))

let apply_op dm (ins, u, v) =
  ignore
    (if ins then Dyn_matching.insert dm u v else Dyn_matching.delete dm u v)

(* Snapshot [dm] after [before], then apply [after] to it and to its
   decoded copy: the two must stay identical, matched edges included. *)
let check_matching_roundtrip dm ~before ~after =
  Array.iter (apply_op dm) before;
  let buf = Buffer.create 256 in
  Dyn_matching.encode dm buf;
  let dm' = Dyn_matching.decode (Codec.reader (Buffer.contents buf)) in
  check_int "size equal" (Dyn_matching.size dm) (Dyn_matching.size dm');
  Array.iter
    (fun op ->
      apply_op dm op;
      apply_op dm' op)
    after;
  check_int "size equal after more ops" (Dyn_matching.size dm)
    (Dyn_matching.size dm');
  check_bool "matched edges equal" true
    (Mspar_matching.Matching.edges (Dyn_matching.matching dm)
    = Mspar_matching.Matching.edges (Dyn_matching.matching dm'));
  check_bool "graphs equal" true
    (Dyn_graph.edges (Dyn_matching.graph dm)
    = Dyn_graph.edges (Dyn_matching.graph dm'));
  check_bool "audit clean" true (Audit.matching dm' = [])

let test_matching_snapshot_roundtrip () =
  (* sparse random stream: every rebuild keeps whole neighborhoods *)
  let n = 20 in
  check_matching_roundtrip
    (Dyn_matching.create (Rng.create 6) ~n ~beta:4 ~eps:0.4)
    ~before:(ops_of_seed 21 ~n ~count:80)
    ~after:(ops_of_seed 22 ~n ~count:60);
  (* a K_90 stream at beta 1, eps 0.5: the rebuild's Delta is 37, and
     degrees pass 2*Delta = 74 before the snapshot, so the rebuilds on
     both sides of it sample through the window seed *)
  let n = 90 in
  let k90 =
    Array.of_list
      (List.concat
         (List.init n (fun u ->
              List.init (n - 1 - u) (fun i -> (true, u, u + 1 + i)))))
  in
  let cut = 2000 in
  let dm = Dyn_matching.create (Rng.create 9) ~n ~beta:1 ~eps:0.5 in
  let delta =
    Mspar_core.Delta_param.scaled ~multiplier:2.0 ~beta:1 ~eps:0.25
  in
  check_int "rebuild delta" 37 delta;
  check_matching_roundtrip dm ~before:(Array.sub k90 0 cut)
    ~after:
      (Array.append
         (Array.sub k90 cut (Array.length k90 - cut))
         (ops_of_seed 23 ~n ~count:200));
  check_bool "rebuilds sample" true
    (Dyn_graph.degree (Dyn_matching.graph dm) 0 > 2 * delta)

let test_decode_rejects_corruption () =
  let n = 10 in
  let dm = Dyn_matching.create (Rng.create 7) ~n ~beta:4 ~eps:0.4 in
  ignore (Dyn_matching.insert dm 0 1);
  ignore (Dyn_matching.insert dm 1 2);
  let buf = Buffer.create 64 in
  Dyn_matching.encode dm buf;
  let bytes = Bytes.of_string (Buffer.contents buf) in
  (* damage the payload: decode must raise, not return junk *)
  Bytes.set bytes 1 '\xff';
  check_bool "decode rejects" true
    (match Dyn_matching.decode (Codec.reader (Bytes.to_string bytes)) with
    | exception (Failure _ | Codec.Truncated | Invalid_argument _) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* audit                                                               *)
(* ------------------------------------------------------------------ *)

let test_graph_audit_and_checksum () =
  let g = Mspar_graph.Gen.gnp (Rng.create 17) ~n:40 ~p:0.2 in
  check_bool "audit clean" true (Mspar_graph.Graph.audit g = []);
  let g2 = Mspar_graph.Gen.gnp (Rng.create 18) ~n:40 ~p:0.2 in
  check_bool "checksum stable" true
    (Mspar_graph.Graph.checksum g = Mspar_graph.Graph.checksum g);
  check_bool "checksum discriminates" true
    (Mspar_graph.Graph.checksum g <> Mspar_graph.Graph.checksum g2)

(* ------------------------------------------------------------------ *)
(* durable orchestration                                               *)
(* ------------------------------------------------------------------ *)

let durable_config n seed =
  { Durable.n; delta = 4; beta = 4; eps = 0.4; multiplier = 2.0; seed }

(* ops.(lo..hi) through the at-most-once entry points, rid = index + 1 *)
let apply_reqs d ops lo hi =
  for i = lo to hi do
    let ins, u, v = ops.(i) in
    ignore
      (if ins then Durable.insert_req d ~client:1 ~rid:(i + 1) u v
       else Durable.delete_req d ~client:1 ~rid:(i + 1) u v)
  done

(* n = 16: the audited snapshots at ops 16 and 32 bound the replay *)
let test_durable_create_recover () =
  with_dir (fun dir ->
      check_bool "n < 1 is refused before anything touches disk" true
        (match Durable.create ~dir (durable_config 0 3) with
        | exception Invalid_argument _ -> not (Sys.file_exists dir)
        | d ->
            Durable.close d;
            false);
      let d = Durable.create ~dir (durable_config 16 3) in
      Array.iter
        (fun (ins, u, v) ->
          ignore (if ins then Durable.insert d u v else Durable.delete d u v))
        (ops_of_seed 41 ~n:16 ~count:35);
      let edges = Dyn_graph.edges (Dyn_matching.graph (Durable.matching d)) in
      Durable.close d;
      check_bool "create refuses existing journal" true
        (match Durable.create ~dir (durable_config 16 3) with
        | exception Invalid_argument _ -> true
        | _ -> false);
      match Durable.recover dir with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok d' ->
          check_int "op count" 35 (Durable.op_count d');
          let s = Durable.stats d' in
          check_bool "used a snapshot" true (s.Durable.recovered_epoch = Some 32);
          check_int "replayed tail" 3 s.Durable.replayed;
          check_bool "same graph" true
            (Dyn_graph.edges (Dyn_matching.graph (Durable.matching d')) = edges);
          check_bool "audit clean" true (Durable.audit_now d' = []);
          Durable.close d')

let test_durable_recover_empty () =
  with_dir (fun dir ->
      check_bool "no journal -> Error" true
        (match Durable.recover dir with Error _ -> true | Ok _ -> false))

let test_durable_audit_repairs () =
  with_dir (fun dir ->
      let d = Durable.create ~dir (durable_config 16 4) in
      Array.iter
        (fun (ins, u, v) ->
          ignore (if ins then Durable.insert d u v else Durable.delete d u v))
        (ops_of_seed 51 ~n:16 ~count:40);
      Dyn_matching.inject_corruption (Durable.matching d);
      let found = Durable.audit_now d in
      check_bool "detected" true (found <> []);
      check_int "failure (and its repair) counted" 1
        (Durable.stats d).Durable.audit_failures;
      check_bool "healthy now" true (Durable.audit_now d = []);
      Durable.close d)

(* An update naming an id outside [0, n) is refused before it reaches
   the journal: a journaled record that replay cannot apply would make
   every later recovery of the dir fail. *)
let test_durable_out_of_range_not_journaled () =
  with_dir (fun dir ->
      let d = Durable.create ~dir (durable_config 8 5) in
      ignore (Durable.insert_req d ~client:1 ~rid:1 0 1);
      check_bool "out-of-range insert raises" true
        (match Durable.insert_req d ~client:1 ~rid:2 0 99 with
        | exception Invalid_argument _ -> true
        | _ -> false);
      check_bool "out-of-range delete raises" true
        (match Durable.delete d (-1) 3 with
        | exception Invalid_argument _ -> true
        | _ -> false);
      ignore (Durable.insert_req d ~client:1 ~rid:3 2 3);
      Durable.close d;
      match Durable.recover dir with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok d ->
          check_int "only the applied ops replay" 2 (Durable.op_count d);
          Durable.close d)

(* Replay is bounded with nothing set: at n = 16, 3n + 5 ops leave
   audited snapshots at ops 16, 32 and 48, of which the newest two
   blobs stay, and a close without a drain recovers from the newest and
   replays the 5 ops after it.  With that blob damaged, recovery falls
   back to the one before it, and the next snapshot keeps the readable
   fallback, not the damaged blob. *)
let test_durable_replay_bounded () =
  with_dir (fun dir ->
      let n = 16 in
      let blobs () =
        List.sort String.compare
          (List.filter
             (String.starts_with ~prefix:"snap-")
             (Array.to_list (Sys.readdir dir)))
      in
      let recover_from what epoch replayed =
        match Durable.recover dir with
        | Error e -> Alcotest.failf "recover: %s" e
        | Ok d ->
            let s = Durable.stats d in
            check_bool (what ^ ": recovered epoch") true
              (s.Durable.recovered_epoch = Some epoch);
            check_int (what ^ ": replayed") replayed s.Durable.replayed;
            d
      in
      let d = Durable.create ~dir (durable_config n 13) in
      let ops = ops_of_seed 81 ~n ~count:(4 * n) in
      apply_reqs d ops 0 ((3 * n) + 4);
      check_int "an audit at every snapshot" 3 (Durable.stats d).Durable.audits;
      let want = Mspar_server.Dispatch.digest d in
      Durable.close d;
      Alcotest.(check (list string))
        "the newest two blobs, and no other"
        [ "snap-32.bin"; "snap-48.bin" ]
        (blobs ());
      let d = recover_from "from the newest blob" 48 5 in
      check_bool "same digest" true (Mspar_server.Dispatch.digest d = want);
      Durable.close d;
      flip_byte (Filename.concat dir "snap-48.bin") 40;
      let d = recover_from "past a damaged blob" 32 21 in
      apply_reqs d ops ((3 * n) + 5) ((4 * n) - 1);
      Durable.close d;
      Alcotest.(check (list string))
        "the next snapshot drops the damaged blob"
        [ "snap-32.bin"; "snap-64.bin" ]
        (blobs ());
      Durable.close (recover_from "from the new blob" 64 0))

(* Snapshot payloads open with a layout tag.  A blob of another layout
   is skipped at recovery like a damaged one, so a primary reaches the
   same state by full replay; bootstrap refuses one outright. *)
let layout_tag = "mspar-snap/4"

let foreign_layout payload =
  check_bool "payload opens with the layout tag" true
    (String.starts_with ~prefix:layout_tag payload);
  let tl = String.length layout_tag in
  "mspar-snap/3" ^ String.sub payload tl (String.length payload - tl)

let test_durable_foreign_layout () =
  with_dir (fun dir ->
      with_dir (fun dir_r ->
          let d = Durable.create ~dir (durable_config 16 12) in
          apply_reqs d (ops_of_seed 61 ~n:16 ~count:35) 0 34;
          let want = Mspar_server.Dispatch.digest d in
          let config_bytes = Durable.config_bytes d in
          let op_epoch, snapshot, wal_offset = Durable.bootstrap_payload d in
          Durable.close d;
          (match
             Durable.bootstrap_replica ~dir:dir_r ~config_bytes ~op_epoch
               ~wal_offset ~repl_epoch:0 ~snapshot:(foreign_layout snapshot)
           with
          | Ok () -> Alcotest.fail "bootstrap must refuse a foreign layout"
          | Error msg ->
              check_bool "refusal names both layouts" true
                (is_substring msg "layout 4" && is_substring msg "layout 3"));
          List.iter
            (fun e ->
              let path = Filename.concat dir (Printf.sprintf "snap-%d.bin" e) in
              match Journal.read_blob path with
              | Some payload -> Journal.write_blob path (foreign_layout payload)
              | None -> Alcotest.failf "snap-%d.bin missing" e)
            [ 16; 32 ];
          match Durable.recover dir with
          | Error e -> Alcotest.failf "recover: %s" e
          | Ok d ->
              let s = Durable.stats d in
              check_bool "no blob used" true (s.Durable.recovered_epoch = None);
              check_int "whole journal replayed" 35 s.Durable.replayed;
              check_bool "same digest" true
                (Mspar_server.Dispatch.digest d = want);
              Durable.close d))

(* ------------------------------------------------------------------ *)
(* journal directory lockfile                                           *)
(* ------------------------------------------------------------------ *)

let test_lock_contended () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let l =
        match Journal.acquire_lock dir with
        | Ok l -> l
        | Error e -> Alcotest.failf "first acquire: %s" e
      in
      (match Journal.acquire_lock dir with
      | Error msg ->
          check_bool "error names the lock" true
            (is_substring (String.lowercase_ascii msg) "lock")
      | Ok _ -> Alcotest.fail "second acquire must fail while held");
      Journal.release_lock l;
      (* released: a fresh claim succeeds *)
      match Journal.acquire_lock dir with
      | Ok l' -> Journal.release_lock l'
      | Error e -> Alcotest.failf "acquire after release: %s" e)

let test_lock_stale_dead_pid () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      (* a pid that is genuinely dead: fork a child that exits at once *)
      let pid = Unix.fork () in
      if pid = 0 then Unix._exit 0;
      ignore (Unix.waitpid [] pid);
      write_file (Filename.concat dir "lock.pid") (string_of_int pid);
      (match Journal.acquire_lock dir with
      | Ok l -> Journal.release_lock l
      | Error e -> Alcotest.failf "stale (dead pid) lock must break: %s" e);
      (* an older build's "pid epoch" lockfile is read by its first
         token: dead, it breaks; alive, it holds *)
      write_file (Filename.concat dir "lock.pid") (Printf.sprintf "%d 2" pid);
      (match Journal.acquire_lock dir with
      | Ok l -> Journal.release_lock l
      | Error e -> Alcotest.failf "stale \"pid epoch\" lock must break: %s" e);
      write_file (Filename.concat dir "lock.pid")
        (Printf.sprintf "%d 2" (Unix.getppid ()));
      (match Journal.acquire_lock dir with
      | Error msg ->
          check_bool "a live holder's \"pid epoch\" lock holds" true
            (is_substring msg "locked by pid")
      | Ok l ->
          Journal.release_lock l;
          Alcotest.fail "a live holder's \"pid epoch\" lock must hold");
      (* unparsable lockfiles are stale too *)
      write_file (Filename.concat dir "lock.pid") "not-a-pid";
      match Journal.acquire_lock dir with
      | Ok l -> Journal.release_lock l
      | Error e -> Alcotest.failf "stale (garbage) lock must break: %s" e)

let test_lock_guards_durable () =
  with_dir (fun dir ->
      let d = Durable.create ~dir (durable_config 16 5) in
      ignore (Durable.insert d 0 1);
      (* the live lock must turn concurrent recover into an Error *)
      (match Durable.recover dir with
      | Error msg -> check_bool "recover refused" true (is_substring msg "lock")
      | Ok d' ->
          Durable.close d';
          Alcotest.fail "recover must refuse a locked live dir");
      Durable.close d;
      (* close released the lock: recovery now proceeds *)
      match Durable.recover dir with
      | Ok d' ->
          check_int "state intact" 1 (Durable.op_count d');
          Durable.close d'
      | Error e -> Alcotest.failf "recover after close: %s" e)

(* ------------------------------------------------------------------ *)
(* at-most-once request dedup                                           *)
(* ------------------------------------------------------------------ *)

let refused_rid f =
  match f () with
  | exception Invalid_argument _ -> true
  | `Applied _ | `Duplicate _ -> false

let test_dedup_basics () =
  with_dir (fun dir ->
      let d = Durable.create ~dir (durable_config 16 6) in
      check_bool "fresh rid applies" true
        (Durable.insert_req d ~client:1 ~rid:1 0 1 = `Applied true);
      check_bool "resend answers the cached result" true
        (Durable.insert_req d ~client:1 ~rid:1 0 1 = `Duplicate true);
      check_bool "a rid never applied is refused" true
        (refused_rid (fun () -> Durable.insert_req d ~client:1 ~rid:0 2 3));
      check_bool "cached result tracks the op outcome" true
        (* inserting the same edge again: applied, but the graph did not
           change, and the cache must remember exactly that *)
        (Durable.insert_req d ~client:1 ~rid:2 0 1 = `Applied false);
      check_bool "resend of a false outcome stays false" true
        (Durable.insert_req d ~client:1 ~rid:2 0 1 = `Duplicate false);
      check_bool "an older resend keeps its own outcome" true
        (Durable.insert_req d ~client:1 ~rid:1 0 1 = `Duplicate true);
      check_bool "clients are independent" true
        (Durable.delete_req d ~client:2 ~rid:1 0 1 = `Applied true);
      check_int "only fresh rids hit the journal" 3 (Durable.op_count d);
      Durable.close d)

(* a resend of an older rid answers that rid's outcome, not the last
   one's: live, after recover, and after a snapshot plus recover *)
let test_dedup_resend_window () =
  with_dir (fun dir ->
      let d = Durable.create ~dir (durable_config 16 8) in
      check_bool "rid 1 inserts (0,1)" true
        (Durable.insert_req d ~client:1 ~rid:1 0 1 = `Applied true);
      check_bool "rid 2 inserts (2,3)" true
        (Durable.insert_req d ~client:1 ~rid:2 2 3 = `Applied true);
      check_bool "resent rid 1 answers true" true
        (Durable.insert_req d ~client:1 ~rid:1 0 1 = `Duplicate true);
      Durable.close d;
      let d =
        match Durable.recover dir with
        | Ok d -> d
        | Error e -> Alcotest.failf "recover: %s" e
      in
      check_bool "resent rid 1 answers true after recover" true
        (Durable.insert_req d ~client:1 ~rid:1 0 1 = `Duplicate true);
      (* rid 5 leaves rids 3 and 4 unapplied; a snapshot after the
         third op, so the window below comes from the blob *)
      check_bool "rid 5 applies" true
        (Durable.insert_req d ~client:1 ~rid:5 4 5 = `Applied true);
      Durable.snapshot_now d;
      Durable.close d;
      match Durable.recover dir with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok d ->
          check_bool "recovered from the snapshot" true
            ((Durable.stats d).Durable.recovered_epoch = Some 3);
          check_bool "rid 1 after snapshot + recover" true
            (Durable.insert_req d ~client:1 ~rid:1 0 1 = `Duplicate true);
          check_bool "rid 5 after snapshot + recover" true
            (Durable.insert_req d ~client:1 ~rid:5 4 5 = `Duplicate true);
          check_bool "skipped rid 4 is refused" true
            (refused_rid (fun () -> Durable.insert_req d ~client:1 ~rid:4 0 2));
          (* 62 rids later, rid 1 has left the window *)
          for rid = 6 to 63 do
            ignore (Durable.insert_req d ~client:1 ~rid 6 7)
          done;
          check_bool "rid 2 is the oldest rid the window holds" true
            (Durable.insert_req d ~client:1 ~rid:2 2 3 = `Duplicate true);
          check_bool "rid 1 has left the window" true
            (refused_rid (fun () -> Durable.insert_req d ~client:1 ~rid:1 0 1));
          Durable.close d)

let test_dedup_survives_recover () =
  with_dir (fun dir ->
      let d = Durable.create ~dir (durable_config 16 7) in
      ignore (Durable.insert_req d ~client:9 ~rid:1 0 1);
      ignore (Durable.insert_req d ~client:9 ~rid:2 1 2);
      ignore (Durable.insert_req d ~client:9 ~rid:3 2 3);
      ignore (Durable.insert_req d ~client:9 ~rid:4 3 4);
      (* a snapshot at 4 ops: the dedup table must live in the blob *)
      Durable.snapshot_now d;
      ignore (Durable.delete_req d ~client:9 ~rid:5 2 3);
      Durable.close d;
      match Durable.recover dir with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok d ->
          check_bool "last rid still deduped after recover" true
            (Durable.delete_req d ~client:9 ~rid:5 2 3 = `Duplicate true);
          check_bool "older rid keeps its own outcome" true
            (Durable.insert_req d ~client:9 ~rid:2 1 2 = `Duplicate true);
          check_bool "the stream continues" true
            (Durable.insert_req d ~client:9 ~rid:6 4 5 = `Applied true);
          Durable.close d)

(* ------------------------------------------------------------------ *)
(* the recover-equivalence property (satellite of Theorem 3.5's         *)
(* dynamic pipeline: crashes are unobservable)                          *)
(* ------------------------------------------------------------------ *)

let observe d =
  let dm = Durable.matching d in
  ( Dyn_graph.edges (Dyn_matching.graph dm),
    Mspar_matching.Matching.edges (Dyn_matching.matching dm) )

let qcheck_crash_recover_equivalence =
  QCheck.Test.make ~count:30
    ~name:"recover at any crash point + remaining ops == uncrashed run"
    QCheck.(triple (int_range 6 20) (int_range 10 60) (int_range 0 10_000))
    (fun (n, count, seed) ->
      let ops = ops_of_seed (seed + 1) ~n ~count in
      let trial = Rng.create (seed + 2) in
      with_dir (fun ref_dir ->
          let d = Durable.create ~dir:ref_dir (durable_config n seed) in
          Array.iter
            (fun (ins, u, v) ->
              ignore (if ins then Durable.insert d u v else Durable.delete d u v))
            ops;
          let reference = observe d in
          Durable.close d;
          with_dir (fun dir ->
              (* crash after k acked ops, with a torn partial record *)
              let k = 1 + Rng.int trial count in
              let d = Durable.create ~dir (durable_config n seed) in
              Array.iter
                (fun (ins, u, v) ->
                  ignore
                    (if ins then Durable.insert d u v else Durable.delete d u v))
                (Array.sub ops 0 k);
              Durable.close d;
              let torn =
                String.init (1 + Rng.int trial 20) (fun _ ->
                    Char.chr (Rng.int trial 256))
              in
              append_bytes (Filename.concat dir "journal.wal") torn;
              match Durable.recover dir with
              | Error e -> QCheck.Test.fail_reportf "recover failed: %s" e
              | Ok d ->
                  (* close synced them: every acked op must have survived *)
                  if Durable.op_count d <> k then
                    QCheck.Test.fail_reportf "lost acked ops: %d <> %d"
                      (Durable.op_count d) k;
                  if Durable.audit_now d <> [] then
                    QCheck.Test.fail_reportf "recovered state fails audit";
                  Array.iter
                    (fun (ins, u, v) ->
                      ignore
                        (if ins then Durable.insert d u v
                         else Durable.delete d u v))
                    (Array.sub ops k (count - k));
                  let out = observe d in
                  Durable.close d;
                  out = reference)))

(* ------------------------------------------------------------------ *)
(* position-addressed tailing (replication shipping)                   *)
(* ------------------------------------------------------------------ *)

let tail_records = [
  Journal.Meta "cfg";
  Journal.Insert (0, 1);
  Journal.Tagged (1, 1, Journal.Insert (2, 3));
  Journal.Delete (0, 1);
  Journal.Epoch 3;
  Journal.Tagged (2, 9, Journal.Delete (2, 3));
  Journal.Meta "note";
]

let write_journal path records =
  let w = Journal.open_writer path in
  List.iter (Journal.append w) records;
  Journal.close w

(* every frame boundary of a journal, in order, ending at valid_bytes *)
let boundaries records =
  List.fold_left
    (fun acc r -> (List.hd acc + Journal.frame_size r) :: acc)
    [ Journal.header_bytes ] records
  |> List.rev

let test_tail_from_boundaries () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "journal.wal" in
      write_journal path tail_records;
      let r = Journal.read path in
      check_bool "clean journal" true (r.Journal.torn = None);
      let offs = boundaries tail_records in
      check_int "last boundary is the durable end" r.Journal.valid_bytes
        (List.nth offs (List.length tail_records));
      List.iteri
        (fun i off ->
          match Journal.tail_from path ~offset:off with
          | Error e -> Alcotest.failf "tail_from %d: %s" off e
          | Ok t ->
              check_int "suffix length" (List.length tail_records - i)
                (List.length t.Journal.tail_records);
              check_bool "suffix records" true
                (t.Journal.tail_records
                = List.filteri (fun j _ -> j >= i) tail_records);
              check_int "tail_next is the durable end" r.Journal.valid_bytes
                t.Journal.tail_next;
              check_bool "no torn verdict" true (t.Journal.tail_torn = None))
        offs;
      (* offset 0 is sugar for the first frame *)
      (match Journal.tail_from path ~offset:0 with
      | Ok t ->
          check_int "offset 0 = whole log" (List.length tail_records)
            (List.length t.Journal.tail_records)
      | Error e -> Alcotest.failf "tail_from 0: %s" e);
      (* a mid-frame offset is an error, never a resync *)
      (match Journal.tail_from path ~offset:(Journal.header_bytes + 1) with
      | Error msg -> check_bool "names the boundary" true
          (is_substring msg "boundary")
      | Ok _ -> Alcotest.fail "mid-frame offset must be refused");
      (* past the durable end is an error too *)
      match Journal.tail_from path ~offset:(r.Journal.valid_bytes + 64) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "offset past the durable end must be refused")

let test_tail_from_torn () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "journal.wal" in
      write_journal path tail_records;
      let clean = Journal.read path in
      append_bytes path "\x07garbage-torn-suffix";
      match Journal.tail_from path ~offset:Journal.header_bytes with
      | Error e -> Alcotest.failf "torn tail_from: %s" e
      | Ok t ->
          check_bool "torn reported" true (t.Journal.tail_torn <> None);
          check_int "stops at the old durable end" clean.Journal.valid_bytes
            t.Journal.tail_next;
          check_int "no phantom records" (List.length tail_records)
            (List.length t.Journal.tail_records))

(* the shipping invariant end-to-end at the journal layer: a raw
   [read_slice] of whole frames appended verbatim with [append_raw]
   reproduces the same records, byte for byte *)
let test_ship_slice_roundtrip () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let src = Filename.concat dir "src.wal" in
      let dst = Filename.concat dir "dst.wal" in
      write_journal src tail_records;
      let r = Journal.read src in
      let body =
        Journal.read_slice src ~pos:Journal.header_bytes
          ~len:(r.Journal.valid_bytes - Journal.header_bytes)
      in
      let w = Journal.open_writer dst in
      Journal.append_raw w body;
      Journal.close w;
      let r' = Journal.read dst in
      check_bool "records identical" true
        (r.Journal.records = r'.Journal.records);
      check_int "files identical" r.Journal.valid_bytes r'.Journal.valid_bytes;
      check_bool "bytes identical" true (read_file src = read_file dst))

let qcheck_tail_from_suffix =
  let record_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun u v -> Journal.Insert (u, v)) (int_range 0 50)
            (int_range 0 50);
          map2 (fun u v -> Journal.Delete (u, v)) (int_range 0 50)
            (int_range 0 50);
          map (fun e -> Journal.Epoch e) (int_range 0 1000);
          map (fun s -> Journal.Meta s) (string_size (int_range 0 12));
          (let* c = int_range 1 9 in
           let* rid = int_range 1 10_000 in
           let* u = int_range 0 50 in
           let* v = int_range 0 50 in
           let* ins = bool in
           return
             (Journal.Tagged
                (c, rid, if ins then Journal.Insert (u, v)
                         else Journal.Delete (u, v))));
        ])
  in
  QCheck.Test.make ~count:60
    ~name:"tail_from at every boundary reproduces the durable suffix"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 25) record_gen))
    (fun records ->
      with_dir (fun dir ->
          Unix.mkdir dir 0o755;
          let path = Filename.concat dir "journal.wal" in
          write_journal path records;
          let r = Journal.read path in
          if r.Journal.records <> records then
            QCheck.Test.fail_reportf "journal does not round-trip";
          List.for_all
            (fun off ->
              match Journal.tail_from path ~offset:off with
              | Error e -> QCheck.Test.fail_reportf "tail_from %d: %s" off e
              | Ok t ->
                  (* the suffix is exactly what [read] reports past off *)
                  let skip =
                    List.length records - List.length t.Journal.tail_records
                  in
                  t.Journal.tail_records
                  = List.filteri (fun j _ -> j >= skip) records
                  && t.Journal.tail_next = r.Journal.valid_bytes)
            (boundaries records)))

(* ------------------------------------------------------------------ *)
(* replica bootstrap + shipped-WAL application (in-process)            *)
(* ------------------------------------------------------------------ *)

(* seed [dir_r] from [d]'s current state and open it as a replica *)
let bootstrap_and_recover d dir_r =
  let op_epoch, snapshot, wal_offset = Durable.bootstrap_payload d in
  (match
     Durable.bootstrap_replica ~dir:dir_r ~config_bytes:(Durable.config_bytes d)
       ~op_epoch ~wal_offset ~repl_epoch:(Durable.repl_epoch d) ~snapshot
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bootstrap_replica: %s" e);
  match Durable.recover dir_r with
  | Ok r -> (op_epoch, wal_offset, r)
  | Error e -> Alcotest.failf "replica recover: %s" e

(* the primary's durable WAL bytes from [pos] on, as the shipper sends them *)
let shipped_since d pos =
  Durable.sync d;
  Journal.read_slice (Durable.wal_path d) ~pos
    ~len:(Durable.durable_offset d - pos)

let test_replica_roundtrip () =
  with_dir (fun dir_p ->
      with_dir (fun dir_r ->
          let n = 16 in
          let d = Durable.create ~dir:dir_p (durable_config n 8) in
          let ops = ops_of_seed 21 ~n ~count:40 in
          (* state exists before the replica does *)
          apply_reqs d ops 0 19;
          let op_epoch, wal_offset, r = bootstrap_and_recover d dir_r in
          check_bool "cursor at the bootstrap offset" true
            (Durable.replica_cursor r = Some wal_offset);
          check_int "snapshot state restored" op_epoch (Durable.op_count r);
          (* the primary moves on; ship the delta verbatim *)
          apply_reqs d ops 20 39;
          let payload = shipped_since d wal_offset in
          let d_off = Durable.durable_offset d in
          let fired = ref 0 in
          (match
             Durable.apply_shipped r payload
               ~on_update:(fun ~u:_ ~v:_ ~changed:_ -> incr fired)
           with
          | Ok applied -> check_int "ops applied" 20 applied
          | Error e -> Alcotest.failf "apply_shipped: %s" e);
          check_int "on_update fired per op" 20 !fired;
          check_bool "cursor advanced to the shipped end" true
            (Durable.replica_cursor r = Some d_off);
          check_bool "replica state equals primary state" true
            (observe r = observe d);
          (* the replica's dedup table came along with the Tagged frames *)
          let _, u, v = ops.(39) in
          check_bool "shipped rid dedups" true
            (match Durable.insert_req r ~client:1 ~rid:40 u v with
            | `Duplicate _ -> true
            | `Applied _ -> false);
          Durable.close r;
          (* a replica crash loses nothing: recover resumes at the same
             cursor with the same state *)
          let r2 =
            match Durable.recover dir_r with
            | Ok r2 -> r2
            | Error e -> Alcotest.failf "replica re-recover: %s" e
          in
          check_bool "cursor survives recovery" true
            (Durable.replica_cursor r2 = Some d_off);
          check_bool "state survives recovery" true (observe r2 = observe d);
          (* promotion: epoch bumps, cursor clears, and a recover of the
             promoted dir stays a primary *)
          check_int "promotion returns epoch 1" 1 (Durable.bump_repl_epoch r2);
          check_bool "promoted node has no cursor" true
            (Durable.replica_cursor r2 = None);
          Durable.close r2;
          (match Durable.recover dir_r with
          | Ok r3 ->
              check_int "epoch survives recovery" 1 (Durable.repl_epoch r3);
              check_bool "promoted dir recovers as primary" true
                (Durable.replica_cursor r3 = None);
              Durable.close r3
          | Error e -> Alcotest.failf "promoted recover: %s" e);
          Durable.close d))

(* shipped garbage must be rejected atomically: no bytes appended, no
   ops applied, cursor unmoved *)
let test_apply_shipped_rejects_garbage () =
  with_dir (fun dir_p ->
      with_dir (fun dir_r ->
          let n = 16 in
          let d = Durable.create ~dir:dir_p (durable_config n 9) in
          ignore (Durable.insert_req d ~client:1 ~rid:1 0 1);
          let _, wal_offset, r = bootstrap_and_recover d dir_r in
          let before = observe r in
          List.iter
            (fun payload ->
              match
                Durable.apply_shipped r payload
                  ~on_update:(fun ~u:_ ~v:_ ~changed:_ -> ())
              with
              | Ok _ -> Alcotest.fail "garbage payload must be rejected"
              | Error _ ->
                  check_bool "cursor unmoved" true
                    (Durable.replica_cursor r = Some wal_offset);
                  check_bool "state unmoved" true (observe r = before))
            [
              "not a frame";
              "\x05abcde\xff\xff\xff\xff";
              (* a valid frame shape whose body is not a record *)
              (let b = Buffer.create 16 in
               Mspar_prelude.Codec.Frames.encode b "zzzz";
               Buffer.contents b);
            ];
          Durable.close r;
          Durable.close d))

(* A replica journal holds only the ops after its bootstrap snapshot:
   with that blob unusable, recovery must refuse and name it rather than
   replay the shipped suffix onto an empty state. *)
let test_replica_recover_needs_blob () =
  with_dir (fun dir_p ->
      with_dir (fun dir_r ->
          let d = Durable.create ~dir:dir_p (durable_config 16 10) in
          let ops = ops_of_seed 71 ~n:16 ~count:25 in
          apply_reqs d ops 0 19;
          let op_epoch, wal_offset, r = bootstrap_and_recover d dir_r in
          apply_reqs d ops 20 24;
          (match
             Durable.apply_shipped r (shipped_since d wal_offset)
               ~on_update:(fun ~u:_ ~v:_ ~changed:_ -> ())
           with
          | Ok applied -> check_int "shipped ops applied" 5 applied
          | Error e -> Alcotest.failf "apply_shipped: %s" e);
          Durable.close r;
          let blob = Printf.sprintf "snap-%d.bin" op_epoch in
          flip_byte (Filename.concat dir_r blob) 40;
          (match Durable.recover dir_r with
          | Ok r ->
              Durable.close r;
              Alcotest.fail "replica without its bootstrap blob must not recover"
          | Error msg ->
              check_bool "error names the blob and says to re-bootstrap" true
                (is_substring msg blob && is_substring msg "re-bootstrap"));
          Durable.close d))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mspar_recovery"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "missing file" `Quick test_journal_missing;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "crc corruption" `Quick test_journal_crc_corruption;
          Alcotest.test_case "header damage" `Quick test_journal_header_damage;
          Alcotest.test_case "snapshot blob" `Quick test_blob_roundtrip;
          Alcotest.test_case "tail_from boundaries" `Quick
            test_tail_from_boundaries;
          Alcotest.test_case "tail_from torn" `Quick test_tail_from_torn;
          Alcotest.test_case "ship-slice roundtrip" `Quick
            test_ship_slice_roundtrip;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "rng state" `Quick test_rng_state_roundtrip;
          Alcotest.test_case "matching roundtrip" `Quick
            test_matching_snapshot_roundtrip;
          Alcotest.test_case "decode rejects corruption" `Quick
            test_decode_rejects_corruption;
        ] );
      ( "audit",
        [
          Alcotest.test_case "graph audit + checksum" `Quick
            test_graph_audit_and_checksum;
        ] );
      ( "durable",
        [
          Alcotest.test_case "create/recover" `Quick test_durable_create_recover;
          Alcotest.test_case "recover empty dir" `Quick
            test_durable_recover_empty;
          Alcotest.test_case "audit repairs" `Quick test_durable_audit_repairs;
          Alcotest.test_case "out-of-range update not journaled" `Quick
            test_durable_out_of_range_not_journaled;
          Alcotest.test_case "foreign layout tag" `Quick
            test_durable_foreign_layout;
          Alcotest.test_case "replay bounded by n" `Quick
            test_durable_replay_bounded;
        ] );
      ( "lockfile",
        [
          Alcotest.test_case "contended" `Quick test_lock_contended;
          Alcotest.test_case "stale detection" `Quick test_lock_stale_dead_pid;
          Alcotest.test_case "guards durable" `Quick test_lock_guards_durable;
        ] );
      ( "replication",
        [
          Alcotest.test_case "bootstrap + apply_shipped" `Quick
            test_replica_roundtrip;
          Alcotest.test_case "apply_shipped rejects garbage" `Quick
            test_apply_shipped_rejects_garbage;
          Alcotest.test_case "recover without bootstrap blob refuses" `Quick
            test_replica_recover_needs_blob;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "at-most-once basics" `Quick test_dedup_basics;
          Alcotest.test_case "survives recover" `Quick
            test_dedup_survives_recover;
          Alcotest.test_case "resend gets its own answer" `Quick
            test_dedup_resend_window;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_crash_recover_equivalence; qcheck_tail_from_suffix ] );
    ]
