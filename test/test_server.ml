(* The serve wire codec: every request/response round-trips through its
   frame body, and the decoders are total — junk bodies, truncations,
   unknown tags, and trailing bytes are [Error]s, never exceptions.
   (The full daemon — sockets, backpressure, crash recovery — is
   exercised end-to-end by the serve-smoke / serve-faults-smoke runtest
   rules in bench/.) *)

open Mspar_server

let check_bool = Alcotest.(check bool)

let encode_req r =
  let buf = Buffer.create 32 in
  Wire.encode_request buf r;
  Buffer.contents buf

let encode_resp r =
  let buf = Buffer.create 32 in
  Wire.encode_response buf r;
  Buffer.contents buf

let sample_requests =
  [
    Wire.Hello 0;
    Wire.Hello 123456;
    Wire.Insert { rid = 1; u = 0; v = 1 };
    Wire.Insert { rid = max_int; u = 17; v = 300 };
    Wire.Delete { rid = 2; u = 5; v = 9 };
    Wire.Query_matched 0;
    Wire.Query_matched 4093;
    Wire.Query_edge (3, 7);
    Wire.Query_sparsifier (0, 0);
    Wire.Checksum;
    Wire.Snapshot;
    Wire.Drain;
    Wire.Stats;
    Wire.Ping;
    Wire.Repl_hello { epoch = 0; offset = 0 };
    Wire.Repl_hello { epoch = 3; offset = 1_234_567 };
    Wire.Repl_ack { offset = 42 };
    Wire.Promote;
    Wire.Role;
  ]

let sample_responses =
  [
    Wire.Ack true;
    Wire.Ack false;
    Wire.Bool true;
    Wire.Bool false;
    Wire.Digest
      {
        Wire.op_count = 42;
        graph = 0x0123_4567_89ab_cdefL;
        sparsifier = -1L;
        matching = 7;
      };
    Wire.Draining;
    Wire.Ok;
    Wire.Stats_reply
      {
        Wire.accepted = 1;
        active = 2;
        frames_in = 3;
        frames_out = 4;
        malformed = 5;
        busy_rejections = 6;
        ops_applied = 7;
        dedup_hits = 8;
        queries = 9;
        oracle_hits = 10;
        oracle_misses = 11;
        repl_followers = 12;
        repl_lag = 13;
        repl_fenced = 14;
      };
    Wire.Error "";
    Wire.Error "updates require Hello first";
    Wire.Repl_snapshot
      {
        epoch = 2;
        op_epoch = 17;
        wal_offset = 4096;
        meta = "config-bytes";
        last = false;
        chunk = "snapshot-chunk-bytes";
      };
    Wire.Repl_snapshot
      {
        epoch = 0;
        op_epoch = 0;
        wal_offset = 0;
        meta = "";
        last = true;
        chunk = "";
      };
    Wire.Repl_frames { epoch = 2; start_offset = 4096; payload = "\x00\xff raw frame bytes" };
    Wire.Repl_frames { epoch = 1; start_offset = 0; payload = "" };
    Wire.Repl_fence { epoch = 9 };
    Wire.Redirect "";
    Wire.Redirect "tcp:127.0.0.1:7070";
    Wire.Role_reply { primary = true; epoch = 4; offset = 65536 };
    Wire.Role_reply { primary = false; epoch = 0; offset = 0 };
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      match Wire.decode_request (encode_req r) with
      | Ok r' -> check_bool "request round-trips" true (r = r')
      | Error e -> Alcotest.failf "decode_request: %s" e)
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      match Wire.decode_response (encode_resp r) with
      | Ok r' -> check_bool "response round-trips" true (r = r')
      | Error e -> Alcotest.failf "decode_response: %s" e)
    sample_responses

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: hostile body must not decode" what

let test_hostile_bodies () =
  (* empty body *)
  expect_error "empty req" (Wire.decode_request "");
  expect_error "empty resp" (Wire.decode_response "");
  (* unknown tags *)
  expect_error "tag 0" (Wire.decode_request "\x00");
  expect_error "tag 200" (Wire.decode_request "\xc8");
  expect_error "resp tag 99" (Wire.decode_response "\x63");
  (* response tag 4, the retired load refusal, must not decode *)
  expect_error "retired resp tag 4" (Wire.decode_response "\x04\x19");
  (* truncated payloads *)
  expect_error "Hello w/o id" (Wire.decode_request "\x01");
  expect_error "Insert w/ 2 of 3 fields" (Wire.decode_request "\x02\x01\x02");
  expect_error "Digest cut mid-int64"
    (Wire.decode_response (String.sub (encode_resp (Wire.Digest
       { Wire.op_count = 1; graph = 99L; sparsifier = 3L; matching = 0 })) 0 6));
  (* trailing bytes after a valid message are a protocol violation *)
  expect_error "trailing junk on Ping"
    (Wire.decode_request (encode_req Wire.Ping ^ "\x00"));
  expect_error "trailing junk on Ok"
    (Wire.decode_response (encode_resp Wire.Ok ^ "zz"));
  (* a bool byte that is neither 0 nor 1 *)
  expect_error "bad bool" (Wire.decode_response "\x01\x07");
  (* a string length whose 9-byte varint sets bit 62: negative unless
     refused, and [String.sub] would raise instead of the decoder
     answering Error *)
  expect_error "top-bit string length"
    (Wire.decode_response "\012\128\128\128\128\128\128\128\128a")

(* totality under arbitrary bytes: decode never raises, whatever arrives *)
let qcheck_decoders_total =
  QCheck.Test.make ~name:"wire decoders are total on arbitrary bodies"
    ~count:1000
    QCheck.(string_of_size (Gen.int_range 0 24))
    (fun body ->
      (match Wire.decode_request body with Ok _ | Error _ -> ());
      (match Wire.decode_response body with Ok _ | Error _ -> ());
      true)

(* round-trip property over generated requests *)
let qcheck_request_roundtrip =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun c -> Wire.Hello c) (int_range 0 1_000_000);
          map3
            (fun rid u v -> Wire.Insert { rid; u; v })
            (int_range 0 1_000_000) (int_range 0 10_000) (int_range 0 10_000);
          map3
            (fun rid u v -> Wire.Delete { rid; u; v })
            (int_range 0 1_000_000) (int_range 0 10_000) (int_range 0 10_000);
          map (fun v -> Wire.Query_matched v) (int_range 0 10_000);
          map2 (fun u v -> Wire.Query_edge (u, v)) (int_range 0 10_000)
            (int_range 0 10_000);
          map2
            (fun u v -> Wire.Query_sparsifier (u, v))
            (int_range 0 10_000) (int_range 0 10_000);
          return Wire.Checksum;
          return Wire.Snapshot;
          return Wire.Drain;
          return Wire.Stats;
          return Wire.Ping;
          map2
            (fun epoch offset -> Wire.Repl_hello { epoch; offset })
            (int_range 0 100) (int_range 0 1_000_000);
          map (fun offset -> Wire.Repl_ack { offset }) (int_range 0 1_000_000);
          return Wire.Promote;
          return Wire.Role;
        ])
  in
  QCheck.Test.make ~name:"generated requests round-trip" ~count:500
    (QCheck.make gen)
    (fun r ->
      match Wire.decode_request (encode_req r) with
      | Ok r' -> r = r'
      | Error _ -> false)

(* round-trip property over generated replication responses: the codec
   must survive arbitrary binary snapshot/frame payloads (lengths are
   explicit on the wire, nothing is delimiter-based) *)
let qcheck_repl_response_roundtrip =
  let gen =
    QCheck.Gen.(
      oneof
        [
          (let* epoch = int_range 0 50 in
           let* op_epoch = int_range 0 100_000 in
           let* wal_offset = int_range 0 10_000_000 in
           let* meta = string_size (int_range 0 40) in
           let* last = bool in
           let* chunk = string_size (int_range 0 200) in
           return
             (Wire.Repl_snapshot { epoch; op_epoch; wal_offset; meta; last; chunk }));
          (let* epoch = int_range 0 50 in
           let* start_offset = int_range 0 10_000_000 in
           let* payload = string_size (int_range 0 200) in
           return (Wire.Repl_frames { epoch; start_offset; payload }));
          map (fun epoch -> Wire.Repl_fence { epoch }) (int_range 0 50);
          map (fun s -> Wire.Redirect s) (string_size (int_range 0 60));
          (let* primary = bool in
           let* epoch = int_range 0 50 in
           let* offset = int_range 0 10_000_000 in
           return (Wire.Role_reply { primary; epoch; offset }));
        ])
  in
  QCheck.Test.make ~name:"generated replication responses round-trip"
    ~count:500 (QCheck.make gen)
    (fun r ->
      match Wire.decode_response (encode_resp r) with
      | Ok r' -> r = r'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* addr_of_string: the --replica-of / Redirect-hint parser             *)
(* ------------------------------------------------------------------ *)

let test_addr_of_string () =
  let ok s expected =
    match Wire.addr_of_string s with
    | Ok a -> check_bool s true (a = expected)
    | Error e -> Alcotest.failf "addr_of_string %S: %s" s e
  in
  let err s =
    match Wire.addr_of_string s with
    | Ok _ -> Alcotest.failf "addr_of_string %S: must be an Error" s
    | Error _ -> ()
  in
  ok "unix:/tmp/mspar.sock" (Wire.Unix_path "/tmp/mspar.sock");
  ok "tcp:127.0.0.1:7070" (Wire.Tcp ("127.0.0.1", 7070));
  ok "127.0.0.1:7070" (Wire.Tcp ("127.0.0.1", 7070));
  ok "localhost:1" (Wire.Tcp ("localhost", 1));
  ok "/var/run/mspar.sock" (Wire.Unix_path "/var/run/mspar.sock");
  err "";
  err "host:0";
  err "host:65536";
  err "host:notaport";
  err "tcp:nocolon"

(* ------------------------------------------------------------------ *)
(* Client backoff: capped full jitter, deterministic under a seed      *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let schedule seed =
    let rng = Mspar_prelude.Rng.create seed in
    List.init 12 (fun attempt ->
        Client.backoff_delay rng ~attempt ~base:0.02 ~cap:1.0)
  in
  (* deterministic: the same seed reproduces the same schedule *)
  let a = schedule 0x5eed and b = schedule 0x5eed in
  check_bool "same seed, same schedule" true (a = b);
  (* a different seed jitters differently (full jitter, not fixed steps) *)
  check_bool "different seed, different schedule" true (a <> schedule 99);
  (* every delay is within [0, min cap (base * 2^attempt)) *)
  List.iteri
    (fun attempt d ->
      let ceiling = Float.min 1.0 (0.02 *. (2. ** float_of_int attempt)) in
      check_bool "delay non-negative" true (d >= 0.);
      check_bool "delay under doubling ceiling" true (d <= ceiling);
      check_bool "delay capped" true (d <= 1.0))
    a;
  (* late attempts saturate at the cap, never overflow past it *)
  let rng = Mspar_prelude.Rng.create 7 in
  for attempt = 20 to 60 do
    let d = Client.backoff_delay rng ~attempt ~base:0.02 ~cap:0.5 in
    check_bool "saturated attempts stay capped" true (d >= 0. && d <= 0.5)
  done

(* ------------------------------------------------------------------ *)
(* Dispatch: read-your-writes through the point-query oracle           *)
(* ------------------------------------------------------------------ *)

(* The contract under test: once a client holds the Ack for an update,
   every subsequent point query answers as if the oracle were built
   fresh on the post-update graph — the dispatcher must invalidate its
   memo before the ack, or cached pre-update answers leak. *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mspar-dispatch-%d" (Unix.getpid ()))
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let bool_answer = function
  | Wire.Bool b -> b
  | Wire.Error msg -> Alcotest.failf "query answered Error %S" msg
  | _ -> Alcotest.fail "query answered a non-Bool response"

let test_dispatch_read_your_writes () =
  with_dir (fun dir ->
      let config =
        {
          Mspar_dynamic.Durable.n = 24;
          delta = 3;
          beta = 4;
          eps = 0.4;
          multiplier = 2.0;
          seed = 7;
        }
      in
      let durable = Mspar_dynamic.Durable.create ~sync_every:1 ~dir config in
      Fun.protect
        ~finally:(fun () -> Mspar_dynamic.Durable.close durable)
        (fun () ->
          let metrics = Metrics.create () in
          let t = Dispatch.create ~metrics durable in
          let client = Some 1 in
          let rid = ref 0 in
          let apply req_of =
            incr rid;
            match Dispatch.handle t ~client (req_of ~rid:!rid) with
            | Wire.Ack _ -> Dispatch.sync_if_dirty t
            | Wire.Error msg -> Alcotest.failf "update answered Error %S" msg
            | _ -> Alcotest.fail "update answered a non-Ack response"
          in
          (* a freshly built dispatcher over the same durable state has a
             cold oracle: its answers are by construction un-stale *)
          let check_against_fresh () =
            let fresh = Dispatch.create ~metrics:(Metrics.create ()) durable in
            for u = 0 to 11 do
              let q = Wire.Query_matched u in
              if
                bool_answer (Dispatch.handle t ~client q)
                <> bool_answer (Dispatch.handle fresh ~client q)
              then Alcotest.failf "stale Query_matched at %d" u;
              for v = u + 1 to 11 do
                let q = Wire.Query_sparsifier (u, v) in
                if
                  bool_answer (Dispatch.handle t ~client q)
                  <> bool_answer (Dispatch.handle fresh ~client q)
                then Alcotest.failf "stale Query_sparsifier at (%d,%d)" u v
              done
            done
          in
          let rng = Mspar_prelude.Rng.create 41 in
          for step = 1 to 60 do
            let u = Mspar_prelude.Rng.int rng 12
            and v = Mspar_prelude.Rng.int rng 12 in
            if u <> v then
              if Mspar_prelude.Rng.bool rng then
                apply (fun ~rid -> Wire.Insert { rid; u; v })
              else apply (fun ~rid -> Wire.Delete { rid; u; v });
            (* warm the memo between updates so staleness would show *)
            ignore (Dispatch.handle t ~client (Wire.Query_sparsifier (u, v)));
            ignore (Dispatch.handle t ~client (Wire.Query_matched u));
            if step mod 12 = 0 then check_against_fresh ()
          done;
          check_against_fresh ();
          (* the query path really went through the oracle, and the
             counters surfaced in the wire summary *)
          let s = Metrics.summary metrics in
          check_bool "oracle misses counted" true (s.Wire.oracle_misses > 0);
          check_bool "oracle hits counted" true (s.Wire.oracle_hits > 0)))

(* The digest's [sparsifier] field describes the G_Δ the queries
   answer from: the checksum of the graph assembled from every pair
   [Query_sparsifier] answers [true] on. *)
let test_digest_matches_queries () =
  with_dir (fun dir ->
      let n = 64 in
      let config =
        {
          Mspar_dynamic.Durable.n;
          delta = 3;
          beta = 4;
          eps = 0.4;
          multiplier = 2.0;
          seed = 11;
        }
      in
      let durable = Mspar_dynamic.Durable.create ~sync_every:1 ~dir config in
      Fun.protect
        ~finally:(fun () -> Mspar_dynamic.Durable.close durable)
        (fun () ->
          let t = Dispatch.create ~metrics:(Metrics.create ()) durable in
          let client = Some 1 in
          let rng = Mspar_prelude.Rng.create 19 in
          for rid = 1 to 400 do
            let u = Mspar_prelude.Rng.int rng n
            and v = Mspar_prelude.Rng.int rng n in
            if u <> v then
              match Dispatch.handle t ~client (Wire.Insert { rid; u; v }) with
              | Wire.Ack _ -> ()
              | _ -> Alcotest.fail "insert not acked"
          done;
          Dispatch.sync_if_dirty t;
          let answered = ref [] in
          for u = 0 to n - 1 do
            for v = u + 1 to n - 1 do
              if bool_answer (Dispatch.handle t ~client (Wire.Query_sparsifier (u, v)))
              then answered := (u, v) :: !answered
            done
          done;
          let gdelta = Mspar_graph.Graph.of_edges ~n !answered in
          check_bool "G_delta is non-trivial" true
            (Mspar_graph.Graph.m gdelta > n);
          match Dispatch.handle t ~client Wire.Checksum with
          | Wire.Digest d ->
              check_bool "digest sparsifier = checksum of queried G_delta" true
                (Int64.equal d.Wire.sparsifier
                   (Mspar_graph.Graph.checksum gdelta))
          | _ -> Alcotest.fail "Checksum did not answer a Digest"))

(* At n = 2048 the oracle's edge-memo key of (0, 2053) is that of
   (1, 5): every query naming an id outside [0, n) must answer Error,
   and the valid pair must read the same before and after. *)
let test_dispatch_out_of_range () =
  with_dir (fun dir ->
      let config =
        {
          Mspar_dynamic.Durable.n = 2048;
          delta = 3;
          beta = 4;
          eps = 0.4;
          multiplier = 2.0;
          seed = 7;
        }
      in
      let durable = Mspar_dynamic.Durable.create ~sync_every:1 ~dir config in
      Fun.protect
        ~finally:(fun () -> Mspar_dynamic.Durable.close durable)
        (fun () ->
          let t = Dispatch.create ~metrics:(Metrics.create ()) durable in
          let client = Some 1 in
          (match
             Dispatch.handle t ~client (Wire.Insert { rid = 1; u = 1; v = 5 })
           with
          | Wire.Ack true -> Dispatch.sync_if_dirty t
          | _ -> Alcotest.fail "insert (1,5) not applied");
          let ask q = Dispatch.handle t ~client q in
          let out_of_range () =
            List.iter
              (fun q ->
                match ask q with
                | Wire.Error _ -> ()
                | _ -> Alcotest.fail "out-of-range query did not answer Error")
              [
                Wire.Query_edge (0, 2053);
                Wire.Query_sparsifier (0, 2053);
                Wire.Query_matched 2053;
              ]
          in
          let valid () =
            List.map
              (fun q -> bool_answer (ask q))
              [
                Wire.Query_edge (1, 5);
                Wire.Query_sparsifier (1, 5);
                Wire.Query_matched 1;
              ]
          in
          out_of_range ();
          let first = valid () in
          check_bool "(1,5) present, in G_delta and matched" true
            (first = [ true; true; true ]);
          out_of_range ();
          check_bool "valid answers unchanged" true (valid () = first)))

(* ------------------------------------------------------------------ *)
(* Server.run: the --replica-of flag must agree with the journal        *)
(* ------------------------------------------------------------------ *)

let test_role_mismatch_refused () =
  with_dir (fun dir ->
      let module Durable = Mspar_dynamic.Durable in
      let config =
        { Durable.n = 8; delta = 3; beta = 4; eps = 0.4; multiplier = 2.0; seed = 3 }
      in
      let primary =
        Durable.create ~sync_every:1 ~dir:(Filename.concat dir "p") config
      in
      let dir_r = Filename.concat dir "r" in
      let op_epoch, snapshot, wal_offset = Durable.bootstrap_payload primary in
      (match
         Durable.bootstrap_replica ~dir:dir_r
           ~config_bytes:(Durable.config_bytes primary) ~op_epoch ~wal_offset
           ~repl_epoch:(Durable.repl_epoch primary) ~snapshot
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bootstrap_replica: %s" e);
      let replica =
        match Durable.recover ~sync_every:1 dir_r with
        | Ok r -> r
        | Error e -> Alcotest.failf "replica recover: %s" e
      in
      Fun.protect
        ~finally:(fun () ->
          Durable.close primary;
          Durable.close replica)
        (fun () ->
          let addr = Wire.Unix_path (Filename.concat dir "s.sock") in
          let run ?replica_of durable =
            match Server.bind_listen addr with
            | Error e -> Alcotest.failf "bind: %s" e
            | Ok listen ->
                Server.run ?replica_of (Server.default_config addr) ~listen
                  ~durable
          in
          let refused what = function
            | Error _ -> ()
            | Ok () -> Alcotest.failf "%s was served" what
          in
          refused "primary dir started as a replica"
            (run ~replica_of:(Wire.Unix_path "/nonexistent/p.sock") primary);
          refused "replica dir started as a primary" (run replica)))

let () =
  Alcotest.run "mspar_server"
    [
      ( "wire",
        [
          Alcotest.test_case "request round-trips" `Quick
            test_request_roundtrip;
          Alcotest.test_case "response round-trips" `Quick
            test_response_roundtrip;
          Alcotest.test_case "hostile bodies" `Quick test_hostile_bodies;
          Alcotest.test_case "addr_of_string" `Quick test_addr_of_string;
        ] );
      ( "client",
        [ Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule ] );
      ( "dispatch",
        [
          Alcotest.test_case "read your writes" `Quick
            test_dispatch_read_your_writes;
          Alcotest.test_case "out-of-range queries answer Error" `Quick
            test_dispatch_out_of_range;
          Alcotest.test_case "digest sparsifier = queried G_delta" `Quick
            test_digest_matches_queries;
        ] );
      ( "server",
        [
          Alcotest.test_case "role mismatch refused" `Quick
            test_role_mismatch_refused;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_decoders_total;
            qcheck_request_roundtrip;
            qcheck_repl_response_roundtrip;
          ] );
    ]
