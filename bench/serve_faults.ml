(* Socket fault-injection harness for `mspar serve`.

   Protocol legs poke a live server with hostile byte streams — flipped
   CRCs, oversized frames, junk, truncation, slowloris dribble — and
   assert both halves of the contract: the offender is dropped, and a
   healthy connection opened next to it keeps getting served.

   Crash legs kill -9 the server (via the seeded --crash-after-ops hook,
   which _exit(137)s after the Nth applied update, before the ack is
   flushed), restart it in recovery mode, resend the un-acked request id
   over a fresh connection, and require the final Checksum digest to
   equal an uncrashed in-process reference bit-for-bit.

   The drain leg is the serve-smoke: SIGTERM mid-load must exit 0,
   leave an audit-clean journal, and lose zero acknowledged updates. *)

open Mspar_prelude
open Mspar_dynamic
open Mspar_server

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mspar-%s-%d.sock" name (Unix.getpid ()))

(* ---------- raw socket access (bypasses Client's framing) ---------- *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let raw_send fd s =
  let b = Bytes.of_string s in
  let n = ref 0 in
  while !n < Bytes.length b do
    n := !n + Unix.write fd b !n (Bytes.length b - !n)
  done

(* True iff the peer has closed (read returns 0 / reset) within timeout. *)
let closed_by_server ?(timeout = 2.0) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | _ -> go ()
          | exception
              Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              true)
  in
  (try go () with Unix.Unix_error (Unix.EINTR, _, _) -> false)

let frame_of req =
  let body = Buffer.create 32 in
  Wire.encode_request body req;
  let out = Buffer.create 64 in
  Codec.Frames.encode out (Buffer.contents body);
  Buffer.contents out

let healthy_ping addr what =
  let c = Serve_util.await addr in
  (match Client.request c Wire.Ping with
  | Ok Wire.Ok -> ()
  | Ok _ | Error _ ->
      failwith (what ^ ": healthy client no longer served"));
  Client.close c

(* ------------------------------ legs ------------------------------ *)

type leg = { name : string; run : unit -> unit }

let protocol_legs () =
  let dir = Serve_util.fresh_dir "serve-faults-proto" in
  let path = sock_path "faults-proto" in
  let addr = Wire.Unix_path path in
  let cfg = Serve_util.config ~n:64 ~seed:3 in
  (* small limits so the hostile legs trip them quickly *)
  let tune c =
    {
      c with
      Server.max_frame = 256;
      Server.frame_timeout = 0.3;
      Server.idle_timeout = 10.0;
    }
  in
  let pid = Serve_util.fork_server ~tune ~fresh:true ~dir ~addr cfg in
  (Serve_util.await addr |> fun c -> Client.close c);
  let legs =
    [
      {
        name = "bad-crc";
        run =
          (fun () ->
            let fd = raw_connect path in
            let f = Bytes.of_string (frame_of Wire.Ping) in
            let last = Bytes.length f - 1 in
            Bytes.set f last (Char.chr (Char.code (Bytes.get f last) lxor 0xFF));
            raw_send fd (Bytes.to_string f);
            assert (closed_by_server fd);
            Unix.close fd;
            healthy_ping addr "bad-crc");
      };
      {
        name = "oversized-frame";
        run =
          (fun () ->
            let fd = raw_connect path in
            let out = Buffer.create 1024 in
            (* body larger than the server's max_frame of 256 *)
            Codec.Frames.encode out (String.make 1024 'x');
            raw_send fd (Buffer.contents out);
            assert (closed_by_server fd);
            Unix.close fd;
            healthy_ping addr "oversized-frame");
      };
      {
        name = "junk-bytes";
        run =
          (fun () ->
            List.iter
              (fun junk ->
                let fd = raw_connect path in
                raw_send fd junk;
                assert (closed_by_server fd);
                Unix.close fd;
                healthy_ping addr "junk-bytes")
              [
                (* nine 0xFF bytes: an over-long uvarint, unambiguous junk *)
                String.make 16 '\xff';
                (* a complete 9-byte length with bit 62 set: a negative
                   body length unless the reader refuses it *)
                String.make 8 '\x80' ^ "\x40" ^ "xxxx";
              ]);
      };
      {
        name = "truncated-frame-disconnect";
        run =
          (fun () ->
            let fd = raw_connect path in
            let f = frame_of (Wire.Hello 9) in
            raw_send fd (String.sub f 0 (String.length f - 2));
            Unix.close fd;
            (* nothing to assert on the dead socket — the server must
               simply still be there for everyone else *)
            healthy_ping addr "truncated-frame-disconnect");
      };
      {
        name = "slowloris";
        run =
          (fun () ->
            let fd = raw_connect path in
            let f = frame_of (Wire.Hello 9) in
            (* one byte, then stall past frame_timeout = 0.3 s *)
            raw_send fd (String.sub f 0 1);
            assert (closed_by_server ~timeout:3.0 fd);
            Unix.close fd;
            healthy_ping addr "slowloris");
      };
    ]
  in
  (legs, fun () ->
    match Serve_util.stop_server pid with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "protocol server did not drain cleanly")

let busy_leg () =
  {
    name = "busy-backpressure";
    run =
      (fun () ->
        let dir = Serve_util.fresh_dir "serve-faults-busy" in
        let path = sock_path "faults-busy" in
        let addr = Wire.Unix_path path in
        let cfg = Serve_util.config ~n:64 ~seed:5 in
        let tune c = { c with Server.max_pending = 1 } in
        let pid = Serve_util.fork_server ~tune ~fresh:true ~dir ~addr cfg in
        (Serve_util.await addr |> fun c -> Client.close c);
        (* all 8 pings in ONE write syscall so they land in a single
           server read — with max_pending = 1 that round must serve one
           and answer Busy for the rest; frame-by-frame sends could race
           the 50 ms rounds and never trip the budget *)
        let burst = 8 in
        let one = frame_of Wire.Ping in
        let fd = raw_connect path in
        raw_send fd (String.concat "" (List.init burst (fun _ -> one)));
        let frames = Codec.Frames.create () in
        let chunk = Bytes.create 4096 in
        let oks = ref 0 and busy = ref 0 in
        let got = ref 0 in
        while !got < burst do
          (match Codec.Frames.next frames with
          | `Frame body -> (
              incr got;
              match Wire.decode_response body with
              | Ok Wire.Ok -> incr oks
              | Ok (Wire.Busy ms) ->
                  assert (ms > 0);
                  incr busy
              | Ok _ | Error _ -> failwith "busy: unexpected response")
          | `Corrupt msg -> failwith ("busy: corrupt stream: " ^ msg)
          | `Need_more -> (
              match Unix.select [ fd ] [] [] 5.0 with
              | [], _, _ -> failwith "busy: timeout"
              | _ -> (
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> failwith "busy: server hung up"
                  | n ->
                      Codec.Frames.feed frames (Bytes.sub_string chunk 0 n))))
        done;
        assert (!oks >= 1 && !busy >= 1 && !oks + !busy = burst);
        Unix.close fd;
        match Serve_util.stop_server pid with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith "busy server did not drain cleanly");
  }

(* One crash leg: run [ops] through a server that kill -9s itself after
   [crash_after] applied updates, restart in recovery mode, resend the
   lost rid, and compare the final digest against the uncrashed
   reference bit-for-bit. *)
let crash_leg ~sync_every ~crash_after ~seed =
  {
    name = Printf.sprintf "crash-k%d-sync%d" crash_after sync_every;
    run =
      (fun () ->
        let n = 64 and count = 600 and client = 7 in
        let cfg = Serve_util.config ~n ~seed in
        let rng = Rng.create (seed * 131) in
        let ops = Serve_util.make_ops rng ~n ~count in
        let dir =
          Serve_util.fresh_dir (Printf.sprintf "serve-crash-%d" crash_after)
        in
        let path = sock_path (Printf.sprintf "faults-crash-%d" crash_after) in
        let addr = Wire.Unix_path path in
        let pid =
          ref
            (Serve_util.fork_server ~sync_every ~fresh:true ~dir ~addr
               ~crash_after_ops:crash_after cfg)
        in
        let conn = ref (Serve_util.await addr) in
        Serve_util.hello !conn client;
        let crashes = ref 0 in
        let req_of i op =
          let rid = i + 1 in
          match op with
          | Serve_util.Ins (u, v) -> Wire.Insert { rid; u; v }
          | Serve_util.Del (u, v) -> Wire.Delete { rid; u; v }
        in
        let rec deliver i op =
          match Client.request !conn (req_of i op) with
          | Ok (Wire.Ack _) -> ()
          | Ok (Wire.Busy ms) ->
              Unix.sleepf (float_of_int ms /. 1000.);
              deliver i op
          | Ok _ -> failwith "crash leg: unexpected response"
          | Error _ ->
              (* server died mid-request: reap the 137, restart in
                 recovery mode, reconnect, resend the SAME rid *)
              incr crashes;
              (match Unix.waitpid [] !pid with
              | _, Unix.WEXITED 137 -> ()
              | _ -> failwith "crash leg: expected _exit 137");
              Client.close !conn;
              pid :=
                Serve_util.fork_server ~sync_every ~fresh:false ~dir ~addr cfg;
              conn := Serve_util.await addr;
              Serve_util.hello !conn client;
              deliver i op
        in
        Array.iteri deliver ops;
        assert (!crashes = 1);
        let got = Serve_util.digest !conn in
        Client.close !conn;
        (match Serve_util.stop_server !pid with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith "crash leg: recovered server did not drain cleanly");
        let ref_dir =
          Serve_util.fresh_dir (Printf.sprintf "serve-crash-ref-%d" crash_after)
        in
        let expect = Serve_util.reference_digest ~dir:ref_dir ~client cfg ops in
        if not (Serve_util.digest_eq got expect) then
          failwith
            (Printf.sprintf "crash leg digest mismatch: got %s, want %s"
               (Serve_util.pp_digest got)
               (Serve_util.pp_digest expect)));
  }

(* serve-smoke: SIGTERM mid-load → exit 0, audit-clean journal, zero
   acknowledged-update loss (recovered state must extend the acked
   prefix by only the in-flight suffix). *)
let drain_leg () =
  {
    name = "sigterm-drain";
    run =
      (fun () ->
        let n = 64 and count = 400 and client = 3 and seed = 11 in
        let cfg = Serve_util.config ~n ~seed in
        let rng = Rng.create (seed * 977) in
        let ops = Serve_util.make_ops rng ~n ~count in
        let dir = Serve_util.fresh_dir "serve-drain" in
        let path = sock_path "faults-drain" in
        let addr = Wire.Unix_path path in
        let pid =
          Serve_util.fork_server ~sync_every:4 ~fresh:true ~dir ~addr cfg
        in
        let conn = Serve_util.await addr in
        Serve_util.hello conn client;
        let acked = ref 0 and sent = ref 0 in
        (try
           Array.iteri
             (fun i op ->
               let rid = i + 1 in
               let req =
                 match op with
                 | Serve_util.Ins (u, v) -> Wire.Insert { rid; u; v }
                 | Serve_util.Del (u, v) -> Wire.Delete { rid; u; v }
               in
               sent := rid;
               let rec deliver () =
                 match Client.request conn req with
                 | Ok (Wire.Ack _) -> acked := rid
                 | Ok Wire.Draining | Error _ -> raise Exit
                 | Ok (Wire.Busy ms) ->
                     Unix.sleepf (float_of_int ms /. 1000.);
                     deliver ()
                 | Ok _ -> failwith "drain leg: unexpected response"
               in
               deliver ();
               (* mid-load, not before and not after: fire the TERM *)
               if rid = 150 then Unix.kill pid Sys.sigterm)
             ops
         with Exit -> ());
        Client.close conn;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, _ -> failwith "drain leg: server did not exit 0 on SIGTERM");
        (* journal must recover, audit clean, with every acked update *)
        (match Durable.recover dir with
        | Error msg -> failwith ("drain leg: recover: " ^ msg)
        | Ok d ->
            (match Durable.audit_now d with
            | [] -> ()
            | problems ->
                failwith
                  ("drain leg: audit: " ^ String.concat "; " problems));
            let got = Dispatch.digest d in
            Durable.close d;
            (* extension equivalence: the recovered state equals the
               reference after ops 1..k for exactly one k in
               [acked, sent] — acked updates can never be lost, and
               nothing past the in-flight suffix can appear *)
            let ref_dir = Serve_util.fresh_dir "serve-drain-ref" in
            let rd = Durable.create ~sync_every:1 ~dir:ref_dir cfg in
            let matched = ref None in
            Array.iteri
              (fun i op ->
                let rid = i + 1 in
                if rid <= !sent then begin
                  Serve_util.apply_req rd ~client ~rid op;
                  if rid >= !acked && !matched = None then
                    if Serve_util.digest_eq got (Dispatch.digest rd)
                    then matched := Some rid
                end)
              ops;
            Durable.close rd;
            (match !matched with
            | Some _ -> ()
            | None ->
                failwith
                  (Printf.sprintf
                     "drain leg: recovered state (%s) matches no prefix in \
                      [%d,%d]"
                     (Serve_util.pp_digest got) !acked !sent)));
        (* the drain also snapshots; make sure one landed *)
        let has_snap =
          Array.exists
            (fun f -> String.length f >= 5 && String.sub f 0 5 = "snap-")
            (Sys.readdir dir)
        in
        assert has_snap);
  }

let run_legs legs =
  let t = Table.create ~title:"serve-faults (socket fault injection)"
      ~columns:[ "leg"; "result" ] in
  List.iter
    (fun leg ->
      Printf.printf "  serve-faults: %s...%!" leg.name;
      leg.run ();
      Printf.printf " ok\n%!";
      Table.add_row t [ leg.name; "ok" ])
    legs;
  Experiments.emit t

(* Full sweep: protocol legs + busy + three seeded crash legs + drain. *)
let run () =
  Serve_util.ignore_sigpipe ();
  let proto, stop_proto = protocol_legs () in
  run_legs
    (proto
    @ [ busy_leg () ]
    @ [
        crash_leg ~sync_every:1 ~crash_after:50 ~seed:21;
        crash_leg ~sync_every:64 ~crash_after:200 ~seed:22;
        crash_leg ~sync_every:1 ~crash_after:450 ~seed:23;
      ]
    @ [ drain_leg () ]);
  stop_proto ()

(* serve-faults-smoke: one of each family, fast enough for runtest. *)
let smoke () =
  Serve_util.ignore_sigpipe ();
  let proto, stop_proto = protocol_legs () in
  let quick =
    List.filter (fun l -> l.name = "bad-crc" || l.name = "junk-bytes") proto
  in
  run_legs
    (quick @ [ busy_leg (); crash_leg ~sync_every:4 ~crash_after:60 ~seed:29 ]);
  stop_proto ()

(* serve-smoke: just the SIGTERM drain contract. *)
let drain_smoke () =
  Serve_util.ignore_sigpipe ();
  run_legs [ drain_leg () ]
