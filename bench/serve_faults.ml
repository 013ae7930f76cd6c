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

type leg = { name : string; run : Serve_util.scratch -> unit }

(* The protocol legs share one server, whose dir and socket live in the
   caller's scratch scope. *)
let protocol_legs sc =
  let dir = Serve_util.scratch_dir sc "serve-faults-proto" in
  let path = Serve_util.scratch_sock sc "faults-proto" in
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
          (fun _ ->
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
          (fun _ ->
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
          (fun _ ->
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
          (fun _ ->
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
          (fun _ ->
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

(* Read [count] reply frames off a raw connection, in order. *)
let read_replies fd count =
  let frames = Codec.Frames.create () in
  let chunk = Bytes.create 4096 in
  let rec go acc got =
    if got = count then List.rev acc
    else
      match Codec.Frames.next frames with
      | `Frame body -> (
          match Wire.decode_response body with
          | Ok r -> go (r :: acc) (got + 1)
          | Error msg -> failwith ("undecodable reply: " ^ msg))
      | `Corrupt msg -> failwith ("corrupt reply stream: " ^ msg)
      | `Need_more -> (
          match Unix.select [ fd ] [] [] 5.0 with
          | [], _, _ ->
              failwith (Printf.sprintf "timeout after %d of %d replies" got count)
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> failwith "server hung up"
              | n ->
                  Codec.Frames.feed frames (Bytes.sub_string chunk 0 n);
                  go acc got))
  in
  go [] 0

(* Pipelined windows, on the default server config: a client that writes
   many updates before reading any reply must get every one acked and
   applied.  A refused update in the middle of a window would let a
   later rid raise the at-most-once high-water mark past it, and its
   resend would then be acked as a duplicate without ever being applied. *)
let pipeline_leg () =
  {
    name = "pipelined-window";
    run =
      (fun sc ->
        let dir = Serve_util.scratch_dir sc "serve-faults-pipeline" in
        let path = Serve_util.scratch_sock sc "faults-pipeline" in
        let addr = Wire.Unix_path path in
        let cfg = Serve_util.config ~n:256 ~seed:5 in
        let pid = Serve_util.fork_server ~fresh:true ~dir ~addr cfg in
        (Serve_util.await addr |> fun c -> Client.close c);
        (* edge [k] of the leg: distinct for every k < 64 * 192 *)
        let edge k = (k mod 64, 64 + (k / 64)) in
        let hello client = frame_of (Wire.Hello client) in
        (* [count] inserts, rids from [rid], on the edges from [first] *)
        let inserts ~rid ~first count =
          String.concat ""
            (List.init count (fun i ->
                 let u, v = edge (first + i) in
                 frame_of (Wire.Insert { rid = rid + i; u; v })))
        in
        (* the writes go out 100 ms apart, so each lands in its own server
           read, and no reply is read before the last one is out *)
        let case what ~updates writes =
          let fd = raw_connect path in
          List.iteri
            (fun i w ->
              if i > 0 then Unix.sleepf 0.1;
              raw_send fd w)
            writes;
          let replies = read_replies fd (1 + updates) in
          Unix.close fd;
          let acked =
            List.length
              (List.filter (function Wire.Ack true -> true | _ -> false) replies)
          in
          match replies with
          | Wire.Ok :: _ when acked = updates -> ()
          | _ ->
              failwith
                (Printf.sprintf "pipelined-window %s: %d of %d updates acked" what
                   acked updates)
        in
        case "two windows" ~updates:400
          [
            hello 1 ^ inserts ~rid:1 ~first:0 200;
            inserts ~rid:201 ~first:200 200;
          ];
        let burst = hello 2 ^ inserts ~rid:1 ~first:400 500 in
        (* longer than the server's 4 KiB read, so it spans two rounds *)
        assert (String.length burst > 4096);
        case "burst" ~updates:500 [ burst ];
        case "two writes" ~updates:2
          [ hello 3 ^ inserts ~rid:1 ~first:900 1; inserts ~rid:2 ~first:901 1 ];
        let total = 902 in
        let c = Serve_util.await addr in
        let missing = ref 0 in
        for k = 0 to total - 1 do
          let u, v = edge k in
          match Client.request c (Wire.Query_edge (u, v)) with
          | Ok (Wire.Bool true) -> ()
          | Ok (Wire.Bool false) -> incr missing
          | Ok _ | Error _ -> failwith "pipelined-window: Query_edge failed"
        done;
        let stats =
          match Client.request c Wire.Stats with
          | Ok (Wire.Stats_reply s) -> s
          | Ok _ | Error _ -> failwith "pipelined-window: Stats failed"
        in
        Client.close c;
        if !missing > 0 then
          failwith
            (Printf.sprintf "pipelined-window: %d of %d acked edges absent"
               !missing total);
        if stats.Wire.busy_rejections <> 0 || stats.Wire.ops_applied <> total
        then
          failwith
            (Printf.sprintf
               "pipelined-window: busy_rejections %d, ops_applied %d of %d"
               stats.Wire.busy_rejections stats.Wire.ops_applied total);
        match Serve_util.stop_server pid with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith "pipelined-window server did not drain cleanly");
  }

(* One crash leg: run [ops] through a server that kill -9s itself after
   [crash_after] applied updates, restart in recovery mode, resend the
   lost rid, and compare the final digest against the uncrashed
   reference bit-for-bit. *)
let crash_leg ~sync_every ~crash_after ~seed =
  {
    name = Printf.sprintf "crash-k%d-sync%d" crash_after sync_every;
    run =
      (fun sc ->
        let n = 64 and count = 600 and client = 7 in
        let cfg = Serve_util.config ~n ~seed in
        let rng = Rng.create (seed * 131) in
        let ops = Serve_util.make_ops rng ~n ~count in
        let dir =
          Serve_util.scratch_dir sc
            (Printf.sprintf "serve-crash-%d" crash_after)
        in
        let path =
          Serve_util.scratch_sock sc
            (Printf.sprintf "faults-crash-%d" crash_after)
        in
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
          | Ok _ -> failwith "crash leg: unexpected response"
          | Error _ ->
              (* server died mid-request: reap the 137, restart in
                 recovery mode, reconnect, resend the SAME rid *)
              incr crashes;
              (match Serve_util.wait_server !pid with
              | Unix.WEXITED 137 -> ()
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
          Serve_util.scratch_dir sc
            (Printf.sprintf "serve-crash-ref-%d" crash_after)
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
      (fun sc ->
        let n = 64 and count = 400 and client = 3 and seed = 11 in
        let cfg = Serve_util.config ~n ~seed in
        let rng = Rng.create (seed * 977) in
        let ops = Serve_util.make_ops rng ~n ~count in
        let dir = Serve_util.scratch_dir sc "serve-drain" in
        let path = Serve_util.scratch_sock sc "faults-drain" in
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
               (match Client.request conn req with
               | Ok (Wire.Ack _) -> acked := rid
               | Ok Wire.Draining | Error _ -> raise Exit
               | Ok _ -> failwith "drain leg: unexpected response");
               (* mid-load, not before and not after: fire the TERM *)
               if rid = 150 then Unix.kill pid Sys.sigterm)
             ops
         with Exit -> ());
        Client.close conn;
        (match Serve_util.wait_server pid with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith "drain leg: server did not exit 0 on SIGTERM");
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
            let ref_dir = Serve_util.scratch_dir sc "serve-drain-ref" in
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
      Serve_util.with_scratch leg.run;
      Printf.printf " ok\n%!";
      Table.add_row t [ leg.name; "ok" ])
    legs;
  Experiments.emit t

(* Full sweep: protocol legs + pipelined windows + three seeded crash
   legs + drain. *)
let run () =
  Serve_util.ignore_sigpipe ();
  Serve_util.with_scratch (fun sc ->
      let proto, stop_proto = protocol_legs sc in
      run_legs
        (proto
        @ [ pipeline_leg () ]
        @ [
            crash_leg ~sync_every:1 ~crash_after:50 ~seed:21;
            crash_leg ~sync_every:64 ~crash_after:200 ~seed:22;
            crash_leg ~sync_every:1 ~crash_after:450 ~seed:23;
          ]
        @ [ drain_leg () ]);
      stop_proto ())

(* serve-faults-smoke: one of each family, fast enough for runtest. *)
let smoke () =
  Serve_util.ignore_sigpipe ();
  Serve_util.with_scratch (fun sc ->
      let proto, stop_proto = protocol_legs sc in
      let quick =
        List.filter (fun l -> l.name = "bad-crc" || l.name = "junk-bytes") proto
      in
      run_legs
        (quick
        @ [ pipeline_leg (); crash_leg ~sync_every:4 ~crash_after:60 ~seed:29 ]);
      stop_proto ())

(* serve-smoke: just the SIGTERM drain contract. *)
let drain_smoke () =
  Serve_util.ignore_sigpipe ();
  run_legs [ drain_leg () ]
