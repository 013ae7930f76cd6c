(* Replication fault harness: a real primary and a real hot-standby
   forked as separate processes, with the failure legs DESIGN.md §13
   promises —

   - failover: kill -9 the primary mid-stream, [Promote] the caught-up
     replica, rediscover it with [Client.connect_primary], replay the
     last rid (dedup makes the replay exactly-once), and require the
     promoted digest to equal an uncrashed in-process reference
     bit-for-bit over the acked window (zero acked-update loss);
   - catch-up: kill -9 the replica mid-stream, keep loading the primary,
     restart the replica over its surviving dir — it must re-handshake
     from its durable cursor and converge to the primary's digest;
   - fencing: a stale-epoch [Repl_hello] answers [Repl_fence] and a
     non-boundary offset answers [Error], both without disturbing the
     serving path;
   - lag: a follower that never reads accrues [repl_lag] in [Stats]
     while the primary stays fully responsive (slow consumers shed onto
     the replication out-queue, never onto the serve path);
   - redirect: a replica restarted with another replica as its upstream
     follows that replica's [Redirect] to the primary, catches up, and
     from then on names the primary in every [Redirect] it answers.

   One row per leg into bench_csv/serve-replication.csv (under --csv).
   Everything is seeded; the smoke variant runs the failover, fencing
   and redirect legs at reduced op counts. *)

open Mspar_prelude
open Mspar_server

let seed = 11
let span = 64

let gate name ok detail =
  if not ok then
    failwith (Printf.sprintf "serve-replication gate failed: %s (%s)" name detail)

let sock_addr sc tag =
  Wire.Unix_path (Serve_util.scratch_sock sc ("repl-" ^ tag))

let role c =
  match Client.request c Wire.Role with
  | Ok (Wire.Role_reply { primary; epoch; offset }) -> (primary, epoch, offset)
  | Ok _ -> failwith "serve-replication: Role answered a non-Role_reply"
  | Error msg -> failwith ("serve-replication: Role: " ^ msg)

let role_offset c =
  let _, _, offset = role c in
  offset

let stats c =
  match Client.request c Wire.Stats with
  | Ok (Wire.Stats_reply s) -> s
  | Ok _ -> failwith "serve-replication: Stats answered a non-Stats_reply"
  | Error msg -> failwith ("serve-replication: Stats: " ^ msg)

(* single in-flight update; anything but an Ack is fatal *)
let apply c ~rid op =
  let req =
    match op with
    | Serve_util.Ins (u, v) -> Wire.Insert { rid; u; v }
    | Serve_util.Del (u, v) -> Wire.Delete { rid; u; v }
  in
  match Client.request c req with
  | Ok (Wire.Ack _) -> ()
  | Ok _ -> failwith "serve-replication: update answered a non-Ack"
  | Error msg -> failwith ("serve-replication: update: " ^ msg)

(* catch-up barrier: poll the replica's Role offset (its durable cursor,
   in primary-WAL byte coordinates) until it reaches the primary's
   durable offset.  Replication is asynchronous — equality gates are
   only meaningful behind this barrier. *)
let await_catchup rc ~target =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    let offset = role_offset rc in
    if offset >= target then offset
    else if Unix.gettimeofday () > deadline then
      failwith
        (Printf.sprintf
           "serve-replication: replica stuck at offset %d (target %d)"
           offset target)
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let expect_exit_0 what status =
  gate (what ^ " drains to exit 0")
    (match status with Unix.WEXITED 0 -> true | _ -> false)
    (match status with
    | Unix.WEXITED c -> Printf.sprintf "exit %d" c
    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)

let leg_row ~leg ~ops ~acked ~replica_off ~primary_off ~fenced ~lag ~elapsed
    ~digest_equal =
  [
    leg;
    Table.cell_i ops;
    Table.cell_i acked;
    Table.cell_i replica_off;
    Table.cell_i primary_off;
    Table.cell_i fenced;
    Table.cell_i lag;
    Table.cell_f elapsed;
    Table.cell_b digest_equal;
  ]

(* ---- leg 1: primary kill -9, promote, client failover ---- *)

let failover_leg ~full =
  Serve_util.with_scratch @@ fun sc ->
  let count = if full then 2_000 else 300 in
  let rng = Rng.create seed in
  let ops = Serve_util.make_ops rng ~n:span ~count in
  let cfg = Serve_util.config ~n:span ~seed in
  let dir_p = Serve_util.scratch_dir sc "repl-failover-p" in
  let dir_r = Serve_util.scratch_dir sc "repl-failover-r" in
  let dir_ref = Serve_util.scratch_dir sc "repl-failover-ref" in
  let addr_p = sock_addr sc "failover-p"
  and addr_r = sock_addr sc "failover-r" in
  let t0 = Unix.gettimeofday () in
  (* snapshot_every small enough that Epoch records cross the wire: the
     replica must write its own snapshot blobs from the shipped stream *)
  let ppid =
    Serve_util.fork_server ~sync_every:1 ~snapshot_every:100 ~fresh:true
      ~dir:dir_p ~addr:addr_p cfg
  in
  let c = Serve_util.await addr_p in
  Serve_util.hello c 1;
  (* half the load lands before the replica exists — bootstrap has to
     carry real state, not an empty dir *)
  let half = count / 2 in
  for i = 0 to half - 1 do
    apply c ~rid:(i + 1) ops.(i)
  done;
  let rpid =
    Serve_util.fork_replica ~sync_every:1 ~fresh:true ~dir:dir_r ~addr:addr_r
      ~upstream:addr_p ()
  in
  let rc = Serve_util.await addr_r in
  for i = half to count - 1 do
    apply c ~rid:(i + 1) ops.(i)
  done;
  (* replica read scaling: point queries answer locally, updates bounce *)
  (match Client.request rc (Wire.Query_matched 0) with
  | Ok (Wire.Bool _) -> ()
  | Ok _ | Error _ -> failwith "serve-replication: replica point query failed");
  (match Client.request rc (Wire.Insert { rid = count + 50; u = 1; v = 2 }) with
  | Ok (Wire.Redirect hint) ->
      gate "redirect hint names the primary"
        (Wire.addr_of_string hint = Ok addr_p)
        hint
  | Ok _ | Error _ ->
      failwith "serve-replication: replica accepted an update");
  let primary_off = role_offset c in
  let replica_off = await_catchup rc ~target:primary_off in
  (* hard failover: no shutdown courtesy at all *)
  Serve_util.kill_server ppid;
  Client.close c;
  (match Client.request rc Wire.Promote with
  | Ok Wire.Ok -> ()
  | Ok _ | Error _ -> failwith "serve-replication: Promote failed");
  let is_primary, epoch, _ = role rc in
  gate "promoted replica is primary at epoch 1"
    (is_primary && epoch = 1)
    (Printf.sprintf "primary=%b epoch=%d" is_primary epoch);
  (* a peer from the dead primary's lineage must be fenced, not served *)
  let fenced =
    let pc =
      match Client.connect addr_r with
      | Ok pc -> pc
      | Error msg -> failwith ("serve-replication: fence probe: " ^ msg)
    in
    let r =
      match
        Client.request pc
          (Wire.Repl_hello { epoch = 0; offset = Journal.header_bytes })
      with
      | Ok (Wire.Repl_fence { epoch }) -> epoch = 1
      | Ok _ | Error _ -> false
    in
    Client.close pc;
    gate "stale-epoch hello is fenced" r "expected Repl_fence {epoch = 1}";
    1
  in
  (* the client walks the address list and rediscovers the primary *)
  let c2, where =
    match Client.connect_primary ~seed:17 [ addr_p; addr_r ] with
    | Ok x -> x
    | Error msg -> failwith ("serve-replication: connect_primary: " ^ msg)
  in
  gate "failover lands on the promoted replica" (where = addr_r) "wrong addr";
  Serve_util.hello c2 1;
  (* replay the last rid as a crashed client would: at-most-once dedup
     must absorb it, so the digest below stays on the reference *)
  apply c2 ~rid:count ops.(count - 1);
  let dg = Serve_util.digest c2 in
  let ref_dg = Serve_util.reference_digest ~dir:dir_ref ~client:1 cfg ops in
  gate "promoted digest equals uncrashed reference bit-for-bit"
    (Serve_util.digest_eq dg ref_dg)
    (Printf.sprintf "got %s want %s" (Serve_util.pp_digest dg)
       (Serve_util.pp_digest ref_dg));
  Client.close c2;
  expect_exit_0 "promoted replica" (Serve_util.stop_server rpid);
  leg_row ~leg:"failover" ~ops:count ~acked:count ~replica_off ~primary_off
    ~fenced ~lag:0
    ~elapsed:(Unix.gettimeofday () -. t0)
    ~digest_equal:true

(* ---- leg 2: replica kill -9 and catch-up over the surviving dir ---- *)

let catchup_leg ~full =
  Serve_util.with_scratch @@ fun sc ->
  let count = if full then 1_500 else 300 in
  let rng = Rng.create (seed + 1) in
  let ops = Serve_util.make_ops rng ~n:span ~count in
  let cfg = Serve_util.config ~n:span ~seed:(seed + 1) in
  let dir_p = Serve_util.scratch_dir sc "repl-catchup-p" in
  let dir_r = Serve_util.scratch_dir sc "repl-catchup-r" in
  let addr_p = sock_addr sc "catchup-p" and addr_r = sock_addr sc "catchup-r" in
  let t0 = Unix.gettimeofday () in
  let ppid =
    Serve_util.fork_server ~sync_every:1 ~fresh:true ~dir:dir_p ~addr:addr_p cfg
  in
  let c = Serve_util.await addr_p in
  Serve_util.hello c 1;
  let rpid =
    Serve_util.fork_replica ~sync_every:1 ~fresh:true ~dir:dir_r ~addr:addr_r
      ~upstream:addr_p ()
  in
  let rc = Serve_util.await addr_r in
  let third = count / 3 in
  for i = 0 to third - 1 do
    apply c ~rid:(i + 1) ops.(i)
  done;
  ignore (await_catchup rc ~target:(role_offset c));
  Client.close rc;
  (* kill -9 mid-stream: the replica's next restart must resume from the
     cursor its own fsynced WAL implies, not re-bootstrap *)
  Serve_util.kill_server rpid;
  for i = third to (2 * third) - 1 do
    apply c ~rid:(i + 1) ops.(i)
  done;
  let rpid =
    Serve_util.fork_replica ~sync_every:1 ~fresh:false ~dir:dir_r ~addr:addr_r
      ~upstream:addr_p ()
  in
  let rc = Serve_util.await addr_r in
  for i = 2 * third to count - 1 do
    apply c ~rid:(i + 1) ops.(i)
  done;
  let primary_off = role_offset c in
  let replica_off = await_catchup rc ~target:primary_off in
  let dg_p = Serve_util.digest c in
  let dg_r = Serve_util.digest rc in
  gate "caught-up replica digest equals primary bit-for-bit"
    (Serve_util.digest_eq dg_p dg_r)
    (Printf.sprintf "primary %s replica %s" (Serve_util.pp_digest dg_p)
       (Serve_util.pp_digest dg_r));
  Client.close rc;
  expect_exit_0 "replica" (Serve_util.stop_server rpid);
  Client.close c;
  expect_exit_0 "primary" (Serve_util.stop_server ppid);
  leg_row ~leg:"catchup" ~ops:count ~acked:count ~replica_off ~primary_off
    ~fenced:0 ~lag:0
    ~elapsed:(Unix.gettimeofday () -. t0)
    ~digest_equal:true

(* ---- leg 3: fencing probes against a lone primary ---- *)

let fence_leg () =
  Serve_util.with_scratch @@ fun sc ->
  let count = 100 in
  let rng = Rng.create (seed + 2) in
  let ops = Serve_util.make_ops rng ~n:span ~count in
  let cfg = Serve_util.config ~n:span ~seed:(seed + 2) in
  let dir_p = Serve_util.scratch_dir sc "repl-fence-p" in
  let addr_p = sock_addr sc "fence-p" in
  let t0 = Unix.gettimeofday () in
  let ppid =
    Serve_util.fork_server ~sync_every:1 ~fresh:true ~dir:dir_p ~addr:addr_p cfg
  in
  let c = Serve_util.await addr_p in
  Serve_util.hello c 1;
  Array.iteri (fun i op -> apply c ~rid:(i + 1) op) ops;
  let primary_off = role_offset c in
  (* stale epoch: refused with the primary's epoch, connection closed *)
  (let pc =
     match Client.connect addr_p with
     | Ok pc -> pc
     | Error msg -> failwith ("serve-replication: fence probe: " ^ msg)
   in
   (match
      Client.request pc
        (Wire.Repl_hello { epoch = 3; offset = Journal.header_bytes })
    with
   | Ok (Wire.Repl_fence { epoch }) ->
       gate "fence carries the primary's epoch" (epoch = 0)
         (Printf.sprintf "epoch=%d" epoch)
   | Ok _ | Error _ ->
       failwith "serve-replication: stale-epoch hello not fenced");
   Client.close pc);
  (* right epoch, impossible offset: a protocol error, not a fence *)
  (let pc =
     match Client.connect addr_p with
     | Ok pc -> pc
     | Error msg -> failwith ("serve-replication: offset probe: " ^ msg)
   in
   (match
      Client.request pc
        (Wire.Repl_hello { epoch = 0; offset = primary_off + 7 })
    with
   | Ok (Wire.Error _) -> ()
   | Ok (Wire.Repl_fence _) ->
       failwith "serve-replication: bad offset must not read as a fence"
   | Ok _ | Error _ ->
       failwith "serve-replication: bad-offset hello not refused");
   Client.close pc);
  let s = stats c in
  gate "fence counted in Stats"
    (s.Wire.repl_fenced >= 1)
    (Printf.sprintf "repl_fenced=%d" s.Wire.repl_fenced);
  (* the serving path never noticed *)
  Serve_util.expect_ok "ping" (Client.request c Wire.Ping);
  Client.close c;
  expect_exit_0 "primary" (Serve_util.stop_server ppid);
  leg_row ~leg:"fence" ~ops:count ~acked:count ~replica_off:0 ~primary_off
    ~fenced:1 ~lag:0
    ~elapsed:(Unix.gettimeofday () -. t0)
    ~digest_equal:true

(* ---- leg 4: a never-reading follower accrues lag, primary unharmed ---- *)

let lag_leg ~full =
  Serve_util.with_scratch @@ fun sc ->
  let count = if full then 3_000 else 500 in
  let rng = Rng.create (seed + 3) in
  let ops = Serve_util.make_ops rng ~n:span ~count in
  let cfg = Serve_util.config ~n:span ~seed:(seed + 3) in
  let dir_p = Serve_util.scratch_dir sc "repl-lag-p" in
  let addr_p = sock_addr sc "lag-p" in
  let t0 = Unix.gettimeofday () in
  let ppid =
    Serve_util.fork_server ~sync_every:1 ~fresh:true ~dir:dir_p ~addr:addr_p cfg
  in
  let c = Serve_util.await addr_p in
  Serve_util.hello c 1;
  apply c ~rid:1 ops.(0);
  (* register as a follower from the first record boundary, then go
     silent: never read, never ack *)
  let laggard =
    match Client.connect addr_p with
    | Ok l -> l
    | Error msg -> failwith ("serve-replication: laggard: " ^ msg)
  in
  (match
     Client.request laggard
       (Wire.Repl_hello { epoch = 0; offset = Journal.header_bytes })
   with
  | Ok Wire.Ok -> ()
  | Ok _ | Error _ -> failwith "serve-replication: laggard hello refused");
  for i = 1 to count - 1 do
    apply c ~rid:(i + 1) ops.(i)
  done;
  let s = stats c in
  gate "laggard registered as a follower"
    (s.Wire.repl_followers >= 1)
    (Printf.sprintf "repl_followers=%d" s.Wire.repl_followers);
  gate "unacked shipping shows up as repl_lag"
    (s.Wire.repl_lag > 0)
    (Printf.sprintf "repl_lag=%d" s.Wire.repl_lag);
  (* responsiveness: the full load above was acked with the laggard
     attached the whole time; one more round-trip for good measure *)
  Serve_util.expect_ok "ping" (Client.request c Wire.Ping);
  let primary_off = role_offset c in
  Client.close laggard;
  Client.close c;
  expect_exit_0 "primary" (Serve_util.stop_server ppid);
  leg_row ~leg:"lag" ~ops:count ~acked:count ~replica_off:0 ~primary_off
    ~fenced:0 ~lag:s.Wire.repl_lag
    ~elapsed:(Unix.gettimeofday () -. t0)
    ~digest_equal:true

(* ---- leg 5: a replica of a replica re-points at the primary ---- *)

let redirect_leg ~full =
  Serve_util.with_scratch @@ fun sc ->
  let count = if full then 1_000 else 200 in
  let rng = Rng.create (seed + 4) in
  let ops = Serve_util.make_ops rng ~n:span ~count in
  let cfg = Serve_util.config ~n:span ~seed:(seed + 4) in
  let dir_p = Serve_util.scratch_dir sc "repl-redirect-p" in
  let dir_r1 = Serve_util.scratch_dir sc "repl-redirect-r1" in
  let dir_r2 = Serve_util.scratch_dir sc "repl-redirect-r2" in
  let addr_p = sock_addr sc "redirect-p"
  and addr_r1 = sock_addr sc "redirect-r1"
  and addr_r2 = sock_addr sc "redirect-r2" in
  let t0 = Unix.gettimeofday () in
  let ppid =
    Serve_util.fork_server ~sync_every:1 ~fresh:true ~dir:dir_p ~addr:addr_p cfg
  in
  let c = Serve_util.await addr_p in
  Serve_util.hello c 1;
  let half = count / 2 in
  for i = 0 to half - 1 do
    apply c ~rid:(i + 1) ops.(i)
  done;
  let r1pid =
    Serve_util.fork_replica ~sync_every:1 ~fresh:true ~dir:dir_r1
      ~addr:addr_r1 ~upstream:addr_p ()
  in
  let r1c = Serve_util.await addr_r1 in
  ignore (await_catchup r1c ~target:(role_offset c));
  Client.close r1c;
  (* R2 bootstraps from the primary, then comes back as a replica of R1.
     The Role round trip means R2 is serving, so its SIGTERM handler is
     in place. *)
  let r2pid =
    Serve_util.fork_replica ~sync_every:1 ~fresh:true ~dir:dir_r2
      ~addr:addr_r2 ~upstream:addr_p ()
  in
  (let r2c = Serve_util.await addr_r2 in
   ignore (role_offset r2c);
   Client.close r2c);
  expect_exit_0 "bootstrapped replica" (Serve_util.stop_server r2pid);
  let r2pid =
    Serve_util.fork_replica ~sync_every:1 ~fresh:false ~dir:dir_r2
      ~addr:addr_r2 ~upstream:addr_r1 ()
  in
  let rc = Serve_util.await addr_r2 in
  for i = half to count - 1 do
    apply c ~rid:(i + 1) ops.(i)
  done;
  let primary_off = role_offset c in
  let replica_off = await_catchup rc ~target:primary_off in
  gate "re-pointed replica caught up with the primary"
    (replica_off = primary_off)
    (Printf.sprintf "replica %d primary %d" replica_off primary_off);
  let names_primary what resp =
    match resp with
    | Ok (Wire.Redirect hint) ->
        gate (what ^ " redirect names the primary")
          (Wire.addr_of_string hint = Ok addr_p)
          hint
    | Ok _ | Error _ ->
        failwith ("serve-replication: " ^ what ^ " was not redirected")
  in
  names_primary "update"
    (Client.request rc (Wire.Insert { rid = count + 1; u = 1; v = 2 }));
  (let pc = Serve_util.await addr_r2 in
   names_primary "Repl_hello"
     (Client.request pc
        (Wire.Repl_hello { epoch = 0; offset = Journal.header_bytes }));
   Client.close pc);
  let dg_p = Serve_util.digest c in
  let dg_r = Serve_util.digest rc in
  gate "re-pointed replica digest equals primary bit-for-bit"
    (Serve_util.digest_eq dg_p dg_r)
    (Printf.sprintf "primary %s replica %s" (Serve_util.pp_digest dg_p)
       (Serve_util.pp_digest dg_r));
  Client.close rc;
  expect_exit_0 "re-pointed replica" (Serve_util.stop_server r2pid);
  expect_exit_0 "replica" (Serve_util.stop_server r1pid);
  Client.close c;
  expect_exit_0 "primary" (Serve_util.stop_server ppid);
  leg_row ~leg:"redirect" ~ops:count ~acked:count ~replica_off ~primary_off
    ~fenced:0 ~lag:0
    ~elapsed:(Unix.gettimeofday () -. t0)
    ~digest_equal:true

let run ?(smoke = false) () =
  Serve_util.ignore_sigpipe ();
  let full = not smoke in
  let t =
    Table.create
      ~title:
        "serve-replication (hot-standby WAL shipping: kill -9 failover \
         with promote + client rediscovery, replica crash catch-up, \
         epoch fencing, slow-follower lag, replica-of-replica redirect; \
         acked-window digests bit-for-bit)"
      ~columns:
        [
          "leg"; "ops"; "acked"; "replica-off"; "primary-off"; "fenced";
          "lag"; "elapsed-s"; "digest-equal";
        ]
  in
  Table.add_row t (failover_leg ~full);
  if full then Table.add_row t (catchup_leg ~full);
  Table.add_row t (fence_leg ());
  if full then Table.add_row t (lag_leg ~full);
  Table.add_row t (redirect_leg ~full);
  Experiments.emit t

let smoke () = run ~smoke:true ()
